//! Differential test of [`Network::probe_round`] against the same legs
//! sent one by one through [`Network::send`] and the same FIFO clamp:
//! every leg's arrival, every clamp call in order, the link state left
//! behind, and every exported counter must agree.

use stashdir_common::{Cycle, DetRng, NodeId, StatSink};
use stashdir_noc::{Mesh, Network, NocConfig, Packet};
use stashdir_protocol::{CONTROL_FLITS, DATA_FLITS};

const PROBE: Packet = Packet::new(CONTROL_FLITS, "discovery");
const ACK: Packet = Packet::new(CONTROL_FLITS, "ack");
const DATA: Packet = Packet::new(DATA_FLITS, "data");

/// A per-channel FIFO clamp, as the simulator applies one, that also
/// logs every call: `(src, dst, raw, delivered)`.
#[derive(Debug, Clone, PartialEq)]
struct Clamp {
    nodes: usize,
    last: Vec<Cycle>,
    calls: Vec<(NodeId, NodeId, Cycle, Cycle)>,
}

impl Clamp {
    fn fifo(&mut self, src: NodeId, dst: NodeId, raw: Cycle) -> Cycle {
        let slot = &mut self.last[src.index() * self.nodes + dst.index()];
        *slot = raw.max(*slot + 1);
        self.calls.push((src, dst, raw, *slot));
        *slot
    }
}

/// A network and clamp with random traffic already through them: busy
/// links and non-zero channel clocks for the round to meet.
fn preloaded(mesh: Mesh, contention: bool, rng: &mut DetRng) -> (Network, Clamp) {
    let config = NocConfig {
        model_contention: contention,
        ..NocConfig::default()
    };
    let mut net = Network::new(mesh, config);
    let nodes = mesh.nodes() as usize;
    let mut clamp = Clamp {
        nodes,
        last: vec![Cycle::ZERO; nodes * nodes],
        calls: Vec::new(),
    };
    for _ in 0..4 * nodes {
        let src = NodeId::new(rng.below(nodes as u64) as u16);
        let dst = NodeId::new(rng.below(nodes as u64) as u16);
        let packet = *rng.pick(&[PROBE, ACK, DATA]);
        let raw = net.send(
            src,
            dst,
            packet.flits,
            packet.class,
            Cycle::new(rng.below(60)),
        );
        clamp.fifo(src, dst, raw);
    }
    clamp.calls.clear();
    (net, clamp)
}

/// Each directed link's next-free time, read by a one-hop, one-flit
/// send over it at cycle zero (arrival = free + hop latency).
fn link_clocks(net: &mut Network) -> Vec<Cycle> {
    let mesh = net.mesh();
    let mut clocks = Vec::new();
    for a in 0..mesh.nodes() {
        for b in 0..mesh.nodes() {
            let (a, b) = (NodeId::new(a), NodeId::new(b));
            if mesh.hops(a, b) == 1 {
                clocks.push(net.send(a, b, 1, "probe-link", Cycle::ZERO));
            }
        }
    }
    clocks
}

fn exported(net: &Network) -> StatSink {
    let mut sink = StatSink::new();
    net.export("noc", &mut sink);
    sink
}

/// Runs one round both ways from identical state and compares them.
fn check_round(net: &Network, clamp: &Clamp, hub: NodeId, targets: &[(NodeId, Packet)], t: Cycle) {
    let what = format!("{} hub {hub} at {t}, {} targets", net.mesh(), targets.len());

    let (mut seq_net, mut seq_clamp) = (net.clone(), clamp.clone());
    let mut seq_arrivals = Vec::new();
    for &(target, reply) in targets {
        let raw = seq_net.send(hub, target, PROBE.flits, PROBE.class, t);
        let probe_arr = seq_clamp.fifo(hub, target, raw);
        let raw = seq_net.send(target, hub, reply.flits, reply.class, probe_arr);
        let reply_arr = seq_clamp.fifo(target, hub, raw);
        seq_arrivals.push((target, probe_arr, reply_arr));
    }

    let (mut round_net, mut round_clamp) = (net.clone(), clamp.clone());
    let mut round_arrivals = Vec::new();
    round_net.probe_round(
        hub,
        PROBE,
        targets.iter().copied(),
        t,
        |src, dst, raw| round_clamp.fifo(src, dst, raw),
        |target, probe_arr, reply_arr| round_arrivals.push((target, probe_arr, reply_arr)),
    );

    assert_eq!(round_arrivals, seq_arrivals, "{what}: leg arrivals");
    assert_eq!(round_clamp, seq_clamp, "{what}: clamp calls and clocks");
    for class in ["discovery", "ack", "data"] {
        assert_eq!(
            (round_net.messages_of(class), round_net.flits_of(class)),
            (seq_net.messages_of(class), seq_net.flits_of(class)),
            "{what}: {class} traffic"
        );
    }
    assert_eq!(
        round_net.total_messages(),
        seq_net.total_messages(),
        "{what}"
    );
    assert_eq!(
        round_net.flit_hops(),
        seq_net.flit_hops(),
        "{what}: flit-hops"
    );
    assert_eq!(exported(&round_net), exported(&seq_net), "{what}: export");
    assert_eq!(
        link_clocks(&mut round_net),
        link_clocks(&mut seq_net),
        "{what}: link state"
    );
}

#[test]
fn a_round_matches_its_legs_sent_one_by_one() {
    let mut rng = DetRng::seed_from(0x0B0E);
    let meshes = [
        Mesh::new(1, 1),
        Mesh::new(2, 2),
        Mesh::new(4, 4),
        Mesh::new(8, 8),
        Mesh::new(4, 8),
    ];
    for mesh in meshes {
        for contention in [true, false] {
            let (net, clamp) = preloaded(mesh, contention, &mut rng);
            let nodes = mesh.nodes();
            for hub in (0..nodes).map(NodeId::new) {
                let t = Cycle::new(rng.below(80));
                // Every node, the hub itself (a local leg) included, each
                // replying with a control ack or, now and then, data.
                let mut targets: Vec<(NodeId, Packet)> = (0..nodes)
                    .map(|n| (NodeId::new(n), if rng.chance(0.2) { DATA } else { ACK }))
                    .collect();
                check_round(&net, &clamp, hub, &targets, t);
                // The same round with one target excluded, as a
                // discovery round skips its requester.
                targets.remove(rng.index(targets.len()));
                check_round(&net, &clamp, hub, &targets, t);
            }
        }
    }
}

#[test]
fn an_empty_round_changes_nothing() {
    let mut rng = DetRng::seed_from(7);
    let (net, clamp) = preloaded(Mesh::new(4, 4), true, &mut rng);
    let mut round_net = net.clone();
    round_net.probe_round(
        NodeId::new(5),
        PROBE,
        [],
        Cycle::new(3),
        |_, _, _| unreachable!("no leg to clamp"),
        |_, _, _| unreachable!("no target to hear"),
    );
    assert_eq!(exported(&round_net), exported(&net));
    check_round(&net, &clamp, NodeId::new(5), &[], Cycle::new(3));
}
