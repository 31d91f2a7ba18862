//! Property tests of the mesh network model: latency lower bounds,
//! contention monotonicity, routing totality, and agreement with a
//! link-by-link reference model.

use proptest::prelude::*;
use stashdir_common::{Cycle, NodeId};
use stashdir_noc::{Mesh, Network, NocConfig};
use std::collections::HashMap;

fn cfg(contention: bool) -> NocConfig {
    NocConfig {
        hop_latency: 3,
        local_latency: 1,
        model_contention: contention,
    }
}

const CLASSES: [&str; 4] = ["req", "data", "inv", "discovery"];

/// [`CLASSES`], then each label again as a copy at another address:
/// equal text must count under one class however the sender spells it.
fn class_labels() -> Vec<&'static str> {
    let copies = CLASSES.map(|c| &*String::from(c).leak());
    CLASSES.into_iter().chain(copies).collect()
}

/// The per-hop reference model of [`Network::send`]: walk
/// [`Mesh::xy_route`] one link at a time, index each link with
/// [`Mesh::link_index`], and apply the wormhole occupancy step.
struct Reference {
    mesh: Mesh,
    config: NocConfig,
    link_free: Vec<Cycle>,
    flit_hops: u64,
    /// `(messages, flits)` per class.
    classes: HashMap<&'static str, (u64, u64)>,
}

impl Reference {
    fn new(mesh: Mesh, config: NocConfig) -> Self {
        Reference {
            mesh,
            config,
            link_free: vec![Cycle::ZERO; mesh.directed_links()],
            flit_hops: 0,
            classes: HashMap::new(),
        }
    }

    fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: &'static str,
        now: Cycle,
    ) -> Cycle {
        let counts = self.classes.entry(class).or_default();
        counts.0 += 1;
        counts.1 += flits as u64;
        if src == dst {
            return now + self.config.local_latency;
        }
        let mut head = now;
        for link in self.mesh.xy_route(src, dst) {
            self.flit_hops += flits as u64;
            let depart = if self.config.model_contention {
                let idx = self.mesh.link_index(link);
                let depart = head.max(self.link_free[idx]);
                self.link_free[idx] = depart + flits as u64;
                depart
            } else {
                head
            };
            head = depart + self.config.hop_latency;
        }
        head + (flits as u64 - 1)
    }
}

/// A route's link runs, concatenated in route order.
fn run_indices(mesh: Mesh, src: NodeId, dst: NodeId) -> Vec<usize> {
    let mut indices = Vec::new();
    for run in mesh.xy_link_runs(src, dst) {
        let start = indices.len();
        indices.extend(run.links);
        if run.reversed {
            indices[start..].reverse();
        }
    }
    indices
}

/// A tile-local packet crosses no link, so nothing orders two of them:
/// one sent later at an earlier time arrives first. The simulator keeps
/// its FIFO clamp on tile-local channels for this reason.
#[test]
fn tile_local_packets_can_overtake() {
    let mut net = Network::new(Mesh::new(4, 4), cfg(true));
    let node = NodeId::new(5);
    let first = net.send(node, node, 1, "data", Cycle::new(10));
    let second = net.send(node, node, 1, "data", Cycle::new(3));
    assert!(second < first, "{second} after {first}");
}

/// Without contention a packet reserves no link, so a short packet sent
/// after a long one at the same time overtakes it, and so does one sent
/// later at an earlier time. The simulator keeps its per-pair FIFO clamp
/// on a contention-free NoC for this reason.
#[test]
fn contention_free_packets_can_overtake() {
    let mut net = Network::new(Mesh::new(4, 4), cfg(false));
    let (src, dst) = (NodeId::new(0), NodeId::new(15));
    let long = net.send(src, dst, 5, "data", Cycle::new(10));
    let short = net.send(src, dst, 1, "req", Cycle::new(10));
    assert!(short < long, "{short} after {long}");
    let earlier = net.send(src, dst, 5, "data", Cycle::ZERO);
    assert!(earlier < short, "{earlier} after {short}");
}

/// On every mesh from 1×1 to 8×8, square or not, the link runs of every
/// route are that route's links mapped through `link_index`.
#[test]
fn link_runs_concatenate_to_the_xy_route() {
    for w in 1..=8 {
        for h in 1..=8 {
            let mesh = Mesh::new(w, h);
            for a in 0..mesh.nodes() {
                for b in 0..mesh.nodes() {
                    let (a, b) = (NodeId::new(a), NodeId::new(b));
                    let expected: Vec<usize> = mesh
                        .xy_route(a, b)
                        .into_iter()
                        .map(|link| mesh.link_index(link))
                        .collect();
                    assert_eq!(run_indices(mesh, a, b), expected, "{mesh}: {a} -> {b}");
                }
            }
        }
    }
}

proptest! {
    /// The network agrees with the per-hop reference model on every
    /// arrival time, flit-hop total and per-class count, for random send
    /// sequences on meshes from 1×1 to 8×8, contention on and off, with
    /// each class sent under labels at two addresses.
    #[test]
    fn send_matches_the_per_hop_reference(
        w in 1u16..9,
        h in 1u16..9,
        sends in prop::collection::vec((any::<u16>(), any::<u16>(), 1u32..10, 0u64..200, 0usize..8), 1..60),
        contention in any::<bool>(),
    ) {
        let mesh = Mesh::new(w, h);
        let mut net = Network::new(mesh, cfg(contention));
        let mut reference = Reference::new(mesh, cfg(contention));
        let labels = class_labels();
        for (src, dst, flits, t, class) in sends {
            let src = NodeId::new(src % mesh.nodes());
            let dst = NodeId::new(dst % mesh.nodes());
            let class = labels[class];
            let now = Cycle::new(t);
            prop_assert_eq!(
                net.send(src, dst, flits, class, now),
                reference.send(src, dst, flits, class, now),
                "{} -> {} on {}", src, dst, mesh
            );
        }
        prop_assert_eq!(net.flit_hops(), reference.flit_hops);
        for class in CLASSES {
            let (messages, flits) = reference.classes.get(class).copied().unwrap_or_default();
            prop_assert_eq!(net.messages_of(class), messages, "{} messages", class);
            prop_assert_eq!(net.flits_of(class), flits, "{} flits", class);
        }
        prop_assert_eq!(
            net.total_messages(),
            reference.classes.values().map(|&(m, _)| m).sum::<u64>()
        );
    }

    /// Arrival time is never earlier than the physical lower bound:
    /// hops × hop latency + serialization, and never earlier than the
    /// send time.
    #[test]
    fn latency_lower_bound(
        sends in prop::collection::vec((0u16..16, 0u16..16, 1u32..10, 0u64..1000), 1..50),
        contention in any::<bool>(),
    ) {
        let mesh = Mesh::new(4, 4);
        let mut net = Network::new(mesh, cfg(contention));
        for (src, dst, flits, t) in sends {
            let (src, dst) = (NodeId::new(src), NodeId::new(dst));
            let sent = Cycle::new(t);
            let arrival = net.send(src, dst, flits, "data", sent);
            prop_assert!(arrival > sent);
            if src != dst {
                let bound = sent + mesh.hops(src, dst) * 3 + (flits as u64 - 1);
                prop_assert!(arrival >= bound, "{arrival} < bound {bound}");
            }
        }
    }

    /// With contention off, latency is a pure function of distance and
    /// size — identical messages always take identical time.
    #[test]
    fn contention_free_is_pure(
        src in 0u16..16, dst in 0u16..16, flits in 1u32..12, t in 0u64..500,
    ) {
        let mut net = Network::new(Mesh::new(4, 4), cfg(false));
        let (src, dst) = (NodeId::new(src), NodeId::new(dst));
        let a = net.send(src, dst, flits, "data", Cycle::new(t));
        let b = net.send(src, dst, flits, "data", Cycle::new(t));
        prop_assert_eq!(a, b);
    }

    /// Contention can only delay: a loaded network never beats the
    /// unloaded one for the same message.
    #[test]
    fn contention_only_delays(
        background in prop::collection::vec((0u16..16, 0u16..16, 1u32..8), 0..30),
        src in 0u16..16, dst in 0u16..16,
    ) {
        let mesh = Mesh::new(4, 4);
        let mut loaded = Network::new(mesh, cfg(true));
        let mut unloaded = Network::new(mesh, cfg(true));
        for (s, d, f) in background {
            loaded.send(NodeId::new(s), NodeId::new(d), f, "data", Cycle::ZERO);
        }
        let probe_loaded = loaded.send(NodeId::new(src), NodeId::new(dst), 1, "req", Cycle::ZERO);
        let probe_unloaded =
            unloaded.send(NodeId::new(src), NodeId::new(dst), 1, "req", Cycle::ZERO);
        prop_assert!(probe_loaded >= probe_unloaded);
    }

    /// Same-channel packets sent in order arrive in order under
    /// contention (the wormhole occupancy serializes them).
    #[test]
    fn same_channel_fifo_under_contention(
        flit_sizes in prop::collection::vec(1u32..8, 2..10),
    ) {
        let mut net = Network::new(Mesh::new(4, 4), cfg(true));
        let mut last = Cycle::ZERO;
        for f in flit_sizes {
            let arrival = net.send(NodeId::new(0), NodeId::new(15), f, "data", Cycle::ZERO);
            prop_assert!(arrival > last, "overtaking on an identical path");
            last = arrival;
        }
    }

    /// With contention on, packets on one `(src, dst)` route arrive in
    /// strictly increasing order of their `send` calls, whatever their
    /// send times and lengths and whatever other routes carry in between:
    /// each packet reserves every link of the fixed XY route, so a later
    /// one leaves each link after the earlier one has. This is why the
    /// simulator's per-channel FIFO clamp cannot bind on remote channels
    /// of a contended NoC.
    #[test]
    fn one_route_arrives_in_send_order_under_contention(
        w in 2u16..7,
        h in 1u16..7,
        route in (any::<u16>(), any::<u16>()),
        steps in prop::collection::vec(
            (any::<bool>(), 0u64..300, 1u32..6, any::<u16>(), any::<u16>()),
            1..80,
        ),
    ) {
        let mesh = Mesh::new(w, h);
        let src = NodeId::new(route.0 % mesh.nodes());
        let dst = NodeId::new((src.get() + 1 + route.1 % (mesh.nodes() - 1)) % mesh.nodes());
        let mut net = Network::new(mesh, cfg(true));
        let mut last = None;
        for (on_route, t, flits, s, d) in steps {
            let now = Cycle::new(t);
            if on_route {
                let arrival = net.send(src, dst, flits, "data", now);
                if let Some(previous) = last {
                    prop_assert!(
                        arrival > previous,
                        "{} -> {} on {}: {} after {}", src, dst, mesh, arrival, previous
                    );
                }
                last = Some(arrival);
            } else {
                let (s, d) = (NodeId::new(s % mesh.nodes()), NodeId::new(d % mesh.nodes()));
                net.send(s, d, flits, "req", now);
            }
        }
    }

    /// Traffic accounting: flit-hops equal the sum over messages of
    /// flits × hop count.
    #[test]
    fn flit_hop_accounting(
        sends in prop::collection::vec((0u16..16, 0u16..16, 1u32..8), 1..40),
    ) {
        let mesh = Mesh::new(4, 4);
        let mut net = Network::new(mesh, cfg(false));
        let mut expected = 0u64;
        for (s, d, f) in sends {
            let (s, d) = (NodeId::new(s), NodeId::new(d));
            net.send(s, d, f, "data", Cycle::ZERO);
            expected += f as u64 * mesh.hops(s, d);
        }
        prop_assert_eq!(net.flit_hops(), expected);
    }

    /// Every route on every rectangular mesh is loop-free and has
    /// minimal length.
    #[test]
    fn routes_are_minimal_and_loop_free(w in 1u16..6, h in 1u16..6) {
        let mesh = Mesh::new(w, h);
        for a in 0..mesh.nodes() {
            for b in 0..mesh.nodes() {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                let route = mesh.xy_route(a, b);
                prop_assert_eq!(route.len() as u64, mesh.hops(a, b));
                let mut seen = std::collections::HashSet::new();
                seen.insert(a);
                for link in &route {
                    prop_assert!(seen.insert(link.to), "loop through {}", link.to);
                }
                if let Some(last) = route.last() {
                    prop_assert_eq!(last.to, b);
                }
            }
        }
    }
}
