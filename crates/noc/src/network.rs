//! The network timing/traffic model.

use crate::topology::Mesh;
use stashdir_common::{Counter, Cycle, NodeId, StatSink};

/// Configuration for [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Per-hop pipeline latency (router + link traversal), cycles.
    pub hop_latency: u64,
    /// Latency of a message whose source and destination share a tile.
    pub local_latency: u64,
    /// Model link contention (wormhole occupancy). When `false` the
    /// network is contention-free: latency depends only on distance and
    /// packet length.
    pub model_contention: bool,
}

impl Default for NocConfig {
    /// 3-cycle hops, 1-cycle tile-local delivery, contention on.
    fn default() -> Self {
        NocConfig {
            hop_latency: 3,
            local_latency: 1,
            model_contention: true,
        }
    }
}

/// A wormhole-routed mesh NoC: computes delivery times and accounts
/// traffic per message class.
///
/// # Examples
///
/// ```
/// use stashdir_common::{Cycle, NodeId};
/// use stashdir_noc::{Mesh, Network, NocConfig};
///
/// let mut net = Network::new(Mesh::new(2, 2), NocConfig::default());
/// // A 5-flit data packet one hop away: 3 cycles head latency + 4 cycles
/// // of body serialization.
/// let t = net.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
/// assert_eq!(t.get(), 7);
/// assert_eq!(net.flit_hops(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh,
    config: NocConfig,
    /// Every node's `(x, y)`, indexed by node id: built once, so a send
    /// reads its endpoints instead of dividing for them.
    coords: Vec<(u16, u16)>,
    link_free: Vec<Cycle>,
    /// `(class, messages, flits)` per class, in first-send order; a
    /// handful of classes, so a scan beats a map lookup.
    classes: Vec<(&'static str, u64, u64)>,
    flit_hops: Counter,
    /// Sum of every message's end-to-end latency: with
    /// [`Network::total_messages`], the mean latency.
    latency_sum: u64,
}

impl Network {
    /// Creates a network over `mesh`.
    pub fn new(mesh: Mesh, config: NocConfig) -> Self {
        Network {
            coords: (0..mesh.nodes())
                .map(|n| mesh.coords(NodeId::new(n)))
                .collect(),
            link_free: vec![Cycle::ZERO; mesh.directed_links()],
            mesh,
            config,
            classes: Vec::new(),
            flit_hops: Counter::new(),
            latency_sum: 0,
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> NocConfig {
        self.config
    }

    /// Sends a `flits`-long packet from `src` to `dst` at time `now`,
    /// returning its arrival time. `class` labels the packet for traffic
    /// accounting (`"req"`, `"data"`, `"inv"`, `"discovery"`, …).
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero or either endpoint is outside the mesh.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: &'static str,
        now: Cycle,
    ) -> Cycle {
        let (from, to) = (self.coords_of(src), self.coords_of(dst));
        self.count(class, 1, flits as u64);
        let (arrival, hops) = self.leg(from, to, flits, now);
        self.flit_hops.add(flits as u64 * hops);
        self.latency_sum += arrival - now;
        arrival
    }

    /// Sends one probe round from `hub`. For each `(target, reply)` in
    /// order, a `probe` packet goes from `hub` to `target` at `t`, then
    /// `reply` goes from `target` back to `hub` once the probe lands.
    /// `fifo(src, dst, raw)` turns each leg's raw arrival into its
    /// delivered one (the caller's per-channel FIFO clamp), and
    /// `arrived(target, probe_arrival, reply_arrival)` hears each target's
    /// two delivered arrivals.
    ///
    /// Links, arrivals and every counter end exactly as if each leg had
    /// been [`Network::send`] in that order and passed through `fifo`;
    /// the round only counts its messages, flits, flit-hops and latency
    /// once instead of per leg.
    ///
    /// # Examples
    ///
    /// ```
    /// use stashdir_common::{Cycle, NodeId};
    /// use stashdir_noc::{Mesh, Network, NocConfig, Packet};
    ///
    /// let mut net = Network::new(Mesh::new(2, 2), NocConfig::default());
    /// let ack = Packet::new(1, "ack");
    /// let mut arrivals = Vec::new();
    /// net.probe_round(
    ///     NodeId::new(0),
    ///     Packet::new(1, "probe"),
    ///     [(NodeId::new(1), ack), (NodeId::new(3), ack)],
    ///     Cycle::ZERO,
    ///     |_, _, raw| raw,
    ///     |target, probe, reply| arrivals.push((target.get(), probe.get(), reply.get())),
    /// );
    /// // One hop out and back; then two hops out and back, the probe a
    /// // cycle behind the first one on link 0->1.
    /// assert_eq!(arrivals, [(1, 3, 6), (3, 7, 13)]);
    /// assert_eq!((net.messages_of("probe"), net.messages_of("ack")), (2, 2));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a packet has zero flits or an endpoint is outside the
    /// mesh.
    pub fn probe_round(
        &mut self,
        hub: NodeId,
        probe: Packet,
        targets: impl IntoIterator<Item = (NodeId, Packet)>,
        t: Cycle,
        mut fifo: impl FnMut(NodeId, NodeId, Cycle) -> Cycle,
        mut arrived: impl FnMut(NodeId, Cycle, Cycle),
    ) {
        let at = self.coords_of(hub);
        let mut probes = 0;
        let mut flit_hops = 0;
        let mut latency = 0;
        // Consecutive replies of one class are counted together.
        let mut replies: Option<(&'static str, u64, u64)> = None;
        for (target, reply) in targets {
            let there = self.coords_of(target);
            let (raw, hops) = self.leg(at, there, probe.flits, t);
            flit_hops += probe.flits as u64 * hops;
            latency += raw - t;
            let probe_arr = fifo(hub, target, raw);

            let (raw, hops) = self.leg(there, at, reply.flits, probe_arr);
            flit_hops += reply.flits as u64 * hops;
            latency += raw - probe_arr;
            let reply_arr = fifo(target, hub, raw);
            arrived(target, probe_arr, reply_arr);

            probes += 1;
            match &mut replies {
                Some((class, messages, flits)) if *class == reply.class => {
                    *messages += 1;
                    *flits += reply.flits as u64;
                }
                _ => {
                    if let Some((class, messages, flits)) = replies {
                        self.count(class, messages, flits);
                    }
                    replies = Some((reply.class, 1, reply.flits as u64));
                }
            }
        }
        if probes > 0 {
            self.count(probe.class, probes, probe.flits as u64 * probes);
        }
        if let Some((class, messages, flits)) = replies {
            self.count(class, messages, flits);
        }
        self.flit_hops.add(flit_hops);
        self.latency_sum += latency;
    }

    /// The `(x, y)` of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    fn coords_of(&self, node: NodeId) -> (u16, u16) {
        match self.coords.get(node.index()) {
            Some(&at) => at,
            None => panic!("{node}: endpoint outside the {}", self.mesh),
        }
    }

    /// Adds `messages` packets of `flits` flits in total to `class`.
    fn count(&mut self, class: &'static str, messages: u64, flits: u64) {
        match self.classes.iter_mut().find(|(c, _, _)| *c == class) {
            Some((_, m, f)) => {
                *m += messages;
                *f += flits;
            }
            None => self.classes.push((class, messages, flits)),
        }
    }

    /// Moves one `flits`-long packet from the node at `from` to the node
    /// at `to`, injected at `now`, through the links of its XY route.
    /// Returns its arrival and its hop count.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    fn leg(&mut self, from: (u16, u16), to: (u16, u16), flits: u32, now: Cycle) -> (Cycle, u64) {
        assert!(flits > 0, "a packet has at least one flit");
        if from == to {
            return (now + self.config.local_latency, 0);
        }
        let [x, y] = self.mesh.link_runs(from, to);
        let hops = (x.links.len() + y.links.len()) as u64;
        let hop = self.config.hop_latency;
        let head = if self.config.model_contention {
            let mut head = now;
            // The packet occupies each link for its full length.
            let mut step = |free: &mut Cycle| {
                let depart = head.max(*free);
                *free = depart + flits as u64;
                head = depart + hop;
            };
            for run in [x, y] {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "a run holds link indices of this mesh, all below `directed_links()`, the table's length"
                )]
                let links = &mut self.link_free[run.links];
                if run.reversed {
                    links.iter_mut().rev().for_each(&mut step);
                } else {
                    links.iter_mut().for_each(&mut step);
                }
            }
            head
        } else {
            now + hop * hops
        };
        // Tail arrives (flits - 1) cycles after the head.
        (head + (flits as u64 - 1), hops)
    }

    /// Total flit-hops injected so far (the traffic metric of experiment
    /// E7; proportional to link energy).
    pub fn flit_hops(&self) -> u64 {
        self.flit_hops.get()
    }

    /// The `(messages, flits)` counts of `class`.
    fn class_counts(&self, class: &str) -> (u64, u64) {
        self.classes
            .iter()
            .find(|(c, _, _)| *c == class)
            .map_or((0, 0), |&(_, m, f)| (m, f))
    }

    /// Messages sent under `class`.
    pub fn messages_of(&self, class: &str) -> u64 {
        self.class_counts(class).0
    }

    /// Flits sent under `class`.
    pub fn flits_of(&self, class: &str) -> u64 {
        self.class_counts(class).1
    }

    /// Total messages across classes.
    pub fn total_messages(&self) -> u64 {
        self.classes.iter().map(|&(_, m, _)| m).sum()
    }

    /// Exports counters under `prefix.` into `sink`.
    pub fn export(&self, prefix: &str, sink: &mut StatSink) {
        sink.put(format!("{prefix}.flit_hops"), self.flit_hops.get() as f64);
        sink.put(
            format!("{prefix}.total_messages"),
            self.total_messages() as f64,
        );
        // Every message adds one latency sample.
        let messages = self.total_messages();
        if messages > 0 {
            sink.put(
                format!("{prefix}.mean_latency"),
                self.latency_sum as f64 / messages as f64,
            );
        }
        let mut classes = self.classes.clone();
        classes.sort_unstable_by_key(|&(class, _, _)| class);
        for (class, messages, _) in &classes {
            sink.put(format!("{prefix}.messages.{class}"), *messages as f64);
        }
        for (class, _, flits) in &classes {
            sink.put(format!("{prefix}.flits.{class}"), *flits as f64);
        }
    }
}

/// A packet's length in flits and its traffic-accounting class: what a
/// [`Network::probe_round`] leg carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Length in flits (at least one).
    pub flits: u32,
    /// Traffic-accounting class (`"discovery"`, `"ack"`, …).
    pub class: &'static str,
}

impl Packet {
    /// A `flits`-long packet of `class`.
    pub const fn new(flits: u32, class: &'static str) -> Self {
        Packet { flits, class }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(contention: bool) -> Network {
        Network::new(
            Mesh::new(4, 4),
            NocConfig {
                hop_latency: 3,
                local_latency: 1,
                model_contention: contention,
            },
        )
    }

    #[test]
    fn single_flit_latency_is_hops_times_hop_latency() {
        let mut n = net(false);
        let t = n.send(NodeId::new(0), NodeId::new(3), 1, "req", Cycle::ZERO);
        assert_eq!(t.get(), 9);
    }

    #[test]
    fn body_flits_add_serialization() {
        let mut n = net(false);
        let t = n.send(NodeId::new(0), NodeId::new(1), 9, "data", Cycle::ZERO);
        assert_eq!(t.get(), 3 + 8);
    }

    #[test]
    fn local_delivery_uses_local_latency() {
        let mut n = net(true);
        let t = n.send(NodeId::new(5), NodeId::new(5), 9, "data", Cycle::new(10));
        assert_eq!(t.get(), 11);
        assert_eq!(n.flit_hops(), 0, "local messages traverse no links");
    }

    #[test]
    fn contention_serializes_packets_on_shared_links() {
        let mut n = net(true);
        let t1 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        let t2 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        assert_eq!(t1.get(), 3 + 4);
        // Second packet waits 5 cycles for the link.
        assert_eq!(t2.get(), 5 + 3 + 4);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut n = net(true);
        let t1 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        let t2 = n.send(NodeId::new(15), NodeId::new(14), 5, "data", Cycle::ZERO);
        assert_eq!(t1, t2);
    }

    #[test]
    fn no_contention_mode_ignores_occupancy() {
        let mut n = net(false);
        let t1 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        let t2 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        assert_eq!(t1, t2);
    }

    #[test]
    fn flit_hops_accumulate() {
        let mut n = net(false);
        n.send(NodeId::new(0), NodeId::new(15), 2, "req", Cycle::ZERO); // 6 hops
        n.send(NodeId::new(0), NodeId::new(1), 3, "req", Cycle::ZERO); // 1 hop
        assert_eq!(n.flit_hops(), 12 + 3);
    }

    #[test]
    fn class_accounting() {
        let mut n = net(false);
        n.send(NodeId::new(0), NodeId::new(1), 1, "req", Cycle::ZERO);
        n.send(NodeId::new(0), NodeId::new(1), 9, "data", Cycle::ZERO);
        n.send(NodeId::new(0), NodeId::new(2), 9, "data", Cycle::ZERO);
        assert_eq!(n.messages_of("req"), 1);
        assert_eq!(n.messages_of("data"), 2);
        assert_eq!(n.flits_of("data"), 18);
        assert_eq!(n.messages_of("absent"), 0);
        assert_eq!(n.total_messages(), 3);
    }

    #[test]
    fn export_contains_class_breakdown() {
        let mut n = net(false);
        n.send(NodeId::new(0), NodeId::new(1), 2, "req", Cycle::ZERO);
        n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        let mut sink = StatSink::new();
        n.export("noc", &mut sink);
        assert_eq!(sink.get("noc.messages.req"), Some(1.0));
        assert_eq!(sink.get("noc.flits.req"), Some(2.0));
        assert_eq!(sink.get("noc.messages.data"), Some(1.0));
        assert_eq!(sink.get("noc.flits.data"), Some(5.0));
        assert_eq!(sink.get("noc.flit_hops"), Some(7.0));
        assert!(sink.get("noc.mean_latency").is_some());
    }

    #[test]
    #[should_panic(expected = "outside the 4x4 mesh")]
    fn send_outside_the_mesh_panics() {
        net(false).send(NodeId::new(16), NodeId::new(16), 1, "req", Cycle::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_packet_panics() {
        net(false).send(NodeId::new(0), NodeId::new(1), 0, "req", Cycle::ZERO);
    }
}
