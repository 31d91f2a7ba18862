//! The layer replay: a sequential, untimed replay of a case's traces
//! through fresh layer objects, timing every public call.
//!
//! The replay drives the same protocol steps the machine takes (access,
//! request, discovery, `decide`, probes, LLC fill with DRAM, directory
//! update and eviction, private fill, `Put` handling), but one
//! transaction at a time in round-robin core order, with no simulated
//! timing and therefore no races. Its *counts* differ from the real
//! run's; only its per-call host cost is used. Layer cost is the real
//! run's exact count times the replay's mean cost per call.

use stashdir::common::json::Value;
use stashdir::common::{BankId, BlockAddr, CoreId, Cycle, MemOp, NodeId, SharerSet};
use stashdir::core::EvictionAction;
use stashdir::mem::DramModel;
use stashdir::noc::Network;
use stashdir::protocol::home::{
    decide, decide_put, discovery_intent, discovery_targets, needs_discovery, DirView, PutOutcome,
};
use stashdir::protocol::{DiscoveryIntent, Probe, ProbeReply, Request, CONTROL_FLITS, DATA_FLITS};
use stashdir::sim::bank::{Bank, LlcLine};
use stashdir::sim::event::EventQueue;
use stashdir::sim::private::{AccessResult, PrivateHier, ProbeAnswer};
use stashdir::SystemConfig;
use std::time::Instant;

/// A timed layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `PrivateHier::access`.
    Access,
    /// `PrivateHier::fill` / `grant_permission`.
    Fill,
    /// `PrivateHier::apply_probe`.
    Probe,
    /// `Bank::dir_view`.
    DirView,
    /// `Bank::dir_install` / `dir_remove`.
    DirInstall,
    /// One LLC access: every `Bank::llc_*` call it makes.
    Llc,
    /// `decide` / `decide_put`.
    Decide,
    /// `Network::send`.
    Send,
    /// One `EventQueue::push` plus `pop`.
    PushPop,
    /// `DramModel::access`.
    Dram,
}

/// Every layer, in metric order, with its per-call metric name.
pub const LAYERS: [(Layer, &str); 10] = [
    (Layer::Access, "sim.private.access_ns"),
    (Layer::Fill, "sim.private.fill_ns"),
    (Layer::Probe, "sim.private.probe_ns"),
    (Layer::DirView, "sim.bank.dir_view_ns"),
    (Layer::DirInstall, "sim.bank.dir_install_ns"),
    (Layer::Llc, "sim.bank.llc_ns"),
    (Layer::Decide, "protocol.decide_ns"),
    (Layer::Send, "noc.send_ns"),
    (Layer::PushPop, "sim.event.push_pop_ns"),
    (Layer::Dram, "mem.dram.access_ns"),
];

/// Calls made and host time spent per layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    pub calls: [u64; LAYERS.len()],
    /// Host nanoseconds, with the timer's own cost already subtracted.
    pub ns: [f64; LAYERS.len()],
}

impl Replay {
    /// Mean host cost of one call, ns (0 when the replay made none).
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        if self.calls[i] == 0 {
            0.0
        } else {
            self.ns[i] / self.calls[i] as f64
        }
    }

    pub fn to_json(&self) -> Value {
        Value::object(vec![
            (
                "calls".into(),
                Value::array(self.calls.iter().map(|&c| Value::from(c)).collect()),
            ),
            (
                "ns".into(),
                Value::array(self.ns.iter().map(|&n| Value::Number(n)).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Replay> {
        let mut r = Replay::default();
        let calls = v.get("calls")?.as_array()?;
        let ns = v.get("ns")?.as_array()?;
        if calls.len() != LAYERS.len() || ns.len() != LAYERS.len() {
            return None;
        }
        for i in 0..LAYERS.len() {
            r.calls[i] = calls[i].as_u64()?;
            r.ns[i] = ns[i].as_f64()?;
        }
        Some(r)
    }
}

/// Times one call into `$layer` and counts it.
macro_rules! timed {
    ($self:ident, $layer:expr, $call:expr) => {{
        let t = Instant::now();
        let r = $call;
        $self.clock.add($layer, t, 1);
        r
    }};
}

/// Accumulated time per layer, plus the number of timer reads it took
/// (each read pair's own cost is subtracted at the end).
#[derive(Default)]
struct Clock {
    calls: [u64; LAYERS.len()],
    pairs: [u64; LAYERS.len()],
    ns: [u128; LAYERS.len()],
}

impl Clock {
    fn add(&mut self, layer: Layer, since: Instant, calls: u64) {
        let i = layer as usize;
        self.ns[i] += since.elapsed().as_nanos();
        self.pairs[i] += 1;
        self.calls[i] += calls;
    }

    fn finish(self) -> Replay {
        let overhead = timer_overhead_ns();
        let mut out = Replay {
            calls: self.calls,
            ..Replay::default()
        };
        for i in 0..LAYERS.len() {
            out.ns[i] = (self.ns[i] as f64 - self.pairs[i] as f64 * overhead).max(0.0);
        }
        out
    }
}

/// Mean cost of one `Instant::now()` + `elapsed()` pair, ns.
fn timer_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        total += std::hint::black_box(t.elapsed()).as_nanos();
    }
    total as f64 / N as f64
}

struct Engine {
    cores: u16,
    bank_bits: u32,
    stash: bool,
    privs: Vec<PrivateHier>,
    banks: Vec<Bank>,
    net: Network,
    dram: DramModel,
    queue: EventQueue<u32>,
    now: Cycle,
    clock: Clock,
}

/// Replays `traces` (one per core) on fresh layers built from `cfg`.
pub fn run(cfg: &SystemConfig, traces: &[Vec<MemOp>]) -> Replay {
    let slice = cfg.dir_slice();
    let bank_bits = (cfg.cores as u64).trailing_zeros();
    let mut e = Engine {
        cores: cfg.cores,
        bank_bits,
        stash: cfg.dir.uses_stash(),
        privs: (0..cfg.cores)
            .map(|c| {
                PrivateHier::new(
                    CoreId::new(c),
                    &cfg.l1,
                    &cfg.l2,
                    cfg.notify_clean_evictions,
                    cfg.seed ^ (c as u64) << 8,
                )
            })
            .collect(),
        banks: (0..cfg.cores)
            .map(|b| {
                Bank::new(
                    BankId::new(b),
                    bank_bits,
                    &cfg.llc_bank,
                    slice.build(cfg.seed ^ 0xD1D1 ^ ((b as u64) << 16)),
                    cfg.seed ^ 0x11C ^ ((b as u64) << 24),
                )
            })
            .collect(),
        net: Network::new(cfg.mesh(), cfg.noc),
        dram: DramModel::new(cfg.dram),
        queue: EventQueue::new(),
        now: Cycle::ZERO,
        clock: Clock::default(),
    };
    // The machine keeps about one pending event per core; so does this
    // queue, so push/pop cost is measured at a realistic heap depth.
    for c in 0..cfg.cores {
        e.queue.push(Cycle::ZERO, c as u32);
    }
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (c, trace) in traces.iter().enumerate() {
            if let Some(&op) = trace.get(i) {
                e.step(CoreId::new(c as u16), op);
            }
        }
    }
    e.clock.finish()
}

impl Engine {
    fn home(&self, block: BlockAddr) -> BankId {
        BankId::new((block.get() & ((1 << self.bank_bits) - 1)) as u16)
    }

    fn event(&mut self, at: Cycle, tag: u32) {
        let t = Instant::now();
        self.queue.push(at, tag);
        let popped = self.queue.pop();
        self.clock.add(Layer::PushPop, t, 1);
        std::hint::black_box(popped);
    }

    fn send(&mut self, from: NodeId, to: NodeId, flits: u32, class: &'static str) {
        let now = self.now;
        timed!(
            self,
            Layer::Send,
            self.net.send(from, to, flits, class, now)
        );
    }

    /// Probes `target` for `block` from `bank`: probe leg, answer, reply
    /// leg. Dirty data in the reply is written back to the home's LLC.
    fn probe(&mut self, bank: BankId, target: CoreId, block: BlockAddr, p: Probe) -> ProbeAnswer {
        self.send(bank.node(), target.node(), p.flits(), p.class());
        let ans = timed!(
            self,
            Layer::Probe,
            self.privs[target.index()].apply_probe(block, p)
        );
        self.send(
            target.node(),
            bank.node(),
            ans.reply.flits(),
            ans.reply.class(),
        );
        if ans.reply == ProbeReply::AckDirtyData {
            self.mark_dirty(block);
        }
        ans
    }

    fn mark_dirty(&mut self, block: BlockAddr) {
        let home = self.home(block);
        if let Some(line) = self.banks[home.index()].llc_peek_mut(block) {
            line.dirty = true;
        }
    }

    /// A discovery round; returns the core holding the hidden copy and
    /// whether it kept one.
    fn discover(
        &mut self,
        home: BankId,
        block: BlockAddr,
        intent: DiscoveryIntent,
        exclude: Option<CoreId>,
    ) -> Option<(CoreId, ProbeAnswer)> {
        let mut hit = None;
        for target in discovery_targets(self.cores, exclude) {
            let ans = self.probe(home, target, block, Probe::Discovery(intent));
            if ans.reply != ProbeReply::NotPresent {
                hit = Some((target, ans));
            }
        }
        self.banks[home.index()].set_stash_bit(block, false);
        hit
    }

    fn step(&mut self, core: CoreId, op: MemOp) {
        self.now += 1;
        let i = core.index();
        let access = timed!(self, Layer::Access, self.privs[i].access(op));
        let request = match access {
            AccessResult::Hit { .. } => {
                let at = self.now;
                self.event(at, core.get() as u32);
                return;
            }
            AccessResult::Miss { request, .. } => request,
        };
        let block = op.block;
        let home = self.home(block);
        let h = home.index();
        self.send(core.node(), home.node(), request.flits(), request.class());
        let at = self.now;
        self.event(at, core.get() as u32);

        let mut view = timed!(self, Layer::DirView, self.banks[h].dir_view(block));
        if self.stash && needs_discovery(&view, self.banks[h].stash_bit(block)) {
            let intent = discovery_intent(request);
            let exclude = (request != Request::Upgrade).then_some(core);
            if let Some((owner, ans)) = self.discover(home, block, intent, exclude) {
                if intent == DiscoveryIntent::Share && ans.retained {
                    view = DirView::Shared(SharerSet::singleton(self.cores, owner));
                }
            }
        }
        let outcome = timed!(
            self,
            Layer::Decide,
            decide(request, core, &view, self.cores)
        );

        let mut data_from_owner = false;
        let mut owner_gone = false;
        for &(target, probe) in &outcome.probes {
            let ans = self.probe(home, target, block, probe);
            if ans.reply.has_data() {
                self.send(target.node(), core.node(), DATA_FLITS, "data");
                data_from_owner = true;
            }
            if probe == Probe::FwdGetS {
                owner_gone = !ans.retained;
            }
        }

        if outcome.needs_data && !data_from_owner {
            self.llc_fill(home, block);
            self.send(home.node(), core.node(), DATA_FLITS, "data");
        } else {
            let t = Instant::now();
            self.banks[h].llc_access(block);
            self.clock.add(Layer::Llc, t, 1);
        }

        let final_view = match outcome.new_view {
            DirView::Shared(_) if owner_gone => {
                DirView::Shared(SharerSet::singleton(self.cores, core))
            }
            v => v,
        };
        match final_view {
            DirView::Untracked => timed!(self, Layer::DirInstall, self.banks[h].dir_remove(block)),
            v => {
                let action = timed!(self, Layer::DirInstall, self.banks[h].dir_install(block, v));
                self.enact(home, action);
            }
        }

        if !outcome.needs_data {
            timed!(self, Layer::Fill, self.privs[i].grant_permission(block));
            self.send(home.node(), core.node(), CONTROL_FLITS, "ack");
        } else {
            let evicted = timed!(
                self,
                Layer::Fill,
                self.privs[i].fill(block, outcome.grant, 0)
            );
            if let Some(put) = evicted.and_then(|ev| ev.put.map(|p| (ev.block, p))) {
                self.put(core, put.0, put.1);
            }
        }
        let at = self.now;
        self.event(at, core.get() as u32);
    }

    /// Makes `block` LLC-resident at `home` (evicting a victim with its
    /// protocol side effects and fetching from DRAM), then accesses it.
    fn llc_fill(&mut self, home: BankId, block: BlockAddr) {
        let h = home.index();
        let t = Instant::now();
        let resident = self.banks[h].llc_peek(block).is_some();
        let victim = if resident {
            None
        } else {
            self.banks[h].llc_victim_for(block)
        };
        self.clock.add(Layer::Llc, t, 1);
        if !resident {
            if let Some(victim) = victim {
                self.evict_llc_line(home, victim);
            }
            let now = self.now;
            timed!(self, Layer::Dram, self.dram.access(block, now));
            let t = Instant::now();
            self.banks[h].llc_insert(
                block,
                LlcLine {
                    version: 0,
                    dirty: false,
                    stash: false,
                },
            );
            self.clock.add(Layer::Llc, t, 0);
        }
        let t = Instant::now();
        self.banks[h].llc_access(block);
        self.clock.add(Layer::Llc, t, 0);
    }

    /// Evicts `victim` from the LLC: recalls tracked copies, discovers a
    /// hidden one, writes dirty data back.
    fn evict_llc_line(&mut self, home: BankId, victim: BlockAddr) {
        let h = home.index();
        let view = timed!(self, Layer::DirView, self.banks[h].dir_view(victim));
        match &view {
            DirView::Untracked if self.banks[h].stash_bit(victim) => {
                self.discover(home, victim, DiscoveryIntent::Invalidate, None);
            }
            DirView::Untracked => {}
            tracked => {
                let probe = match tracked {
                    DirView::Exclusive(_) => Probe::Recall,
                    _ => Probe::Inv,
                };
                for holder in tracked.holders() {
                    self.probe(home, holder, victim, probe);
                }
                timed!(self, Layer::DirInstall, self.banks[h].dir_remove(victim));
            }
        }
        let t = Instant::now();
        let line = self.banks[h].llc_remove(victim);
        self.clock.add(Layer::Llc, t, 0);
        if line.is_some_and(|l| l.dirty) {
            let now = self.now;
            timed!(self, Layer::Dram, self.dram.access(victim, now));
        }
    }

    /// Enacts a directory eviction: stash bit for a silent victim,
    /// invalidation of every holder for a conventional one.
    fn enact(&mut self, bank: BankId, action: EvictionAction) {
        match action {
            EvictionAction::None => {}
            EvictionAction::Silent { block, .. } => {
                let home = self.home(block);
                self.banks[home.index()].set_stash_bit(block, true);
            }
            EvictionAction::Invalidate { block, view } => {
                let probe = match view {
                    DirView::Exclusive(_) => Probe::Recall,
                    _ => Probe::Inv,
                };
                for holder in view.holders() {
                    self.probe(bank, holder, block, probe);
                }
            }
        }
    }

    /// Sends and handles the `Put` a fill's victim owes its home.
    fn put(&mut self, from: CoreId, block: BlockAddr, put: Request) {
        let home = self.home(block);
        let h = home.index();
        self.send(from.node(), home.node(), put.flits(), put.class());
        let at = self.now;
        self.event(at, from.get() as u32);
        let view = timed!(self, Layer::DirView, self.banks[h].dir_view(block));
        let parked = self.privs[from.index()].wb_take(block);
        let unclaimed = parked.is_some_and(|e| !e.claimed);
        match timed!(self, Layer::Decide, decide_put(put, from, &view)) {
            PutOutcome::Accept {
                new_view,
                writeback,
            } => {
                if writeback {
                    self.mark_dirty(block);
                }
                match new_view {
                    DirView::Untracked => {
                        timed!(self, Layer::DirInstall, self.banks[h].dir_remove(block))
                    }
                    v => {
                        let action =
                            timed!(self, Layer::DirInstall, self.banks[h].dir_install(block, v));
                        self.enact(home, action);
                    }
                }
            }
            // The hidden owner's own eviction: accept its data and clear
            // the stash bit.
            PutOutcome::Stale
                if view == DirView::Untracked && self.banks[h].stash_bit(block) && unclaimed =>
            {
                if put == Request::PutM {
                    self.mark_dirty(block);
                }
                self.banks[h].set_stash_bit(block, false);
            }
            PutOutcome::Stale => {}
        }
        self.send(home.node(), from.node(), CONTROL_FLITS, "ack");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::CASES;

    #[test]
    fn replay_accesses_each_op_exactly_once() {
        for case in CASES {
            // Large enough for directory evictions and discoveries.
            let case = case.scaled(8, 2_000);
            let traces = case.workload.generate(case.cores, case.ops, 7);
            let replay = run(&case.config(), &traces);
            assert_eq!(
                replay.calls[Layer::Access as usize],
                case.cores as u64 * case.ops as u64,
                "{}",
                case.name
            );
            assert!(replay.calls[Layer::Send as usize] > 0, "{}", case.name);
        }
    }
}
