//! The machine: cores, private hierarchies, home banks, NoC and DRAM,
//! driven to completion over a set of per-core traces.
//!
//! See the crate docs for the simulation discipline. In short: events
//! carry *time*; handlers compute whole coherence transactions
//! procedurally and apply every state change in event (program) order,
//! which together with per-block busy windows at the home yields a
//! serializable execution.
//!
//! The code is split at the machine's layer seams: this module holds the
//! state, the run loop, message delivery and the core side (issue and
//! completion); `home` holds the home node's protocol handlers;
//! `chaos` holds fault injection, the watchdog and the diagnostic
//! snapshot; `witness` holds campaign-coverage witnessing; and `report`
//! folds the run into a [`SimReport`].

#![expect(
    clippy::indexing_slicing,
    reason = "cores/privs/banks are fixed-size vectors indexed by \
              CoreId/BankId produced by the config-bounded topology, so the \
              bounds hold by construction"
)]

mod chaos;
mod home;
mod report;
mod witness;

use crate::bank::Bank;
use crate::config::SystemConfig;
use crate::event::EventQueue;
use crate::fault::{Detector, FaultClass, FaultConfig, FaultPlan};
use crate::private::{AccessResult, PrivateHier};
use crate::report::{SimReport, TimelineSample};
use crate::values::ValueTracker;
use chaos::EventRing;
use stashdir_common::{
    BankId, BlockAddr, CoreId, Cycle, FxHashMap, FxHashSet, Histogram, MemOp, MemOpKind, NodeId,
};
use stashdir_mem::DramModel;
use stashdir_noc::Network;
use stashdir_protocol::{Grant, Request};
use witness::WitnessSet;

/// Per-core runtime state, struct-of-arrays: one dense vector per
/// field, indexed by `CoreId`. The run loop's per-event touches
/// (last-retire bump, pending check, pc advance) each hit one small
/// contiguous array instead of striding across padded per-core structs
/// — the layout that lets E9-style sweeps scale to 1024 cores.
#[derive(Debug, Default)]
pub(crate) struct CoreTable {
    pub(crate) trace: Vec<Vec<MemOp>>,
    pub(crate) pc: Vec<usize>,
    pub(crate) pending: Vec<Option<MemOp>>,
    pub(crate) issue_time: Vec<Cycle>,
    pub(crate) finish: Vec<Option<Cycle>>,
    pub(crate) ops_done: Vec<u64>,
    /// Cycle of each core's most recent forward progress (watchdog).
    pub(crate) last_retire: Vec<Cycle>,
}

impl CoreTable {
    fn new(traces: Vec<Vec<MemOp>>) -> Self {
        let n = traces.len();
        CoreTable {
            trace: traces,
            pc: vec![0; n],
            pending: vec![None; n],
            issue_time: vec![Cycle::ZERO; n],
            finish: vec![None; n],
            ops_done: vec![0; n],
            last_retire: vec![Cycle::ZERO; n],
        }
    }

    /// Number of cores (zero until [`Machine::run`] installs traces).
    pub(crate) fn len(&self) -> usize {
        self.pc.len()
    }

    /// Index in `core`'s trace of its current op: the one in flight, or
    /// the hit just issued. A core has one op in flight, so this is the
    /// same index at issue and at completion.
    pub(crate) fn current_op(&self, core: CoreId) -> usize {
        self.pc[core.index()] - 1
    }
}

/// A queued event: what handlers consume, what the diagnostic ring
/// stores, and the `Debug` shape the snapshot schema renders.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The core attempts its next trace operation.
    Issue(CoreId),
    /// A core→home protocol message arrives.
    BankMsg(BankMsg),
}

#[derive(Debug, Clone, Copy)]
struct BankMsg {
    from: CoreId,
    req: Request,
    block: BlockAddr,
    /// Version payload of a `PutM`.
    version: u64,
}

/// The per-channel FIFO rule: a message on a `(src, dst)` channel
/// arrives strictly after the one sent before it there, in *program*
/// order (the order sends are made), which is the causal order of the
/// simulation. Every delivery, discovery's probe legs included, passes
/// its raw NoC arrival through [`Channels::fifo`].
///
/// Only channels whose order the NoC does not already imply keep a last
/// arrival. A tile-local message (`src == dst`) crosses no link, so each
/// node keeps one. A remote packet on a contended NoC reserves every link
/// of its fixed XY route from `max(head, link_free)`, so a later send on
/// the same route leaves each link at least the earlier packet's flit
/// count after it and arrives at least a cycle later: the clamp cannot
/// bind, and the raw arrival is delivered. A contention-free NoC, a zero
/// hop latency (a first packet could arrive at cycle 0, which the clamp
/// moves to 1), or a threaded fault plan (`NocDelay` moves an arrival
/// after its links were reserved) keeps the per-pair clamp.
#[derive(Debug)]
struct Channels {
    /// Last tile-local arrival at each node.
    local: Vec<Cycle>,
    /// Dense `nodes × nodes` last-arrival matrix of the remote channels,
    /// flat-indexed `src * nodes + dst`; empty when link reservation
    /// orders them.
    remote: Vec<Cycle>,
    nodes: usize,
}

impl Channels {
    /// Channels for `nodes` nodes; `remote` keeps the per-pair clamp.
    fn new(nodes: usize, remote: bool) -> Self {
        Channels {
            local: vec![Cycle::ZERO; nodes],
            remote: if remote {
                vec![Cycle::ZERO; nodes * nodes]
            } else {
                Vec::new()
            },
            nodes,
        }
    }

    /// Clamps a message's `raw` arrival on the `src → dst` channel to
    /// after the previous one's, and returns the delivered arrival.
    fn fifo(&mut self, src: NodeId, dst: NodeId, raw: Cycle) -> Cycle {
        let slot = if src == dst {
            &mut self.local[src.index()]
        } else if self.remote.is_empty() {
            return raw;
        } else {
            &mut self.remote[src.index() * self.nodes + dst.index()]
        };
        *slot = raw.max(*slot + 1);
        *slot
    }
}

/// The simulated machine.
///
/// Construct with [`Machine::new`], execute with [`Machine::run`].
pub struct Machine {
    pub(crate) cfg: SystemConfig,
    pub(crate) net: Network,
    chans: Channels,
    nodes: usize,
    pub(crate) cores: CoreTable,
    pub(crate) privs: Vec<PrivateHier>,
    pub(crate) banks: Vec<Bank>,
    /// Per-bank controller pipeline availability, dense by `BankId`.
    bank_free: Vec<Cycle>,
    /// Per-block transaction serialization windows (all banks; a block
    /// is only ever held at its home, so one map cannot collide). Holds
    /// only windows that may still be live; see [`Machine::sweep_busy`].
    block_busy: FxHashMap<BlockAddr, Cycle>,
    /// `block_busy` size at which the next sweep of expired windows runs.
    busy_sweep_at: usize,
    /// The hidden holder a silent directory eviction left behind each
    /// stash bit it set (all banks; a bit lives only at its block's
    /// home). A record lives no longer than its bit, and only discovery
    /// reads it, so records are kept from the run's first discovery on
    /// (`None` before it): a run that never discovers pays nothing for
    /// them. See [`Machine::stash_hidden_copy`].
    hidden_owners: Option<FxHashMap<BlockAddr, CoreId>>,
    /// How many cores have a `Put` of each block in flight to its home:
    /// raised where [`Machine::complete_demand`] sends a `Put`, lowered
    /// where the home takes the parked entry, so a block's count is the
    /// number of cores with it parked. Like `hidden_owners`, only
    /// discovery reads it, so the run's first discovery builds it from
    /// the parked entries (`None` before it). See
    /// [`Machine::puts_in_flight`].
    puts_in_flight: Option<FxHashMap<BlockAddr, u32>>,
    pub(crate) dram: DramModel,
    pub(crate) dram_store: FxHashMap<BlockAddr, u64>,
    pub(crate) values: ValueTracker,
    /// DLS only: blocks reclassified shared (a second core touched them);
    /// they are served at the home LLC and never cached privately again.
    pub(crate) dls_shared: FxHashSet<BlockAddr>,
    queue: EventQueue<Event>,
    bank_bits: u32,
    transactions: u64,
    miss_latency: Histogram,
    discovery_latency: Histogram,
    inv_round_size: Histogram,
    timeline: Vec<TimelineSample>,
    next_sample: Cycle,
    faults: Option<FaultPlan>,
    witness: Option<Box<WitnessSet>>,
    /// Cached lower bound on every unfinished core's last-retire cycle;
    /// lets the watchdog skip its O(cores) scan while no stall is
    /// possible (see [`Machine::watchdog_tripped`]).
    retire_floor: Cycle,
    recent_events: EventRing,
    snapshot: Option<String>,
    quiesced: bool,
}

impl Machine {
    /// Builds a machine from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`].
    pub fn new(config: SystemConfig) -> Self {
        config.validate();
        let mesh = config.mesh();
        let bank_bits = (config.cores as u64).trailing_zeros();
        let slice = config.dir_slice();
        let privs = (0..config.cores)
            .map(|c| {
                PrivateHier::new(
                    CoreId::new(c),
                    &config.l1,
                    &config.l2,
                    config.notify_clean_evictions,
                    config.seed ^ (c as u64) << 8,
                )
            })
            .collect();
        let banks = (0..config.cores)
            .map(|b| {
                Bank::new(
                    BankId::new(b),
                    bank_bits,
                    &config.llc_bank,
                    slice.build(config.seed ^ 0xD1D1 ^ ((b as u64) << 16)),
                    config.seed ^ 0x11C ^ ((b as u64) << 24),
                )
            })
            .collect();
        let nodes = config.cores as usize;
        let noc = config.noc;
        Machine {
            net: Network::new(mesh, noc),
            chans: Channels::new(nodes, !noc.model_contention || noc.hop_latency == 0),
            nodes,
            cores: CoreTable::default(),
            privs,
            banks,
            bank_free: vec![Cycle::ZERO; nodes],
            block_busy: FxHashMap::default(),
            busy_sweep_at: nodes,
            hidden_owners: None,
            puts_in_flight: None,
            dram: DramModel::new(config.dram),
            dram_store: FxHashMap::default(),
            values: ValueTracker::new(&[]),
            dls_shared: FxHashSet::default(),
            queue: EventQueue::new(),
            bank_bits,
            transactions: 0,
            miss_latency: Histogram::new(),
            discovery_latency: Histogram::new(),
            inv_round_size: Histogram::new(),
            timeline: Vec::new(),
            // Timeline off → park the next sample at "never", so the hot
            // loop pays a single always-false compare instead of checking
            // the interval every event.
            next_sample: if config.timeline_interval > 0 {
                Cycle::ZERO
            } else {
                Cycle::MAX
            },
            faults: None,
            witness: None,
            retire_floor: Cycle::ZERO,
            recent_events: EventRing::new(),
            snapshot: None,
            quiesced: false,
            cfg: config,
        }
    }

    /// Threads the deterministic fault-injection layer into this machine.
    ///
    /// With [`FaultConfig::disabled`] the run is byte-identical to a
    /// plain [`Machine::new`] run (the zero-cost property the harness
    /// property-tests); with a burst scheduled, the configured faults are
    /// injected and the run quiesces with a diagnostic snapshot when the
    /// invariant checker or the liveness watchdog catches the damage.
    pub fn with_faults(mut self, cfg: FaultConfig) -> Self {
        if cfg.witness {
            self.witness = Some(Box::default());
        }
        self.faults = Some(FaultPlan::new(cfg));
        // A delayed arrival can fall behind a later send on its route.
        self.chans = Channels::new(self.nodes, true);
        self
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The home bank of a block.
    pub fn home(&self, block: BlockAddr) -> BankId {
        BankId::new((block.get() & ((1 << self.bank_bits) - 1)) as u16)
    }

    /// A key ordering blocks bank-major: by home bank, then by
    /// bank-local block (the block with the bank bits shifted out), the
    /// order in which a bank's arrays index them.
    pub(crate) fn bank_major(&self, block: BlockAddr) -> u64 {
        block.get().rotate_right(self.bank_bits)
    }

    /// The bank holding `block`'s *directory entry*: the home bank for
    /// every organization except opaque-distributed, which shards entries
    /// by a multiplicative hash of the whole block address — deliberately
    /// decoupled from the home interleaving, so a demand generally takes
    /// an indirection hop from the home to the directory bank.
    pub fn dir_bank_of(&self, block: BlockAddr) -> BankId {
        if !self.cfg.dir.is_opaque() || self.bank_bits == 0 {
            return self.home(block);
        }
        let h = block.get().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        BankId::new((h >> (64 - self.bank_bits)) as u16)
    }

    /// Runs the machine over one trace per core until every core retires
    /// its whole trace and all protocol traffic drains.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the configured core count.
    pub fn run(mut self, traces: Vec<Vec<MemOp>>) -> SimReport {
        assert_eq!(
            traces.len(),
            self.cfg.cores as usize,
            "need exactly one trace per core"
        );
        self.start(traces);
        let mut last = Cycle::ZERO;
        while let Some((now, event)) = self.queue.pop() {
            debug_assert!(now >= last, "time went backwards");
            last = now;
            if !self.step(now, event) {
                break;
            }
        }
        debug_assert!(
            self.quiesced || self.puts_in_flight.as_ref().is_none_or(|m| m.is_empty()),
            "every Put sent was taken at its home"
        );
        // Only discovery reads the hidden-holder records and the Put
        // counts: free them before the final check, whose scratch (one
        // batch of private copies and the sorted written list) comes on
        // top of the machine's own state.
        self.hidden_owners = None;
        self.puts_in_flight = None;
        let violations = self.final_check();
        // A faulty run whose damage only surfaces at the end of the run
        // (a dropped grant leaving a core pending, I6) still counts as an
        // invariant detection and still gets a snapshot.
        if !violations.is_empty() {
            if let Some(plan) = self.faults.as_mut() {
                if plan.summary.detected_total() == 0 {
                    plan.record_detection(Detector::Invariant);
                }
            }
            if self.faults.is_some() && self.snapshot.is_none() {
                self.snapshot = Some(self.diag_snapshot(last, "final_check").render());
            }
        }
        self.build_report(violations)
    }

    /// Installs the traces, builds the value tracker over them and
    /// schedules every core's first issue.
    fn start(&mut self, traces: Vec<Vec<MemOp>>) {
        self.values = ValueTracker::new(&traces);
        self.cores = CoreTable::new(traces);
        for c in 0..self.cfg.cores {
            self.queue.push(Cycle::ZERO, Event::Issue(CoreId::new(c)));
        }
    }

    /// Starts a run over `traces` and handles at most `events` events,
    /// leaving the machine mid-run for a test to corrupt and check.
    #[cfg(test)]
    pub(crate) fn run_events(&mut self, traces: Vec<Vec<MemOp>>, events: usize) {
        self.start(traces);
        for _ in 0..events {
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            if !self.step(now, event) {
                break;
            }
        }
    }

    /// Handles one popped event. Returns false when the run must stop:
    /// the watchdog tripped or a detection quiesced the machine.
    fn step(&mut self, now: Cycle, event: Event) -> bool {
        if self.faults.is_some() {
            self.recent_events.push(now, event);
            if self.watchdog_tripped(now) {
                return false;
            }
        }
        if now >= self.next_sample {
            self.record_sample(now);
            self.next_sample = now + self.cfg.timeline_interval;
        }
        match event {
            Event::Issue(core) => self.handle_issue(core, now),
            Event::BankMsg(msg) => self.handle_bank_msg(msg, now),
        }
        !self.quiesced
    }

    // ---- plumbing ----

    /// Sends a message and returns its arrival, clamped by the channel's
    /// FIFO rule ([`Channels::fifo`]).
    fn deliver(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: &'static str,
        t: Cycle,
    ) -> Cycle {
        let raw = self.net.send(src, dst, flits, class, t);
        self.chans.fifo(src, dst, raw)
    }

    /// [`Machine::deliver`] with the NoC fault classes rolled from the
    /// threaded plan: the arrival may be delayed, and the packet may be
    /// duplicated. A duplicate is a real second send in the same cycle,
    /// so it occupies links and counts as traffic. Both arrivals are
    /// FIFO-clamped on the channel, duplicate after the original.
    /// Without a threaded fault plan this is exactly
    /// [`Machine::deliver`].
    fn deliver_faulty(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: &'static str,
        t: Cycle,
    ) -> (Cycle, Option<Cycle>) {
        let Some(plan) = self.faults.as_mut() else {
            return (self.deliver(src, dst, flits, class, t), None);
        };
        let mut raw = self.net.send(src, dst, flits, class, t);
        if plan.roll_at(FaultClass::NocDelay, t.get()) {
            raw += plan.config().delay_cycles;
            plan.record_injection(FaultClass::NocDelay);
        }
        let duplicate = if plan.roll_at(FaultClass::NocDuplicate, t.get()) {
            plan.record_injection(FaultClass::NocDuplicate);
            Some(self.net.send(src, dst, flits, class, t))
        } else {
            None
        };
        let arrival = self.chans.fifo(src, dst, raw);
        (arrival, duplicate.map(|raw| self.chans.fifo(src, dst, raw)))
    }

    /// Schedules `msg` to arrive at its home at `at`.
    fn push_msg(&mut self, at: Cycle, msg: BankMsg) {
        self.queue.push(at, Event::BankMsg(msg));
    }

    /// The per-block transaction-serialization window (all banks; a
    /// block is only ever held at its home, so one map cannot collide).
    fn block_busy_until(&self, block: BlockAddr) -> Cycle {
        self.block_busy.get(&block).copied().unwrap_or(Cycle::ZERO)
    }

    /// Extends `block`'s busy window to at least `until`.
    fn hold_block(&mut self, block: BlockAddr, until: Cycle) {
        let slot = self.block_busy.entry(block).or_insert(Cycle::ZERO);
        *slot = (*slot).max(until);
    }

    /// Drops the busy windows that ended by `now` once the map has
    /// doubled since the last sweep (never below one window per core).
    /// Events pop in time order and every read of a window goes through
    /// `now.max(..)`, so an expired window and an absent one read alike;
    /// sweeping keeps the map near the number of in-flight transactions
    /// instead of every block ever touched, at amortised O(1) per hold.
    fn sweep_busy(&mut self, now: Cycle) {
        if self.block_busy.len() < self.busy_sweep_at {
            return;
        }
        self.block_busy.retain(|_, until| *until > now);
        self.busy_sweep_at = (2 * self.block_busy.len()).max(self.nodes);
    }

    // ---- core side ----

    fn handle_issue(&mut self, core: CoreId, now: Cycle) {
        // Forward progress is observed at event-pop time: an Issue event
        // means the core's previous operation retired. Marking it at the
        // (future) completion's *schedule* time would blind the watchdog
        // to the wait itself.
        let i = core.index();
        self.cores.last_retire[i] = now;
        debug_assert!(
            self.cores.pending[i].is_none(),
            "{core} issued while blocked"
        );
        let Some(&op) = self.cores.trace[i].get(self.cores.pc[i]) else {
            self.cores.finish[i] = Some(now);
            return;
        };
        let op_index = self.cores.pc[i];
        self.cores.pc[i] += 1;
        let t = now + op.think as u64;
        self.witness_local(core, op);
        match self.privs[i].access(op) {
            AccessResult::Hit {
                latency, version, ..
            } => {
                match op.kind {
                    MemOpKind::Read => self.values.on_read(core, op_index, op.block, version),
                    MemOpKind::Write => {
                        let v = self.values.on_write(core, op_index, op.block);
                        self.privs[i].record_write(op.block, v);
                    }
                }
                self.cores.ops_done[i] += 1;
                self.queue.push(t + latency, Event::Issue(core));
            }
            AccessResult::Miss { request, latency } => {
                self.cores.pending[i] = Some(op);
                self.cores.issue_time[i] = t + latency;
                let home = self.home(op.block);
                let (arrival, duplicate) = self.deliver_faulty(
                    core.node(),
                    home.node(),
                    request.flits(),
                    request.class(),
                    t + latency,
                );
                let msg = BankMsg {
                    from: core,
                    req: request,
                    block: op.block,
                    version: 0,
                };
                self.push_msg(arrival, msg);
                if let Some(dup_arrival) = duplicate {
                    // The request was duplicated in flight; the copy
                    // arrives later as a spurious demand.
                    self.push_msg(dup_arrival, msg);
                }
            }
        }
    }

    fn handle_bank_msg(&mut self, msg: BankMsg, now: Cycle) {
        if msg.req.is_put() {
            self.process_put(msg, now);
        } else {
            self.process_demand(msg, now);
        }
        if self.quiesced {
            return;
        }
        self.sweep_busy(now);
        self.transactions += 1;
        // State-corruption faults land between transactions — the same
        // quiesced boundary the checker runs on — and force an immediate
        // check so every applied corruption meets its detector.
        let injected = self.faults.is_some() && self.inject_state_fault(now);
        let periodic = self.cfg.check_interval > 0
            && self.transactions.is_multiple_of(self.cfg.check_interval);
        if injected || periodic {
            let problems = crate::checker::check(self, false);
            let found = !problems.is_empty();
            for p in problems {
                self.values.report(p);
            }
            if found && self.faults.is_some() {
                self.detect_invariant(now, "invariant_violation");
            }
        }
    }

    /// Applies the grant at the requester: fill (or permission upgrade),
    /// value tracking, eviction side effects.
    fn complete_demand(
        &mut self,
        requester: CoreId,
        req: Request,
        grant: Grant,
        needs_data: bool,
        data_version: u64,
        fill_done: Cycle,
    ) {
        #[expect(
            clippy::expect_used,
            reason = "protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state"
        )]
        let op = self.cores.pending[requester.index()]
            .take()
            .expect("demand completion matches a pending op");
        debug_assert_eq!(op.kind == MemOpKind::Write, req != Request::GetS);

        let hier = &mut self.privs[requester.index()];
        let version = if !needs_data {
            // Data-less path: the live copy gains write permission.
            hier.grant_permission(op.block)
        } else {
            let evicted = hier.fill(op.block, grant, data_version);
            if let Some(ev) = evicted {
                if let Some(put) = ev.put {
                    if let Some(counts) = &mut self.puts_in_flight {
                        *counts.entry(ev.block).or_insert(0) += 1;
                    }
                    let home = self.home(ev.block);
                    let arrival = self.deliver(
                        requester.node(),
                        home.node(),
                        put.flits(),
                        put.class(),
                        fill_done,
                    );
                    self.push_msg(
                        arrival,
                        BankMsg {
                            from: requester,
                            req: put,
                            block: ev.block,
                            version: ev.version,
                        },
                    );
                }
            }
            data_version
        };

        let op_index = self.cores.current_op(requester);
        if matches!(grant, Grant::Exclusive | Grant::Modified) {
            self.values
                .on_exclusive_grant(requester, op_index, op.block, version);
        }
        match op.kind {
            MemOpKind::Read => self.values.on_read(requester, op_index, op.block, version),
            MemOpKind::Write => {
                let v = self.values.on_write(requester, op_index, op.block);
                self.privs[requester.index()].record_write(op.block, v);
            }
        }
        self.cores.ops_done[requester.index()] += 1;
    }

    /// Retires `core`'s miss on `block` at `done`: the block stays busy
    /// until then, the miss latency is recorded, and the core issues its
    /// next operation.
    fn retire_miss(&mut self, core: CoreId, block: BlockAddr, done: Cycle) {
        self.hold_block(block, done);
        self.miss_latency
            .record(done.saturating_since(self.cores.issue_time[core.index()]));
        self.queue.push(done, Event::Issue(core));
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cfg.cores)
            .field("dir", &self.cfg.dir.name())
            .field("transactions", &self.transactions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoverageRatio, DirSpec};
    use stashdir_common::DetRng;
    use stashdir_core::DirReplPolicy;
    use stashdir_mem::CacheConfig;

    /// A tiny 4-core machine that makes conflicts easy to provoke:
    /// 4-block L1, 8-block L2, 16-block LLC banks.
    pub(super) fn tiny(dir: DirSpec) -> SystemConfig {
        SystemConfig {
            cores: 4,
            block_bytes: 64,
            l1: CacheConfig::new(256, 2, 64, 1),
            l2: CacheConfig::new(512, 2, 64, 4),
            llc_bank: CacheConfig::new(1024, 2, 64, 8),
            dir,
            ..SystemConfig::default()
        }
        .with_check_interval(1)
    }

    pub(super) fn no_ops(cores: u16) -> Vec<Vec<MemOp>> {
        vec![Vec::new(); cores as usize]
    }

    pub(super) fn run(cfg: SystemConfig, traces: Vec<Vec<MemOp>>) -> crate::SimReport {
        let report = Machine::new(cfg).run(traces);
        report.assert_clean();
        report
    }

    #[test]
    fn empty_traces_finish_at_zero() {
        let report = run(tiny(DirSpec::FullMap), no_ops(4));
        assert_eq!(report.cycles, 0);
        assert_eq!(report.completed_ops, 0);
    }

    #[test]
    fn single_read_misses_then_hits() {
        let mut traces = no_ops(4);
        traces[0] = vec![MemOp::read(BlockAddr::new(0)); 10];
        let report = run(tiny(DirSpec::FullMap), traces);
        assert_eq!(report.completed_ops, 10);
        assert_eq!(report.stat("l2.misses"), 1.0);
        assert_eq!(report.stat("l1.hits"), 9.0);
        assert_eq!(report.stat("dram.accesses"), 1.0);
    }

    #[test]
    fn think_time_accumulates() {
        let mut traces = no_ops(4);
        traces[0] = vec![MemOp::read(BlockAddr::new(0)).with_think(100); 5];
        let report = run(tiny(DirSpec::FullMap), traces);
        assert!(
            report.cycles >= 500,
            "5 ops x 100 think, got {}",
            report.cycles
        );
    }

    #[test]
    fn producer_consumer_moves_data() {
        // Core 0 writes a block repeatedly; core 1 reads it. The value
        // tracker verifies every read observes a coherent version.
        let b = BlockAddr::new(5);
        let mut traces = no_ops(4);
        for _ in 0..50 {
            traces[0].push(MemOp::write(b).with_think(7));
            traces[1].push(MemOp::read(b).with_think(5));
        }
        let report = run(tiny(DirSpec::FullMap), traces);
        assert_eq!(report.completed_ops, 100);
        // Ownership ping-pongs: forwards must have happened.
        assert!(report.stat("noc.messages.fwd") > 0.0);
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let b = BlockAddr::new(3);
        let mut traces = no_ops(4);
        // Everyone reads, then core 0 writes, then everyone re-reads.
        for trace in traces.iter_mut() {
            trace.push(MemOp::read(b));
        }
        traces[0].push(MemOp::write(b).with_think(1000));
        for (c, trace) in traces.iter_mut().enumerate() {
            trace.push(MemOp::read(b).with_think(2000 + 100 * c as u32));
        }
        let report = run(tiny(DirSpec::FullMap), traces);
        assert!(
            report.stat("l2.coherence_invalidations") >= 1.0,
            "the write must invalidate other sharers"
        );
        assert!(report.stat("noc.messages.inv") >= 1.0);
    }

    #[test]
    fn upgrade_is_data_less_when_uncontended() {
        let b = BlockAddr::new(2);
        let mut traces = no_ops(4);
        // Two readers establish Shared; then one upgrades.
        traces[0].push(MemOp::read(b));
        traces[1].push(MemOp::read(b).with_think(500));
        traces[0].push(MemOp::write(b).with_think(2000));
        let report = run(tiny(DirSpec::FullMap), traces);
        report.assert_clean();
        assert_eq!(report.completed_ops, 3);
    }

    #[test]
    fn writeback_refetch_race_is_ordered() {
        // A dirty block is evicted and immediately re-read; per-channel
        // FIFO must deliver the PutM before the GetS, or the value
        // tracker screams. A contention-free NoC orders no channel by
        // itself, so it runs too.
        let hot = BlockAddr::new(0);
        let conflict: Vec<BlockAddr> = (1..3).map(|i| BlockAddr::new(i * 512)).collect();
        let mut traces = no_ops(4);
        for _ in 0..20 {
            traces[0].push(MemOp::write(hot));
            for &c in &conflict {
                traces[0].push(MemOp::read(c)); // evicts `hot` from tiny L2 set
            }
            traces[0].push(MemOp::read(hot));
        }
        for contention in [true, false] {
            let mut cfg = tiny(DirSpec::FullMap);
            cfg.noc.model_contention = contention;
            run(cfg, traces.clone()).assert_clean();
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut rng = DetRng::seed_from(11);
            let mut traces = no_ops(4);
            for trace in traces.iter_mut() {
                for _ in 0..200 {
                    let block = BlockAddr::new(rng.below(64));
                    let op = if rng.chance(0.3) {
                        MemOp::write(block)
                    } else {
                        MemOp::read(block)
                    };
                    trace.push(op.with_think(rng.below(8) as u32));
                }
            }
            traces
        };
        let a = run(tiny(DirSpec::stash(CoverageRatio::new(1, 4))), mk());
        let b = run(tiny(DirSpec::stash(CoverageRatio::new(1, 4))), mk());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.sink, b.sink);
    }

    /// The soundness workhorse: random mixed traffic over a small, highly
    /// contended block pool, full invariant checking after every single
    /// transaction, across every directory organization, both
    /// clean-eviction modes, and a NoC with and without contention.
    #[test]
    fn stress_all_directories_stay_coherent() {
        let specs = [
            DirSpec::FullMap,
            DirSpec::Sparse {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::Lru,
            },
            DirSpec::Stash {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::PrivateFirstLru,
            },
            DirSpec::Stash {
                coverage: CoverageRatio::new(1, 16),
                assoc: 2,
                repl: DirReplPolicy::Random,
            },
            DirSpec::Cuckoo {
                coverage: CoverageRatio::new(1, 8),
            },
            DirSpec::Dls,
            DirSpec::Opaque {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
            },
        ];
        for spec in specs {
            for (notify, contention) in [(true, true), (false, true), (true, false), (false, false)]
            {
                for seed in [1u64, 2] {
                    let mut cfg = tiny(spec);
                    cfg.notify_clean_evictions = notify;
                    cfg.noc.model_contention = contention;
                    cfg.seed = seed;
                    let mut rng = DetRng::seed_from(seed ^ 0xBEEF);
                    let mut traces = no_ops(4);
                    for trace in traces.iter_mut() {
                        for _ in 0..400 {
                            // 48 hot blocks: heavy sharing + heavy conflicts.
                            let block = BlockAddr::new(rng.below(48));
                            let op = if rng.chance(0.35) {
                                MemOp::write(block)
                            } else {
                                MemOp::read(block)
                            };
                            trace.push(op.with_think(rng.below(5) as u32));
                        }
                    }
                    let report = Machine::new(cfg).run(traces);
                    assert!(
                        report.violations.is_empty(),
                        "{spec} notify={notify} contention={contention} seed={seed}: {:?}",
                        &report.violations[..report.violations.len().min(5)]
                    );
                    assert_eq!(report.completed_ops, 1600);
                }
            }
        }
    }

    /// Four cores stream 1 024 distinct blocks, 256 times the core count,
    /// with writes so that writebacks hold windows too. Expired busy
    /// windows are swept, so the map never holds more than a few windows
    /// per core.
    #[test]
    fn busy_windows_stay_near_the_in_flight_count() {
        let cores = 4;
        let mut traces = no_ops(cores);
        for (c, trace) in traces.iter_mut().enumerate() {
            for i in 0..256u64 {
                let block = BlockAddr::new(i * cores as u64 + c as u64);
                let op = if i % 3 == 0 {
                    MemOp::write(block)
                } else {
                    MemOp::read(block)
                };
                trace.push(op.with_think((i % 5) as u32));
            }
        }
        let mut m = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))));
        m.start(traces);
        let mut peak = 0;
        while let Some((now, event)) = m.queue.pop() {
            assert!(m.step(now, event));
            peak = peak.max(m.block_busy.len());
        }
        assert_eq!(m.cores.ops_done.iter().sum::<u64>(), 1024);
        assert!(
            peak <= 4 * cores as usize,
            "{peak} busy windows on a {cores}-core machine"
        );
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_cores() {
        let _ = Machine::new(tiny(DirSpec::FullMap)).run(no_ops(2));
    }
}
