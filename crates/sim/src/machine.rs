//! The machine: cores, private hierarchies, home banks, NoC and DRAM,
//! driven to completion over a set of per-core traces.
//!
//! See the crate docs for the simulation discipline. In short: events
//! carry *time*; handlers compute whole coherence transactions
//! procedurally and apply every state change in event (program) order,
//! which together with per-block busy windows at the home yields a
//! serializable execution.

// lint: allow-file(indexing) — cores/privs/banks are fixed-size vectors
// indexed by CoreId/BankId produced by the config-bounded topology, so
// the bounds hold by construction.

use crate::bank::{Bank, LlcLine};
use crate::config::SystemConfig;
use crate::event::EventQueue;
use crate::fault::{expected_detector, Detector, FaultClass, FaultConfig, FaultPlan};
use crate::private::{AccessResult, PrivateHier, ProbeAnswer};
use crate::report::{SimReport, TimelineSample, TransitionHits};
use crate::values::ValueTracker;
use stashdir_common::json::Value;
use stashdir_common::{
    BankId, BlockAddr, CoreId, Cycle, FxHashMap, FxHashSet, Histogram, MemOp, MemOpKind, NodeId,
    StatSink,
};
use stashdir_core::EvictionAction;
use stashdir_mem::DramModel;
use stashdir_noc::Network;
use stashdir_protocol::{
    decide, decide_put, discovery_intent, discovery_targets, needs_discovery, DirView,
    DiscoveryIntent, Grant, PrivState, Probe, ProbeReply, PutOutcome, Request, CONTROL_FLITS,
    DATA_FLITS,
};
/// Ring-buffer depth of the event trail kept for diagnostic snapshots
/// (maintained only while fault injection is threaded).
const RECENT_EVENTS: usize = 32;

/// Transition-label domain sizes for the interned witness counters.
const N_STATES: usize = 4;
const N_PROBES: usize = 6;
const N_OPS: usize = 2;
const N_REQUESTS: usize = 6;
const N_VIEWS: usize = 3;

/// Interned row/column index of each label domain. Every `*_idx`
/// function is the inverse of the matching `*_LABELS` table, and the
/// tables carry exactly the canonical labels of
/// `stashdir_protocol::reachability` (asserted in tests), so campaign
/// coverage still diffs against the lint protocol-model artifact with
/// no label translation.
fn state_idx(s: PrivState) -> usize {
    match s {
        PrivState::Invalid => 0,
        PrivState::Shared => 1,
        PrivState::Exclusive => 2,
        PrivState::Modified => 3,
    }
}
const STATE_LABELS: [&str; N_STATES] = ["Invalid", "Shared", "Exclusive", "Modified"];

fn probe_idx(p: Probe) -> usize {
    match p {
        Probe::FwdGetS => 0,
        Probe::FwdGetM => 1,
        Probe::Inv => 2,
        Probe::Recall => 3,
        Probe::Discovery(DiscoveryIntent::Share) => 4,
        Probe::Discovery(DiscoveryIntent::Invalidate) => 5,
    }
}
const PROBE_LABELS: [&str; N_PROBES] = [
    "FwdGetS",
    "FwdGetM",
    "Inv",
    "Recall",
    "Discovery(Share)",
    "Discovery(Invalidate)",
];

fn op_idx(k: MemOpKind) -> usize {
    match k {
        MemOpKind::Read => 0,
        MemOpKind::Write => 1,
    }
}
const OP_LABELS: [&str; N_OPS] = ["Read", "Write"];

fn request_idx(r: Request) -> usize {
    match r {
        Request::GetS => 0,
        Request::GetM => 1,
        Request::Upgrade => 2,
        Request::PutS => 3,
        Request::PutE => 4,
        Request::PutM => 5,
    }
}
const REQUEST_LABELS: [&str; N_REQUESTS] = ["GetS", "GetM", "Upgrade", "PutS", "PutE", "PutM"];

fn view_idx(v: &DirView) -> usize {
    match v {
        DirView::Untracked => 0,
        DirView::Exclusive(_) => 1,
        DirView::Shared(_) => 2,
    }
}
const VIEW_LABELS: [&str; N_VIEWS] = ["Untracked", "Exclusive", "Shared"];

/// Per-(row × column) transition hit counters over the small,
/// statically known label spaces above, stored as flat arrays indexed
/// by interned transition id (`row * cols + col`) — the hot-path bump
/// is one array add, no tree walk. Export recovers the canonical
/// labels and sorts them lexicographically, reproducing the ordered
/// `(row, col)` iteration the former `BTreeMap` keys gave the artifact
/// schema (the determinism lint forbids hash-order iteration into
/// artifacts; a sorted flat array is order-deterministic by
/// construction).
///
/// Allocated only when the fault config asked for witnessing
/// ([`FaultConfig::witness`]); plain and plain-chaos runs never touch
/// it.
#[derive(Debug)]
struct WitnessSet {
    /// Private-cache probe handling: (private state, probe).
    probe: [u64; N_STATES * N_PROBES],
    /// Core-local accesses: (private state, Read/Write).
    local: [u64; N_STATES * N_OPS],
    /// Home decisions: (request, directory view).
    home: [u64; N_REQUESTS * N_VIEWS],
}

impl Default for WitnessSet {
    fn default() -> Self {
        WitnessSet {
            probe: [0; N_STATES * N_PROBES],
            local: [0; N_STATES * N_OPS],
            home: [0; N_REQUESTS * N_VIEWS],
        }
    }
}

impl WitnessSet {
    fn export(&self, coverage: &mut Vec<TransitionHits>) {
        type Section<'a> = (&'a str, &'a [u64], &'a [&'static str], &'a [&'static str]);
        let sections: [Section; 3] = [
            ("private_probe", &self.probe, &STATE_LABELS, &PROBE_LABELS),
            ("local_access", &self.local, &STATE_LABELS, &OP_LABELS),
            ("home", &self.home, &REQUEST_LABELS, &VIEW_LABELS),
        ];
        for (name, cells, rows, cols) in sections {
            let mut hit: Vec<(&'static str, &'static str, u64)> = cells
                .iter()
                .enumerate()
                .filter(|&(_, &hits)| hits > 0)
                .map(|(id, &hits)| (rows[id / cols.len()], cols[id % cols.len()], hits))
                .collect();
            hit.sort_unstable();
            for (row, col, hits) in hit {
                coverage.push(TransitionHits {
                    section: name.to_string(),
                    row: row.to_string(),
                    col: col.to_string(),
                    hits,
                });
            }
        }
    }
}

/// Fixed-capacity ring of the most recent `(Cycle, Event)` pairs.
///
/// The hot loop stores plain `Copy` values here; nothing is formatted
/// until [`Machine::diag_snapshot`] renders the trail at quiesce time,
/// so a healthy faulty-mode run never allocates for diagnostics. The
/// backing `Vec` is allocated once at `RECENT_EVENTS` capacity and
/// never grows.
#[derive(Debug)]
struct EventRing {
    slots: Vec<(Cycle, Event)>,
    /// Index of the oldest entry once the ring is full (and the next
    /// overwrite target); always 0 while still filling.
    head: usize,
}

impl EventRing {
    fn new() -> Self {
        EventRing {
            slots: Vec::with_capacity(RECENT_EVENTS),
            head: 0,
        }
    }

    fn push(&mut self, at: Cycle, event: Event) {
        if self.slots.len() < RECENT_EVENTS {
            self.slots.push((at, event));
        } else {
            self.slots[self.head] = (at, event);
            self.head = (self.head + 1) % RECENT_EVENTS;
        }
    }

    /// Entries oldest→newest.
    fn iter(&self) -> impl Iterator<Item = &(Cycle, Event)> {
        let (tail, front) = self.slots.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

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

/// One discovery round's result.
#[derive(Debug, Clone, Copy)]
struct DiscoveryHit {
    owner: CoreId,
    version: u64,
    dirty: bool,
    /// The owner keeps a (downgraded) copy.
    retained: bool,
    /// The reply carried data.
    with_data: bool,
}

/// The simulated machine.
///
/// Construct with [`Machine::new`], execute with [`Machine::run`].
pub struct Machine {
    pub(crate) cfg: SystemConfig,
    pub(crate) net: Network,
    /// Dense per-channel FIFO clamp: `nodes × nodes` last-arrival
    /// matrix, flat-indexed `src * nodes + dst`. A hot per-message
    /// lookup with a statically known key space — no hashing.
    chan_last: Vec<Cycle>,
    nodes: usize,
    pub(crate) cores: CoreTable,
    pub(crate) privs: Vec<PrivateHier>,
    pub(crate) banks: Vec<Bank>,
    /// Per-bank controller pipeline availability, dense by `BankId`.
    bank_free: Vec<Cycle>,
    /// Per-block transaction serialization windows (all banks; a block
    /// is only ever held at its home, so one map cannot collide).
    block_busy: FxHashMap<BlockAddr, Cycle>,
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
        Machine {
            net: Network::new(mesh, config.noc),
            chan_last: vec![Cycle::ZERO; nodes * nodes],
            nodes,
            cores: CoreTable::default(),
            privs,
            banks,
            bank_free: vec![Cycle::ZERO; nodes],
            block_busy: FxHashMap::default(),
            dram: DramModel::new(config.dram),
            dram_store: FxHashMap::default(),
            values: ValueTracker::new(),
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
        self.cores = CoreTable::new(traces);
        for c in 0..self.cfg.cores {
            self.queue.push(Cycle::ZERO, Event::Issue(CoreId::new(c)));
        }
        let mut last = Cycle::ZERO;
        while let Some((now, event)) = self.queue.pop() {
            debug_assert!(now >= last, "time went backwards");
            last = now;
            if self.faults.is_some() {
                self.note_event(now, &event);
                if self.watchdog_tripped(now) {
                    break;
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
            if self.quiesced {
                break;
            }
        }
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

    // ---- plumbing ----

    /// Records one point of the run's time series.
    fn record_sample(&mut self, now: Cycle) {
        let mut dir_occupancy = 0u64;
        let mut silent = 0u64;
        let mut inval = 0u64;
        let mut discoveries = 0u64;
        for bank in &self.banks {
            dir_occupancy += bank.dir().occupancy() as u64;
            silent += bank.dir().stats().silent_evictions.get();
            inval += bank.dir().stats().invalidating_evictions.get();
            discoveries += bank.stats.discoveries.get() + bank.stats.evict_discoveries.get();
        }
        self.timeline.push(TimelineSample {
            cycle: now.get(),
            dir_occupancy,
            ops: self.cores.ops_done.iter().sum(),
            silent_evictions: silent,
            invalidating_evictions: inval,
            discoveries,
        });
    }

    /// Sends a message and returns its arrival, enforcing per-channel FIFO
    /// in *program* order (the order calls are made), which is the causal
    /// order of the simulation.
    fn deliver(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: &'static str,
        t: Cycle,
    ) -> Cycle {
        let raw = self.net.send(src, dst, flits, class, t);
        let slot = &mut self.chan_last[src.index() * self.nodes + dst.index()];
        let arrival = raw.max(*slot + 1);
        *slot = arrival;
        arrival
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
        let chan = src.index() * self.nodes + dst.index();
        let mut clamp = |raw: Cycle| {
            let slot = &mut self.chan_last[chan];
            *slot = raw.max(*slot + 1);
            *slot
        };
        (clamp(raw), duplicate.map(clamp))
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

    // ---- fault injection, watchdog, quiesce ----

    /// Records one entry in the diagnostic event trail (faulty runs
    /// only). Stores the raw `(Cycle, Event)` pair — rendering to text
    /// is deferred to [`Machine::diag_snapshot`], so this is
    /// allocation-free.
    fn note_event(&mut self, now: Cycle, event: &Event) {
        self.recent_events.push(now, *event);
    }

    // ---- transition witnessing (campaign coverage) ----

    /// Applies `probe` at `target`, first recording the
    /// (private state × probe) transition when witnessing is on. The
    /// state is read *before* the probe lands — the row label the
    /// protocol model's private-probe matrix uses.
    fn probe_with_witness(
        &mut self,
        target: CoreId,
        block: BlockAddr,
        probe: Probe,
    ) -> ProbeAnswer {
        if self.witness.is_some() {
            let state = self.privs[target.index()].state_of(block);
            if let Some(w) = self.witness.as_mut() {
                w.probe[state_idx(state) * N_PROBES + probe_idx(probe)] += 1;
            }
        }
        self.privs[target.index()].apply_probe(block, probe)
    }

    /// Records a core-local (private state × Read/Write) access.
    fn witness_local(&mut self, core: CoreId, op: MemOp) {
        if self.witness.is_some() {
            let state = self.privs[core.index()].state_of(op.block);
            if let Some(w) = self.witness.as_mut() {
                w.local[state_idx(state) * N_OPS + op_idx(op.kind)] += 1;
            }
        }
    }

    /// Records a home-side (request × directory view) decision.
    fn witness_home(&mut self, req: Request, view: &DirView) {
        if let Some(w) = self.witness.as_mut() {
            w.home[request_idx(req) * N_VIEWS + view_idx(view)] += 1;
        }
    }

    /// `true` when the armed watchdog finds an unfinished core that has
    /// retired nothing within the bound; records the structured stall
    /// diagnosis and quiesces.
    fn watchdog_tripped(&mut self, now: Cycle) -> bool {
        let Some(bound) = self.faults.as_ref().and_then(|p| p.watchdog_bound()) else {
            return false;
        };
        // Fast path: `retire_floor` is a lower bound on every unfinished
        // core's last-retire cycle, so while `now` is within the bound
        // of the floor no core can possibly trip — skip the O(cores)
        // scan entirely (the common case on healthy ticks).
        if now.saturating_since(self.retire_floor) <= bound {
            return false;
        }
        let mut stalled = None;
        let mut floor = Cycle::MAX;
        for i in 0..self.cores.len() {
            if self.cores.finish[i].is_none() {
                let retired = self.cores.last_retire[i];
                let gap = now.saturating_since(retired);
                if gap > bound {
                    stalled = Some((i, gap));
                    break;
                }
                floor = floor.min(retired);
            }
        }
        let Some((core, gap)) = stalled else {
            // Full scan found nothing: the exact floor (Cycle::MAX when
            // every core finished) re-arms the fast path.
            self.retire_floor = floor;
            return false;
        };
        self.values.report(format!(
            "Stall: core{core} retired nothing for {gap} cycles (watchdog bound {bound}) at {now}"
        ));
        if let Some(plan) = self.faults.as_mut() {
            plan.record_detection(Detector::Watchdog);
        }
        self.quiesce(now, "watchdog_stall");
        true
    }

    /// Rolls the injection dice for `class` under the threaded plan,
    /// arming through any burst window hot at `now`.
    fn roll_fault(&mut self, class: FaultClass, now: Cycle) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|p| p.roll_at(class, now.get()))
    }

    /// Records an invariant-checker detection and quiesces (faulty runs
    /// only).
    fn detect_invariant(&mut self, now: Cycle, reason: &str) {
        if let Some(plan) = self.faults.as_mut() {
            plan.record_detection(Detector::Invariant);
        }
        self.quiesce(now, reason);
    }

    /// Stops the run gracefully: marks the summary, renders the
    /// diagnostic snapshot, and drains the event queue so the run loop
    /// exits instead of panicking mid-handler or spinning forever.
    fn quiesce(&mut self, now: Cycle, reason: &str) {
        if self.quiesced {
            return;
        }
        self.quiesced = true;
        if let Some(plan) = self.faults.as_mut() {
            plan.summary.quiesced = 1;
        }
        self.snapshot = Some(self.diag_snapshot(now, reason).render());
        self.queue.clear();
    }

    /// Attempts state-corruption injections (sharer flip, stash clear,
    /// spurious stash), one roll per armed class in taxonomy order.
    /// Returns `true` when any damage was applied — targeted corruptions
    /// may find no victim this transaction, in which case nothing is
    /// recorded and nothing changed.
    fn inject_state_fault(&mut self, now: Cycle) -> bool {
        const CORRUPTIONS: [FaultClass; 3] = [
            FaultClass::SharerFlip,
            FaultClass::StashClear,
            FaultClass::StashSpurious,
        ];
        let Some(plan) = self.faults.as_ref() else {
            return false;
        };
        // Roll only armed classes, so single-class runs consume exactly
        // the RNG draws they historically did.
        let armed: Vec<FaultClass> = CORRUPTIONS
            .into_iter()
            .filter(|&c| plan.armed_at(c, now.get()))
            .collect();
        let mut any = false;
        for class in armed {
            if !self.roll_fault(class, now) {
                continue;
            }
            let applied = match class {
                FaultClass::SharerFlip => self.corrupt_sharer(),
                FaultClass::StashClear => self.corrupt_stash_clear(),
                FaultClass::StashSpurious => self.corrupt_stash_spurious(),
                _ => false,
            };
            if applied {
                if let Some(plan) = self.faults.as_mut() {
                    plan.record_injection(class);
                }
                any = true;
            }
        }
        any
    }

    /// Drops a live holder from a directory view: an exclusive owner's
    /// entry vanishes, or a sharer bit flips off. Targets only holders
    /// that really hold a valid copy, so the damage is always
    /// detectable.
    fn corrupt_sharer(&mut self) -> bool {
        for b in 0..self.banks.len() {
            for (block, view) in self.banks[b].dir_entries() {
                for victim in view.holders() {
                    if self.privs[victim.index()].state_of(block) == PrivState::Invalid {
                        continue;
                    }
                    match &view {
                        DirView::Untracked => continue,
                        DirView::Exclusive(_) => self.banks[b].dir_remove(block),
                        DirView::Shared(set) => {
                            let mut survivors = set.clone();
                            survivors.remove(victim);
                            if survivors.is_empty() {
                                self.banks[b].dir_remove(block);
                            } else {
                                let _ =
                                    self.banks[b].dir_install(block, DirView::Shared(survivors));
                            }
                        }
                    }
                    return true;
                }
            }
        }
        false
    }

    /// Clears a stash bit that covers a real hidden copy, making the
    /// copy invisible to discovery (an I1/I2 coverage violation).
    fn corrupt_stash_clear(&mut self) -> bool {
        for b in 0..self.banks.len() {
            for (block, line) in self.banks[b].llc_entries() {
                if !line.stash || self.banks[b].dir_view(block) != DirView::Untracked {
                    continue;
                }
                let hidden_copy_exists = self
                    .privs
                    .iter()
                    .any(|p| p.state_of(block) != PrivState::Invalid);
                if hidden_copy_exists {
                    self.banks[b].set_stash_bit(block, false);
                    return true;
                }
            }
        }
        false
    }

    /// Sets a stash bit on a line the directory still tracks (a stash
    /// discipline violation).
    fn corrupt_stash_spurious(&mut self) -> bool {
        for b in 0..self.banks.len() {
            for (block, line) in self.banks[b].llc_entries() {
                if line.stash || self.banks[b].dir_view(block) == DirView::Untracked {
                    continue;
                }
                self.banks[b].set_stash_bit(block, true);
                return true;
            }
        }
        false
    }

    /// Renders the quiesce-time diagnostic snapshot: per-core pipeline
    /// and cache state, per-bank directory view, in-flight messages and
    /// the recent event trail.
    fn diag_snapshot(&self, now: Cycle, reason: &str) -> Value {
        let cores = (0..self.cores.len())
            .map(|i| {
                let hier = &self.privs[i];
                let l2 = hier
                    .l2_entries()
                    .into_iter()
                    .map(|(block, line)| {
                        Value::object(vec![
                            ("block".into(), block.get().into()),
                            ("state".into(), format!("{:?}", line.state).into()),
                            ("version".into(), line.version.into()),
                        ])
                    })
                    .collect();
                let l1 = hier
                    .l1_blocks()
                    .into_iter()
                    .map(|b| b.get().into())
                    .collect();
                let wbs = hier
                    .wb_entries()
                    .into_iter()
                    .map(|(block, entry)| {
                        Value::object(vec![
                            ("block".into(), block.get().into()),
                            ("version".into(), entry.version.into()),
                        ])
                    })
                    .collect();
                Value::object(vec![
                    ("core".into(), i.into()),
                    ("pc".into(), self.cores.pc[i].into()),
                    ("trace_len".into(), self.cores.trace[i].len().into()),
                    (
                        "pending".into(),
                        self.cores.pending[i].map_or(Value::Null, |op| format!("{op:?}").into()),
                    ),
                    ("ops_done".into(), self.cores.ops_done[i].into()),
                    (
                        "last_retire".into(),
                        self.cores
                            .last_retire
                            .get(i)
                            .copied()
                            .unwrap_or(Cycle::ZERO)
                            .get()
                            .into(),
                    ),
                    ("finished".into(), self.cores.finish[i].is_some().into()),
                    ("l1_blocks".into(), Value::array(l1)),
                    ("l2".into(), Value::array(l2)),
                    ("writebacks".into(), Value::array(wbs)),
                ])
            })
            .collect();
        let banks = self
            .banks
            .iter()
            .map(|bank| {
                let dir = bank
                    .dir_entries()
                    .into_iter()
                    .map(|(block, view)| {
                        Value::object(vec![
                            ("block".into(), block.get().into()),
                            ("view".into(), format!("{view:?}").into()),
                        ])
                    })
                    .collect();
                let stash: Vec<Value> = bank
                    .llc_entries()
                    .into_iter()
                    .filter(|(_, line)| line.stash)
                    .map(|(block, _)| block.get().into())
                    .collect();
                Value::object(vec![
                    ("bank".into(), bank.id().index().into()),
                    ("dir".into(), Value::array(dir)),
                    ("stash_bits".into(), Value::array(stash)),
                    ("llc_lines".into(), bank.llc_entries().len().into()),
                ])
            })
            .collect();
        let in_flight = self
            .queue
            .pending()
            .into_iter()
            .map(|(t, event)| {
                Value::object(vec![
                    ("at".into(), t.get().into()),
                    ("event".into(), format!("{event:?}").into()),
                ])
            })
            .collect();
        // The trail is stored as raw values; format the exact same
        // "{cycle}: {event:?}" lines the snapshot schema always carried,
        // but only here — never on the hot path.
        let recent = self
            .recent_events
            .iter()
            .map(|(at, event)| Value::String(format!("{at}: {event:?}")))
            .collect();
        let mut fields = vec![
            ("schema".into(), "stashdir/diag-snapshot/v1".into()),
            ("reason".into(), reason.into()),
            ("cycle".into(), now.get().into()),
            ("transactions".into(), self.transactions.into()),
            ("cores".into(), Value::array(cores)),
            ("banks".into(), Value::array(banks)),
            ("in_flight".into(), Value::array(in_flight)),
            ("recent_events".into(), Value::array(recent)),
        ];
        // The active fault schedule: which classes were enabled and
        // where each burst window stood at snapshot time, so a
        // multi-fault stall is attributable without a rerun.
        if let Some(plan) = self.faults.as_ref() {
            let cfg = plan.config();
            let classes = cfg
                .enabled_classes()
                .into_iter()
                .map(|c| Value::String(c.label().to_string()))
                .collect();
            let bursts = cfg
                .bursts
                .iter()
                .map(|b| {
                    Value::object(vec![
                        ("class".into(), b.class.label().into()),
                        ("onset".into(), b.onset.into()),
                        ("len".into(), b.len.into()),
                        ("gap".into(), b.gap.into()),
                        ("rate".into(), u64::from(b.rate_per_mille).into()),
                        ("phase".into(), b.phase_at(now.get()).into()),
                    ])
                })
                .collect();
            fields.push((
                "fault".into(),
                Value::object(vec![
                    ("classes".into(), Value::array(classes)),
                    ("bursts".into(), Value::array(bursts)),
                    ("injected".into(), plan.summary.injected_total().into()),
                ]),
            ));
        }
        Value::object(fields)
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
        self.cores.pc[i] += 1;
        let t = now + op.think as u64;
        self.witness_local(core, op);
        match self.privs[i].access(op) {
            AccessResult::Hit {
                latency, version, ..
            } => {
                match op.kind {
                    MemOpKind::Read => self.values.on_read(core, op.block, version),
                    MemOpKind::Write => {
                        let v = self.values.on_write(core, op.block);
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

    // ---- home side ----

    fn handle_bank_msg(&mut self, msg: BankMsg, now: Cycle) {
        if msg.req.is_put() {
            self.process_put(msg, now);
        } else {
            self.process_demand(msg, now);
        }
        if self.quiesced {
            return;
        }
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

    /// Charges the home↔directory-bank indirection when `block`'s entry
    /// lives away from its home (opaque sharding only): a control round
    /// trip with directory-bank serialization. Returns when the reply is
    /// back at the home — exactly `t` for home-placed entries, so every
    /// other organization is untouched.
    fn consult_dir_bank(&mut self, bank_id: BankId, dir_bank: BankId, t: Cycle) -> Cycle {
        if dir_bank == bank_id {
            if self.cfg.dir.is_opaque() {
                self.banks[dir_bank.index()]
                    .backend
                    .dir_bank_accesses
                    .incr();
            }
            return t;
        }
        let req_arr = self.deliver(bank_id.node(), dir_bank.node(), CONTROL_FLITS, "dir", t);
        let free = &mut self.bank_free[dir_bank.index()];
        let start = req_arr.max(*free);
        *free = start + self.cfg.bank_occupancy;
        self.banks[dir_bank.index()]
            .backend
            .dir_bank_accesses
            .incr();
        let rep_arr = self.deliver(
            dir_bank.node(),
            bank_id.node(),
            CONTROL_FLITS,
            "dir",
            start + self.cfg.dir_latency,
        );
        self.banks[bank_id.index()].backend.indirection_hops.add(2);
        rep_arr
    }

    fn process_put(&mut self, msg: BankMsg, now: Cycle) {
        let bank_id = self.home(msg.block);
        let free = self.bank_free[bank_id.index()];
        let mut t = now.max(free).max(self.block_busy_until(msg.block)) + self.cfg.dir_latency;
        self.bank_free[bank_id.index()] = t.max(free) + self.cfg.bank_occupancy;
        self.hold_block(msg.block, t);

        let dir_bank = self.dir_bank_of(msg.block);
        t = self.consult_dir_bank(bank_id, dir_bank, t);
        let view = self.banks[dir_bank.index()].dir_view(msg.block);
        let wb = self.privs[msg.from.index()].wb_take(msg.block);
        self.witness_home(msg.req, &view);
        match decide_put(msg.req, msg.from, &view) {
            PutOutcome::Accept {
                new_view,
                writeback,
            } => {
                if writeback {
                    let line = self.banks[bank_id.index()]
                        .llc_peek_mut(msg.block)
                        // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                        .expect("LLC inclusion: tracked block resident");
                    line.version = msg.version;
                    line.dirty = true;
                }
                let bank = &mut self.banks[dir_bank.index()];
                match new_view {
                    DirView::Untracked => bank.dir_remove(msg.block),
                    v => {
                        let action = bank.dir_install(msg.block, v);
                        debug_assert!(action.is_none(), "shrinking update never evicts");
                    }
                }
            }
            PutOutcome::Stale => {
                let bank = &mut self.banks[bank_id.index()];
                let unclaimed = wb.is_some_and(|e| !e.claimed);
                if view == DirView::Untracked && bank.stash_bit(msg.block) && unclaimed {
                    // The hidden owner's own eviction: nothing intervened
                    // since the entry was stashed (the parked data was
                    // never claimed), so the put is authoritative. Accept
                    // the data and clear the stash bit — the hidden copy
                    // is gone.
                    if msg.req == Request::PutM {
                        let line = bank
                            .llc_peek_mut(msg.block)
                            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                            .expect("stash bit lives on a resident line");
                        line.version = msg.version;
                        line.dirty = true;
                        bank.stats.hidden_writebacks.incr();
                    }
                    bank.set_stash_bit(msg.block, false);
                } else {
                    bank.stats.stale_puts.incr();
                }
            }
        }
        // Put acknowledgement (traffic accounting; the parked entry was
        // already released in program order above).
        let bank_node = bank_id.node();
        self.deliver(bank_node, msg.from.node(), CONTROL_FLITS, "ack", t);
    }

    fn process_demand(&mut self, msg: BankMsg, now: Cycle) {
        let bank_id = self.home(msg.block);
        let requester = msg.from;
        let block = msg.block;

        // I8 (runtime, faulty runs): every demand must match a pending
        // operation at its requester. A duplicated or spurious message
        // fails this; detect and quiesce instead of corrupting state or
        // panicking mid-handler.
        if self.faults.is_some() {
            let matches_pending =
                self.cores.pending[requester.index()].is_some_and(|op| op.block == block);
            if !matches_pending {
                self.values.report(format!(
                    "I8: {requester} has no pending op for {block} yet its {:?} reached the home (duplicated or spurious message)",
                    msg.req
                ));
                self.detect_invariant(now, "spurious_demand");
                return;
            }
        }

        // StuckTransient: the per-block busy window sticks far in the
        // future, so this transaction cannot serialize in bounded time —
        // the requester's completion lands past the watchdog bound.
        if self.roll_fault(FaultClass::StuckTransient, now) {
            let stuck = self.faults.as_ref().map_or(0, |p| p.config().stuck_cycles);
            self.hold_block(block, now + stuck);
            if let Some(plan) = self.faults.as_mut() {
                plan.record_injection(FaultClass::StuckTransient);
            }
        }

        // Serialize: per-block window plus bank pipeline occupancy.
        let free = self.bank_free[bank_id.index()];
        let start = now.max(free).max(self.block_busy_until(block));
        self.bank_free[bank_id.index()] = start + self.cfg.bank_occupancy;
        let mut t = start + self.cfg.dir_latency;

        // DLS keeps no directory entries; its demand path is different
        // enough (remote shared accesses, forever-shared reclassification)
        // to live apart.
        if self.cfg.dir.is_dls() {
            self.process_demand_dls(msg, t);
            return;
        }

        // Opaque sharding: the entry lives at the opaque bank, an
        // indirection hop away from the home for most blocks.
        let dir_bank = self.dir_bank_of(block);
        t = self.consult_dir_bank(bank_id, dir_bank, t);
        let mut view = self.banks[dir_bank.index()].dir_view(block);

        // Stash discovery: directory miss + stash bit set.
        if self.cfg.dir.uses_stash()
            && needs_discovery(&view, self.banks[bank_id.index()].stash_bit(block))
        {
            let intent = discovery_intent(msg.req);
            // GetS/GetM requesters cannot be the hidden owner (they hold
            // nothing), but an Upgrade requester holds an S copy that may
            // itself be the hidden one (a silently dropped single-sharer
            // entry) — it must be probed too, so the write invalidates it
            // and refetches cleanly.
            let exclude = (msg.req != Request::Upgrade).then_some(requester);
            let (hit, t_done) = self.run_discovery(bank_id, block, intent, exclude, t);
            self.discovery_latency.record(t_done - t);
            t = t_done;
            let bank = &mut self.banks[bank_id.index()];
            bank.set_stash_bit(block, false);
            bank.stats.discoveries.incr();
            match hit {
                Some(found) => {
                    bank.stats.discoveries_found.incr();
                    if found.with_data && found.dirty {
                        let line = bank
                            .llc_peek_mut(block)
                            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                            .expect("stash bit lives on a resident line");
                        line.version = found.version;
                        line.dirty = true;
                    }
                    if intent == DiscoveryIntent::Share && found.retained {
                        // Re-learned: the hidden holder keeps a Shared copy.
                        view = DirView::Shared(stashdir_common::SharerSet::singleton(
                            self.cfg.cores,
                            found.owner,
                        ));
                    }
                }
                None => bank.stats.discoveries_stale.incr(),
            }
        }

        self.witness_home(msg.req, &view);
        let mut outcome = decide(msg.req, requester, &view, self.cfg.cores);
        // An overflowed limited-pointer set claims *every* core, so the
        // home cannot see that this upgrader's copy was invalidated while
        // its request sat behind other transactions on the block (precise
        // formats prune the requester from the set, and `decide` takes
        // the needs-data path). Real limited-pointer protocols catch the
        // crossed Inv at the requester and reissue the upgrade as a full
        // GetM; model the outcome of that retry by shipping data with
        // the grant.
        if msg.req == Request::Upgrade
            && !outcome.needs_data
            && self.privs[requester.index()].state_of(block) == PrivState::Invalid
        {
            outcome.needs_data = true;
        }

        // Probe phase: forwards and invalidations.
        let mut t_acks = t;
        let mut data_at_req: Option<(Cycle, u64)> = None;
        let mut owner_retained = false;
        let mut had_fwdgets = false;
        if !outcome.probes.is_empty() {
            self.inv_round_size.record(outcome.probes.len() as u64);
        }
        for &(target, probe) in &outcome.probes {
            let bank_node = bank_id.node();
            let probe_arr = self.deliver(bank_node, target.node(), probe.flits(), probe.class(), t);
            let ans = self.probe_with_witness(target, block, probe);
            let rep_arr = self.deliver(
                target.node(),
                bank_node,
                ans.reply.flits(),
                ans.reply.class(),
                probe_arr,
            );
            t_acks = t_acks.max(rep_arr);
            if ans.reply.has_data() {
                if ans.reply == ProbeReply::AckDirtyData {
                    // Owner's dirty data is written through to the LLC.
                    let line = self.banks[bank_id.index()]
                        .llc_peek_mut(block)
                        // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                        .expect("LLC inclusion: tracked block resident");
                    line.version = ans.version;
                    line.dirty = true;
                }
                // Three-hop: data goes straight to the requester too.
                let data_arr = self.deliver(
                    target.node(),
                    requester.node(),
                    DATA_FLITS,
                    "data",
                    probe_arr,
                );
                data_at_req = Some((data_arr, ans.version));
            }
            if matches!(probe, Probe::FwdGetS) {
                had_fwdgets = true;
                owner_retained = ans.retained;
            }
        }

        // Data phase: LLC (or DRAM) when no owner supplied data.
        if outcome.needs_data && data_at_req.is_none() {
            let was_resident = self.banks[bank_id.index()].llc_peek(block).is_some();
            let (ready, t_protocol) = self.ensure_llc_resident(bank_id, block, t);
            t_acks = t_acks.max(t_protocol);
            let version = self.banks[bank_id.index()]
                .llc_access(block)
                // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                .expect("just ensured resident")
                .version;
            if was_resident {
                self.banks[bank_id.index()].llc_stats.hits.incr();
            }
            let arr = self.deliver(
                bank_id.node(),
                requester.node(),
                DATA_FLITS,
                "data",
                ready.max(t_acks),
            );
            data_at_req = Some((arr, version));
        } else if self.banks[bank_id.index()].llc_peek(block).is_some() {
            // Owner-supplied data or data-less upgrade: the LLC line is
            // touched (writeback / tag check) but supplies nothing.
            self.banks[bank_id.index()].llc_access(block);
            self.banks[bank_id.index()].llc_stats.hits.incr();
        }

        // Directory update, reconciled against what the probes learned.
        let final_view =
            reconcile_view(outcome.new_view, requester, had_fwdgets && !owner_retained);
        let t_evict = match final_view {
            DirView::Untracked => {
                self.banks[dir_bank.index()].dir_remove(block);
                t
            }
            v => {
                let action = self.banks[dir_bank.index()].dir_install(block, v);
                self.enact_dir_eviction(dir_bank, action, t)
            }
        };
        t_acks = t_acks.max(t_evict);
        debug_assert!(
            !self.banks[bank_id.index()].stash_bit(block),
            "tracked blocks never keep a stash bit"
        );

        // Completion at the requester.
        let (grant_arrival, data_version) = match data_at_req {
            Some((arr, v)) => (arr.max(t_acks), v),
            None => {
                // Data-less upgrade: a control grant once acks collected.
                let arr = self.deliver(
                    bank_id.node(),
                    requester.node(),
                    CONTROL_FLITS,
                    "ack",
                    t_acks,
                );
                (arr, 0)
            }
        };
        let fill_done = grant_arrival + self.cfg.l2.latency;
        // DropGrant: the grant/fill vanishes in flight after the home
        // finished its side; the requester keeps its pending operation
        // forever (I6 at final check, or the watchdog on long runs).
        if self.roll_fault(FaultClass::DropGrant, fill_done) {
            if let Some(plan) = self.faults.as_mut() {
                plan.record_injection(FaultClass::DropGrant);
            }
            self.hold_block(block, fill_done);
            return;
        }
        self.complete_demand(
            requester,
            msg.req,
            outcome.grant,
            outcome.needs_data,
            data_version,
            fill_done,
        );
        self.hold_block(block, fill_done);
        self.miss_latency
            .record(fill_done.saturating_since(self.cores.issue_time[requester.index()]));
        self.queue.push(fill_done, Event::Issue(requester));
    }

    /// DLS demand handling (directoryless). The first toucher of a block
    /// owns it (an unbounded owner-map entry, zero directory SRAM) and
    /// fills its private cache; the moment a *second* core touches the
    /// block, the owner's copy is recalled and the block is reclassified
    /// shared **forever** — every later access is served at the home LLC
    /// with no private fill. That remote-access stream is the cost DLS
    /// trades its directory storage for, and what E18 measures.
    ///
    /// `t` already includes the home-bank serialization and the
    /// classification lookup (page-table metadata, charged like a
    /// directory access).
    fn process_demand_dls(&mut self, msg: BankMsg, t: Cycle) {
        let bank_id = self.home(msg.block);
        let requester = msg.from;
        let block = msg.block;
        let mut t = t;

        // Second-core touch on a private block: recall the owner's copy,
        // then fall through to the shared (remote) path.
        if !self.dls_shared.contains(&block) {
            if let DirView::Exclusive(owner) = self.banks[bank_id.index()].dir_view(block) {
                if owner != requester {
                    let probe = Probe::Recall;
                    let bank_node = bank_id.node();
                    let probe_arr =
                        self.deliver(bank_node, owner.node(), probe.flits(), probe.class(), t);
                    let ans = self.probe_with_witness(owner, block, probe);
                    let rep_arr = self.deliver(
                        owner.node(),
                        bank_node,
                        ans.reply.flits(),
                        ans.reply.class(),
                        probe_arr,
                    );
                    t = t.max(rep_arr);
                    if ans.reply == ProbeReply::AckDirtyData {
                        let line = self.banks[bank_id.index()]
                            .llc_peek_mut(block)
                            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                            .expect("LLC inclusion: tracked block resident");
                        line.version = ans.version;
                        line.dirty = true;
                    }
                    self.banks[bank_id.index()].dir_remove(block);
                    self.banks[bank_id.index()]
                        .backend
                        .dls_reclassifications
                        .incr();
                    self.dls_shared.insert(block);
                }
            }
        }

        let was_resident = self.banks[bank_id.index()].llc_peek(block).is_some();
        let (ready, _t_protocol) = self.ensure_llc_resident(bank_id, block, t);
        if was_resident {
            self.banks[bank_id.index()].llc_stats.hits.incr();
        }
        let version = self.banks[bank_id.index()]
            .llc_access(block)
            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
            .expect("just ensured resident")
            .version;

        if self.dls_shared.contains(&block) {
            // Remote access: the op completes at the home LLC. Reads ship
            // the data back; writes update the line in place and return a
            // control ack.
            self.banks[bank_id.index()]
                .backend
                .remote_llc_accesses
                .incr();
            let op = self.cores.pending[requester.index()]
                .take()
                // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                .expect("demand completion matches a pending op");
            debug_assert_eq!(op.block, block);
            let done = match op.kind {
                MemOpKind::Read => {
                    self.values.on_read(requester, block, version);
                    self.deliver(bank_id.node(), requester.node(), DATA_FLITS, "data", ready)
                }
                MemOpKind::Write => {
                    let v = self.values.on_write(requester, block);
                    let line = self.banks[bank_id.index()]
                        .llc_peek_mut(block)
                        // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                        .expect("just ensured resident");
                    line.version = v;
                    line.dirty = true;
                    self.deliver(
                        bank_id.node(),
                        requester.node(),
                        CONTROL_FLITS,
                        "ack",
                        ready,
                    )
                }
            };
            self.cores.ops_done[requester.index()] += 1;
            self.hold_block(block, done);
            self.miss_latency
                .record(done.saturating_since(self.cores.issue_time[requester.index()]));
            self.queue.push(done, Event::Issue(requester));
            return;
        }

        // Private path (first toucher, or the owner refetching after its
        // own eviction): grant the whole block exclusively.
        let action = self.banks[bank_id.index()].dir_install(block, DirView::Exclusive(requester));
        debug_assert!(action.is_none(), "the DLS owner map never evicts");
        let grant = if msg.req == Request::GetS {
            Grant::Exclusive
        } else {
            Grant::Modified
        };
        let arr = self.deliver(bank_id.node(), requester.node(), DATA_FLITS, "data", ready);
        let fill_done = arr + self.cfg.l2.latency;
        self.complete_demand(requester, msg.req, grant, true, version, fill_done);
        self.hold_block(block, fill_done);
        self.miss_latency
            .record(fill_done.saturating_since(self.cores.issue_time[requester.index()]));
        self.queue.push(fill_done, Event::Issue(requester));
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
        let op = self.cores.pending[requester.index()]
            .take()
            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
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

        if matches!(grant, Grant::Exclusive | Grant::Modified) {
            self.values.on_exclusive_grant(requester, op.block, version);
        }
        match op.kind {
            MemOpKind::Read => self.values.on_read(requester, op.block, version),
            MemOpKind::Write => {
                let v = self.values.on_write(requester, op.block);
                self.privs[requester.index()].record_write(op.block, v);
            }
        }
        self.cores.ops_done[requester.index()] += 1;
    }

    /// Guarantees `block` is LLC-resident at `bank`, fetching from DRAM
    /// and evicting an LLC victim (with its protocol side effects) if
    /// needed. Returns `(data_ready, protocol_done)`.
    fn ensure_llc_resident(
        &mut self,
        bank_id: BankId,
        block: BlockAddr,
        t: Cycle,
    ) -> (Cycle, Cycle) {
        if self.banks[bank_id.index()].llc_peek(block).is_some() {
            return (t + self.cfg.llc_bank.latency, t);
        }
        self.banks[bank_id.index()].llc_stats.misses.incr();
        let mut t_protocol = t;
        // Make room first: the victim's eviction is a protocol action.
        if let Some(victim) = self.banks[bank_id.index()].llc_victim_for(block) {
            t_protocol = self.evict_llc_line(bank_id, victim, t);
        }
        // Fetch.
        let ready = self.dram.access(block, t + self.cfg.llc_bank.latency);
        let version = self.dram_store.get(&block).copied().unwrap_or(0);
        self.banks[bank_id.index()].llc_insert(
            block,
            LlcLine {
                version,
                dirty: false,
                stash: false,
            },
        );
        (ready.max(t_protocol), t_protocol)
    }

    /// Evicts `victim` from the LLC, recalling or discovering any cached
    /// copies (inclusion), writing dirty data back to DRAM. Returns when
    /// the protocol actions complete.
    fn evict_llc_line(&mut self, bank_id: BankId, victim: BlockAddr, t: Cycle) -> Cycle {
        // The victim's entry may live at an opaque bank; consult (and
        // later clear) it there.
        let dir_bank = self.dir_bank_of(victim);
        let t = self.consult_dir_bank(bank_id, dir_bank, t);
        let view = self.banks[dir_bank.index()].dir_view(victim);
        let mut t_done = t;
        let mut line = *self.banks[bank_id.index()]
            .llc_peek(victim)
            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
            .expect("victim is resident");
        match &view {
            DirView::Untracked if line.stash => {
                // A hidden copy may exist: discovery-invalidate round.
                let (hit, done) =
                    self.run_discovery(bank_id, victim, DiscoveryIntent::Invalidate, None, t);
                t_done = done;
                let bank = &mut self.banks[bank_id.index()];
                bank.stats.evict_discoveries.incr();
                if let Some(found) = hit {
                    if found.with_data && found.dirty {
                        line.version = found.version;
                        line.dirty = true;
                    }
                    bank.stats.inclusion_invalidations.incr();
                }
            }
            DirView::Untracked => {}
            tracked => {
                // Recall every copy (inclusion requires it).
                let holders = tracked.holders();
                let probe = match tracked {
                    DirView::Exclusive(_) => Probe::Recall,
                    _ => Probe::Inv,
                };
                let bank_node = bank_id.node();
                for holder in &holders {
                    let probe_arr =
                        self.deliver(bank_node, holder.node(), probe.flits(), probe.class(), t);
                    let ans = self.probe_with_witness(*holder, victim, probe);
                    let rep_arr = self.deliver(
                        holder.node(),
                        bank_node,
                        ans.reply.flits(),
                        ans.reply.class(),
                        probe_arr,
                    );
                    t_done = t_done.max(rep_arr);
                    if ans.reply == ProbeReply::AckDirtyData {
                        line.version = ans.version;
                        line.dirty = true;
                    }
                }
                self.banks[dir_bank.index()].dir_remove(victim);
                let bank = &mut self.banks[bank_id.index()];
                bank.stats.llc_recalls.incr();
                bank.stats.inclusion_invalidations.add(holders.len() as u64);
            }
        }
        let bank = &mut self.banks[bank_id.index()];
        bank.llc_remove(victim);
        bank.llc_stats.evictions.incr();
        if line.dirty {
            bank.llc_stats.writebacks.incr();
            self.dram_store.insert(victim, line.version);
            // Posted write: occupies a DRAM channel but nothing waits.
            self.dram.access(victim, t_done);
        }
        t_done
    }

    /// Enacts a directory-eviction action returned by an install: sets the
    /// stash bit for silent victims, invalidates the holders of
    /// conventional victims. Returns when the action's probes complete.
    ///
    /// `bank_id` is the bank whose slice evicted — the victim's home for
    /// every organization except opaque, whose shards evict blocks homed
    /// at *other* banks; the victim's stash bit and LLC data always live
    /// at `home(victim)`.
    fn enact_dir_eviction(&mut self, bank_id: BankId, action: EvictionAction, t: Cycle) -> Cycle {
        match action {
            EvictionAction::None => t,
            EvictionAction::Silent { block, .. } => {
                // The stash mechanism: remember a hidden copy may exist.
                let home = self.home(block);
                self.banks[home.index()].set_stash_bit(block, true);
                t
            }
            EvictionAction::Invalidate { block, view } => {
                let home = self.home(block);
                let holders = view.holders();
                let probe = match &view {
                    DirView::Exclusive(_) => Probe::Recall,
                    _ => Probe::Inv,
                };
                let bank_node = bank_id.node();
                let mut t_done = t;
                for holder in &holders {
                    let probe_arr =
                        self.deliver(bank_node, holder.node(), probe.flits(), probe.class(), t);
                    let ans = self.probe_with_witness(*holder, block, probe);
                    let rep_arr = self.deliver(
                        holder.node(),
                        bank_node,
                        ans.reply.flits(),
                        ans.reply.class(),
                        probe_arr,
                    );
                    t_done = t_done.max(rep_arr);
                    if ans.reply == ProbeReply::AckDirtyData {
                        let line = self.banks[home.index()]
                            .llc_peek_mut(block)
                            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                            .expect("LLC inclusion: tracked block resident");
                        line.version = ans.version;
                        line.dirty = true;
                    }
                }
                let bank = &mut self.banks[bank_id.index()];
                bank.stats.dir_eviction_probes.add(holders.len() as u64);
                t_done
            }
        }
    }

    /// Runs a discovery broadcast for `block`, probing every core except
    /// `exclude`. Returns the hit (at most one core holds a hidden copy)
    /// and the *conclusive* time: since a hidden copy is unique, the home
    /// proceeds as soon as the positive reply arrives, letting the
    /// trailing not-present replies drain off the critical path. Only a
    /// fully negative round (stale stash bit) must wait for every reply.
    fn run_discovery(
        &mut self,
        bank_id: BankId,
        block: BlockAddr,
        intent: DiscoveryIntent,
        exclude: Option<CoreId>,
        t: Cycle,
    ) -> (Option<DiscoveryHit>, Cycle) {
        let probe = Probe::Discovery(intent);
        let bank_node = bank_id.node();
        let mut t_all = t;
        let mut t_positive = None;
        let mut hit: Option<DiscoveryHit> = None;
        for target in discovery_targets(self.cfg.cores, exclude) {
            let probe_arr = self.deliver(bank_node, target.node(), probe.flits(), probe.class(), t);
            let ans = self.probe_with_witness(target, block, probe);
            let rep_arr = self.deliver(
                target.node(),
                bank_node,
                ans.reply.flits(),
                ans.reply.class(),
                probe_arr,
            );
            t_all = t_all.max(rep_arr);
            if ans.reply != ProbeReply::NotPresent {
                debug_assert!(hit.is_none(), "at most one hidden copy of {block}");
                t_positive = Some(rep_arr);
                hit = Some(DiscoveryHit {
                    owner: target,
                    version: ans.version,
                    dirty: ans.reply == ProbeReply::AckDirtyData,
                    retained: ans.retained,
                    with_data: ans.reply.has_data(),
                });
            }
        }
        (hit, t_positive.unwrap_or(t_all))
    }

    // ---- end of run ----

    fn final_check(&mut self) -> Vec<String> {
        let mut problems = crate::checker::check(self, true);
        problems.extend(self.values.violations().iter().cloned());
        problems
    }

    fn build_report(self, violations: Vec<String>) -> SimReport {
        let mut sink = StatSink::new();
        let cycles = self
            .cores
            .finish
            .iter()
            .map(|f| f.unwrap_or(Cycle::ZERO).get())
            .max()
            .unwrap_or(0);
        let completed_ops: u64 = self.cores.ops_done.iter().sum();

        // Every per-component section is built as its own *shard* sink
        // holding only additive counters, then folded into the report
        // with `StatSink::merge`. Derived ratios (miss rates) are
        // recomputed from the merged totals afterwards.
        for p in &self.privs {
            let mut shard = StatSink::new();
            p.l1_stats.export_counters("l1", &mut shard);
            p.l2_stats.export_counters("l2", &mut shard);
            sink.merge(&shard);
        }

        // Backend counters exist only for configs that can move them
        // (`has_backend_stats` is a pure function of the config), so every
        // legacy organization's report keeps its exact historical key set.
        let backend_stats = self.cfg.dir.has_backend_stats();
        let mut dir_occupancy = 0usize;
        for b in &self.banks {
            let mut shard = StatSink::new();
            b.llc_stats.export_counters("llc", &mut shard);
            b.dir().stats().export("dir", &mut shard);
            b.stats.export("bank", &mut shard);
            if backend_stats {
                b.backend.export("backend", &mut shard);
            }
            sink.merge(&shard);
            dir_occupancy += b.dir().occupancy();
        }
        if backend_stats && self.cfg.dir.is_opaque() {
            // Opaque-map load spread: max/mean of per-bank directory-shard
            // accesses (1.0 = perfectly balanced, 0.0 = no accesses).
            let per_bank: Vec<u64> = self
                .banks
                .iter()
                .map(|b| b.backend.dir_bank_accesses.get())
                .collect();
            let max = per_bank.iter().copied().max().unwrap_or(0) as f64;
            let mean = per_bank.iter().sum::<u64>() as f64 / per_bank.len().max(1) as f64;
            sink.put(
                "backend.dir_bank_imbalance",
                if mean > 0.0 { max / mean } else { 0.0 },
            );
        }

        // Counter sums are exact in f64 (well below 2^53), so these
        // ratios match the pre-shard single-pass computation bit for
        // bit.
        for prefix in ["l1", "l2", "llc"] {
            let misses = sink.get_or_zero(&format!("{prefix}.misses"));
            let total = sink.get_or_zero(&format!("{prefix}.hits")) + misses;
            let rate = if total == 0.0 { 0.0 } else { misses / total };
            sink.put(format!("{prefix}.miss_rate"), rate);
        }

        sink.put("dir.occupancy_final", dir_occupancy as f64);
        sink.put(
            "dir.storage_bits",
            self.banks
                .iter()
                .map(|b| b.dir().storage_bits(&self.cfg.cost_params()))
                .sum::<u64>() as f64,
        );

        self.net.export("noc", &mut sink);
        self.dram.export("dram", &mut sink);

        if let Some(mean) = self.miss_latency.mean() {
            sink.put("core.mean_miss_latency", mean);
        }
        if let Some(p95) = self.miss_latency.quantile(0.95) {
            sink.put("core.p95_miss_latency", p95 as f64);
        }
        sink.put("core.misses", self.miss_latency.count() as f64);
        if let Some(mean) = self.discovery_latency.mean() {
            sink.put("bank.mean_discovery_latency", mean);
        }
        if let Some(mean) = self.inv_round_size.mean() {
            sink.put("bank.mean_inv_round_size", mean);
        }
        sink.put("machine.cycles", cycles as f64);
        sink.put("machine.ops", completed_ops as f64);

        let (fault, snapshot) = match self.faults {
            Some(plan) => (plan.summary, self.snapshot),
            None => (crate::fault::FaultSummary::default(), None),
        };

        // Witnessed transitions, sorted by (section, row, col) — the
        // three protocol matrices from the witness maps, plus a
        // fault_response row per class whose injections were caught by
        // its expected detector (the labels the protocol-model artifact
        // uses: `Debug` CamelCase).
        let mut coverage = Vec::new();
        if let Some(witness) = self.witness {
            witness.export(&mut coverage);
            for &class in FaultClass::ALL {
                let injected = fault.injected_for(class);
                let detector = expected_detector(class);
                if injected > 0 && fault.detected_for(detector) > 0 {
                    coverage.push(TransitionHits {
                        section: "fault_response".to_string(),
                        row: format!("{class:?}"),
                        col: format!("{detector:?}"),
                        hits: injected,
                    });
                }
            }
        }

        SimReport {
            cycles,
            completed_ops,
            violations,
            sink,
            timeline: self.timeline,
            fault,
            snapshot,
            coverage,
        }
    }
}

/// Adjusts the decide()-planned view against what probes actually found:
/// a forwarded-to owner that had concurrently evicted does not become a
/// sharer. `owner_gone` is true only when a `FwdGetS` was sent and its
/// target reported no retained copy.
fn reconcile_view(planned: DirView, requester: CoreId, owner_gone: bool) -> DirView {
    match planned {
        DirView::Shared(set) if owner_gone => DirView::Shared(
            stashdir_common::SharerSet::singleton(set.capacity(), requester),
        ),
        v => v,
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
    use stashdir_mem::{CacheConfig, ReplKind};

    /// A tiny 4-core machine that makes conflicts easy to provoke:
    /// 4-block L1, 8-block L2, 16-block LLC banks.
    fn tiny(dir: DirSpec) -> SystemConfig {
        SystemConfig {
            cores: 4,
            block_bytes: 64,
            l1: CacheConfig::new(256, 2, 64, 1, ReplKind::Lru),
            l2: CacheConfig::new(512, 2, 64, 4, ReplKind::Lru),
            llc_bank: CacheConfig::new(1024, 2, 64, 8, ReplKind::Lru),
            dir,
            ..SystemConfig::default()
        }
        .with_check_interval(1)
    }

    fn no_ops(cores: u16) -> Vec<Vec<MemOp>> {
        vec![Vec::new(); cores as usize]
    }

    fn run(cfg: SystemConfig, traces: Vec<Vec<MemOp>>) -> crate::SimReport {
        let report = Machine::new(cfg).run(traces);
        report.assert_clean();
        report
    }

    /// The interned witness tables must carry exactly the canonical
    /// labels of `stashdir_protocol::reachability`, at exactly the
    /// index each `*_idx` function assigns — otherwise campaign
    /// coverage would diff garbage against the protocol-model artifact.
    #[test]
    fn witness_label_tables_match_reachability_and_idx_functions() {
        use stashdir_protocol::reachability as reach;
        for s in [
            PrivState::Invalid,
            PrivState::Shared,
            PrivState::Exclusive,
            PrivState::Modified,
        ] {
            assert_eq!(STATE_LABELS[state_idx(s)], reach::state_label(s));
        }
        for p in [
            Probe::FwdGetS,
            Probe::FwdGetM,
            Probe::Inv,
            Probe::Recall,
            Probe::Discovery(DiscoveryIntent::Share),
            Probe::Discovery(DiscoveryIntent::Invalidate),
        ] {
            assert_eq!(PROBE_LABELS[probe_idx(p)], reach::probe_label(p));
        }
        for k in [MemOpKind::Read, MemOpKind::Write] {
            assert_eq!(OP_LABELS[op_idx(k)], reach::op_label(k));
        }
        for r in [
            Request::GetS,
            Request::GetM,
            Request::Upgrade,
            Request::PutS,
            Request::PutE,
            Request::PutM,
        ] {
            assert_eq!(REQUEST_LABELS[request_idx(r)], reach::request_label(r));
        }
        for v in [
            DirView::Untracked,
            DirView::Exclusive(CoreId::new(0)),
            DirView::Shared(stashdir_common::SharerSet::new(1)),
        ] {
            assert_eq!(VIEW_LABELS[view_idx(&v)], reach::view_label(&v));
        }
    }

    #[test]
    fn event_ring_is_preallocated_and_never_grows() {
        let mut ring = EventRing::new();
        assert_eq!(ring.capacity(), RECENT_EVENTS, "allocated up front");
        for i in 0..(3 * RECENT_EVENTS as u64) {
            ring.push(Cycle::new(i), Event::Issue(CoreId::new(0)));
        }
        assert_eq!(
            ring.capacity(),
            RECENT_EVENTS,
            "hot-path pushes must not reallocate"
        );
        let cycles: Vec<u64> = ring.iter().map(|(at, _)| at.get()).collect();
        let newest = 3 * RECENT_EVENTS as u64 - 1;
        let oldest = newest + 1 - RECENT_EVENTS as u64;
        assert_eq!(
            cycles,
            (oldest..=newest).collect::<Vec<_>>(),
            "iterates oldest to newest over the last RECENT_EVENTS entries"
        );
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
    fn sparse_conflicts_invalidate_but_stash_conflicts_do_not() {
        // Working set far beyond a 1-set directory slice: every core
        // streams over its own private blocks, thrashing the directory.
        let mk_traces = || {
            let mut traces = no_ops(4);
            for (c, trace) in traces.iter_mut().enumerate() {
                for round in 0..4 {
                    for i in 0..32u64 {
                        let block = BlockAddr::new(1000 + c as u64 * 512 + i * 4);
                        let _ = round;
                        trace.push(MemOp::read(block));
                    }
                }
            }
            traces
        };
        let tiny_dir = |spec| tiny(spec);
        let sparse = run(
            tiny_dir(DirSpec::Sparse {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::Lru,
            }),
            mk_traces(),
        );
        let stash = run(
            tiny_dir(DirSpec::Stash {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::PrivateFirstLru,
            }),
            mk_traces(),
        );
        assert!(
            sparse.stat("dir.copies_invalidated") > 0.0,
            "sparse under-provisioning must force invalidations"
        );
        assert_eq!(
            stash.stat("dir.copies_invalidated"),
            0.0,
            "all-private workload: stash evicts silently"
        );
        assert!(stash.stat("dir.silent_evictions") > 0.0);
    }

    #[test]
    fn hidden_blocks_are_rediscovered() {
        // Core 0 loads private blocks that overflow a 1-entry-per-set
        // stash directory (hiding most of them); then core 1 reads the
        // same blocks, which must trigger discovery, not stale data.
        let blocks: Vec<BlockAddr> = (0..16).map(|i| BlockAddr::new(100 + i * 4)).collect();
        let mut traces = no_ops(4);
        for &b in &blocks {
            traces[0].push(MemOp::write(b));
        }
        for &b in &blocks {
            traces[1].push(MemOp::read(b).with_think(5000));
        }
        let report = run(
            tiny(DirSpec::Stash {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::PrivateFirstLru,
            }),
            traces,
        );
        assert!(
            report.stat("bank.discoveries") > 0.0,
            "hidden dirty blocks must be discovered"
        );
        assert!(report.stat("bank.discoveries_found") > 0.0);
    }

    #[test]
    fn llc_eviction_recalls_private_copies() {
        // Three cores each pin one block of LLC bank 0's set 0 (2 ways)
        // in their L2s; the third fill must evict a line that is still
        // privately cached, forcing an inclusion recall.
        let mut traces = no_ops(4);
        for (c, trace) in traces.iter_mut().enumerate().take(3) {
            // Bank 0 blocks (multiple of 4) in the same LLC set:
            // local = block >> 2 in {0, 8, 16} ≡ 0 (mod 8 sets).
            let block = BlockAddr::new(c as u64 * 32);
            trace.push(MemOp::read(block).with_think(500 * c as u32));
            // Keep the core busy so its copy stays resident.
            trace.push(MemOp::read(block).with_think(5000));
        }
        let report = run(tiny(DirSpec::FullMap), traces);
        assert!(report.stat("llc.evictions") > 0.0);
        assert!(
            report.stat("bank.llc_recalls") > 0.0,
            "LLC inclusion must recall tracked copies"
        );
        assert!(report.stat("bank.inclusion_invalidations") > 0.0);
    }

    #[test]
    fn llc_eviction_of_stashed_line_runs_discovery() {
        // Hide blocks (stash dir with tiny slices), then stream enough
        // unrelated blocks through one bank to evict the stashed lines.
        let mut traces = no_ops(4);
        for i in 0..8u64 {
            traces[0].push(MemOp::write(BlockAddr::new(i * 4))); // bank 0
        }
        for i in 0..64u64 {
            traces[1].push(MemOp::read(BlockAddr::new(1024 + i * 4)).with_think(100));
            // bank 0
        }
        let report = run(
            tiny(DirSpec::Stash {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::PrivateFirstLru,
            }),
            traces,
        );
        assert!(
            report.stat("bank.evict_discoveries") > 0.0,
            "evicting a stashed LLC line requires discovery"
        );
    }

    #[test]
    fn writeback_refetch_race_is_ordered() {
        // A dirty block is evicted and immediately re-read; per-channel
        // FIFO must deliver the PutM before the GetS, or the value
        // tracker screams.
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
        run(tiny(DirSpec::FullMap), traces).assert_clean();
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
    /// transaction, across every directory organization and both
    /// clean-eviction modes.
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
            for notify in [true, false] {
                for seed in [1u64, 2] {
                    let mut cfg = tiny(spec);
                    cfg.notify_clean_evictions = notify;
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
                        "{spec} notify={notify} seed={seed}: {:?}",
                        &report.violations[..report.violations.len().min(5)]
                    );
                    assert_eq!(report.completed_ops, 1600);
                }
            }
        }
    }

    #[test]
    fn stash_keeps_performance_with_tiny_directory() {
        // Private streaming: stash at 1/8 must stay close to fullmap,
        // sparse at 1/8 must be slower.
        let mk_traces = || {
            let mut traces = no_ops(4);
            for (c, trace) in traces.iter_mut().enumerate() {
                for _round in 0..6 {
                    for i in 0..24u64 {
                        let block = BlockAddr::new(c as u64 * 4096 + i * 4);
                        trace.push(MemOp::read(block).with_think(2));
                    }
                }
            }
            traces
        };
        let full = run(tiny(DirSpec::FullMap), mk_traces());
        let stash = run(tiny(DirSpec::stash(CoverageRatio::new(1, 8))), mk_traces());
        let sparse = run(tiny(DirSpec::sparse(CoverageRatio::new(1, 8))), mk_traces());
        assert!(
            stash.cycles < sparse.cycles,
            "stash {} should beat sparse {}",
            stash.cycles,
            sparse.cycles
        );
        let stash_slowdown = stash.cycles as f64 / full.cycles as f64;
        assert!(
            stash_slowdown < 1.15,
            "stash within 15% of fullmap, got {stash_slowdown:.3}"
        );
    }

    #[test]
    fn dls_private_blocks_cache_normally() {
        let mut traces = no_ops(4);
        traces[0] = vec![MemOp::read(BlockAddr::new(0)); 10];
        let report = run(tiny(DirSpec::Dls), traces);
        assert_eq!(report.completed_ops, 10);
        assert_eq!(report.stat("l1.hits"), 9.0, "single-toucher blocks fill");
        assert_eq!(report.stat("backend.remote_llc_accesses"), 0.0);
        assert_eq!(report.stat("dir.storage_bits"), 0.0, "DLS has no SRAM");
    }

    #[test]
    fn dls_reclassifies_shared_blocks_to_remote_access() {
        let b = BlockAddr::new(5);
        let mut traces = no_ops(4);
        for _ in 0..20 {
            traces[0].push(MemOp::write(b).with_think(7));
            traces[1].push(MemOp::read(b).with_think(5));
        }
        let report = run(tiny(DirSpec::Dls), traces);
        assert_eq!(report.completed_ops, 40);
        assert_eq!(
            report.stat("backend.dls_reclassifications"),
            1.0,
            "the block crosses private→shared exactly once"
        );
        assert!(
            report.stat("backend.remote_llc_accesses") >= 30.0,
            "once shared, every touch is remote: {}",
            report.stat("backend.remote_llc_accesses")
        );
        assert_eq!(
            report.stat("noc.messages.fwd"),
            0.0,
            "no owner forwards: shared data lives at the LLC"
        );
    }

    #[test]
    fn opaque_demands_take_indirection_hops() {
        // Private streaming across all four cores: most blocks' opaque
        // bank differs from their home, so demands pay indirection.
        let mut traces = no_ops(4);
        for (c, trace) in traces.iter_mut().enumerate() {
            for i in 0..32u64 {
                trace.push(MemOp::read(BlockAddr::new(1000 + c as u64 * 512 + i * 4)));
            }
        }
        let report = run(
            tiny(DirSpec::Opaque {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
            }),
            traces,
        );
        assert!(report.stat("backend.indirection_hops") > 0.0);
        assert!(report.stat("backend.dir_bank_accesses") > 0.0);
        assert!(
            report.stat("backend.dir_bank_imbalance") >= 1.0,
            "imbalance is max/mean"
        );
        assert!(
            report.stat("noc.messages.dir") > 0.0,
            "indirection legs ride the dir message class"
        );
    }

    #[test]
    fn opaque_shares_and_invalidates_coherently() {
        // Producer/consumer sharing plus enough private streaming to force
        // opaque-shard conflict evictions of blocks homed at other banks.
        let hot = BlockAddr::new(5);
        let mut traces = no_ops(4);
        for i in 0..40u64 {
            traces[0].push(MemOp::write(hot).with_think(7));
            traces[1].push(MemOp::read(hot).with_think(5));
            traces[2].push(MemOp::read(BlockAddr::new(2000 + i * 4)).with_think(3));
            traces[3].push(MemOp::read(BlockAddr::new(4000 + i * 4)).with_think(3));
        }
        let report = run(
            tiny(DirSpec::Opaque {
                coverage: CoverageRatio::new(1, 16),
                assoc: 2,
            }),
            traces,
        );
        assert_eq!(report.completed_ops, 160);
        assert!(
            report.stat("dir.copies_invalidated") > 0.0,
            "opaque shards invalidate on conflict like sparse"
        );
    }

    #[test]
    fn legacy_backends_report_no_backend_keys() {
        let mut traces = no_ops(4);
        traces[0].push(MemOp::read(BlockAddr::new(1)));
        for spec in [
            DirSpec::FullMap,
            DirSpec::stash(CoverageRatio::new(1, 8)),
            DirSpec::sparse(CoverageRatio::new(1, 8)),
        ] {
            let report = run(tiny(spec), no_ops(4));
            assert!(
                report.sink.get("backend.remote_llc_accesses").is_none(),
                "{spec}: legacy reports must keep their exact key set"
            );
        }
        let _ = traces;
    }

    #[test]
    fn timeline_samples_accumulate_monotonically() {
        let mut traces = no_ops(4);
        for i in 0..500u64 {
            traces[0].push(MemOp::write(BlockAddr::new(i % 64)).with_think(10));
        }
        let cfg = tiny(DirSpec::stash(CoverageRatio::new(1, 8))).with_timeline(1_000);
        let report = Machine::new(cfg).run(traces);
        report.assert_clean();
        assert!(report.timeline.len() > 5, "expected several samples");
        for w in report.timeline.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
            assert!(w[1].ops >= w[0].ops, "cumulative ops are monotone");
            assert!(w[1].silent_evictions >= w[0].silent_evictions);
            assert!(w[1].discoveries >= w[0].discoveries);
        }
    }

    #[test]
    fn timeline_off_by_default() {
        let mut traces = no_ops(4);
        traces[0].push(MemOp::read(BlockAddr::new(1)));
        let report = run(tiny(DirSpec::FullMap), traces);
        assert!(report.timeline.is_empty());
    }

    #[test]
    fn report_exports_core_keys() {
        let mut traces = no_ops(4);
        traces[0].push(MemOp::write(BlockAddr::new(1)));
        let report = run(tiny(DirSpec::stash(CoverageRatio::FULL)), traces);
        for key in [
            "machine.cycles",
            "machine.ops",
            "l1.hits",
            "l2.misses",
            "llc.misses",
            "dir.allocations",
            "noc.flit_hops",
            "dram.accesses",
            "dir.storage_bits",
        ] {
            assert!(report.sink.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_cores() {
        let _ = Machine::new(tiny(DirSpec::FullMap)).run(no_ops(2));
    }

    // ---- deterministic fault injection (the chaos layer) ----

    use crate::fault::{validate_snapshot, FaultBurst};

    /// Shared-traffic traces: every core reads and writes a small shared
    /// set, so directory entries, sharer sets and exclusive owners all
    /// exist for the corruptors to target.
    fn sharing_traces() -> Vec<Vec<MemOp>> {
        let mut traces = no_ops(4);
        for (c, trace) in traces.iter_mut().enumerate() {
            for round in 0..20u64 {
                let b = BlockAddr::new(round % 5);
                trace.push(MemOp::read(b).with_think(c as u32));
                if c == 0 {
                    trace.push(MemOp::write(b).with_think(3));
                }
            }
        }
        traces
    }

    /// Directory-thrashing traces: each core reads a private working set
    /// that fits its L2 (distinct sets) but vastly exceeds the tiny stash
    /// directory's reach, so entries are silently evicted with stash bits
    /// while the copies stay live — the StashClear target.
    fn thrashing_traces() -> Vec<Vec<MemOp>> {
        let mut traces = no_ops(4);
        for (c, trace) in traces.iter_mut().enumerate() {
            for i in 0..8u64 {
                trace.push(MemOp::read(BlockAddr::new(100 + c as u64 * 16 + i)));
            }
        }
        traces
    }

    fn chaos_with(dir: DirSpec, class: FaultClass, traces: Vec<Vec<MemOp>>) -> crate::SimReport {
        Machine::new(tiny(dir))
            .with_faults(FaultConfig::for_class(class, 11))
            .run(traces)
    }

    fn chaos(class: FaultClass, traces: Vec<Vec<MemOp>>) -> crate::SimReport {
        chaos_with(DirSpec::stash(CoverageRatio::new(1, 8)), class, traces)
    }

    /// A 2-way stash directory: per-bank capacity 2, so the thrashing
    /// traces force silent (stash-bit) evictions of entries whose copies
    /// are still L2-resident.
    fn tight_stash() -> DirSpec {
        DirSpec::Stash {
            coverage: CoverageRatio::new(1, 8),
            assoc: 2,
            repl: DirReplPolicy::PrivateFirstLru,
        }
    }

    #[test]
    fn sharer_flip_is_detected_by_the_checker() {
        let report = chaos(FaultClass::SharerFlip, sharing_traces());
        assert_eq!(report.fault.injected_sharer_flip, 1);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
        assert!(!report.violations.is_empty());
        assert!(report.snapshot.is_some());
    }

    #[test]
    fn stash_clear_is_detected_by_the_checker() {
        let report = chaos_with(tight_stash(), FaultClass::StashClear, thrashing_traces());
        assert_eq!(report.fault.injected_stash_clear, 1, "{:?}", report.fault);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
    }

    #[test]
    fn stash_spurious_is_detected_by_the_checker() {
        let report = chaos(FaultClass::StashSpurious, sharing_traces());
        assert_eq!(report.fault.injected_stash_spurious, 1);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
    }

    #[test]
    fn drop_grant_is_detected_at_final_check() {
        let report = chaos(FaultClass::DropGrant, sharing_traces());
        assert_eq!(report.fault.injected_drop_grant, 1);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert!(
            report.violations.iter().any(|v| v.starts_with("I6")),
            "{:?}",
            report.violations
        );
        assert!(report.snapshot.is_some());
    }

    #[test]
    fn noc_delay_trips_the_watchdog() {
        let report = chaos(FaultClass::NocDelay, sharing_traces());
        assert_eq!(report.fault.injected_noc_delay, 1);
        assert!(report.fault.detected_watchdog >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
        assert!(
            report.violations.iter().any(|v| v.starts_with("Stall")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn noc_duplicate_is_detected_as_a_spurious_demand() {
        let report = chaos(FaultClass::NocDuplicate, sharing_traces());
        assert_eq!(report.fault.injected_noc_duplicate, 1);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert!(
            report.violations.iter().any(|v| v.starts_with("I8")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn stuck_transient_trips_the_watchdog() {
        let report = chaos(FaultClass::StuckTransient, sharing_traces());
        assert_eq!(report.fault.injected_stuck_transient, 1);
        assert!(report.fault.detected_watchdog >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
    }

    #[test]
    fn every_fault_class_is_caught_by_its_expected_detector() {
        use crate::fault::expected_detector;
        for &class in FaultClass::ALL {
            let report = if class == FaultClass::StashClear {
                chaos_with(tight_stash(), class, thrashing_traces())
            } else {
                chaos(class, sharing_traces())
            };
            assert!(
                report.fault.injected_total() >= 1,
                "{class:?}: nothing injected"
            );
            let caught = match expected_detector(class) {
                Detector::Invariant => report.fault.detected_invariant,
                Detector::Watchdog => report.fault.detected_watchdog,
            };
            assert!(
                caught >= 1,
                "{class:?} escaped its expected detector: {:?}",
                report.fault
            );
            // The snapshot is rendered mid-run, so its injection count
            // must already include every injection the report carries.
            let text = report.snapshot.as_deref().expect("caught runs dump one");
            let snapshot = Value::parse(text).expect("snapshot is valid JSON");
            let injected = snapshot
                .get("fault")
                .and_then(|f| f.get("injected"))
                .and_then(Value::as_u64);
            assert_eq!(
                injected,
                Some(report.fault.injected_total()),
                "{class:?}: snapshot and report disagree on injections"
            );
        }
    }

    #[test]
    fn snapshot_matches_the_published_schema() {
        let report = chaos(FaultClass::SharerFlip, sharing_traces());
        let text = report.snapshot.expect("faulty run dumps a snapshot");
        let value = Value::parse(&text).expect("snapshot is valid JSON");
        validate_snapshot(&value).expect("snapshot matches schema");
        assert_eq!(
            value.get("reason").and_then(Value::as_str),
            Some("invariant_violation")
        );
    }

    #[test]
    fn disabled_fault_layer_changes_nothing() {
        let plain =
            Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8)))).run(sharing_traces());
        let threaded = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(FaultConfig::disabled())
            .run(sharing_traces());
        plain.assert_clean();
        threaded.assert_clean();
        assert_eq!(plain.cycles, threaded.cycles);
        assert_eq!(plain.completed_ops, threaded.completed_ops);
        assert_eq!(plain.sink, threaded.sink);
        assert_eq!(plain.fault, threaded.fault);
        assert_eq!(threaded.fault, Default::default());
        assert_eq!(threaded.snapshot, None);
    }

    #[test]
    fn armed_watchdog_stays_quiet_on_a_healthy_run() {
        let cfg = FaultConfig {
            watchdog_bound: 1_000_000,
            ..FaultConfig::disabled()
        };
        let report = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(cfg)
            .run(sharing_traces());
        report.assert_clean();
        assert_eq!(report.fault.detected_watchdog, 0);
        assert_eq!(report.fault.quiesced, 0);
    }

    /// A two-burst campaign-style plan: a sharer flip composed with
    /// duplicated demands, both steady from cycle zero.
    fn composed_plan(seed: u64) -> FaultConfig {
        FaultConfig::for_campaign(seed)
            .with_burst(FaultBurst {
                class: FaultClass::SharerFlip,
                onset: 0,
                len: 0,
                gap: 0,
                rate_per_mille: 1000,
            })
            .with_burst(FaultBurst {
                class: FaultClass::NocDuplicate,
                onset: 0,
                len: 0,
                gap: 0,
                rate_per_mille: 1000,
            })
    }

    #[test]
    fn composed_bursts_inject_both_classes_and_are_detected() {
        let report = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(composed_plan(11))
            .run(sharing_traces());
        assert!(report.fault.injected_sharer_flip >= 1, "{:?}", report.fault);
        assert!(
            report.fault.injected_noc_duplicate >= 1,
            "{:?}",
            report.fault
        );
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
    }

    #[test]
    fn burst_onset_gates_injection() {
        // The same schedule pushed past the run's horizon injects
        // nothing: the windows never open.
        let mut plan = composed_plan(11);
        for b in &mut plan.bursts {
            b.onset = 1 << 40;
        }
        let report = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(plan)
            .run(sharing_traces());
        report.assert_clean();
        assert_eq!(report.fault.injected_total(), 0);
        assert_eq!(report.fault.quiesced, 0);
    }

    #[test]
    fn composed_snapshot_embeds_the_active_schedule() {
        let report = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(composed_plan(11))
            .run(sharing_traces());
        let text = report.snapshot.expect("composed faulty run quiesces");
        let value = Value::parse(&text).expect("snapshot is valid JSON");
        validate_snapshot(&value).expect("snapshot matches schema");
        let fault = value.get("fault").expect("faulty snapshot embeds schedule");
        let classes: Vec<&str> = fault
            .get("classes")
            .and_then(Value::as_array)
            .expect("class set present")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(classes, ["noc_duplicate", "sharer_flip"]);
        let bursts = fault
            .get("bursts")
            .and_then(Value::as_array)
            .expect("burst schedule present");
        assert_eq!(bursts.len(), 2);
        for b in bursts {
            // Steady bursts are in their hot window at quiesce time.
            assert_eq!(b.get("phase").and_then(Value::as_str), Some("burst"));
        }
    }

    #[test]
    fn composed_bursts_are_deterministic() {
        let run = || {
            Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
                .with_faults(composed_plan(11))
                .run(sharing_traces())
        };
        let a = run();
        let b = run();
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.snapshot, b.snapshot);
        // A different seed is free to diverge (same schedule, different
        // dice) without changing what is detected.
        let c = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(composed_plan(12))
            .run(sharing_traces());
        assert!(c.fault.detected_invariant >= 1);
    }
}
