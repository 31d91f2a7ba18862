//! Exhaustive reachability exploration of the protocol decision layer.
//!
//! Explores, by breadth-first search, **every reachable state** of a
//! 3-core single-block abstract machine driven by the crate's pure
//! decision functions (`local_access`, `probe`, `decide`, `decide_put`,
//! `needs_discovery`), under both the conventional sparse and the stash
//! eviction disciplines, with and without clean-eviction notification.
//!
//! The abstraction: transactions are atomic (exactly the serialization
//! the simulator's home nodes enforce), and data is tracked as a
//! *freshness bit* per location (a write makes the writer's copy the only
//! fresh one; transfers copy freshness from the source). The checked
//! properties are:
//!
//! * **Single writer**: at most one E/M copy; E/M excludes other copies.
//! * **Grant freshness**: every read/write transaction hands the
//!   requester *fresh* data — stale grants are exactly the bugs a broken
//!   stash/discovery design would introduce.
//! * **Coverage**: every valid copy is directory-tracked, or hidden
//!   under the stash bit (stash mode only).
//! * **Reachability**: some location (copy, LLC, or memory) always holds
//!   fresh data — no lost writes.
//!
//! In-flight races (writeback buffers, message overtaking) are the
//! simulator's concern and are fuzzed there; this module nails down the
//! *decision layer* exhaustively.
//!
//! Beyond checking, the explorer **records every decision-layer
//! transition it exercises** — each `(PrivState, Probe)` pair fed to
//! [`probe`], each `(PrivState, MemOpKind)` pair fed to [`local_access`],
//! and each `(Request, DirView-kind)` pair fed to [`decide`] /
//! [`decide_put`] — as a [`TransitionSet`] of canonical labels. The
//! `stashdir-lint` coverage pass diffs this *reachable* set against the
//! keys those same functions handle (every key it calls them with that
//! does not panic), flagging both uncovered reachable transitions and
//! dead handled ones.

#![expect(
    clippy::indexing_slicing,
    reason = "the abstract machine is a fixed [CoreSt; 3] array indexed by \
              core numbers from `0..CORES` loops, in bounds by construction; \
              this module is model checking, not the simulator hot path"
)]

use crate::home::{decide, decide_put, discovery_intent, needs_discovery, DirView, PutOutcome};
use crate::msg::{DiscoveryIntent, Grant, Probe, Request};
use crate::private::{local_access, probe, AccessOutcome, MemOpKind, PrivState};
use stashdir_common::fxhash::FxHashSet;
use stashdir_common::{CoreId, SharerSet};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const N: usize = 3;

/// One exploration configuration: eviction discipline × notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// `true` for the stash directory (silent private-entry eviction plus
    /// discovery); `false` for a conventional sparse directory.
    pub stash_dir: bool,
    /// `true` when private caches notify the home of clean evictions.
    pub notify_clean: bool,
}

/// The four mode combinations the simulator supports.
pub const ALL_MODES: [Mode; 4] = [
    Mode {
        stash_dir: true,
        notify_clean: true,
    },
    Mode {
        stash_dir: true,
        notify_clean: false,
    },
    Mode {
        stash_dir: false,
        notify_clean: true,
    },
    Mode {
        stash_dir: false,
        notify_clean: false,
    },
];

/// Canonical label for a private-cache state, matching the variant
/// identifier in the source (`Modified`, `Exclusive`, `Shared`,
/// `Invalid`).
pub fn state_label(state: PrivState) -> &'static str {
    match state {
        PrivState::Modified => "Modified",
        PrivState::Exclusive => "Exclusive",
        PrivState::Shared => "Shared",
        PrivState::Invalid => "Invalid",
    }
}

/// Canonical label for a probe, matching the variant identifier in the
/// source; discovery probes carry their intent (`Discovery(Share)`).
pub fn probe_label(p: Probe) -> &'static str {
    match p {
        Probe::FwdGetS => "FwdGetS",
        Probe::FwdGetM => "FwdGetM",
        Probe::Inv => "Inv",
        Probe::Recall => "Recall",
        Probe::Discovery(DiscoveryIntent::Share) => "Discovery(Share)",
        Probe::Discovery(DiscoveryIntent::Invalidate) => "Discovery(Invalidate)",
    }
}

/// Canonical label for a probe's *kind* with the discovery payload
/// ignored (`FwdGetS`, `Discovery`, ...): one node of the lint's
/// waits-for graph.
pub fn probe_base_label(p: Probe) -> &'static str {
    match p {
        Probe::FwdGetS => "FwdGetS",
        Probe::FwdGetM => "FwdGetM",
        Probe::Inv => "Inv",
        Probe::Recall => "Recall",
        Probe::Discovery(_) => "Discovery",
    }
}

/// Canonical label for a grant, matching the variant identifier.
pub fn grant_label(g: Grant) -> &'static str {
    match g {
        Grant::Shared => "Shared",
        Grant::Exclusive => "Exclusive",
        Grant::Modified => "Modified",
    }
}

/// Canonical label for a request, matching the variant identifier.
pub fn request_label(req: Request) -> &'static str {
    match req {
        Request::GetS => "GetS",
        Request::GetM => "GetM",
        Request::Upgrade => "Upgrade",
        Request::PutS => "PutS",
        Request::PutE => "PutE",
        Request::PutM => "PutM",
    }
}

/// Canonical label for a directory view's *kind* (payload ignored).
pub fn view_label(view: &DirView) -> &'static str {
    match view {
        DirView::Untracked => "Untracked",
        DirView::Exclusive(_) => "Exclusive",
        DirView::Shared(_) => "Shared",
    }
}

/// Canonical label for a memory operation kind.
pub fn op_label(op: MemOpKind) -> &'static str {
    match op {
        MemOpKind::Read => "Read",
        MemOpKind::Write => "Write",
    }
}

/// Messages the home emitted while handling one `(request, view-kind)`
/// pair, unioned over every abstract state in which the model exercised
/// the pair. The lint's waits-for artifact records them beside the
/// emissions it tabulates from the home decision functions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HomeEmission {
    probes: BTreeSet<&'static str>,
    grants: BTreeSet<&'static str>,
}

impl HomeEmission {
    /// Probe kinds emitted, as base labels (see [`probe_base_label`]).
    pub fn probes(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.probes.iter().copied()
    }

    /// Grant kinds issued (see [`grant_label`]).
    pub fn grants(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.grants.iter().copied()
    }
}

/// The set of decision-layer transitions exercised by an exploration,
/// keyed by canonical labels (see [`state_label`] and friends).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionSet {
    /// `(PrivState, Probe)` pairs fed to [`probe`].
    probe: BTreeSet<(&'static str, &'static str)>,
    /// `(PrivState, MemOpKind)` pairs fed to [`local_access`].
    local: BTreeSet<(&'static str, &'static str)>,
    /// `(Request, DirView-kind)` pairs fed to [`decide`] / [`decide_put`].
    home: BTreeSet<(&'static str, &'static str)>,
    /// Messages emitted per `(Request, DirView-kind)` home pair.
    home_emits: BTreeMap<(&'static str, &'static str), HomeEmission>,
}

impl TransitionSet {
    /// An empty set.
    pub fn new() -> TransitionSet {
        TransitionSet::default()
    }

    /// Folds another set into this one.
    pub fn merge(&mut self, other: &TransitionSet) {
        self.probe.extend(other.probe.iter().copied());
        self.local.extend(other.local.iter().copied());
        self.home.extend(other.home.iter().copied());
        for (pair, emission) in &other.home_emits {
            let mine = self.home_emits.entry(*pair).or_default();
            mine.probes.extend(emission.probes.iter().copied());
            mine.grants.extend(emission.grants.iter().copied());
        }
    }

    /// The reachable `(state, probe)` label pairs, sorted.
    pub fn probe_pairs(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.probe.iter().copied()
    }

    /// The reachable `(state, op)` label pairs, sorted.
    pub fn local_pairs(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.local.iter().copied()
    }

    /// The reachable `(request, view-kind)` label pairs, sorted.
    pub fn home_pairs(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.home.iter().copied()
    }

    fn record_probe(&mut self, state: PrivState, p: Probe) {
        self.probe.insert((state_label(state), probe_label(p)));
    }

    fn record_local(&mut self, state: PrivState, op: MemOpKind) {
        self.local.insert((state_label(state), op_label(op)));
    }

    fn record_home(&mut self, req: Request, view: &DirView) {
        self.home.insert((request_label(req), view_label(view)));
    }

    /// Emissions recorded for each reachable `(request, view-kind)` home
    /// pair, in sorted order. Put pairs appear with empty emissions.
    pub fn home_emissions(
        &self,
    ) -> impl Iterator<Item = ((&'static str, &'static str), &HomeEmission)> + '_ {
        self.home_emits.iter().map(|(pair, e)| (*pair, e))
    }

    fn record_home_emission(
        &mut self,
        req: Request,
        view: &DirView,
        probes: &[(CoreId, Probe)],
        grant: Option<Grant>,
    ) {
        let e = self
            .home_emits
            .entry((request_label(req), view_label(view)))
            .or_default();
        for &(_, p) in probes {
            e.probes.insert(probe_base_label(p));
        }
        if let Some(g) = grant {
            e.grants.insert(grant_label(g));
        }
    }
}

/// Result of exploring one [`Mode`].
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Number of distinct abstract states reached.
    pub states: usize,
    /// Decision-layer transitions exercised along the way.
    pub transitions: TransitionSet,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CoreSt {
    state: PrivState,
    fresh: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum View {
    Untracked,
    Exclusive(usize),
    Shared(u8), // bitmask over N cores
}

impl View {
    fn to_dir_view(self) -> DirView {
        match self {
            View::Untracked => DirView::Untracked,
            View::Exclusive(c) => DirView::Exclusive(CoreId::new(c as u16)),
            View::Shared(mask) => {
                let mut set = SharerSet::new(N as u16);
                for c in 0..N {
                    if mask & (1 << c) != 0 {
                        set.insert(CoreId::new(c as u16));
                    }
                }
                DirView::Shared(set)
            }
        }
    }

    fn from_dir_view(view: &DirView) -> View {
        match view {
            DirView::Untracked => View::Untracked,
            DirView::Exclusive(c) => View::Exclusive(c.index()),
            DirView::Shared(set) => {
                let mut mask = 0u8;
                for c in set.iter() {
                    mask |= 1 << c.index();
                }
                View::Shared(mask)
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct St {
    cores: [CoreSt; N],
    view: View,
    stash: bool,
    llc_present: bool,
    llc_fresh: bool,
    dram_fresh: bool,
}

impl St {
    fn initial() -> St {
        St {
            cores: [CoreSt {
                state: PrivState::Invalid,
                fresh: false,
            }; N],
            view: View::Untracked,
            stash: false,
            llc_present: false,
            llc_fresh: true, // never written: everything "fresh"
            dram_fresh: true,
        }
    }

    fn holders(&self) -> Vec<usize> {
        (0..N)
            .filter(|&c| self.cores[c].state != PrivState::Invalid)
            .collect()
    }
}

fn grant_state(grant: Grant) -> PrivState {
    match grant {
        Grant::Shared => PrivState::Shared,
        Grant::Exclusive => PrivState::Exclusive,
        Grant::Modified => PrivState::Modified,
    }
}

/// `true` once any write has happened (freshness starts vacuous).
fn anyone_wrote(st: &St) -> bool {
    !st.dram_fresh || !st.llc_fresh || st.cores.iter().any(|c| c.fresh)
}

struct Explorer {
    mode: Mode,
    transitions: TransitionSet,
}

impl Explorer {
    /// Applies a probe to core `c`, updating freshness bookkeeping;
    /// returns whether the reply carried data, whether that data was
    /// fresh, and whether the copy was retained.
    fn apply_probe(&mut self, st: &mut St, c: usize, p: Probe) -> (bool, bool, bool) {
        self.transitions.record_probe(st.cores[c].state, p);
        let effect = probe(st.cores[c].state, p);
        let had_data = effect.reply.has_data();
        let was_fresh = st.cores[c].fresh;
        let dirty = st.cores[c].state == PrivState::Modified;
        st.cores[c].state = effect.next;
        if effect.next == PrivState::Invalid {
            st.cores[c].fresh = false;
        }
        if had_data && dirty {
            // Dirty data is written through to the LLC.
            st.llc_fresh = was_fresh;
        }
        (had_data, was_fresh, effect.next != PrivState::Invalid)
    }

    /// Ensures the LLC holds the block (fetching from memory).
    fn ensure_llc(&self, st: &mut St) {
        if !st.llc_present {
            st.llc_present = true;
            st.llc_fresh = st.dram_fresh;
        }
    }

    /// One atomic demand transaction. Returns the successor state,
    /// panicking on any protocol-rule violation along the way.
    fn demand(&mut self, mut st: St, c: usize, op: MemOpKind) -> St {
        let mode = self.mode;
        self.transitions.record_local(st.cores[c].state, op);
        let req = match local_access(st.cores[c].state, op) {
            AccessOutcome::Hit(next) => {
                // Local hit: must be reading/writing fresh data.
                assert!(st.cores[c].fresh || !anyone_wrote(&st), "stale local hit");
                st.cores[c].state = next;
                if op == MemOpKind::Write {
                    write_by(&mut st, c);
                }
                return st;
            }
            AccessOutcome::Miss(req) => req,
        };

        // Discovery phase.
        let mut view = st.view.to_dir_view();
        if mode.stash_dir && needs_discovery(&view, st.stash) {
            let intent = discovery_intent(req);
            let exclude = if req == Request::Upgrade {
                None
            } else {
                Some(c)
            };
            let mut found: Option<(usize, bool, bool)> = None;
            for t in 0..N {
                if Some(t) == exclude {
                    continue;
                }
                let before = st.cores[t].state;
                let (had_data, was_fresh, retained) =
                    self.apply_probe(&mut st, t, Probe::Discovery(intent));
                if before != PrivState::Invalid || had_data {
                    assert!(found.is_none(), "two hidden copies discovered");
                    if before != PrivState::Invalid {
                        found = Some((t, was_fresh, retained));
                    }
                }
            }
            st.stash = false;
            if let Some((owner, _, retained)) = found {
                if retained && st.cores[owner].state == PrivState::Shared {
                    view =
                        DirView::Shared(SharerSet::singleton(N as u16, CoreId::new(owner as u16)));
                }
            }
        }

        self.transitions.record_home(req, &view);
        let outcome = decide(req, CoreId::new(c as u16), &view, N as u16);
        self.transitions
            .record_home_emission(req, &view, &outcome.probes, Some(outcome.grant));

        // Probe phase.
        let mut data_from_owner: Option<bool> = None; // fresh?
        let mut owner_retained = false;
        let mut had_fwdgets = false;
        for &(target, p) in &outcome.probes {
            let t = target.index();
            let (had_data, was_fresh, retained) = self.apply_probe(&mut st, t, p);
            if had_data {
                data_from_owner = Some(was_fresh);
            }
            if p == Probe::FwdGetS {
                had_fwdgets = true;
                owner_retained = retained;
            }
        }

        // Data phase.
        let (granted_state, granted_fresh) = if outcome.needs_data {
            match data_from_owner {
                Some(fresh) => (grant_state(outcome.grant), fresh),
                None => {
                    self.ensure_llc(&mut st);
                    (grant_state(outcome.grant), st.llc_fresh)
                }
            }
        } else {
            (PrivState::Modified, st.cores[c].fresh)
        };

        // THE property: granted data is always fresh.
        assert!(
            granted_fresh || !anyone_wrote(&st),
            "stale grant to core {c} for {req} in mode {mode:?}"
        );

        st.cores[c].state = granted_state;
        st.cores[c].fresh = granted_fresh;
        self.ensure_llc(&mut st); // tracked blocks are LLC-resident

        // Directory update (reconciled like the simulator does).
        let mut new_view = outcome.new_view.clone();
        if had_fwdgets && !owner_retained {
            if let DirView::Shared(set) = &new_view {
                new_view =
                    DirView::Shared(SharerSet::singleton(set.capacity(), CoreId::new(c as u16)));
            }
        }
        st.view = View::from_dir_view(&new_view);
        st.stash = false;

        if op == MemOpKind::Write {
            write_by(&mut st, c);
        }
        st
    }

    /// Core `c` evicts its copy (atomic put processing at the home).
    fn evict_l2(&mut self, mut st: St, c: usize) -> Option<St> {
        let state = st.cores[c].state;
        if state == PrivState::Invalid {
            return None;
        }
        let req = match state {
            PrivState::Modified => Request::PutM,
            PrivState::Exclusive => Request::PutE,
            PrivState::Shared => Request::PutS,
            PrivState::Invalid => unreachable!(),
        };
        let was_fresh = st.cores[c].fresh;
        st.cores[c].state = PrivState::Invalid;
        st.cores[c].fresh = false;
        if req != Request::PutM && !self.mode.notify_clean {
            // Silent clean drop: the home never hears about it.
            return Some(st);
        }
        let view = st.view.to_dir_view();
        self.transitions.record_home(req, &view);
        self.transitions.record_home_emission(req, &view, &[], None);
        match decide_put(req, CoreId::new(c as u16), &view) {
            PutOutcome::Accept {
                new_view,
                writeback,
            } => {
                if writeback {
                    st.llc_fresh = was_fresh;
                }
                st.view = View::from_dir_view(&new_view);
            }
            PutOutcome::Stale => {
                // In atomic-transaction order a put is stale only for
                // hidden owners (untracked + stash): the simulator's claim
                // logic degenerates to "always unclaimed" here.
                if st.view == View::Untracked && st.stash {
                    if req == Request::PutM {
                        st.llc_fresh = was_fresh;
                    }
                    st.stash = false;
                }
            }
        }
        Some(st)
    }

    /// The directory evicts the block's entry.
    fn dir_evict(&mut self, mut st: St) -> Option<St> {
        let view = st.view.to_dir_view();
        if view == DirView::Untracked {
            return None;
        }
        if self.mode.stash_dir && view.is_private() {
            // The stash mechanism.
            st.view = View::Untracked;
            st.stash = true;
            return Some(st);
        }
        for holder in view.holders() {
            let p = if matches!(view, DirView::Exclusive(_)) {
                Probe::Recall
            } else {
                Probe::Inv
            };
            self.apply_probe(&mut st, holder.index(), p);
        }
        st.view = View::Untracked;
        Some(st)
    }

    /// The LLC evicts the line.
    fn llc_evict(&mut self, mut st: St) -> Option<St> {
        if !st.llc_present {
            return None;
        }
        let view = st.view.to_dir_view();
        if view != DirView::Untracked {
            for holder in view.holders() {
                let p = if matches!(view, DirView::Exclusive(_)) {
                    Probe::Recall
                } else {
                    Probe::Inv
                };
                self.apply_probe(&mut st, holder.index(), p);
            }
            st.view = View::Untracked;
        } else if self.mode.stash_dir && st.stash {
            for t in 0..N {
                self.apply_probe(&mut st, t, Probe::Discovery(DiscoveryIntent::Invalidate));
            }
            st.stash = false;
        }
        // Writeback to memory.
        st.dram_fresh = st.llc_fresh;
        st.llc_present = false;
        st.llc_fresh = false;
        Some(st)
    }

    /// Structural invariants checked at every reachable state.
    fn check_state(&self, st: &St) {
        let mode = self.mode;
        // Single writer.
        let exclusive: Vec<usize> = (0..N)
            .filter(|&c| st.cores[c].state.is_exclusive())
            .collect();
        assert!(exclusive.len() <= 1, "multiple E/M holders: {st:?}");
        if !exclusive.is_empty() {
            assert_eq!(st.holders().len(), 1, "E/M alongside other copies: {st:?}");
        }
        // Coverage: every valid copy tracked or hidden. (With silent clean
        // drops the view may list *more* cores, never fewer.)
        for c in st.holders() {
            let covered = match st.view {
                View::Untracked => false,
                View::Exclusive(o) => o == c,
                View::Shared(mask) => mask & (1 << c) != 0,
            };
            assert!(
                covered || (mode.stash_dir && st.stash),
                "uncovered copy at core {c}: {st:?}"
            );
        }
        // Tracked implies LLC-resident; stash bit implies resident +
        // untracked.
        if st.view != View::Untracked {
            assert!(st.llc_present, "tracked but not LLC-resident: {st:?}");
        }
        if st.stash {
            assert!(mode.stash_dir, "stash bit in sparse mode");
            assert!(st.llc_present, "stash bit without LLC line: {st:?}");
            assert_eq!(st.view, View::Untracked, "stash bit on tracked block");
        }
        // Fresh data is reachable.
        let reachable = st.dram_fresh
            || (st.llc_present && st.llc_fresh)
            || (0..N).any(|c| st.cores[c].state != PrivState::Invalid && st.cores[c].fresh);
        assert!(reachable, "lost write: {st:?}");
        // Valid copies are fresh (atomic transactions invalidate stale
        // copies synchronously).
        if anyone_wrote(st) {
            for c in st.holders() {
                assert!(st.cores[c].fresh, "stale valid copy at core {c}: {st:?}");
            }
        }
    }
}

/// After any write, exactly the writer holds fresh data.
fn write_by(st: &mut St, c: usize) {
    assert_eq!(st.cores[c].state, PrivState::Modified, "write without M");
    for t in 0..N {
        st.cores[t].fresh = t == c;
    }
    st.llc_fresh = false;
    st.dram_fresh = false;
}

/// Explores every reachable abstract state under `mode`, checking the
/// structural invariants at each and recording the decision-layer
/// transitions exercised.
///
/// # Panics
///
/// Panics if any reachable state violates a protocol invariant (single
/// writer, grant freshness, coverage, fresh-data reachability) — i.e. a
/// panic here is a protocol bug.
pub fn explore(mode: Mode) -> Exploration {
    let mut ex = Explorer {
        mode,
        transitions: TransitionSet::new(),
    };
    let mut seen: FxHashSet<St> = FxHashSet::default();
    let mut queue: VecDeque<St> = VecDeque::new();
    seen.insert(St::initial());
    queue.push_back(St::initial());
    while let Some(st) = queue.pop_front() {
        ex.check_state(&st);
        let mut succs: Vec<St> = Vec::new();
        for c in 0..N {
            succs.push(ex.demand(st, c, MemOpKind::Read));
            succs.push(ex.demand(st, c, MemOpKind::Write));
            succs.extend(ex.evict_l2(st, c));
        }
        succs.extend(ex.dir_evict(st));
        succs.extend(ex.llc_evict(st));
        for succ in succs {
            if seen.insert(succ) {
                queue.push_back(succ);
            }
        }
    }
    Exploration {
        states: seen.len(),
        transitions: ex.transitions,
    }
}

/// The union of transitions reachable under all four [`ALL_MODES`]: the
/// ground truth `stashdir-lint` diffs the handled keys of the decision
/// functions against.
pub fn reachable_transitions() -> TransitionSet {
    let mut all = TransitionSet::new();
    for mode in ALL_MODES {
        all.merge(&explore(mode).transitions);
    }
    all
}
