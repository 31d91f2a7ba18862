//! The per-core private cache hierarchy: L1 + L2, with L2 as the
//! coherence point and L1 kept strictly inclusive below it.
//!
//! Coherence state ([`PrivState`]) lives in L2 lines. The L1 holds a
//! presence + writability mirror: an L1 line exists only when the L2 line
//! does, and is writable only when the L2 line is Modified. Probes land on
//! L2 and back-propagate into L1.
//!
//! Dirty evictions park their data in a **writeback buffer** until the
//! home has processed the `PutM`; probes that race with the eviction are
//! answered from the buffer, which is how the protocol resolves the
//! owner-evicted-while-forward-in-flight race.

use stashdir_common::{BlockAddr, CoreId, FxHashMap, MemOp, MemOpKind};
use stashdir_mem::{CacheConfig, CacheStats, SetAssoc};
use stashdir_protocol::{
    local_access, probe as probe_fsm, AccessOutcome, Grant, PrivState, Probe, ProbeReply, Request,
};
use std::ops::Range;

/// An L2 line: coherence state plus the data version it holds.
///
/// Packed, so an `Option<L2Line>` slot takes 9 bytes. Fields are
/// read and written by value: a reference to `version` would be
/// unaligned, which the compiler refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed)]
pub struct L2Line {
    /// MESI state.
    pub state: PrivState,
    /// Version of the data held (see [`crate::values`]).
    pub version: u64,
}

/// A parked eviction awaiting `Put*` processing at the home.
///
/// Every eviction that sends a `Put` parks here until the home processes
/// the message. Probes that race with the eviction are answered from this
/// buffer and mark the entry **claimed**; the home uses the claim flag to
/// decide whether an untracked-but-stashed `PutM` is the hidden owner's
/// authoritative writeback (unclaimed) or a raced duplicate whose data
/// already reached its new owner (claimed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbEntry {
    /// Version of the data in flight (meaningful when `dirty`).
    pub version: u64,
    /// The data was dirty (a `PutM`).
    pub dirty: bool,
    /// A probe already extracted this entry's data.
    pub claimed: bool,
}

/// The outcome of a core's access attempt against its private hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// Served locally.
    Hit {
        /// L1 or L2 latency.
        latency: u64,
        /// Version observed (pre-write value for stores).
        version: u64,
        /// `true` when served by the L1.
        in_l1: bool,
    },
    /// A coherence transaction is needed.
    Miss {
        /// The request to send to the home.
        request: Request,
        /// Lookup latency spent before the request leaves (L1 + L2).
        latency: u64,
    },
}

/// A private block evicted by a fill, with the message it owes the home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced block.
    pub block: BlockAddr,
    /// `PutS`/`PutE`/`PutM` to send, or `None` for silent clean drops.
    pub put: Option<Request>,
    /// Version carried by a `PutM` (0 otherwise).
    pub version: u64,
}

/// A private cache's answer to a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeAnswer {
    /// The wire reply.
    pub reply: ProbeReply,
    /// Version of any data carried.
    pub version: u64,
    /// `true` when the cache keeps a (downgraded) valid copy.
    pub retained: bool,
}

impl ProbeAnswer {
    /// The answer of a cache that holds no copy of the block, neither
    /// in L2 nor parked in its writeback buffer.
    pub fn absent(p: Probe) -> Self {
        ProbeAnswer {
            reply: probe_fsm(PrivState::Invalid, p).reply,
            version: 0,
            retained: false,
        }
    }
}

/// One core's L1 + L2 + writeback buffer.
#[derive(Debug)]
pub struct PrivateHier {
    core: CoreId,
    /// Payload is "writable": true iff the L2 line is Modified.
    l1: SetAssoc<bool>,
    l2: SetAssoc<L2Line>,
    wb: FxHashMap<BlockAddr, WbEntry>,
    l1_latency: u64,
    l2_latency: u64,
    notify_clean: bool,
    /// L1 accounting.
    pub l1_stats: CacheStats,
    /// L2 accounting.
    pub l2_stats: CacheStats,
}

impl PrivateHier {
    /// Builds the hierarchy for `core` from the two level configurations.
    /// `_seed` feeds nothing: both levels are LRU. It stays until the
    /// benchmark, which passes it, is next revised.
    pub fn new(
        core: CoreId,
        l1: &CacheConfig,
        l2: &CacheConfig,
        notify_clean: bool,
        _seed: u64,
    ) -> Self {
        PrivateHier {
            core,
            l1: SetAssoc::new(l1.num_sets(), l1.assoc()),
            l2: SetAssoc::new(l2.num_sets(), l2.assoc()),
            wb: FxHashMap::default(),
            l1_latency: l1.latency,
            l2_latency: l2.latency,
            notify_clean,
            l1_stats: CacheStats::default(),
            l2_stats: CacheStats::default(),
        }
    }

    /// The owning core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Attempts `op` locally. Hits mutate state (recency, silent E→M
    /// upgrade); misses leave state untouched and name the request to
    /// send.
    pub fn access(&mut self, op: MemOp) -> AccessResult {
        let block = op.block;
        // L1 first. Inclusion (L1 content ⊆ L2 content) means the L2 line
        // is readable up front; if it were somehow absent the L1 entry is
        // stale, so treat that as an L1 miss and resolve below rather
        // than panicking on the hot path.
        if let (Some(&writable), Some(l2_line)) = (self.l1.get(block), self.l2.get(block).copied())
        {
            match op.kind {
                MemOpKind::Read => {
                    self.l1_stats.hits.incr();
                    self.l1.touch(block);
                    self.l2.touch(block);
                    return AccessResult::Hit {
                        latency: self.l1_latency,
                        version: l2_line.version,
                        in_l1: true,
                    };
                }
                MemOpKind::Write if writable => {
                    debug_assert_eq!(l2_line.state, PrivState::Modified);
                    self.l1_stats.hits.incr();
                    self.l1.touch(block);
                    self.l2.touch(block);
                    return AccessResult::Hit {
                        latency: self.l1_latency,
                        version: l2_line.version,
                        in_l1: true,
                    };
                }
                MemOpKind::Write => {
                    // Present but not writable: resolve at L2 below
                    // (silent E→M upgrade or a coherence Upgrade).
                    self.l1_stats.misses.incr();
                }
            }
        } else {
            debug_assert!(self.l1.get(block).is_none(), "L1 content ⊄ L2 content");
            self.l1_stats.misses.incr();
        }

        // L2.
        let Some(line) = self.l2.get(block).copied() else {
            self.l2_stats.misses.incr();
            let request = match op.kind {
                MemOpKind::Read => Request::GetS,
                MemOpKind::Write => Request::GetM,
            };
            return AccessResult::Miss {
                request,
                latency: self.l1_latency + self.l2_latency,
            };
        };
        match local_access(line.state, op.kind) {
            AccessOutcome::Hit(next) => {
                self.l2_stats.hits.incr();
                // The line was just read from L2, so the mutable lookup
                // cannot miss; skip the write rather than panic if it
                // ever did.
                debug_assert!(self.l2.get(block).is_some());
                if let Some(l) = self.l2.access_mut(block) {
                    l.state = next;
                }
                self.refresh_l1(block, next);
                AccessResult::Hit {
                    latency: self.l1_latency + self.l2_latency,
                    version: line.version,
                    in_l1: false,
                }
            }
            AccessOutcome::Miss(request) => {
                self.l2_stats.misses.incr();
                AccessResult::Miss {
                    request,
                    latency: self.l1_latency + self.l2_latency,
                }
            }
        }
    }

    /// Brings `block` into L1 (filling or refreshing) with the writability
    /// implied by the L2 state, evicting an L1 victim silently if needed.
    fn refresh_l1(&mut self, block: BlockAddr, state: PrivState) {
        let writable = state == PrivState::Modified;
        match self.l1.get_mut(block) {
            Some(w) => {
                *w = writable;
                self.l1.touch(block);
            }
            None => {
                if self.l1.insert(block, writable).is_some() {
                    self.l1_stats.evictions.incr();
                }
            }
        }
    }

    /// Installs a granted block (data reply from the home or owner),
    /// returning the L2 victim this displaces, if any.
    ///
    /// # Panics
    ///
    /// Panics if the block is already present in L2 (grants follow
    /// misses).
    pub fn fill(&mut self, block: BlockAddr, grant: Grant, version: u64) -> Option<Evicted> {
        let state = match grant {
            Grant::Shared => PrivState::Shared,
            Grant::Exclusive => PrivState::Exclusive,
            Grant::Modified => PrivState::Modified,
        };
        let evicted = self
            .l2
            .insert(block, L2Line { state, version })
            .map(|(vblock, vline)| self.evict_line(vblock, vline));
        self.refresh_l1(block, state);
        evicted
    }

    fn evict_line(&mut self, block: BlockAddr, line: L2Line) -> Evicted {
        self.l2_stats.evictions.incr();
        // Inclusive hierarchy: purge the L1 copy.
        self.l1.remove(block);
        let put = match line.state {
            PrivState::Modified => {
                self.l2_stats.writebacks.incr();
                Some(Request::PutM)
            }
            PrivState::Exclusive => self.notify_clean.then_some(Request::PutE),
            PrivState::Shared => self.notify_clean.then_some(Request::PutS),
            PrivState::Invalid => unreachable!("invalid lines are never stored"),
        };
        if put.is_some() {
            // Park until the home processes the Put, so racing probes can
            // be answered and claims detected.
            self.wb.insert(
                block,
                WbEntry {
                    version: line.version,
                    dirty: line.state == PrivState::Modified,
                    claimed: false,
                },
            );
        }
        Evicted {
            block,
            put,
            version: if line.state == PrivState::Modified {
                line.version
            } else {
                0
            },
        }
    }

    /// Grants write permission to an already-present block (data-less
    /// `Upgrade` completion).
    ///
    /// # Panics
    ///
    /// Panics if the block is absent from L2 — the home decided the copy
    /// was still live, so it must be.
    pub fn grant_permission(&mut self, block: BlockAddr) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "documented panic contract (doc comment)"
        )]
        let line = self
            .l2
            .access_mut(block)
            .expect("data-less grant targets a live copy");
        line.state = PrivState::Modified;
        let version = line.version;
        self.refresh_l1(block, PrivState::Modified);
        version
    }

    /// Stamps a completed write: the block must be present and Modified.
    ///
    /// # Panics
    ///
    /// Panics if the block is absent or not writable.
    pub fn record_write(&mut self, block: BlockAddr, version: u64) {
        #[expect(
            clippy::expect_used,
            reason = "documented panic contract (doc comment)"
        )]
        let line = self.l2.get_mut(block).expect("write target present");
        assert_eq!(line.state, PrivState::Modified, "write without ownership");
        line.version = version;
    }

    /// Applies a coherence probe, answering from L2, the writeback
    /// buffer, or (for races/stale discoveries) thin air.
    pub fn apply_probe(&mut self, block: BlockAddr, p: Probe) -> ProbeAnswer {
        if let Some(line) = self.l2.get(block).copied() {
            let effect = probe_fsm(line.state, p);
            if effect.next == PrivState::Invalid {
                self.l2.remove(block);
                self.l1.remove(block);
                self.l2_stats.coherence_invalidations.incr();
            } else if effect.next != line.state {
                // Just read from L2; a miss here is unreachable, so skip
                // the write instead of panicking.
                debug_assert!(self.l2.get(block).is_some());
                if let Some(l) = self.l2.get_mut(block) {
                    l.state = effect.next;
                }
                if self.l1.contains(block) {
                    self.refresh_l1(block, effect.next);
                }
            }
            return ProbeAnswer {
                reply: effect.reply,
                version: line.version,
                retained: effect.next != PrivState::Invalid,
            };
        }
        if let Some(entry) = self.wb.get_mut(&block) {
            // The copy is in flight to the home; surrender its data and
            // mark the parked Put as claimed.
            entry.claimed = true;
            return ProbeAnswer {
                reply: if entry.dirty {
                    ProbeReply::AckDirtyData
                } else {
                    ProbeReply::AckData
                },
                version: entry.version,
                retained: false,
            };
        }
        ProbeAnswer::absent(p)
    }

    /// Removes and returns the parked eviction entry once the home has
    /// processed its `Put` (accepted or stale).
    pub fn wb_take(&mut self, block: BlockAddr) -> Option<WbEntry> {
        self.wb.remove(&block)
    }

    /// The block's current L2 state (Invalid when absent).
    pub fn state_of(&self, block: BlockAddr) -> PrivState {
        self.l2
            .get(block)
            .map_or(PrivState::Invalid, |line| line.state)
    }

    /// The number of L2-resident blocks.
    pub fn l2_occupancy(&self) -> usize {
        self.l2.occupancy()
    }

    /// Every L2-resident block with its line, in set order.
    pub fn l2_entries(&self) -> impl Iterator<Item = (BlockAddr, L2Line)> + '_ {
        self.l2.iter().map(|(b, l)| (b, *l))
    }

    /// The L2-resident blocks, with their lines, whose set index modulo
    /// `modulus` lies in `residues`, in set order. With `modulus` a
    /// divisor of the set count, the residue ranges that cover
    /// `0..modulus` together give every entry of [`l2_entries`] once.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    ///
    /// [`l2_entries`]: PrivateHier::l2_entries
    pub(crate) fn l2_entries_in(
        &self,
        residues: Range<usize>,
        modulus: usize,
    ) -> impl Iterator<Item = (BlockAddr, L2Line)> + '_ {
        let sets = (0..self.l2.num_sets())
            .step_by(modulus)
            .map(move |base| base + residues.start..base + residues.end);
        self.l2.iter_sets(sets).map(|(b, l)| (b, *l))
    }

    /// Every L1-resident block, in set order.
    pub fn l1_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.l1.iter().map(|(b, _)| b)
    }

    /// Drops `block`'s L2 line but keeps its L1 copy: breaks L1
    /// inclusion on purpose, for the checker's tests.
    #[cfg(test)]
    pub(crate) fn drop_l2_line(&mut self, block: BlockAddr) {
        self.l2.remove(block);
    }

    /// Parks `entry` for `block` as if an eviction had sent its `Put`:
    /// lets the home's tests stage a writeback in flight.
    #[cfg(test)]
    pub(crate) fn park(&mut self, block: BlockAddr, entry: WbEntry) {
        self.wb.insert(block, entry);
    }

    /// `block`'s L2 line, mutably: lets the checker's tests plant a
    /// stale version.
    #[cfg(test)]
    pub(crate) fn l2_line_mut(&mut self, block: BlockAddr) -> Option<&mut L2Line> {
        self.l2.get_mut(block)
    }

    /// Whether an eviction of `block` is parked awaiting its `Put`.
    pub fn has_parked(&self, block: BlockAddr) -> bool {
        self.wb.contains_key(&block)
    }

    /// Whether any eviction is still parked awaiting its `Put`.
    pub fn has_parked_writebacks(&self) -> bool {
        !self.wb.is_empty()
    }

    /// Every parked writeback, borrowed, in no particular order.
    pub fn parked(&self) -> impl Iterator<Item = (BlockAddr, &WbEntry)> {
        // lint: allow(determinism) — the order is the caller's to fix; the checker folds it into a map.
        self.wb.iter().map(|(b, e)| (*b, e))
    }

    /// Snapshot of parked writebacks, in address order.
    pub fn wb_entries(&self) -> Vec<(BlockAddr, WbEntry)> {
        let mut v: Vec<_> = self.wb.iter().map(|(b, e)| (*b, *e)).collect();
        v.sort_by_key(|(b, _)| *b);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier(notify: bool) -> PrivateHier {
        let l1 = CacheConfig::new(256, 2, 64, 1); // 4 blocks
        let l2 = CacheConfig::new(512, 2, 64, 8); // 8 blocks
        PrivateHier::new(CoreId::new(0), &l1, &l2, notify, 7)
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    #[test]
    fn cold_read_misses_with_gets() {
        let mut h = hier(true);
        match h.access(MemOp::read(b(1))) {
            AccessResult::Miss { request, latency } => {
                assert_eq!(request, Request::GetS);
                assert_eq!(latency, 9);
            }
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(h.l2_stats.misses.get(), 1);
    }

    #[test]
    fn fill_then_read_hits_l1() {
        let mut h = hier(true);
        h.fill(b(1), Grant::Exclusive, 0);
        match h.access(MemOp::read(b(1))) {
            AccessResult::Hit { latency, in_l1, .. } => {
                assert_eq!(latency, 1);
                assert!(in_l1);
            }
            other => panic!("expected L1 hit, got {other:?}"),
        }
    }

    #[test]
    fn write_to_exclusive_upgrades_silently() {
        let mut h = hier(true);
        h.fill(b(1), Grant::Exclusive, 0);
        match h.access(MemOp::write(b(1))) {
            AccessResult::Hit { in_l1, .. } => assert!(!in_l1, "upgrade resolves at L2"),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(h.state_of(b(1)), PrivState::Modified);
        // Second write now hits in L1 (writable mirror updated).
        match h.access(MemOp::write(b(1))) {
            AccessResult::Hit { in_l1, .. } => assert!(in_l1),
            other => panic!("expected L1 hit, got {other:?}"),
        }
    }

    #[test]
    fn write_to_shared_needs_upgrade() {
        let mut h = hier(true);
        h.fill(b(1), Grant::Shared, 3);
        match h.access(MemOp::write(b(1))) {
            AccessResult::Miss { request, .. } => assert_eq!(request, Request::Upgrade),
            other => panic!("expected upgrade miss, got {other:?}"),
        }
        assert_eq!(
            h.state_of(b(1)),
            PrivState::Shared,
            "state untouched on miss"
        );
    }

    #[test]
    fn grant_permission_completes_upgrade() {
        let mut h = hier(true);
        h.fill(b(1), Grant::Shared, 3);
        let version = h.grant_permission(b(1));
        assert_eq!(version, 3);
        assert_eq!(h.state_of(b(1)), PrivState::Modified);
    }

    #[test]
    fn record_write_stamps_version() {
        let mut h = hier(true);
        h.fill(b(1), Grant::Modified, 0);
        h.record_write(b(1), 42);
        match h.access(MemOp::read(b(1))) {
            AccessResult::Hit { version, .. } => assert_eq!(version, 42),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn dirty_eviction_parks_in_wb_buffer() {
        let mut h = hier(true);
        // L2 has 4 sets x 2 ways; blocks 0, 4, 8 share set 0.
        h.fill(b(0), Grant::Modified, 0);
        h.record_write(b(0), 10);
        h.fill(b(4), Grant::Exclusive, 0);
        let evicted = h.fill(b(8), Grant::Exclusive, 0).expect("set 0 overflows");
        assert_eq!(evicted.block, b(0));
        assert_eq!(evicted.put, Some(Request::PutM));
        assert_eq!(evicted.version, 10);
        assert_eq!(
            h.wb_entries(),
            vec![(
                b(0),
                WbEntry {
                    version: 10,
                    dirty: true,
                    claimed: false
                }
            )]
        );
        // A racing probe is served from the buffer and claims it.
        let ans = h.apply_probe(b(0), Probe::FwdGetM);
        assert_eq!(ans.reply, ProbeReply::AckDirtyData);
        assert_eq!(ans.version, 10);
        assert!(!ans.retained);
        let entry = h.wb_take(b(0)).unwrap();
        assert!(entry.claimed);
        assert!(h.wb_entries().is_empty());
    }

    #[test]
    fn clean_evictions_notify_or_stay_silent() {
        for (notify, expected) in [(true, Some(Request::PutE)), (false, None)] {
            let mut h = hier(notify);
            h.fill(b(0), Grant::Exclusive, 0);
            h.fill(b(4), Grant::Exclusive, 0);
            let evicted = h.fill(b(8), Grant::Exclusive, 0).unwrap();
            assert_eq!(evicted.put, expected, "notify={notify}");
            if notify {
                // Clean evictions park too (clean, unclaimed) so racing
                // probes can answer and the home can detect claims.
                let entry = h.wb_take(b(0)).unwrap();
                assert!(!entry.dirty);
                assert!(!entry.claimed);
            } else {
                assert!(h.wb_entries().is_empty(), "silent drops never park");
            }
        }
    }

    #[test]
    fn clean_wb_entry_answers_probes_with_clean_data() {
        let mut h = hier(true);
        h.fill(b(0), Grant::Exclusive, 0);
        h.fill(b(4), Grant::Exclusive, 0);
        h.fill(b(8), Grant::Exclusive, 0); // evicts b(0) cleanly, parks it
        let ans = h.apply_probe(b(0), Probe::FwdGetS);
        assert_eq!(ans.reply, ProbeReply::AckData);
        assert!(!ans.retained);
        assert!(h.wb_take(b(0)).unwrap().claimed);
    }

    #[test]
    fn shared_eviction_sends_puts() {
        let mut h = hier(true);
        h.fill(b(0), Grant::Shared, 0);
        h.fill(b(4), Grant::Shared, 0);
        let evicted = h.fill(b(8), Grant::Shared, 0).unwrap();
        assert_eq!(evicted.put, Some(Request::PutS));
    }

    #[test]
    fn probe_invalidation_purges_both_levels() {
        let mut h = hier(true);
        h.fill(b(1), Grant::Modified, 0);
        h.record_write(b(1), 5);
        let ans = h.apply_probe(b(1), Probe::Inv);
        assert_eq!(ans.reply, ProbeReply::AckDirtyData);
        assert_eq!(ans.version, 5);
        assert!(!ans.retained);
        assert_eq!(h.state_of(b(1)), PrivState::Invalid);
        assert_eq!(h.l1_blocks().count(), 0);
        assert_eq!(h.l2_stats.coherence_invalidations.get(), 1);
        // Subsequent access misses.
        assert!(matches!(
            h.access(MemOp::read(b(1))),
            AccessResult::Miss { .. }
        ));
    }

    #[test]
    fn probe_downgrade_keeps_readable_copy() {
        let mut h = hier(true);
        h.fill(b(1), Grant::Modified, 0);
        h.record_write(b(1), 9);
        let ans = h.apply_probe(b(1), Probe::FwdGetS);
        assert!(ans.retained);
        assert_eq!(h.state_of(b(1)), PrivState::Shared);
        // Read still hits; write now misses with Upgrade.
        assert!(matches!(
            h.access(MemOp::read(b(1))),
            AccessResult::Hit { .. }
        ));
        assert!(matches!(
            h.access(MemOp::write(b(1))),
            AccessResult::Miss {
                request: Request::Upgrade,
                ..
            }
        ));
    }

    #[test]
    fn probe_to_absent_block_acks_without_data() {
        let mut h = hier(true);
        let ans = h.apply_probe(b(9), Probe::Inv);
        assert_eq!(ans.reply, ProbeReply::Ack);
        assert!(!ans.retained);
        let ans = h.apply_probe(
            b(9),
            Probe::Discovery(stashdir_protocol::DiscoveryIntent::Share),
        );
        assert_eq!(ans.reply, ProbeReply::NotPresent);
    }

    #[test]
    fn l1_inclusion_is_maintained_under_churn() {
        let mut h = hier(true);
        for i in 0..64 {
            h.fill(b(i), Grant::Exclusive, 0);
            h.access(MemOp::read(b(i)));
        }
        for blk in h.l1_blocks() {
            assert_ne!(
                h.state_of(blk),
                PrivState::Invalid,
                "L1 block {blk} missing from L2"
            );
        }
    }

    #[test]
    #[should_panic(expected = "live copy")]
    fn permission_grant_to_absent_block_panics() {
        hier(true).grant_permission(b(1));
    }
}
