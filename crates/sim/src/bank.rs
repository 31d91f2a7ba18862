//! One home node: an LLC bank with its co-located directory slice.
//!
//! Blocks are address-interleaved across banks (the low block-address bits
//! select the bank), so a bank indexes its internal structures with the
//! *bank-local* block address (global address with the bank bits shifted
//! out) — otherwise every block arriving at bank *i* would share low bits
//! and pile into a fraction of the sets.

use stashdir_common::{BankId, BlockAddr, Counter, StatSink};
use stashdir_core::{DirectoryModel, EvictionAction};
use stashdir_mem::{CacheConfig, CacheStats, SetAssoc};
use stashdir_protocol::DirView;

/// One LLC line's bank-side metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcLine {
    /// Version of the data held (see [`crate::values`]).
    pub version: u64,
    /// Differs from DRAM (needs writeback on eviction).
    pub dirty: bool,
    /// The stash bit: a directory entry tracking a private copy of this
    /// block was silently dropped; a hidden copy may exist.
    pub stash: bool,
}

/// Per-bank event counters beyond the generic cache stats.
#[derive(Debug, Default, Clone)]
pub struct BankStats {
    /// Demand-triggered discovery rounds.
    pub discoveries: Counter,
    /// Discovery rounds that found the hidden copy.
    pub discoveries_found: Counter,
    /// Discovery rounds that found nobody (stale stash bit).
    pub discoveries_stale: Counter,
    /// Discovery rounds run to evict a stashed LLC line.
    pub evict_discoveries: Counter,
    /// LLC evictions that had to recall tracked private copies.
    pub llc_recalls: Counter,
    /// Private-cache copies destroyed by LLC eviction (inclusion victims).
    pub inclusion_invalidations: Counter,
    /// Invalidation probes sent to enact directory evictions.
    pub dir_eviction_probes: Counter,
    /// Stale (raced) Put messages dropped.
    pub stale_puts: Counter,
    /// Writebacks accepted from hidden (stash-untracked) owners.
    pub hidden_writebacks: Counter,
}

impl BankStats {
    /// Exports the counters under `prefix.`.
    pub(crate) fn export(&self, prefix: &str, sink: &mut StatSink) {
        sink.put_counter(format!("{prefix}.discoveries"), self.discoveries);
        sink.put_counter(
            format!("{prefix}.discoveries_found"),
            self.discoveries_found,
        );
        sink.put_counter(
            format!("{prefix}.discoveries_stale"),
            self.discoveries_stale,
        );
        sink.put_counter(
            format!("{prefix}.evict_discoveries"),
            self.evict_discoveries,
        );
        sink.put_counter(format!("{prefix}.llc_recalls"), self.llc_recalls);
        sink.put_counter(
            format!("{prefix}.inclusion_invalidations"),
            self.inclusion_invalidations,
        );
        sink.put_counter(
            format!("{prefix}.dir_eviction_probes"),
            self.dir_eviction_probes,
        );
        sink.put_counter(format!("{prefix}.stale_puts"), self.stale_puts);
        sink.put_counter(
            format!("{prefix}.hidden_writebacks"),
            self.hidden_writebacks,
        );
    }

    /// Adds another bank's counters into this one.
    pub fn merge(&mut self, other: &BankStats) {
        self.discoveries.add(other.discoveries.get());
        self.discoveries_found.add(other.discoveries_found.get());
        self.discoveries_stale.add(other.discoveries_stale.get());
        self.evict_discoveries.add(other.evict_discoveries.get());
        self.llc_recalls.add(other.llc_recalls.get());
        self.inclusion_invalidations
            .add(other.inclusion_invalidations.get());
        self.dir_eviction_probes
            .add(other.dir_eviction_probes.get());
        self.stale_puts.add(other.stale_puts.get());
        self.hidden_writebacks.add(other.hidden_writebacks.get());
    }
}

/// Counters specific to the non-home directory backends (DLS and
/// opaque-distributed). Zero — and unexported — for every other
/// organization, so legacy artifacts are unchanged.
#[derive(Debug, Default, Clone)]
pub struct BackendStats {
    /// DLS: demand accesses to shared blocks served at the remote shared
    /// LLC instead of filling a private cache.
    pub remote_llc_accesses: Counter,
    /// DLS: blocks reclassified private→shared when a second core touched
    /// them.
    pub dls_reclassifications: Counter,
    /// Opaque: extra home↔directory-bank message legs taken because the
    /// opaque map placed the entry away from the block's home.
    pub indirection_hops: Counter,
    /// Opaque: directory-shard accesses landing on *this* bank (the
    /// per-bank spread yields the imbalance stat).
    pub dir_bank_accesses: Counter,
}

impl BackendStats {
    /// Exports the backend counters under `prefix.`.
    pub(crate) fn export(&self, prefix: &str, sink: &mut StatSink) {
        sink.put_counter(
            format!("{prefix}.remote_llc_accesses"),
            self.remote_llc_accesses,
        );
        sink.put_counter(
            format!("{prefix}.dls_reclassifications"),
            self.dls_reclassifications,
        );
        sink.put_counter(format!("{prefix}.indirection_hops"), self.indirection_hops);
        sink.put_counter(
            format!("{prefix}.dir_bank_accesses"),
            self.dir_bank_accesses,
        );
    }

    /// Adds another bank's counters into this one.
    pub fn merge(&mut self, other: &BackendStats) {
        self.remote_llc_accesses
            .add(other.remote_llc_accesses.get());
        self.dls_reclassifications
            .add(other.dls_reclassifications.get());
        self.indirection_hops.add(other.indirection_hops.get());
        self.dir_bank_accesses.add(other.dir_bank_accesses.get());
    }
}

/// An LLC bank plus directory slice.
pub struct Bank {
    id: BankId,
    bank_bits: u32,
    llc: SetAssoc<LlcLine>,
    dir: Box<dyn DirectoryModel>,
    /// The directory slice indexes by global block addresses (opaque
    /// sharding: the shard holds other banks' home blocks, so the
    /// bank-local compression would be wrong).
    dir_global_keys: bool,
    /// LLC hit/miss accounting.
    pub llc_stats: CacheStats,
    /// Bank-specific counters.
    pub stats: BankStats,
    /// Backend-specific counters (DLS / opaque only).
    pub backend: BackendStats,
}

impl Bank {
    /// Builds bank `id` of `2^bank_bits` banks.
    pub fn new(
        id: BankId,
        bank_bits: u32,
        llc_cfg: &CacheConfig,
        dir: Box<dyn DirectoryModel>,
        seed: u64,
    ) -> Self {
        let dir_global_keys = dir.global_keys();
        Bank {
            id,
            bank_bits,
            llc: SetAssoc::new(llc_cfg.num_sets(), llc_cfg.assoc(), llc_cfg.repl, seed),
            dir,
            dir_global_keys,
            llc_stats: CacheStats::default(),
            stats: BankStats::default(),
            backend: BackendStats::default(),
        }
    }

    /// This bank's id.
    pub fn id(&self) -> BankId {
        self.id
    }

    fn local(&self, global: BlockAddr) -> BlockAddr {
        debug_assert_eq!(
            global.get() & ((1 << self.bank_bits) - 1),
            self.id.get() as u64,
            "block {global} does not belong to {}",
            self.id
        );
        BlockAddr::new(global.get() >> self.bank_bits)
    }

    fn global(&self, local: BlockAddr) -> BlockAddr {
        BlockAddr::new((local.get() << self.bank_bits) | self.id.get() as u64)
    }

    // ---- LLC ----

    /// The LLC line for `block`, if resident (no recency update).
    pub fn llc_peek(&self, block: BlockAddr) -> Option<&LlcLine> {
        self.llc.get(self.local(block))
    }

    /// The LLC line for `block`, recording a hit (recency updated).
    pub fn llc_access(&mut self, block: BlockAddr) -> Option<&mut LlcLine> {
        let local = self.local(block);
        self.llc.access_mut(local)
    }

    /// Mutable LLC line without recency update (writebacks).
    pub fn llc_peek_mut(&mut self, block: BlockAddr) -> Option<&mut LlcLine> {
        let local = self.local(block);
        self.llc.get_mut(local)
    }

    /// Writes data at `version` through to `block`'s resident LLC line,
    /// marking it dirty (writebacks, dirty probe replies, remote writes).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident: the LLC is inclusive, so a
    /// block with a private copy or a stash bit always is.
    pub(crate) fn write_through(&mut self, block: BlockAddr, version: u64) {
        let line = self
            .llc_peek_mut(block)
            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
            .expect("LLC inclusion: written-through block resident");
        line.version = version;
        line.dirty = true;
    }

    /// The block the LLC would evict to make room for `block`, if any.
    pub fn llc_victim_for(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let local = self.local(block);
        self.llc.victim_for(local).map(|v| self.global(v))
    }

    /// Removes an LLC line (eviction), returning it.
    pub fn llc_remove(&mut self, block: BlockAddr) -> Option<LlcLine> {
        let local = self.local(block);
        self.llc.remove(local)
    }

    /// Inserts a fresh LLC line for `block`.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident or its set is full (the
    /// caller must evict the victim from [`llc_victim_for`] first, because
    /// eviction has protocol side effects).
    ///
    /// [`llc_victim_for`]: Bank::llc_victim_for
    pub fn llc_insert(&mut self, block: BlockAddr, line: LlcLine) {
        let local = self.local(block);
        assert!(
            !self.llc.would_evict(local),
            "LLC victim for {block} must be evicted by the caller first"
        );
        let none = self.llc.insert(local, line);
        debug_assert!(none.is_none());
    }

    /// The stash bit of `block`'s LLC line (`false` when not resident).
    pub fn stash_bit(&self, block: BlockAddr) -> bool {
        self.llc_peek(block).is_some_and(|l| l.stash)
    }

    /// Sets or clears the stash bit.
    ///
    /// # Panics
    ///
    /// Panics when setting the bit on a non-resident line (the stash bit
    /// lives in the LLC line; LLC inclusion guarantees residence).
    pub fn set_stash_bit(&mut self, block: BlockAddr, value: bool) {
        match self.llc_peek_mut(block) {
            Some(line) => line.stash = value,
            None => assert!(!value, "stash bit for non-resident line {block}"),
        }
    }

    /// Snapshot of all resident LLC lines (global addresses).
    pub fn llc_entries(&self) -> Vec<(BlockAddr, LlcLine)> {
        self.llc.iter().map(|(b, l)| (self.global(b), *l)).collect()
    }

    // ---- Directory slice ----

    /// The directory key for `block`: bank-local for home-placed slices,
    /// the global address as-is for opaque shards.
    fn dir_key(&self, block: BlockAddr) -> BlockAddr {
        if self.dir_global_keys {
            block
        } else {
            self.local(block)
        }
    }

    /// The directory's view of `block` ([`DirView::Untracked`] when no
    /// entry exists).
    pub fn dir_view(&self, block: BlockAddr) -> DirView {
        self.dir
            .lookup(self.dir_key(block))
            .unwrap_or(DirView::Untracked)
    }

    /// Installs a view, translating the eviction action back to global
    /// addresses.
    pub fn dir_install(&mut self, block: BlockAddr, view: DirView) -> EvictionAction {
        let globalize = |bank: &Bank, b| {
            if bank.dir_global_keys {
                b
            } else {
                bank.global(b)
            }
        };
        match self.dir.install(self.dir_key(block), view) {
            EvictionAction::None => EvictionAction::None,
            EvictionAction::Silent { block, owner } => EvictionAction::Silent {
                block: globalize(self, block),
                owner,
            },
            EvictionAction::Invalidate { block, view } => EvictionAction::Invalidate {
                block: globalize(self, block),
                view,
            },
        }
    }

    /// Untracks `block`.
    pub fn dir_remove(&mut self, block: BlockAddr) {
        let key = self.dir_key(block);
        self.dir.remove(key);
    }

    /// Snapshot of directory entries (global addresses).
    pub fn dir_entries(&self) -> Vec<(BlockAddr, DirView)> {
        self.dir
            .entries()
            .into_iter()
            .map(|(b, v)| {
                let g = if self.dir_global_keys {
                    b
                } else {
                    self.global(b)
                };
                (g, v)
            })
            .collect()
    }

    /// The directory slice itself (stats, capacity).
    pub fn dir(&self) -> &dyn DirectoryModel {
        self.dir.as_ref()
    }

    /// Exports LLC, directory and bank counters under `prefix.`.
    pub fn export(&self, prefix: &str, sink: &mut StatSink) {
        self.llc_stats.export(&format!("{prefix}.llc"), sink);
        self.dir.stats().export(&format!("{prefix}.dir"), sink);
        self.stats.export(prefix, sink);
        sink.put(
            format!("{prefix}.dir.occupancy"),
            self.dir.occupancy() as f64,
        );
    }
}

impl std::fmt::Debug for Bank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bank")
            .field("id", &self.id)
            .field("dir", &self.dir.name())
            .field("llc_occupancy", &self.llc.occupancy())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir_common::CoreId;
    use stashdir_core::DirConfig;
    use stashdir_mem::ReplKind;

    fn bank() -> Bank {
        // 4 banks; this is bank 1. LLC bank: 8 sets x 2 ways.
        let llc = CacheConfig::new(1024, 2, 64, 1, ReplKind::Lru);
        Bank::new(BankId::new(1), 2, &llc, DirConfig::stash(4, 2).build(9), 3)
    }

    /// A block owned by bank 1 (low 2 bits = 01).
    fn blk(i: u64) -> BlockAddr {
        BlockAddr::new(i * 4 + 1)
    }

    #[test]
    fn llc_roundtrip_uses_local_indexing() {
        let mut b = bank();
        // 17 blocks of bank 1 must spread over all 8 sets, not one.
        for i in 0..16 {
            if let Some(v) = b.llc_victim_for(blk(i)) {
                b.llc_remove(v);
            }
            b.llc_insert(
                blk(i),
                LlcLine {
                    version: i,
                    dirty: false,
                    stash: false,
                },
            );
        }
        // 8 sets x 2 ways = 16 lines; all 16 distinct blocks fit exactly.
        assert_eq!(b.llc_entries().len(), 16);
        assert_eq!(b.llc_peek(blk(3)).unwrap().version, 3);
    }

    #[test]
    fn llc_entries_report_global_addresses() {
        let mut b = bank();
        b.llc_insert(
            blk(5),
            LlcLine {
                version: 0,
                dirty: false,
                stash: false,
            },
        );
        assert_eq!(b.llc_entries()[0].0, blk(5));
    }

    #[test]
    fn stash_bit_lifecycle() {
        let mut b = bank();
        b.llc_insert(
            blk(0),
            LlcLine {
                version: 0,
                dirty: false,
                stash: false,
            },
        );
        assert!(!b.stash_bit(blk(0)));
        b.set_stash_bit(blk(0), true);
        assert!(b.stash_bit(blk(0)));
        b.set_stash_bit(blk(0), false);
        assert!(!b.stash_bit(blk(0)));
        assert!(!b.stash_bit(blk(9)), "absent line has no stash bit");
        b.set_stash_bit(blk(9), false); // clearing absent is a no-op
    }

    #[test]
    fn dir_view_defaults_to_untracked() {
        let mut b = bank();
        assert_eq!(b.dir_view(blk(0)), DirView::Untracked);
        b.dir_install(blk(0), DirView::Exclusive(CoreId::new(2)));
        assert_eq!(b.dir_view(blk(0)), DirView::Exclusive(CoreId::new(2)));
        b.dir_remove(blk(0));
        assert_eq!(b.dir_view(blk(0)), DirView::Untracked);
    }

    #[test]
    fn dir_eviction_actions_are_globalized() {
        let mut b = bank();
        // Fill one dir set (4 sets x 2 ways; local addr = global >> 2).
        // blk(0) -> local 1, blk(4) -> local... choose conflicting blocks:
        // local addresses with the same low 2 bits of the slice's 4 sets.
        let conflicting: Vec<BlockAddr> = (0..3)
            .map(|i| BlockAddr::new(((i * 4) << 2) | 1)) // locals 0,4,8 -> set 0
            .collect();
        b.dir_install(conflicting[0], DirView::Exclusive(CoreId::new(0)));
        b.dir_install(conflicting[1], DirView::Exclusive(CoreId::new(1)));
        match b.dir_install(conflicting[2], DirView::Exclusive(CoreId::new(2))) {
            EvictionAction::Silent { block, owner } => {
                assert_eq!(block, conflicting[0], "global address restored");
                assert_eq!(owner, CoreId::new(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert is compiled out in release"
    )]
    #[should_panic(expected = "does not belong")]
    fn wrong_bank_block_panics_in_debug() {
        let b = bank();
        let _ = b.llc_peek(BlockAddr::new(2)); // bank 2's block
    }

    #[test]
    #[should_panic(expected = "evicted by the caller")]
    fn llc_insert_requires_prior_eviction() {
        let mut b = bank();
        // Fill set 0 of the LLC (locals 0 and 8 -> same set).
        for local in [0u64, 8] {
            b.llc_insert(
                BlockAddr::new((local << 2) | 1),
                LlcLine {
                    version: 0,
                    dirty: false,
                    stash: false,
                },
            );
        }
        b.llc_insert(
            BlockAddr::new((16u64 << 2) | 1),
            LlcLine {
                version: 0,
                dirty: false,
                stash: false,
            },
        );
    }

    #[test]
    fn export_has_all_sections() {
        let b = bank();
        let mut sink = StatSink::new();
        b.export("bank1", &mut sink);
        assert!(sink.get("bank1.llc.hits").is_some());
        assert!(sink.get("bank1.dir.silent_evictions").is_some());
        assert!(sink.get("bank1.discoveries").is_some());
        assert!(sink.get("bank1.dir.occupancy").is_some());
    }

    #[test]
    fn opaque_slice_uses_global_dir_keys() {
        // Bank 1 of 4 holding an *opaque* shard: it may track blocks homed
        // at other banks, which the home-local key scheme would reject.
        let llc = CacheConfig::new(1024, 2, 64, 1, ReplKind::Lru);
        let mut b = Bank::new(BankId::new(1), 2, &llc, DirConfig::opaque(8, 2).build(9), 3);
        let foreign = BlockAddr::new(6); // low bits 10 -> homed at bank 2
        b.dir_install(foreign, DirView::Exclusive(CoreId::new(4)));
        assert_eq!(b.dir_view(foreign), DirView::Exclusive(CoreId::new(4)));
        assert_eq!(
            b.dir_entries(),
            vec![(foreign, DirView::Exclusive(CoreId::new(4)))]
        );
        b.dir_remove(foreign);
        assert_eq!(b.dir_view(foreign), DirView::Untracked);
    }

    #[test]
    fn backend_stats_merge_and_export() {
        let mut a = BackendStats::default();
        let mut other = BackendStats::default();
        a.remote_llc_accesses.add(2);
        other.remote_llc_accesses.add(3);
        other.indirection_hops.add(5);
        other.dir_bank_accesses.add(7);
        other.dls_reclassifications.add(1);
        a.merge(&other);
        let mut sink = StatSink::new();
        a.export("backend", &mut sink);
        assert_eq!(sink.get("backend.remote_llc_accesses"), Some(5.0));
        assert_eq!(sink.get("backend.indirection_hops"), Some(5.0));
        assert_eq!(sink.get("backend.dir_bank_accesses"), Some(7.0));
        assert_eq!(sink.get("backend.dls_reclassifications"), Some(1.0));
    }
}
