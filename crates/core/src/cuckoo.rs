//! A cuckoo-hashed directory, after the "Cuckoo Directory" of Ferdman et
//! al. (HPCA 2011) — the related-work baseline the paper positions itself
//! against.
//!
//! `d` hash tables, each probed with an independent hash of the block
//! address. An insert that finds all `d` candidate slots full displaces
//! one occupant and re-inserts it elsewhere, walking a relocation path of
//! bounded length. Only when the budget is exhausted does an entry get
//! evicted (with conventional invalidation). Relocation spreads conflicts
//! so evictions are far rarer than in a set-associative sparse directory
//! of equal size — but, unlike the stash directory, every eviction still
//! invalidates.

#![expect(
    clippy::indexing_slicing,
    reason = "tables/slots are fixed at construction and every index comes \
              from `hash()` (mod slots) or `position_of`, so the bounds hold \
              by construction"
)]

use crate::cost::CostParams;
use crate::model::{DirStats, DirectoryModel, EvictionAction};
use stashdir_common::{BlockAddr, DetRng};
use stashdir_protocol::DirView;

/// A cuckoo directory with `d` hash tables.
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, CoreId};
/// use stashdir_core::{CuckooDirectory, DirectoryModel};
/// use stashdir_protocol::DirView;
///
/// let mut dir = CuckooDirectory::new(64, 4, 8, 7);
/// dir.install(BlockAddr::new(3), DirView::Exclusive(CoreId::new(1)));
/// assert!(dir.lookup(BlockAddr::new(3)).is_some());
/// ```
#[derive(Debug)]
pub struct CuckooDirectory {
    /// `tables[i]` has `slots` entries, probed at `hash(i, block)`.
    tables: Vec<Vec<Option<(BlockAddr, DirView)>>>,
    slots: usize,
    max_path: usize,
    rng: DetRng,
    stats: DirStats,
}

impl CuckooDirectory {
    /// Creates a cuckoo directory with `entries` total entries split over
    /// `hashes` tables, relocating at most `max_path` times per insert.
    ///
    /// # Panics
    ///
    /// Panics if `hashes` < 2, `entries` does not divide evenly into
    /// `hashes` non-empty tables, or `max_path` is zero.
    pub fn new(entries: usize, hashes: usize, max_path: usize, seed: u64) -> Self {
        assert!(hashes >= 2, "cuckoo hashing needs at least two tables");
        assert!(max_path > 0, "relocation budget must be positive");
        assert!(
            entries.is_multiple_of(hashes) && entries / hashes > 0,
            "{entries} entries do not split over {hashes} tables"
        );
        let slots = entries / hashes;
        CuckooDirectory {
            tables: (0..hashes).map(|_| vec![None; slots]).collect(),
            slots,
            max_path,
            rng: DetRng::seed_from(seed),
            stats: DirStats::default(),
        }
    }

    fn hash(&self, table: usize, block: BlockAddr) -> usize {
        // SplitMix64-style finalizer, salted per table.
        let mut z = block
            .get()
            .wrapping_add((table as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z % self.slots as u64) as usize
    }

    fn position_of(&self, block: BlockAddr) -> Option<(usize, usize)> {
        (0..self.tables.len()).find_map(|t| {
            let s = self.hash(t, block);
            match &self.tables[t][s] {
                Some((b, _)) if *b == block => Some((t, s)),
                _ => None,
            }
        })
    }

    /// Places `(block, view)`; returns the entry evicted when the
    /// relocation budget ran out. The newly inserted `block` itself is
    /// never the victim — a caller installing a view for a block it is
    /// about to grant needs that block tracked afterwards.
    fn place(&mut self, block: BlockAddr, view: DirView) -> Option<(BlockAddr, DirView)> {
        let mut item = (block, view);
        // Avoid immediately displacing back into the slot we came from by
        // remembering the table we last landed in (usize::MAX = none).
        let mut last_table = usize::MAX;
        for _step in 0..=self.max_path {
            // Any free candidate slot?
            for t in 0..self.tables.len() {
                let s = self.hash(t, item.0);
                if self.tables[t][s].is_none() {
                    self.tables[t][s] = Some(item);
                    return None;
                }
            }
            // All candidates full: displace one at random (not the table
            // we just came from, to guarantee progress).
            let mut t = self.rng.index(self.tables.len());
            if t == last_table {
                t = (t + 1) % self.tables.len();
            }
            let s = self.hash(t, item.0);
            let displaced = match self.tables[t][s].take() {
                Some(d) => d,
                // The candidate scan above saw every slot full, so this
                // cannot miss; if it ever did, the slot is free — use it.
                None => {
                    self.tables[t][s] = Some(item);
                    return None;
                }
            };
            self.tables[t][s] = Some(item);
            self.stats.relocations.incr();
            item = displaced;
            last_table = t;
        }
        if item.0 == block {
            // The relocation walk cycled and bounced the new block back
            // out. Force it into one of its candidate slots and evict
            // that occupant instead.
            let s = self.hash(0, block);
            let victim = self.tables[0][s].take();
            self.tables[0][s] = Some(item);
            debug_assert!(victim.is_some(), "cycled walk left a free slot");
            debug_assert!(victim.as_ref().is_none_or(|v| v.0 != block));
            return victim;
        }
        Some(item)
    }
}

impl DirectoryModel for CuckooDirectory {
    fn name(&self) -> &'static str {
        "cuckoo"
    }

    fn capacity(&self) -> usize {
        self.slots * self.tables.len()
    }

    fn occupancy(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.iter().filter(|s| s.is_some()).count())
            .sum()
    }

    fn lookup(&self, block: BlockAddr) -> Option<&DirView> {
        self.position_of(block)
            .and_then(|(t, s)| self.tables[t][s].as_ref())
            .map(|(_, v)| v)
    }

    fn install(&mut self, block: BlockAddr, view: DirView) -> EvictionAction {
        assert!(
            view != DirView::Untracked,
            "install() takes a tracking view; use remove() to untrack"
        );
        self.stats.lookups.incr();
        if let Some((t, s)) = self.position_of(block) {
            self.stats.hits.incr();
            self.tables[t][s] = Some((block, view));
            return EvictionAction::None;
        }
        self.stats.allocations.incr();
        match self.place(block, view) {
            None => EvictionAction::None,
            Some((victim, victim_view)) => {
                self.stats.invalidating_evictions.incr();
                self.stats
                    .copies_invalidated
                    .add(victim_view.holder_count() as u64);
                if victim_view.is_private() {
                    self.stats.private_victims_invalidated.incr();
                }
                EvictionAction::Invalidate {
                    block: victim,
                    view: victim_view,
                }
            }
        }
    }

    fn remove(&mut self, block: BlockAddr) {
        if let Some((t, s)) = self.position_of(block) {
            self.tables[t][s] = None;
        }
    }

    fn tracked(&self) -> Box<dyn Iterator<Item = (BlockAddr, &DirView)> + '_> {
        Box::new(
            self.tables
                .iter()
                .flatten()
                .filter_map(|s| s.as_ref().map(|(b, v)| (*b, v))),
        )
    }

    fn stats(&self) -> &DirStats {
        &self.stats
    }

    fn storage_bits(&self, params: &CostParams) -> u64 {
        // Hashed placement cannot shorten tags: store the full tag.
        params.set_assoc_bits(self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir_common::CoreId;

    fn excl(core: u16) -> DirView {
        DirView::Exclusive(CoreId::new(core))
    }

    fn dir(entries: usize) -> CuckooDirectory {
        CuckooDirectory::new(entries, 4, 8, 1)
    }

    #[test]
    fn install_lookup_remove() {
        let mut d = dir(64);
        assert!(d.install(BlockAddr::new(10), excl(1)).is_none());
        assert_eq!(d.lookup(BlockAddr::new(10)), Some(&excl(1)));
        d.remove(BlockAddr::new(10));
        assert_eq!(d.lookup(BlockAddr::new(10)), None);
        assert_eq!(d.occupancy(), 0);
    }

    #[test]
    fn update_in_place() {
        let mut d = dir(64);
        d.install(BlockAddr::new(5), excl(1));
        assert!(d.install(BlockAddr::new(5), excl(2)).is_none());
        assert_eq!(d.lookup(BlockAddr::new(5)), Some(&excl(2)));
        assert_eq!(d.occupancy(), 1);
    }

    #[test]
    fn fills_to_high_occupancy_before_evicting() {
        // Cuckoo's selling point: near-full occupancy without conflicts.
        let mut d = dir(256);
        let mut evictions = 0;
        for i in 0..230 {
            if !d.install(BlockAddr::new(i), excl(0)).is_none() {
                evictions += 1;
            }
        }
        // ~90% load factor with d=4 should displace almost nothing.
        assert!(
            evictions <= 4,
            "expected few evictions at 90% load, got {evictions}"
        );
        assert!(d.occupancy() >= 226);
    }

    #[test]
    fn over_filling_evicts_with_invalidation() {
        let mut d = dir(16);
        let mut evicted = Vec::new();
        for i in 0..32 {
            if let EvictionAction::Invalidate { block, .. } = d.install(BlockAddr::new(i), excl(0))
            {
                evicted.push(block);
            }
        }
        assert!(!evicted.is_empty(), "overfilled table must evict");
        assert_eq!(d.occupancy(), 32 - evicted.len());
        assert_eq!(d.stats().invalidating_evictions.get(), evicted.len() as u64);
        // Every block is either tracked or was evicted: no entry lost.
        for i in 0..32 {
            let b = BlockAddr::new(i);
            assert!(
                d.lookup(b).is_some() || evicted.contains(&b),
                "block {b} vanished without an eviction notice"
            );
        }
    }

    #[test]
    fn never_evicts_the_block_being_inserted() {
        // A cycling relocation walk must not bounce the new block out:
        // the caller is about to grant a copy and needs it tracked.
        for seed in 0..20 {
            let mut d = CuckooDirectory::new(8, 2, 4, seed);
            for i in 0..64 {
                let block = BlockAddr::new(i);
                match d.install(block, excl(0)) {
                    EvictionAction::Invalidate { block: victim, .. } => {
                        assert_ne!(victim, block, "seed {seed}: evicted itself");
                    }
                    EvictionAction::None => {}
                    other => panic!("unexpected {other:?}"),
                }
                assert!(
                    d.lookup(block).is_some(),
                    "seed {seed}: freshly installed block untracked"
                );
            }
        }
    }

    #[test]
    fn relocations_are_counted() {
        let mut d = dir(16);
        for i in 0..16 {
            d.install(BlockAddr::new(i), excl(0));
        }
        assert!(d.stats().relocations.get() > 0);
    }

    #[test]
    fn entries_snapshot_is_consistent() {
        let mut d = dir(64);
        for i in 0..20 {
            d.install(BlockAddr::new(i), excl((i % 4) as u16));
        }
        let entries = d.entries();
        assert_eq!(entries.len(), d.occupancy());
        for (b, v) in entries {
            assert_eq!(d.lookup(b), Some(&v));
        }
    }

    #[test]
    #[should_panic(expected = "at least two tables")]
    fn single_table_panics() {
        let _ = CuckooDirectory::new(16, 1, 8, 0);
    }

    #[test]
    #[should_panic(expected = "do not split")]
    fn uneven_split_panics() {
        let _ = CuckooDirectory::new(10, 4, 8, 0);
    }
}
