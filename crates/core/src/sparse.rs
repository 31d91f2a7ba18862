//! The conventional sparse directory: the paper's baseline.
//!
//! A set-associative array of entries. When a set fills up, the victim's
//! cached copies — **all of them, private or shared** — must be
//! invalidated to preserve the directory-inclusion invariant. These forced
//! invalidations are exactly the cost the stash directory removes.

use crate::cost::CostParams;
use crate::format::SharerFormat;
use crate::model::{DirReplPolicy, DirStats, DirectoryModel, EvictionAction};
use crate::storage::DirStorage;
use stashdir_common::BlockAddr;
use stashdir_protocol::DirView;

/// A conventional sparse directory.
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, CoreId};
/// use stashdir_core::{DirReplPolicy, DirectoryModel, EvictionAction, SparseDirectory};
/// use stashdir_protocol::DirView;
///
/// let mut dir = SparseDirectory::new(1, 1, DirReplPolicy::Lru, 0);
/// dir.install(BlockAddr::new(1), DirView::Exclusive(CoreId::new(0)));
/// // The set is full; the next install forces an invalidating eviction
/// // even though the victim is private.
/// match dir.install(BlockAddr::new(2), DirView::Exclusive(CoreId::new(1))) {
///     EvictionAction::Invalidate { block, .. } => assert_eq!(block, BlockAddr::new(1)),
///     other => panic!("expected invalidation, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct SparseDirectory {
    storage: DirStorage,
    format: SharerFormat,
    stats: DirStats,
}

impl SparseDirectory {
    /// Creates a sparse directory with `sets × ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize, repl: DirReplPolicy, seed: u64) -> Self {
        SparseDirectory {
            storage: DirStorage::new(sets, ways, repl, seed),
            format: SharerFormat::FullMap,
            stats: DirStats::default(),
        }
    }

    /// Selects the sharer-encoding format (default: precise full-map).
    /// Limited-pointer formats lose precision on wide sharing: stored
    /// views overflow to "all cores", making later invalidations
    /// broadcast.
    pub fn with_format(mut self, format: SharerFormat) -> Self {
        self.format = format;
        self
    }

    /// The victim-selection policy.
    pub fn repl(&self) -> DirReplPolicy {
        self.storage.repl()
    }
}

impl DirectoryModel for SparseDirectory {
    fn name(&self) -> &'static str {
        "sparse"
    }

    fn capacity(&self) -> usize {
        self.storage.entries.capacity()
    }

    fn occupancy(&self) -> usize {
        self.storage.entries.occupancy()
    }

    fn lookup(&self, block: BlockAddr) -> Option<&DirView> {
        self.storage.entries.get(block)
    }

    fn install(&mut self, block: BlockAddr, view: DirView) -> EvictionAction {
        assert!(
            view != DirView::Untracked,
            "install() takes a tracking view; use remove() to untrack"
        );
        self.stats.lookups.incr();
        let view = self.format.degrade(view);
        if let Some(entry) = self.storage.entries.access_mut(block) {
            *entry = view;
            self.stats.hits.incr();
            return EvictionAction::None;
        }
        self.stats.allocations.incr();
        let Some((victim, victim_view)) = self.storage.insert(block, view) else {
            return EvictionAction::None;
        };
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

    fn remove(&mut self, block: BlockAddr) {
        self.storage.entries.remove(block);
    }

    fn tracked(&self) -> Box<dyn Iterator<Item = (BlockAddr, &DirView)> + '_> {
        Box::new(self.storage.entries.iter())
    }

    fn stats(&self) -> &DirStats {
        &self.stats
    }

    fn storage_bits(&self, params: &CostParams) -> u64 {
        self.capacity() as u64 * self.format.entry_bits(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir_common::{CoreId, SharerSet};

    fn excl(core: u16) -> DirView {
        DirView::Exclusive(CoreId::new(core))
    }

    fn shared(cores: &[u16]) -> DirView {
        let mut s = SharerSet::new(16);
        s.extend(cores.iter().map(|&c| CoreId::new(c)));
        DirView::Shared(s)
    }

    fn dir(sets: usize, ways: usize) -> SparseDirectory {
        SparseDirectory::new(sets, ways, DirReplPolicy::Lru, 0)
    }

    #[test]
    fn install_then_lookup() {
        let mut d = dir(4, 2);
        assert!(d.install(BlockAddr::new(1), excl(2)).is_none());
        assert_eq!(d.lookup(BlockAddr::new(1)), Some(&excl(2)));
        assert_eq!(d.lookup(BlockAddr::new(9)), None);
    }

    #[test]
    fn update_existing_never_evicts() {
        let mut d = dir(1, 2);
        d.install(BlockAddr::new(0), excl(0));
        d.install(BlockAddr::new(1), excl(1));
        assert!(d.install(BlockAddr::new(0), shared(&[0, 3])).is_none());
        assert_eq!(d.occupancy(), 2);
        assert_eq!(d.lookup(BlockAddr::new(0)), Some(&shared(&[0, 3])));
    }

    #[test]
    fn conflict_evicts_with_invalidation_always() {
        let mut d = dir(1, 1);
        d.install(BlockAddr::new(0), shared(&[1, 2, 3]));
        let action = d.install(BlockAddr::new(1), excl(0));
        assert_eq!(
            action,
            EvictionAction::Invalidate {
                block: BlockAddr::new(0),
                view: shared(&[1, 2, 3]),
            }
        );
        assert_eq!(d.stats().invalidating_evictions.get(), 1);
        assert_eq!(d.stats().copies_invalidated.get(), 3);
        assert_eq!(d.stats().silent_evictions.get(), 0);
    }

    #[test]
    fn private_victims_are_counted_as_missed_opportunity() {
        let mut d = dir(1, 1);
        d.install(BlockAddr::new(0), excl(5));
        d.install(BlockAddr::new(1), excl(6));
        assert_eq!(d.stats().private_victims_invalidated.get(), 1);
    }

    #[test]
    fn remove_untracks() {
        let mut d = dir(2, 2);
        d.install(BlockAddr::new(0), excl(0));
        d.remove(BlockAddr::new(0));
        assert_eq!(d.lookup(BlockAddr::new(0)), None);
        assert_eq!(d.occupancy(), 0);
        d.remove(BlockAddr::new(0)); // no-op
    }

    #[test]
    fn lru_victim_selection() {
        let mut d = dir(1, 2);
        d.install(BlockAddr::new(0), excl(0));
        d.install(BlockAddr::new(1), excl(1));
        d.install(BlockAddr::new(0), excl(0)); // refresh 0
        match d.install(BlockAddr::new(2), excl(2)) {
            EvictionAction::Invalidate { block, .. } => assert_eq!(block, BlockAddr::new(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn capacity_and_occupancy() {
        let mut d = dir(4, 2);
        assert_eq!(d.capacity(), 8);
        for i in 0..5 {
            d.install(BlockAddr::new(i), excl(0));
        }
        assert_eq!(d.occupancy(), 5);
        assert_eq!(d.entries().len(), 5);
    }

    #[test]
    #[should_panic(expected = "tracking view")]
    fn installing_untracked_panics() {
        dir(2, 2).install(BlockAddr::new(0), DirView::Untracked);
    }
}
