//! The **Stash Directory** — the paper's contribution.
//!
//! Identical storage to the conventional sparse directory, with two
//! behavioral changes on conflict:
//!
//! 1. **Victim selection prefers private entries** (entries whose view
//!    names exactly one core), least-recently-used first.
//! 2. **Private victims are dropped silently**: the cached copy stays in
//!    the owner's cache, untracked ("hidden"), and the caller is told to
//!    set the *stash bit* on the block's LLC line. Only victims with two
//!    or more sharers pay the conventional invalidation.
//!
//! The relaxed inclusion property this creates — *every cached block has a
//! directory entry **or** a set stash bit on its LLC line* — is what the
//! LLC's discovery mechanism (in `stashdir-sim`) restores on demand.

use crate::cost::CostParams;
use crate::format::SharerFormat;
use crate::model::{DirReplPolicy, DirStats, DirectoryModel, EvictionAction};
use crate::storage::DirStorage;
use stashdir_common::BlockAddr;
use stashdir_protocol::DirView;

/// The stash directory.
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, CoreId, SharerSet};
/// use stashdir_core::{DirReplPolicy, DirectoryModel, EvictionAction, StashDirectory};
/// use stashdir_protocol::DirView;
///
/// let mut dir = StashDirectory::new(1, 2, DirReplPolicy::PrivateFirstLru, 0);
/// let mut sharers = SharerSet::new(16);
/// sharers.extend([CoreId::new(0), CoreId::new(1)]);
///
/// dir.install(BlockAddr::new(1), DirView::Shared(sharers)); // shared, LRU
/// dir.install(BlockAddr::new(2), DirView::Exclusive(CoreId::new(2))); // private
///
/// // The set is full. Private-first selection skips the older shared
/// // entry and silently drops the private one.
/// match dir.install(BlockAddr::new(3), DirView::Exclusive(CoreId::new(3))) {
///     EvictionAction::Silent { block, owner } => {
///         assert_eq!(block, BlockAddr::new(2));
///         assert_eq!(owner, CoreId::new(2));
///     }
///     other => panic!("expected silent eviction, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct StashDirectory {
    storage: DirStorage,
    format: SharerFormat,
    stats: DirStats,
}

impl StashDirectory {
    /// Creates a stash directory with `sets × ways` entries.
    ///
    /// The paper's design uses [`DirReplPolicy::PrivateFirstLru`]; plain
    /// `Lru` and `Random` are supported as replacement-policy ablations
    /// (they change *which* victim is chosen, not the silent-drop rule).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize, repl: DirReplPolicy, seed: u64) -> Self {
        StashDirectory {
            storage: DirStorage::new(sets, ways, repl, seed),
            format: SharerFormat::FullMap,
            stats: DirStats::default(),
        }
    }

    /// Selects the sharer-encoding format (default: precise full-map).
    /// Overflowed limited-pointer entries are never private, so the
    /// stash mechanism automatically stops hiding them.
    pub fn with_format(mut self, format: SharerFormat) -> Self {
        self.format = format;
        self
    }

    /// The victim-selection policy.
    pub fn repl(&self) -> DirReplPolicy {
        self.storage.repl()
    }

    /// Fraction of evictions handled silently so far (1.0 when no
    /// eviction has happened yet — vacuously all-silent).
    pub fn silent_fraction(&self) -> f64 {
        let total = self.stats.total_evictions();
        if total == 0 {
            1.0
        } else {
            self.stats.silent_evictions.get() as f64 / total as f64
        }
    }
}

impl DirectoryModel for StashDirectory {
    fn name(&self) -> &'static str {
        "stash"
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
        if let Some(owner) = victim_view.sole_holder() {
            // The stash mechanism: drop the entry, keep the copy.
            self.stats.silent_evictions.incr();
            EvictionAction::Silent {
                block: victim,
                owner,
            }
        } else {
            self.stats.invalidating_evictions.incr();
            self.stats
                .copies_invalidated
                .add(victim_view.holder_count() as u64);
            EvictionAction::Invalidate {
                block: victim,
                view: victim_view,
            }
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
        // Entry storage plus one stash bit per LLC line.
        self.capacity() as u64 * self.format.entry_bits(params) + params.llc_lines
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

    fn dir(sets: usize, ways: usize) -> StashDirectory {
        StashDirectory::new(sets, ways, DirReplPolicy::PrivateFirstLru, 0)
    }

    #[test]
    fn private_victim_is_dropped_silently() {
        let mut d = dir(1, 1);
        d.install(BlockAddr::new(0), excl(7));
        let action = d.install(BlockAddr::new(1), excl(8));
        assert_eq!(
            action,
            EvictionAction::Silent {
                block: BlockAddr::new(0),
                owner: CoreId::new(7),
            }
        );
        assert_eq!(d.stats().silent_evictions.get(), 1);
        assert_eq!(d.stats().copies_invalidated.get(), 0);
    }

    #[test]
    fn single_sharer_entry_is_private_too() {
        let mut d = dir(1, 1);
        d.install(BlockAddr::new(0), shared(&[5]));
        match d.install(BlockAddr::new(1), excl(0)) {
            EvictionAction::Silent { owner, .. } => assert_eq!(owner, CoreId::new(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_victim_still_invalidates() {
        let mut d = dir(1, 1);
        d.install(BlockAddr::new(0), shared(&[1, 2]));
        let action = d.install(BlockAddr::new(1), excl(0));
        assert_eq!(
            action,
            EvictionAction::Invalidate {
                block: BlockAddr::new(0),
                view: shared(&[1, 2]),
            }
        );
        assert_eq!(d.stats().invalidating_evictions.get(), 1);
        assert_eq!(d.stats().copies_invalidated.get(), 2);
    }

    #[test]
    fn private_first_protects_shared_entries() {
        let mut d = dir(1, 3);
        d.install(BlockAddr::new(0), shared(&[1, 2])); // oldest, shared
        d.install(BlockAddr::new(1), excl(3));
        d.install(BlockAddr::new(2), excl(4));
        // Victim should be block 1: the LRU *private* entry.
        match d.install(BlockAddr::new(3), excl(5)) {
            EvictionAction::Silent { block, owner } => {
                assert_eq!(block, BlockAddr::new(1));
                assert_eq!(owner, CoreId::new(3));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            d.lookup(BlockAddr::new(0)).is_some(),
            "shared entry survives"
        );
    }

    #[test]
    fn plain_lru_ablation_can_pick_shared_victims() {
        let mut d = StashDirectory::new(1, 2, DirReplPolicy::Lru, 0);
        d.install(BlockAddr::new(0), shared(&[1, 2])); // LRU
        d.install(BlockAddr::new(1), excl(3));
        match d.install(BlockAddr::new(2), excl(4)) {
            // LRU picks the shared entry, so stash must invalidate.
            EvictionAction::Invalidate { block, .. } => assert_eq!(block, BlockAddr::new(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn silent_fraction_tracks_mix() {
        let mut d = dir(1, 1);
        assert_eq!(d.silent_fraction(), 1.0);
        d.install(BlockAddr::new(0), excl(0));
        d.install(BlockAddr::new(1), shared(&[1, 2])); // silent (victim 0 private)
        d.install(BlockAddr::new(2), excl(0)); // invalidate (victim 1 shared)
        assert_eq!(d.silent_fraction(), 0.5);
    }

    #[test]
    fn update_never_evicts() {
        let mut d = dir(1, 1);
        d.install(BlockAddr::new(0), excl(0));
        assert!(d.install(BlockAddr::new(0), shared(&[0, 1])).is_none());
        assert_eq!(d.occupancy(), 1);
    }

    #[test]
    fn storage_bits_include_stash_bits() {
        let d = dir(4, 2);
        let params = CostParams {
            tag_bits: 20,
            cores: 16,
            llc_lines: 1000,
        };
        let sparse_equal = SparseLike::bits(&params, d.capacity());
        assert_eq!(d.storage_bits(&params), sparse_equal + 1000);
    }

    struct SparseLike;
    impl SparseLike {
        fn bits(params: &CostParams, entries: usize) -> u64 {
            params.set_assoc_bits(entries)
        }
    }

    #[test]
    fn stats_name_capacity() {
        let d = dir(8, 4);
        assert_eq!(d.name(), "stash");
        assert_eq!(d.capacity(), 32);
        assert_eq!(d.repl(), DirReplPolicy::PrivateFirstLru);
    }
}
