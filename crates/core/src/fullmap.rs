//! The ideal full-map directory: an entry for every tracked block, no
//! conflicts, no forced invalidations.
//!
//! Models a duplicate-tag or in-LLC directory with one entry per LLC line.
//! It is the performance upper bound the evaluation normalizes against: a
//! directory organization can at best match it.

use crate::cost::CostParams;
use crate::model::{DirStats, DirectoryModel, EvictionAction};
use stashdir_common::BlockAddr;
use stashdir_protocol::DirView;
use std::collections::HashMap;

/// An unbounded directory (never evicts).
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, CoreId};
/// use stashdir_core::{DirectoryModel, FullMapDirectory};
/// use stashdir_protocol::DirView;
///
/// let mut dir = FullMapDirectory::new();
/// for i in 0..1000 {
///     let act = dir.install(BlockAddr::new(i), DirView::Exclusive(CoreId::new(0)));
///     assert!(act.is_none()); // never evicts
/// }
/// assert_eq!(dir.occupancy(), 1000);
/// ```
#[derive(Debug, Default)]
pub struct FullMapDirectory {
    map: HashMap<BlockAddr, DirView>,
    stats: DirStats,
}

impl FullMapDirectory {
    /// Creates an empty full-map directory.
    pub fn new() -> Self {
        FullMapDirectory::default()
    }
}

impl DirectoryModel for FullMapDirectory {
    fn name(&self) -> &'static str {
        "fullmap"
    }

    fn capacity(&self) -> usize {
        usize::MAX
    }

    fn occupancy(&self) -> usize {
        self.map.len()
    }

    fn lookup(&self, block: BlockAddr) -> Option<&DirView> {
        self.map.get(&block)
    }

    fn install(&mut self, block: BlockAddr, view: DirView) -> EvictionAction {
        assert!(
            view != DirView::Untracked,
            "install() takes a tracking view; use remove() to untrack"
        );
        self.stats.lookups.incr();
        if self.map.insert(block, view).is_some() {
            self.stats.hits.incr();
        } else {
            self.stats.allocations.incr();
        }
        EvictionAction::None
    }

    fn remove(&mut self, block: BlockAddr) {
        self.map.remove(&block);
    }

    fn tracked(&self) -> Box<dyn Iterator<Item = (BlockAddr, &DirView)> + '_> {
        let mut v: Vec<_> = self.map.iter().map(|(b, v)| (*b, v)).collect();
        v.sort_by_key(|(b, _)| *b);
        Box::new(v.into_iter())
    }

    fn stats(&self) -> &DirStats {
        &self.stats
    }

    fn storage_bits(&self, params: &CostParams) -> u64 {
        // One in-LLC entry per LLC line: no tag needed (co-indexed with
        // the LLC tags), state + sharer vector per line.
        params.llc_lines * (2 + params.cores as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir_common::CoreId;

    fn excl(core: u16) -> DirView {
        DirView::Exclusive(CoreId::new(core))
    }

    #[test]
    fn never_evicts_and_tracks_everything() {
        let mut d = FullMapDirectory::new();
        for i in 0..100 {
            assert!(d
                .install(BlockAddr::new(i), excl((i % 16) as u16))
                .is_none());
        }
        assert_eq!(d.occupancy(), 100);
        assert_eq!(d.entries().len(), 100);
        assert_eq!(d.lookup(BlockAddr::new(42)), Some(&excl(10)));
    }

    #[test]
    fn update_replaces_view() {
        let mut d = FullMapDirectory::new();
        d.install(BlockAddr::new(0), excl(1));
        d.install(BlockAddr::new(0), excl(2));
        assert_eq!(d.lookup(BlockAddr::new(0)), Some(&excl(2)));
        assert_eq!(d.occupancy(), 1);
        assert_eq!(d.stats().hits.get(), 1);
        assert_eq!(d.stats().allocations.get(), 1);
    }

    #[test]
    fn remove_untracks() {
        let mut d = FullMapDirectory::new();
        d.install(BlockAddr::new(0), excl(1));
        d.remove(BlockAddr::new(0));
        assert_eq!(d.lookup(BlockAddr::new(0)), None);
    }

    #[test]
    fn storage_model_is_per_llc_line() {
        let d = FullMapDirectory::new();
        let params = CostParams {
            tag_bits: 20,
            cores: 16,
            llc_lines: 100,
        };
        assert_eq!(d.storage_bits(&params), 100 * 18);
    }

    #[test]
    #[should_panic(expected = "tracking view")]
    fn installing_untracked_panics() {
        FullMapDirectory::new().install(BlockAddr::new(0), DirView::Untracked);
    }
}
