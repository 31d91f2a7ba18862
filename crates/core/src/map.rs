//! The map-backed directories: an entry for every tracked block, no
//! conflicts, no forced invalidations.
//!
//! Two organizations share this storage and differ only in what the
//! storage would cost in hardware:
//!
//! - **Full-map** models a duplicate-tag or in-LLC directory with one
//!   entry per LLC line. It is the performance upper bound the
//!   evaluation normalizes against.
//! - **DLS** (directoryless, related work) keeps no directory SRAM at
//!   all. A block is private until a second core touches it; from then
//!   on it is shared for good and every access is serviced as a remote
//!   access to the shared LLC bank, with no private copy ever made.
//!   Private blocks need only an owner, which rides page-table/TLB
//!   metadata. The map is the simulator's functional shadow of those
//!   owners, and it costs zero bits: the scheme trades directory area
//!   for NoC traffic and remote-access latency, which the machine
//!   accounts (`backend.remote_llc_accesses`,
//!   `backend.dls_reclassifications`).

use crate::cost::CostParams;
use crate::model::{DirStats, DirectoryModel, EvictionAction};
use stashdir_common::BlockAddr;
use stashdir_protocol::DirView;
use std::collections::HashMap;

/// Which map-backed organization a [`MapDirectory`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapOrg {
    /// The unbounded full-map ideal.
    FullMap,
    /// The directoryless DLS owner map.
    Dls,
}

impl MapOrg {
    /// The organization's short name (`"fullmap"`, `"dls"`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            MapOrg::FullMap => "fullmap",
            MapOrg::Dls => "dls",
        }
    }
}

/// An unbounded directory (never evicts).
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, CoreId};
/// use stashdir_core::{CostParams, DirectoryModel, MapDirectory, MapOrg};
/// use stashdir_protocol::DirView;
///
/// let mut dir = MapDirectory::new(MapOrg::Dls);
/// for i in 0..1000 {
///     let act = dir.install(BlockAddr::new(i), DirView::Exclusive(CoreId::new(0)));
///     assert!(act.is_none()); // never evicts
/// }
/// assert_eq!(dir.occupancy(), 1000);
/// let params = CostParams { tag_bits: 30, cores: 16, llc_lines: 1024 };
/// assert_eq!(dir.storage_bits(&params), 0); // the point of DLS
/// ```
#[derive(Debug)]
pub struct MapDirectory {
    org: MapOrg,
    map: HashMap<BlockAddr, DirView>,
    stats: DirStats,
}

impl MapDirectory {
    /// Creates an empty `org` directory.
    pub fn new(org: MapOrg) -> Self {
        MapDirectory {
            org,
            map: HashMap::new(),
            stats: DirStats::default(),
        }
    }
}

impl DirectoryModel for MapDirectory {
    fn name(&self) -> &'static str {
        self.org.name()
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
        match self.org {
            // One in-LLC entry per LLC line: no tag needed (co-indexed
            // with the LLC tags), state + sharer vector per line.
            MapOrg::FullMap => params.llc_lines * (2 + params.cores as u64),
            // Private/shared classification lives in page-table/TLB
            // metadata; no directory SRAM exists.
            MapOrg::Dls => 0,
        }
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
    fn update_replaces_view() {
        let mut d = MapDirectory::new(MapOrg::FullMap);
        d.install(BlockAddr::new(0), excl(1));
        d.install(BlockAddr::new(0), excl(2));
        assert_eq!(d.lookup(BlockAddr::new(0)), Some(&excl(2)));
        assert_eq!(d.occupancy(), 1);
        assert_eq!(d.stats().hits.get(), 1);
        assert_eq!(d.stats().allocations.get(), 1);
    }

    #[test]
    fn tracked_lists_blocks_in_address_order() {
        let mut d = MapDirectory::new(MapOrg::Dls);
        for b in [9, 2, 5] {
            d.install(BlockAddr::new(b), excl(0));
        }
        let blocks: Vec<u64> = d.tracked().map(|(b, _)| b.get()).collect();
        assert_eq!(blocks, vec![2, 5, 9]);
    }
}
