//! The DLS directoryless backend (related-work baseline): no directory
//! SRAM at all.
//!
//! DLS classifies each block as *private* or *shared* at first touch.
//! Private blocks are cached normally in their owner's hierarchy; the
//! moment a second core touches a block it is reclassified shared —
//! permanently — and from then on every access to it is serviced as a
//! **remote access to the shared LLC bank**, with no private-cache copy
//! ever made. With no copies to track, shared blocks need no coherence
//! state; private blocks need only an owner, which rides the existing
//! page-table/TLB metadata rather than dedicated directory storage.
//!
//! The model below keeps the owner map as a functional shadow structure
//! (the simulator still needs to know who holds a private copy), but its
//! [`storage_bits`] is zero: the scheme's whole premise is trading
//! directory area for NoC traffic and remote-access latency, which the
//! machine accounts separately (`backend.remote_llc_accesses`,
//! `backend.dls_reclassifications`).
//!
//! [`storage_bits`]: DirectoryModel::storage_bits

use crate::cost::CostParams;
use crate::model::{DirStats, DirectoryModel, EvictionAction};
use stashdir_common::BlockAddr;
use stashdir_protocol::DirView;
use std::collections::HashMap;

/// A directoryless owner map: unbounded, never evicts, costs no bits.
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, CoreId};
/// use stashdir_core::{CostParams, DirectoryModel, DlsDirectory};
/// use stashdir_protocol::DirView;
///
/// let mut dir = DlsDirectory::new();
/// let act = dir.install(BlockAddr::new(7), DirView::Exclusive(CoreId::new(3)));
/// assert!(act.is_none()); // never evicts
/// let params = CostParams { tag_bits: 30, cores: 16, llc_lines: 1024 };
/// assert_eq!(dir.storage_bits(&params), 0); // the point of the scheme
/// ```
#[derive(Debug, Default)]
pub struct DlsDirectory {
    owners: HashMap<BlockAddr, DirView>,
    stats: DirStats,
}

impl DlsDirectory {
    /// Creates an empty owner map.
    pub fn new() -> Self {
        DlsDirectory::default()
    }
}

impl DirectoryModel for DlsDirectory {
    fn name(&self) -> &'static str {
        "dls"
    }

    fn capacity(&self) -> usize {
        usize::MAX
    }

    fn occupancy(&self) -> usize {
        self.owners.len()
    }

    fn lookup(&self, block: BlockAddr) -> Option<&DirView> {
        self.owners.get(&block)
    }

    fn install(&mut self, block: BlockAddr, view: DirView) -> EvictionAction {
        assert!(
            view != DirView::Untracked,
            "install() takes a tracking view; use remove() to untrack"
        );
        self.stats.lookups.incr();
        if self.owners.insert(block, view).is_some() {
            self.stats.hits.incr();
        } else {
            self.stats.allocations.incr();
        }
        EvictionAction::None
    }

    fn remove(&mut self, block: BlockAddr) {
        self.owners.remove(&block);
    }

    fn tracked(&self) -> Box<dyn Iterator<Item = (BlockAddr, &DirView)> + '_> {
        let mut v: Vec<_> = self.owners.iter().map(|(b, v)| (*b, v)).collect();
        v.sort_by_key(|(b, _)| *b);
        Box::new(v.into_iter())
    }

    fn stats(&self) -> &DirStats {
        &self.stats
    }

    fn storage_bits(&self, _params: &CostParams) -> u64 {
        // Private/shared classification lives in page-table/TLB metadata;
        // no directory SRAM exists.
        0
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
    fn never_evicts() {
        let mut d = DlsDirectory::new();
        for i in 0..200 {
            assert!(d.install(BlockAddr::new(i), excl((i % 8) as u16)).is_none());
        }
        assert_eq!(d.occupancy(), 200);
        assert_eq!(d.lookup(BlockAddr::new(5)), Some(&excl(5)));
    }

    #[test]
    fn remove_untracks() {
        let mut d = DlsDirectory::new();
        d.install(BlockAddr::new(1), excl(0));
        d.remove(BlockAddr::new(1));
        assert_eq!(d.lookup(BlockAddr::new(1)), None);
        assert_eq!(d.entries().len(), 0);
    }

    #[test]
    fn storage_is_free() {
        let params = CostParams {
            tag_bits: 32,
            cores: 64,
            llc_lines: 1 << 20,
        };
        assert_eq!(DlsDirectory::new().storage_bits(&params), 0);
    }

    #[test]
    #[should_panic(expected = "tracking view")]
    fn installing_untracked_panics() {
        DlsDirectory::new().install(BlockAddr::new(0), DirView::Untracked);
    }
}
