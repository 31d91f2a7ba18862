//! The opaque-distributed directory (related-work baseline): a
//! conventional set-associative directory whose entries are sharded
//! across LLC banks by an *opaque* (hash-like) address→bank map instead
//! of the home function.
//!
//! Decoupling directory placement from data placement spreads directory
//! load across banks, but a demand at a block's home bank must take an
//! extra indirection hop to the (generally different) bank holding the
//! entry, and the opaque map can still load banks unevenly. The machine
//! accounts both effects (`backend.indirection_hops`,
//! `backend.dir_bank_accesses` and the derived imbalance); this module
//! only provides the per-bank entry storage, which behaves exactly like a
//! sparse directory slice — on conflict, every copy of the victim is
//! invalidated.
//!
//! Entries here are keyed by **global** block addresses: a bank's shard
//! holds blocks the opaque map assigned to it, which are unrelated to the
//! bank's own home blocks, so the home-local address compression the
//! other organizations use does not apply.

use crate::cost::CostParams;
use crate::model::{DirReplPolicy, DirStats, DirectoryModel, EvictionAction};
use crate::sparse::SparseDirectory;
use stashdir_common::BlockAddr;
use stashdir_protocol::DirView;

/// One bank's shard of an opaque-distributed directory.
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, CoreId};
/// use stashdir_core::{DirReplPolicy, DirectoryModel, OpaqueDirectory};
/// use stashdir_protocol::DirView;
///
/// let mut dir = OpaqueDirectory::new(4, 2, DirReplPolicy::Lru, 0);
/// dir.install(BlockAddr::new(9), DirView::Exclusive(CoreId::new(1)));
/// assert_eq!(dir.name(), "opaque");
/// assert_eq!(dir.occupancy(), 1);
/// ```
#[derive(Debug)]
pub struct OpaqueDirectory {
    inner: SparseDirectory,
}

impl OpaqueDirectory {
    /// Creates an opaque directory shard with `sets × ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize, repl: DirReplPolicy, seed: u64) -> Self {
        OpaqueDirectory {
            inner: SparseDirectory::new(sets, ways, repl, seed),
        }
    }
}

impl DirectoryModel for OpaqueDirectory {
    fn name(&self) -> &'static str {
        "opaque"
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    fn lookup(&self, block: BlockAddr) -> Option<DirView> {
        self.inner.lookup(block)
    }

    fn install(&mut self, block: BlockAddr, view: DirView) -> EvictionAction {
        self.inner.install(block, view)
    }

    fn remove(&mut self, block: BlockAddr) {
        self.inner.remove(block);
    }

    fn entries(&self) -> Vec<(BlockAddr, DirView)> {
        self.inner.entries()
    }

    fn stats(&self) -> &DirStats {
        self.inner.stats()
    }

    fn global_keys(&self) -> bool {
        true
    }

    fn storage_bits(&self, params: &CostParams) -> u64 {
        self.inner.storage_bits(params)
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
    fn behaves_like_sparse_on_conflict() {
        let mut d = OpaqueDirectory::new(1, 1, DirReplPolicy::Lru, 0);
        d.install(BlockAddr::new(0), excl(3));
        match d.install(BlockAddr::new(1), excl(4)) {
            EvictionAction::Invalidate { block, .. } => assert_eq!(block, BlockAddr::new(0)),
            other => panic!("expected invalidation, got {other:?}"),
        }
        assert_eq!(d.stats().invalidating_evictions.get(), 1);
    }

    #[test]
    fn global_keys_index_cleanly() {
        // Blocks whose low bits encode *other* banks' homes must still
        // store and look up fine — set indexing uses raw low bits.
        let mut d = OpaqueDirectory::new(4, 2, DirReplPolicy::Lru, 0);
        for b in [0u64, 1, 2, 1027] {
            d.install(BlockAddr::new(b), excl(0));
        }
        assert_eq!(d.occupancy(), 4);
        assert_eq!(d.lookup(BlockAddr::new(1027)), Some(excl(0)));
    }

    #[test]
    fn storage_matches_sparse_at_same_geometry() {
        let params = CostParams {
            tag_bits: 30,
            cores: 16,
            llc_lines: 1024,
        };
        let o = OpaqueDirectory::new(8, 4, DirReplPolicy::Lru, 0);
        let s = SparseDirectory::new(8, 4, DirReplPolicy::Lru, 0);
        assert_eq!(o.storage_bits(&params), s.storage_bits(&params));
    }
}
