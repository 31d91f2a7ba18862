//! Shared set-associative entry storage for the sparse and stash
//! directories: explicit per-set recency so victim selection can be
//! content-aware (the stash directory's private-first policy).
//!
//! Storage is flat and set-major: one tag vector and one view vector of
//! `sets × ways` entries each, and one recency stack of `ways` bytes per
//! set, all allocated at construction. (`stashdir_mem::SetAssoc` marks
//! free ways with the same sentinel tag, but allocates per chunk of sets
//! on first insert and stores only as many ways per set as the chunk has
//! needed so far.) Building a directory allocates three times whatever
//! its set count, and no lookup, install or eviction allocates.

// lint: allow-file(indexing) — set indices are masked by `set_mask`; way
// indices come from `slot_of`/`free_way`/the recency stack, all below
// `ways`; the three vectors are sized `sets × ways` at construction.

use crate::model::DirReplPolicy;
use stashdir_common::{BlockAddr, DetRng};
use stashdir_protocol::DirView;
use std::ops::Range;

/// The tag of a free way. No block reaches it: block numbers are byte
/// addresses shifted right by the line-offset bits.
const EMPTY: u64 = u64::MAX;

/// Set-associative `(BlockAddr, DirView)` storage with LRU bookkeeping.
#[derive(Debug)]
pub(crate) struct DirStorage {
    /// `sets × ways` raw block numbers; set `s` owns
    /// `tags[s * ways..(s + 1) * ways]`. [`EMPTY`] marks a free way.
    tags: Vec<u64>,
    /// `sets × ways` views, laid out as `tags`. A free way holds
    /// [`DirView::Untracked`].
    views: Vec<DirView>,
    /// Per set, its `ways` way numbers ordered least- to most-recently
    /// used. Removing an entry leaves its way where it stands.
    recency: Vec<u8>,
    ways: usize,
    set_mask: u64,
    rng: DetRng,
}

impl DirStorage {
    /// Creates empty storage of `sets × ways` entries; `seed` feeds the
    /// `Random` policy's draws.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `ways` is zero or
    /// above 256.
    pub(crate) fn new(sets: usize, ways: usize, seed: u64) -> Self {
        assert!(
            sets.is_power_of_two(),
            "directory sets must be a power of two, got {sets}"
        );
        assert!(ways > 0, "directory needs at least one way");
        assert!(ways <= 256, "directory ways must fit a byte, got {ways}");
        let len = sets * ways;
        let mut recency = Vec::with_capacity(len);
        for _ in 0..sets {
            recency.extend((0..ways).map(|w| w as u8));
        }
        DirStorage {
            tags: vec![EMPTY; len],
            views: std::iter::repeat_with(|| DirView::Untracked)
                .take(len)
                .collect(),
            recency,
            ways,
            set_mask: sets as u64 - 1,
            rng: DetRng::seed_from(seed),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.tags.len()
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != EMPTY).count()
    }

    fn set_index(&self, block: BlockAddr) -> usize {
        (block.get() & self.set_mask) as usize
    }

    /// The index range of set `set`'s ways in `tags` and `views`.
    fn ways_of(&self, set: usize) -> Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// The index in `tags` and `views` of `block`'s way.
    fn slot_of(&self, block: BlockAddr) -> Option<usize> {
        let ways = self.ways_of(self.set_index(block));
        let start = ways.start;
        self.tags[ways]
            .iter()
            .position(|&tag| tag == block.get())
            .map(|w| start + w)
    }

    /// The first free way of `set`.
    fn free_way(&self, set: usize) -> Option<usize> {
        self.tags[self.ways_of(set)]
            .iter()
            .position(|&tag| tag == EMPTY)
    }

    /// Moves `way` to the most-recently-used end of `set`'s stack:
    /// rotating the tail from its position equals removing it and pushing
    /// it again.
    fn promote(&mut self, set: usize, way: usize) {
        let ways = self.ways_of(set);
        let stack = &mut self.recency[ways];
        let pos = stack.iter().position(|&w| w as usize == way);
        debug_assert!(pos.is_some(), "way {way} tracked in recency order");
        if let Some(pos) = pos {
            stack[pos..].rotate_left(1);
        }
    }

    pub(crate) fn lookup(&self, block: BlockAddr) -> Option<&DirView> {
        self.slot_of(block).map(|slot| &self.views[slot])
    }

    /// `block`'s view, mutably, with its recency refreshed; `None` when
    /// the block is not tracked.
    pub(crate) fn access_mut(&mut self, block: BlockAddr) -> Option<&mut DirView> {
        let slot = self.slot_of(block)?;
        self.promote(slot / self.ways, slot % self.ways);
        Some(&mut self.views[slot])
    }

    /// Whether inserting `block` requires displacing an entry.
    pub(crate) fn needs_victim(&self, block: BlockAddr) -> bool {
        self.slot_of(block).is_none() && self.free_way(self.set_index(block)).is_none()
    }

    /// Chooses the victim way for an insertion of `block` into its full
    /// set, honoring `policy`, and removes its entry.
    ///
    /// # Panics
    ///
    /// Panics if the set is not full.
    pub(crate) fn take_victim(
        &mut self,
        block: BlockAddr,
        policy: DirReplPolicy,
    ) -> (BlockAddr, DirView) {
        debug_assert!(self.needs_victim(block));
        let ways = self.ways_of(self.set_index(block));
        let lru = self.recency[ways.start] as usize;
        let way = match policy {
            DirReplPolicy::Lru => lru,
            DirReplPolicy::PrivateFirstLru => self.recency[ways.clone()]
                .iter()
                .map(|&w| w as usize)
                .find(|&w| self.views[ways.start + w].is_private())
                .unwrap_or(lru),
            DirReplPolicy::Random => self.rng.index(self.ways),
        };
        let slot = ways.start + way;
        let tag = std::mem::replace(&mut self.tags[slot], EMPTY);
        assert!(tag != EMPTY, "full set has no empty slots");
        let view = std::mem::replace(&mut self.views[slot], DirView::Untracked);
        (BlockAddr::new(tag), view)
    }

    /// Inserts `block` into a set with room (a free way must exist).
    ///
    /// # Panics
    ///
    /// Panics if the set is full or the block already tracked.
    pub(crate) fn insert(&mut self, block: BlockAddr, view: DirView) {
        assert!(block.get() != EMPTY, "block {block} is the free-way tag");
        assert!(
            self.slot_of(block).is_none(),
            "block {block} already tracked"
        );
        let set = self.set_index(block);
        // lint: allow(expect) — documented panic contract (doc comment).
        let way = self.free_way(set).expect("insert requires a free way");
        let slot = set * self.ways + way;
        self.tags[slot] = block.get();
        self.views[slot] = view;
        self.promote(set, way);
    }

    /// Removes `block`'s entry, returning its view.
    pub(crate) fn remove(&mut self, block: BlockAddr) -> Option<DirView> {
        let slot = self.slot_of(block)?;
        self.tags[slot] = EMPTY;
        Some(std::mem::replace(&mut self.views[slot], DirView::Untracked))
    }

    /// Every tracked entry in set order, ways in order within a set.
    pub(crate) fn tracked(&self) -> impl Iterator<Item = (BlockAddr, &DirView)> {
        self.tags
            .iter()
            .zip(&self.views)
            .filter(|(&tag, _)| tag != EMPTY)
            .map(|(&tag, view)| (BlockAddr::new(tag), view))
    }

    /// [`tracked`](DirStorage::tracked), cloned.
    #[cfg(test)]
    fn entries(&self) -> Vec<(BlockAddr, DirView)> {
        self.tracked().map(|(b, v)| (b, v.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stashdir_common::{CoreId, SharerSet};

    fn excl(core: u16) -> DirView {
        DirView::Exclusive(CoreId::new(core))
    }

    fn shared(cores: &[u16]) -> DirView {
        let mut s = SharerSet::new(16);
        s.extend(cores.iter().map(|&c| CoreId::new(c)));
        DirView::Shared(s)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut st = DirStorage::new(4, 2, 0);
        st.insert(BlockAddr::new(1), excl(3));
        assert_eq!(st.lookup(BlockAddr::new(1)), Some(&excl(3)));
        assert_eq!(st.occupancy(), 1);
        assert_eq!(st.remove(BlockAddr::new(1)), Some(excl(3)));
        assert_eq!(st.lookup(BlockAddr::new(1)), None);
    }

    #[test]
    fn update_refreshes_recency() {
        let mut st = DirStorage::new(1, 2, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(1), excl(1));
        *st.access_mut(BlockAddr::new(0)).unwrap() = excl(5);
        let (victim, _) = st.take_victim(BlockAddr::new(2), DirReplPolicy::Lru);
        assert_eq!(victim, BlockAddr::new(1), "block 0 was refreshed");
        assert_eq!(st.lookup(BlockAddr::new(0)), Some(&excl(5)));
        assert!(st.access_mut(BlockAddr::new(9)).is_none());
    }

    #[test]
    fn private_first_skips_shared_entries() {
        let mut st = DirStorage::new(1, 3, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2])); // LRU but shared
        st.insert(BlockAddr::new(1), excl(4));
        st.insert(BlockAddr::new(2), shared(&[5, 6]));
        let (victim, view) = st.take_victim(BlockAddr::new(3), DirReplPolicy::PrivateFirstLru);
        assert_eq!(victim, BlockAddr::new(1));
        assert!(view.is_private());
    }

    #[test]
    fn private_first_counts_single_sharer_as_private() {
        let mut st = DirStorage::new(1, 2, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2]));
        st.insert(BlockAddr::new(1), shared(&[7]));
        let (victim, _) = st.take_victim(BlockAddr::new(2), DirReplPolicy::PrivateFirstLru);
        assert_eq!(victim, BlockAddr::new(1));
    }

    #[test]
    fn private_first_falls_back_to_lru() {
        let mut st = DirStorage::new(1, 2, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2]));
        st.insert(BlockAddr::new(1), shared(&[3, 4]));
        let (victim, _) = st.take_victim(BlockAddr::new(2), DirReplPolicy::PrivateFirstLru);
        assert_eq!(victim, BlockAddr::new(0), "plain LRU fallback");
    }

    #[test]
    fn needs_victim_tracks_fullness() {
        let mut st = DirStorage::new(1, 2, 0);
        assert!(!st.needs_victim(BlockAddr::new(0)));
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(1), excl(1));
        assert!(st.needs_victim(BlockAddr::new(2)));
        assert!(
            !st.needs_victim(BlockAddr::new(0)),
            "present block needs none"
        );
    }

    #[test]
    fn random_policy_picks_any_way() {
        let mut st = DirStorage::new(1, 4, 7);
        for i in 0..4 {
            st.insert(BlockAddr::new(i), excl(i as u16));
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let (victim, view) = st.take_victim(BlockAddr::new(9), DirReplPolicy::Random);
            seen.insert(victim.get());
            st.insert(victim, view);
        }
        assert!(
            seen.len() >= 3,
            "random should spread over ways, saw {seen:?}"
        );
    }

    #[test]
    fn take_victim_frees_its_way() {
        let mut st = DirStorage::new(1, 2, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(1), shared(&[1, 2]));
        let (victim, view) = st.take_victim(BlockAddr::new(2), DirReplPolicy::Lru);
        assert_eq!((victim, view), (BlockAddr::new(0), excl(0)));
        assert_eq!(st.lookup(victim), None);
        assert_eq!(st.occupancy(), 1);
        assert!(!st.needs_victim(BlockAddr::new(2)));
    }

    #[test]
    fn entries_snapshot_everything() {
        let mut st = DirStorage::new(2, 2, 0);
        st.insert(BlockAddr::new(0), excl(1));
        st.insert(BlockAddr::new(1), shared(&[2, 3]));
        let mut blocks: Vec<u64> = st.entries().iter().map(|(b, _)| b.get()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1]);
    }

    /// The per-set layout the flat storage replaced: a `Vec` of slots and
    /// a recency list rewritten with `retain` + `push` on every touch.
    /// Kept as the reference model for the differential property below.
    mod reference {
        use crate::model::DirReplPolicy;
        use stashdir_common::{BlockAddr, DetRng};
        use stashdir_protocol::DirView;

        struct DirSet {
            slots: Vec<Option<(BlockAddr, DirView)>>,
            /// Way indices ordered least- to most-recently used.
            lru: Vec<usize>,
        }

        impl DirSet {
            fn way_of(&self, block: BlockAddr) -> Option<usize> {
                self.slots
                    .iter()
                    .position(|s| matches!(s, Some((b, _)) if *b == block))
            }

            fn free_way(&self) -> Option<usize> {
                self.slots.iter().position(Option::is_none)
            }

            fn promote(&mut self, way: usize) {
                self.lru.retain(|&w| w != way);
                self.lru.push(way);
            }
        }

        pub(super) struct NaiveStorage {
            sets: Vec<DirSet>,
            set_mask: u64,
            ways: usize,
            rng: DetRng,
        }

        impl NaiveStorage {
            pub(super) fn new(sets: usize, ways: usize, seed: u64) -> Self {
                NaiveStorage {
                    sets: (0..sets)
                        .map(|_| DirSet {
                            slots: (0..ways).map(|_| None).collect(),
                            lru: (0..ways).collect(),
                        })
                        .collect(),
                    set_mask: sets as u64 - 1,
                    ways,
                    rng: DetRng::seed_from(seed),
                }
            }

            fn set(&mut self, block: BlockAddr) -> &mut DirSet {
                &mut self.sets[(block.get() & self.set_mask) as usize]
            }

            pub(super) fn lookup(&self, block: BlockAddr) -> Option<&DirView> {
                let set = &self.sets[(block.get() & self.set_mask) as usize];
                set.way_of(block)
                    .and_then(|w| set.slots[w].as_ref())
                    .map(|(_, v)| v)
            }

            pub(super) fn update(&mut self, block: BlockAddr, view: DirView) -> bool {
                let set = self.set(block);
                match set.way_of(block) {
                    Some(w) => {
                        set.slots[w] = Some((block, view));
                        set.promote(w);
                        true
                    }
                    None => false,
                }
            }

            pub(super) fn needs_victim(&mut self, block: BlockAddr) -> bool {
                let set = self.set(block);
                set.way_of(block).is_none() && set.free_way().is_none()
            }

            pub(super) fn choose_victim(
                &mut self,
                block: BlockAddr,
                policy: DirReplPolicy,
            ) -> (BlockAddr, DirView) {
                let idx = (block.get() & self.set_mask) as usize;
                let way = {
                    let set = &self.sets[idx];
                    match policy {
                        DirReplPolicy::Lru => set.lru[0],
                        DirReplPolicy::PrivateFirstLru => set
                            .lru
                            .iter()
                            .copied()
                            .find(|&w| {
                                set.slots[w]
                                    .as_ref()
                                    .map(|(_, v)| v.is_private())
                                    .unwrap_or(false)
                            })
                            .unwrap_or(set.lru[0]),
                        DirReplPolicy::Random => self.rng.index(self.ways),
                    }
                };
                let (b, v) = self.sets[idx].slots[way].as_ref().unwrap();
                (*b, v.clone())
            }

            pub(super) fn insert(&mut self, block: BlockAddr, view: DirView) {
                let set = self.set(block);
                let way = set.free_way().unwrap();
                set.slots[way] = Some((block, view));
                set.promote(way);
            }

            pub(super) fn remove(&mut self, block: BlockAddr) -> Option<DirView> {
                let set = self.set(block);
                let w = set.way_of(block)?;
                set.slots[w].take().map(|(_, v)| v)
            }

            pub(super) fn entries(&self) -> Vec<(BlockAddr, DirView)> {
                self.sets
                    .iter()
                    .flat_map(|s| s.slots.iter().filter_map(|w| w.clone()))
                    .collect()
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Update the entry, or insert it after taking a victim if the
        /// set is full; `u16` picks the view.
        Install(u64, u16),
        Remove(u64),
    }

    fn view_of(pick: u16) -> DirView {
        match pick % 3 {
            0 => excl(pick % 16),
            1 => shared(&[pick % 16]),
            _ => shared(&[pick % 16, (pick + 1) % 16]),
        }
    }

    proptest! {
        /// Under any install/remove sequence, each policy and any
        /// geometry, the flat storage picks exactly the reference's
        /// victims (with the same `Random` draws), answers every lookup
        /// alike and lists its entries in the same order.
        #[test]
        fn flat_storage_matches_per_set_reference(
            ops in prop::collection::vec(
                prop_oneof![
                    4 => (0u64..48, 0u16..64).prop_map(|(b, v)| Op::Install(b, v)),
                    1 => (0u64..48).prop_map(Op::Remove),
                ],
                0..300,
            ),
            policy in prop::sample::select(vec![
                DirReplPolicy::Lru,
                DirReplPolicy::PrivateFirstLru,
                DirReplPolicy::Random,
            ]),
            sets in prop::sample::select(vec![1usize, 2, 4]),
            ways in 1usize..6,
        ) {
            let mut flat = DirStorage::new(sets, ways, 11);
            let mut naive = reference::NaiveStorage::new(sets, ways, 11);
            for op in ops {
                match op {
                    Op::Install(b, pick) => {
                        let (block, view) = (BlockAddr::new(b), view_of(pick));
                        let updated = naive.update(block, view.clone());
                        match flat.access_mut(block) {
                            Some(entry) => {
                                *entry = view;
                                prop_assert!(updated, "{block} tracked only by the flat storage");
                            }
                            None => {
                                prop_assert!(!updated, "{block} tracked only by the reference");
                                prop_assert_eq!(flat.needs_victim(block), naive.needs_victim(block));
                                if naive.needs_victim(block) {
                                    let want = naive.choose_victim(block, policy);
                                    naive.remove(want.0);
                                    prop_assert_eq!(flat.take_victim(block, policy), want);
                                }
                                flat.insert(block, view.clone());
                                naive.insert(block, view);
                            }
                        }
                    }
                    Op::Remove(b) => {
                        let block = BlockAddr::new(b);
                        prop_assert_eq!(flat.remove(block), naive.remove(block));
                    }
                }
                prop_assert_eq!(flat.entries(), naive.entries());
            }
            for b in 0..48 {
                let block = BlockAddr::new(b);
                prop_assert_eq!(flat.lookup(block), naive.lookup(block));
            }
            prop_assert_eq!(flat.occupancy(), naive.entries().len());
        }
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn double_insert_panics() {
        let mut st = DirStorage::new(2, 2, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(0), excl(1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_set_count_panics() {
        let _ = DirStorage::new(3, 2, 0);
    }
}
