//! The entry storage of the sparse and stash directories: one
//! [`SetAssoc`] of views, the same LRU array the caches use, whose full
//! sets hand their victim choice to the directory's [`DirReplPolicy`].
//!
//! The array lists a full set's entries least recently used first.
//! `Lru` takes the first, `PrivateFirstLru` the first private one (the
//! first of all when none is private), and `Random` draws a way from the
//! directory's own [`DetRng`], one `index(ways)` draw per victim.

use crate::model::DirReplPolicy;
use stashdir_common::{BlockAddr, DetRng};
use stashdir_mem::SetAssoc;
use stashdir_protocol::DirView;

/// A sparse or stash directory's entries and victim choice.
#[derive(Debug)]
pub(crate) struct DirStorage {
    /// The tracked views, one per block.
    pub(crate) entries: SetAssoc<DirView>,
    repl: DirReplPolicy,
    rng: DetRng,
}

impl DirStorage {
    /// Creates empty storage of `sets × ways` entries choosing victims by
    /// `repl`; `seed` feeds the `Random` policy's draws.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `ways` is zero or
    /// above 256.
    pub(crate) fn new(sets: usize, ways: usize, repl: DirReplPolicy, seed: u64) -> Self {
        DirStorage {
            entries: SetAssoc::new(sets, ways),
            repl,
            rng: DetRng::seed_from(seed),
        }
    }

    /// The victim-selection policy.
    pub(crate) fn repl(&self) -> DirReplPolicy {
        self.repl
    }

    /// Tracks the untracked `block` with `view`, first evicting the entry
    /// the policy chooses if the block's set is full; returns that
    /// victim.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already tracked.
    pub(crate) fn insert(
        &mut self,
        block: BlockAddr,
        view: DirView,
    ) -> Option<(BlockAddr, DirView)> {
        let (repl, rng, ways) = (self.repl, &mut self.rng, self.entries.ways());
        self.entries.insert_with(block, view, |lru| match repl {
            DirReplPolicy::Lru => lru.next().map_or(0, |(way, _)| way),
            DirReplPolicy::PrivateFirstLru => {
                let mut lru = lru.peekable();
                let oldest = lru.peek().map_or(0, |&(way, _)| way);
                lru.find(|(_, view)| view.is_private())
                    .map_or(oldest, |(way, _)| way)
            }
            DirReplPolicy::Random => rng.index(ways),
        })
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

    /// Every tracked entry in set order, ways in order within a set.
    fn entries(st: &DirStorage) -> Vec<(BlockAddr, DirView)> {
        st.entries.iter().map(|(b, v)| (b, v.clone())).collect()
    }

    #[test]
    fn insert_lookup_remove() {
        let mut st = DirStorage::new(4, 2, DirReplPolicy::Lru, 0);
        assert_eq!(st.insert(BlockAddr::new(1), excl(3)), None);
        assert_eq!(st.entries.get(BlockAddr::new(1)), Some(&excl(3)));
        assert_eq!(st.entries.occupancy(), 1);
        assert_eq!(st.entries.remove(BlockAddr::new(1)), Some(excl(3)));
        assert_eq!(st.entries.get(BlockAddr::new(1)), None);
    }

    #[test]
    fn update_refreshes_recency() {
        let mut st = DirStorage::new(1, 2, DirReplPolicy::Lru, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(1), excl(1));
        *st.entries.access_mut(BlockAddr::new(0)).unwrap() = excl(5);
        let (victim, _) = st.insert(BlockAddr::new(2), excl(2)).unwrap();
        assert_eq!(victim, BlockAddr::new(1), "block 0 was refreshed");
        assert_eq!(st.entries.get(BlockAddr::new(0)), Some(&excl(5)));
        assert!(st.entries.access_mut(BlockAddr::new(9)).is_none());
    }

    #[test]
    fn private_first_skips_shared_entries() {
        let mut st = DirStorage::new(1, 3, DirReplPolicy::PrivateFirstLru, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2])); // LRU but shared
        st.insert(BlockAddr::new(1), excl(4));
        st.insert(BlockAddr::new(2), shared(&[5, 6]));
        let (victim, view) = st.insert(BlockAddr::new(3), excl(7)).unwrap();
        assert_eq!(victim, BlockAddr::new(1));
        assert!(view.is_private());
    }

    #[test]
    fn private_first_counts_single_sharer_as_private() {
        let mut st = DirStorage::new(1, 2, DirReplPolicy::PrivateFirstLru, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2]));
        st.insert(BlockAddr::new(1), shared(&[7]));
        let (victim, _) = st.insert(BlockAddr::new(2), excl(0)).unwrap();
        assert_eq!(victim, BlockAddr::new(1));
    }

    #[test]
    fn private_first_falls_back_to_lru() {
        let mut st = DirStorage::new(1, 2, DirReplPolicy::PrivateFirstLru, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2]));
        st.insert(BlockAddr::new(1), shared(&[3, 4]));
        let (victim, _) = st.insert(BlockAddr::new(2), excl(0)).unwrap();
        assert_eq!(victim, BlockAddr::new(0), "plain LRU fallback");
    }

    #[test]
    fn random_policy_picks_any_way() {
        let mut st = DirStorage::new(1, 4, DirReplPolicy::Random, 7);
        for i in 0..4 {
            st.insert(BlockAddr::new(i), excl(i as u16));
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let (victim, view) = st.insert(BlockAddr::new(9), excl(9)).unwrap();
            seen.insert(victim.get());
            st.entries.remove(BlockAddr::new(9));
            assert_eq!(st.insert(victim, view), None, "the victim's way is free");
        }
        assert!(
            seen.len() >= 3,
            "random should spread over ways, saw {seen:?}"
        );
    }

    #[test]
    fn insert_returns_the_evicted_entry() {
        let mut st = DirStorage::new(1, 2, DirReplPolicy::Lru, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(1), shared(&[1, 2]));
        let evicted = st.insert(BlockAddr::new(2), excl(2));
        assert_eq!(evicted, Some((BlockAddr::new(0), excl(0))));
        assert_eq!(st.entries.get(BlockAddr::new(0)), None);
        assert_eq!(st.entries.occupancy(), 2);
    }

    #[test]
    fn entries_snapshot_everything() {
        let mut st = DirStorage::new(2, 2, DirReplPolicy::Lru, 0);
        st.insert(BlockAddr::new(0), excl(1));
        st.insert(BlockAddr::new(1), shared(&[2, 3]));
        let mut blocks: Vec<u64> = entries(&st).iter().map(|(b, _)| b.get()).collect();
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
        /// set is full; the last field picks the view.
        Install(u8, u16, u16),
        Remove(u8, u16),
    }

    fn view_of(pick: u16) -> DirView {
        match pick % 3 {
            0 => excl(pick % 16),
            1 => shared(&[pick % 16]),
            _ => shared(&[pick % 16, (pick + 1) % 16]),
        }
    }

    /// The block an op names in a `sets`-set, `ways`-way directory: one
    /// of four sets spread over the array's chunks (first, second, middle
    /// and last set), and one of three more tags than the set has ways,
    /// so sets fill, grow and evict.
    fn block_of(sets: usize, ways: usize, set_pick: u8, tag: u16) -> BlockAddr {
        let set = [0, 1, sets / 2, sets - 1][set_pick as usize % 4] % sets;
        BlockAddr::new((tag as usize % (ways + 3) * sets + set) as u64)
    }

    const POLICIES: [DirReplPolicy; 3] = [
        DirReplPolicy::Lru,
        DirReplPolicy::PrivateFirstLru,
        DirReplPolicy::Random,
    ];

    /// Runs `ops` on the storage and on the per-set reference, and fails
    /// at the first answer that differs.
    fn run_differential(
        ops: &[Op],
        policy: DirReplPolicy,
        (sets, ways): (usize, usize),
    ) -> Result<(), TestCaseError> {
        let mut flat = DirStorage::new(sets, ways, policy, 11);
        let mut naive = reference::NaiveStorage::new(sets, ways, 11);
        let at = |pick, tag| block_of(sets, ways, pick, tag);
        for op in ops {
            match *op {
                Op::Install(pick, tag, v) => {
                    let (block, view) = (at(pick, tag), view_of(v));
                    let updated = naive.update(block, view.clone());
                    match flat.entries.access_mut(block) {
                        Some(entry) => {
                            *entry = view;
                            prop_assert!(updated, "{block} tracked only by the flat storage");
                        }
                        None => {
                            prop_assert!(!updated, "{block} tracked only by the reference");
                            let needs_victim = naive.needs_victim(block);
                            prop_assert_eq!(flat.entries.victim_for(block).is_some(), needs_victim);
                            let want = needs_victim.then(|| naive.choose_victim(block, policy));
                            if let Some((victim, _)) = &want {
                                naive.remove(*victim);
                            }
                            prop_assert_eq!(
                                flat.insert(block, view.clone()),
                                want,
                                "{} {}x{}: victims differ",
                                policy,
                                sets,
                                ways
                            );
                            naive.insert(block, view);
                        }
                    }
                }
                Op::Remove(pick, tag) => {
                    let block = at(pick, tag);
                    prop_assert_eq!(flat.entries.remove(block), naive.remove(block));
                }
            }
            prop_assert_eq!(entries(&flat), naive.entries());
        }
        for pick in 0..4 {
            for tag in 0..ways as u16 + 3 {
                let block = at(pick, tag);
                prop_assert_eq!(flat.entries.get(block), naive.lookup(block));
            }
        }
        prop_assert_eq!(flat.entries.occupancy(), naive.entries().len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Under any install/remove sequence, each policy and every
        /// geometry up to 64 sets of 12 ways, the storage picks exactly
        /// the reference's victims (with the same `Random` draws),
        /// answers every lookup alike and lists its entries in the same
        /// order. At 12 ways a chunk holds 16 sets, so the four sets an
        /// op picks from span chunks and grow their chunk from one slot
        /// through 2, 4 and 8 to 12 under every policy.
        #[test]
        fn flat_storage_matches_per_set_reference(
            ops in prop::collection::vec(
                prop_oneof![
                    4 => (0u8..4, 0u16..64, 0u16..64).prop_map(|(s, t, v)| Op::Install(s, t, v)),
                    1 => (0u8..4, 0u16..64).prop_map(|(s, t)| Op::Remove(s, t)),
                ],
                0..300,
            ),
        ) {
            for policy in POLICIES {
                for sets in [1, 2, 4, 8, 16, 32, 64] {
                    for ways in 1..=12 {
                        run_differential(&ops, policy, (sets, ways))?;
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_panics() {
        let mut st = DirStorage::new(2, 2, DirReplPolicy::Lru, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(0), excl(1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_set_count_panics() {
        let _ = DirStorage::new(3, 2, DirReplPolicy::Lru, 0);
    }
}
