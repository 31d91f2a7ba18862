//! The set-associative directories: the conventional sparse directory
//! (the paper's baseline), the **Stash Directory** (the paper's
//! contribution) and an opaque-distributed shard (related work).
//!
//! All three keep their entries in one [`SetAssoc`] of views, the same
//! LRU array the caches use. When an install finds its set full, the
//! array lists the set's entries least recently used first and the
//! [`DirReplPolicy`] picks the victim: `Lru` takes the first,
//! `PrivateFirstLru` the first private one (the first of all when none
//! is private), and `Random` draws a way from the directory's own
//! [`DetRng`], one `index(ways)` draw per victim.
//!
//! The [`SetAssocOrg`] is data, not code. It decides the name, the key
//! scheme, the storage formula and what happens to a victim tracked by a
//! single core:
//!
//! - **Sparse** invalidates every victim, private or shared, to keep
//!   every cached copy tracked. These forced invalidations are the cost
//!   the stash directory removes.
//! - **Stash** drops a private victim silently: the copy stays in its
//!   owner's cache, untracked ("hidden"), and the caller sets the *stash
//!   bit* on the block's LLC line. Only victims with two or more holders
//!   are invalidated. The relaxed inclusion this creates (every cached
//!   block has a directory entry *or* a set stash bit) is what the LLC's
//!   discovery (in `stashdir-sim`) restores on demand. Its storage adds
//!   one stash bit per LLC line.
//! - **Opaque** follows the sparse rule, but the machine places a
//!   block's entry at a bank chosen by an opaque (hash-like) map instead
//!   of its home. The machine accounts the indirection hops and bank
//!   load (`backend.*`). A shard holds blocks homed at other banks, so
//!   its entries are keyed by global block addresses.

use crate::cost::CostParams;
use crate::format::SharerFormat;
use crate::model::{DirReplPolicy, DirStats, DirectoryModel, EvictionAction};
use stashdir_common::{BlockAddr, DetRng};
use stashdir_mem::SetAssoc;
use stashdir_protocol::DirView;

/// Which set-associative organization a [`SetAssocDirectory`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetAssocOrg {
    /// The conventional sparse directory: invalidates every victim.
    Sparse,
    /// The paper's stash directory: drops private victims silently.
    Stash,
    /// An opaque-distributed shard: sparse rules, global keys.
    Opaque,
}

impl SetAssocOrg {
    /// The organization's short name (`"sparse"`, `"stash"`,
    /// `"opaque"`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            SetAssocOrg::Sparse => "sparse",
            SetAssocOrg::Stash => "stash",
            SetAssocOrg::Opaque => "opaque",
        }
    }
}

/// A set-associative directory.
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, CoreId};
/// use stashdir_core::{DirReplPolicy, DirectoryModel, EvictionAction, SetAssocDirectory, SetAssocOrg};
/// use stashdir_protocol::DirView;
///
/// let owner = |i| DirView::Exclusive(CoreId::new(i));
/// for (org, silent) in [(SetAssocOrg::Sparse, false), (SetAssocOrg::Stash, true)] {
///     let mut dir = SetAssocDirectory::new(org, 1, 1, DirReplPolicy::PrivateFirstLru, 0);
///     dir.install(BlockAddr::new(1), owner(0));
///     // The set is full: sparse invalidates the private victim, stash
///     // drops it silently.
///     match dir.install(BlockAddr::new(2), owner(1)) {
///         EvictionAction::Silent { block, .. } => assert!(silent && block == BlockAddr::new(1)),
///         EvictionAction::Invalidate { block, .. } => assert!(!silent && block == BlockAddr::new(1)),
///         EvictionAction::None => panic!("the set was full"),
///     }
/// }
/// ```
#[derive(Debug)]
pub struct SetAssocDirectory {
    org: SetAssocOrg,
    /// The tracked views, one per block.
    entries: SetAssoc<DirView>,
    repl: DirReplPolicy,
    rng: DetRng,
    format: SharerFormat,
    stats: DirStats,
}

impl SetAssocDirectory {
    /// Creates an empty `org` directory of `sets × ways` entries choosing
    /// victims by `repl`; `seed` feeds the `Random` policy's draws.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `ways` is zero or
    /// above 256.
    pub fn new(org: SetAssocOrg, sets: usize, ways: usize, repl: DirReplPolicy, seed: u64) -> Self {
        SetAssocDirectory {
            org,
            entries: SetAssoc::new(sets, ways),
            repl,
            rng: DetRng::seed_from(seed),
            format: SharerFormat::FullMap,
            stats: DirStats::default(),
        }
    }

    /// Selects the sharer-encoding format (default: precise full-map).
    /// Limited-pointer formats lose precision on wide sharing: stored
    /// views overflow to "all cores", making later invalidations
    /// broadcast. An overflowed entry is never private, so the stash
    /// organization never hides one.
    pub fn with_format(mut self, format: SharerFormat) -> Self {
        self.format = format;
        self
    }

    /// Tracks the untracked `block` with `view`, first evicting the entry
    /// the policy chooses if the block's set is full; returns that
    /// victim.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already tracked.
    fn insert(&mut self, block: BlockAddr, view: DirView) -> Option<(BlockAddr, DirView)> {
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

impl DirectoryModel for SetAssocDirectory {
    fn name(&self) -> &'static str {
        self.org.name()
    }

    fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    fn occupancy(&self) -> usize {
        self.entries.occupancy()
    }

    fn lookup(&self, block: BlockAddr) -> Option<&DirView> {
        self.entries.get(block)
    }

    fn install(&mut self, block: BlockAddr, view: DirView) -> EvictionAction {
        assert!(
            view != DirView::Untracked,
            "install() takes a tracking view; use remove() to untrack"
        );
        self.stats.lookups.incr();
        let view = self.format.degrade(view);
        if let Some(entry) = self.entries.access_mut(block) {
            *entry = view;
            self.stats.hits.incr();
            return EvictionAction::None;
        }
        self.stats.allocations.incr();
        let Some((victim, victim_view)) = self.insert(block, view) else {
            return EvictionAction::None;
        };
        match victim_view.sole_holder() {
            // The stash mechanism: drop the entry, keep the copy.
            Some(owner) if self.org == SetAssocOrg::Stash => {
                self.stats.silent_evictions.incr();
                EvictionAction::Silent {
                    block: victim,
                    owner,
                }
            }
            sole_holder => {
                self.stats.invalidating_evictions.incr();
                self.stats
                    .copies_invalidated
                    .add(victim_view.holder_count() as u64);
                if sole_holder.is_some() {
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
        self.entries.remove(block);
    }

    fn tracked(&self) -> Box<dyn Iterator<Item = (BlockAddr, &DirView)> + '_> {
        Box::new(self.entries.iter())
    }

    fn stats(&self) -> &DirStats {
        &self.stats
    }

    fn global_keys(&self) -> bool {
        self.org == SetAssocOrg::Opaque
    }

    fn storage_bits(&self, params: &CostParams) -> u64 {
        let entries = self.capacity() as u64 * self.format.entry_bits(params);
        match self.org {
            // One stash bit per LLC line.
            SetAssocOrg::Stash => entries + params.llc_lines,
            SetAssocOrg::Sparse | SetAssocOrg::Opaque => entries,
        }
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

    /// A sparse directory: the organization does not touch storage or
    /// victim choice.
    fn storage(sets: usize, ways: usize, repl: DirReplPolicy, seed: u64) -> SetAssocDirectory {
        SetAssocDirectory::new(SetAssocOrg::Sparse, sets, ways, repl, seed)
    }

    /// Every tracked entry in set order, ways in order within a set.
    fn entries(st: &SetAssocDirectory) -> Vec<(BlockAddr, DirView)> {
        st.entries.iter().map(|(b, v)| (b, v.clone())).collect()
    }

    #[test]
    fn insert_lookup_remove() {
        let mut st = storage(4, 2, DirReplPolicy::Lru, 0);
        assert_eq!(st.insert(BlockAddr::new(1), excl(3)), None);
        assert_eq!(st.entries.get(BlockAddr::new(1)), Some(&excl(3)));
        assert_eq!(st.entries.occupancy(), 1);
        assert_eq!(st.entries.remove(BlockAddr::new(1)), Some(excl(3)));
        assert_eq!(st.entries.get(BlockAddr::new(1)), None);
    }

    #[test]
    fn update_refreshes_recency() {
        let mut st = storage(1, 2, DirReplPolicy::Lru, 0);
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
        let mut st = storage(1, 3, DirReplPolicy::PrivateFirstLru, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2])); // LRU but shared
        st.insert(BlockAddr::new(1), excl(4));
        st.insert(BlockAddr::new(2), shared(&[5, 6]));
        let (victim, view) = st.insert(BlockAddr::new(3), excl(7)).unwrap();
        assert_eq!(victim, BlockAddr::new(1));
        assert!(view.is_private());
    }

    #[test]
    fn private_first_counts_single_sharer_as_private() {
        let mut st = storage(1, 2, DirReplPolicy::PrivateFirstLru, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2]));
        st.insert(BlockAddr::new(1), shared(&[7]));
        let (victim, _) = st.insert(BlockAddr::new(2), excl(0)).unwrap();
        assert_eq!(victim, BlockAddr::new(1));
    }

    #[test]
    fn private_first_falls_back_to_lru() {
        let mut st = storage(1, 2, DirReplPolicy::PrivateFirstLru, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2]));
        st.insert(BlockAddr::new(1), shared(&[3, 4]));
        let (victim, _) = st.insert(BlockAddr::new(2), excl(0)).unwrap();
        assert_eq!(victim, BlockAddr::new(0), "plain LRU fallback");
    }

    #[test]
    fn random_policy_picks_any_way() {
        let mut st = storage(1, 4, DirReplPolicy::Random, 7);
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
        let mut st = storage(1, 2, DirReplPolicy::Lru, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(1), shared(&[1, 2]));
        let evicted = st.insert(BlockAddr::new(2), excl(2));
        assert_eq!(evicted, Some((BlockAddr::new(0), excl(0))));
        assert_eq!(st.entries.get(BlockAddr::new(0)), None);
        assert_eq!(st.entries.occupancy(), 2);
    }

    #[test]
    fn entries_snapshot_everything() {
        let mut st = storage(2, 2, DirReplPolicy::Lru, 0);
        st.insert(BlockAddr::new(0), excl(1));
        st.insert(BlockAddr::new(1), shared(&[2, 3]));
        let mut blocks: Vec<u64> = entries(&st).iter().map(|(b, _)| b.get()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1]);
    }

    #[test]
    fn stash_drops_a_single_sharer_victim_silently() {
        let mut d =
            SetAssocDirectory::new(SetAssocOrg::Stash, 1, 1, DirReplPolicy::PrivateFirstLru, 0);
        d.install(BlockAddr::new(0), shared(&[5]));
        match d.install(BlockAddr::new(1), excl(0)) {
            EvictionAction::Silent { owner, .. } => assert_eq!(owner, CoreId::new(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plain_lru_stash_invalidates_a_shared_victim() {
        // The policy chooses the victim; the organization only decides
        // what a private one costs.
        let mut d = SetAssocDirectory::new(SetAssocOrg::Stash, 1, 2, DirReplPolicy::Lru, 0);
        d.install(BlockAddr::new(0), shared(&[1, 2])); // LRU
        d.install(BlockAddr::new(1), excl(3));
        match d.install(BlockAddr::new(2), excl(4)) {
            EvictionAction::Invalidate { block, .. } => assert_eq!(block, BlockAddr::new(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn global_keys_index_cleanly() {
        // Blocks whose low bits encode *other* banks' homes must still
        // store and look up fine — set indexing uses raw low bits.
        let mut d = SetAssocDirectory::new(SetAssocOrg::Opaque, 4, 2, DirReplPolicy::Lru, 0);
        for b in [0u64, 1, 2, 1027] {
            d.install(BlockAddr::new(b), excl(0));
        }
        assert_eq!(d.occupancy(), 4);
        assert_eq!(d.lookup(BlockAddr::new(1027)), Some(&excl(0)));
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
        let mut flat = storage(sets, ways, policy, 11);
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
        let mut st = storage(2, 2, DirReplPolicy::Lru, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(0), excl(1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_set_count_panics() {
        let _ = storage(3, 2, DirReplPolicy::Lru, 0);
    }
}
