//! A generic set-associative tag array.
//!
//! [`SetAssoc`] maps [`BlockAddr`]s to payloads of type `L` (cache-line
//! metadata, LLC lines, …) with bounded associativity and a selectable
//! replacement policy. It is the storage substrate for the private caches
//! and the LLC banks.
//!
//! Storage is flat: one slot vector of `sets × ways` entries, set-major,
//! and one [`ReplState`] byte vector with a fixed stride per set. Building
//! an array allocates a constant number of times whatever its size, and a
//! lookup indexes straight into its set's slots.

// lint: allow-file(indexing) — set indices are masked by `set_mask` and
// way indices come from `way_of`/`free_way`/the policy, all below `ways`;
// the slot vector holds `sets × ways` entries from construction on.

use crate::replacement::{ReplKind, ReplState};
use stashdir_common::{BlockAddr, DetRng};

type Slot<L> = Option<(BlockAddr, L)>;

/// A set-associative array of `L` payloads keyed by block address.
///
/// The structural invariant is that a block lives in exactly one way of the
/// set its address maps to, so lookups are O(associativity).
///
/// # Examples
///
/// ```
/// use stashdir_common::BlockAddr;
/// use stashdir_mem::{ReplKind, SetAssoc};
///
/// let mut a: SetAssoc<u32> = SetAssoc::new(2, 2, ReplKind::Lru, 7);
/// a.insert(BlockAddr::new(1), 10);
/// assert_eq!(a.get(BlockAddr::new(1)), Some(&10));
/// assert_eq!(a.occupancy(), 1);
/// ```
pub struct SetAssoc<L> {
    /// `sets × ways` slots; set `s` owns `slots[s * ways..(s + 1) * ways]`.
    slots: Vec<Slot<L>>,
    policy: ReplState,
    ways: usize,
    set_mask: u64,
    rng: DetRng,
}

impl<L> SetAssoc<L> {
    /// Creates an array with `num_sets` sets of `ways` ways using the given
    /// replacement policy. `seed` feeds the policy's RNG (only `Random`
    /// consumes it) so runs are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two, or `ways` is zero or
    /// above 256.
    pub fn new(num_sets: usize, ways: usize, repl: ReplKind, seed: u64) -> Self {
        assert!(
            num_sets.is_power_of_two(),
            "num_sets must be a power of two, got {num_sets}"
        );
        let policy = ReplState::new(repl, num_sets, ways);
        SetAssoc {
            slots: std::iter::repeat_with(|| None)
                .take(num_sets * ways)
                .collect(),
            policy,
            ways,
            set_mask: num_sets as u64 - 1,
            rng: DetRng::seed_from(seed),
        }
    }

    /// The slots of set `set`.
    fn set(&self, set: usize) -> &[Slot<L>] {
        &self.slots[set * self.ways..(set + 1) * self.ways]
    }

    /// The slots of set `set`, mutably.
    fn set_mut(&mut self, set: usize) -> &mut [Slot<L>] {
        &mut self.slots[set * self.ways..(set + 1) * self.ways]
    }

    /// The way of `set` holding `block`.
    fn way_of(&self, set: usize, block: BlockAddr) -> Option<usize> {
        self.set(set)
            .iter()
            .position(|w| matches!(w, Some((b, _)) if *b == block))
    }

    /// The first free way of `set`.
    fn free_way(&self, set: usize) -> Option<usize> {
        self.set(set).iter().position(Option::is_none)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.slots.len() / self.ways
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of blocks currently stored.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|w| w.is_some()).count()
    }

    /// The replacement policy kind this array was built with.
    pub fn repl_kind(&self) -> ReplKind {
        self.policy.kind()
    }

    /// The set index a block maps to.
    pub fn set_index(&self, block: BlockAddr) -> usize {
        (block.get() & self.set_mask) as usize
    }

    /// Returns the payload for `block` without updating recency.
    pub fn get(&self, block: BlockAddr) -> Option<&L> {
        self.set(self.set_index(block))
            .iter()
            .find_map(|w| w.as_ref().filter(|(b, _)| *b == block))
            .map(|(_, l)| l)
    }

    /// Returns the payload for `block` mutably without updating recency.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let idx = self.set_index(block);
        self.set_mut(idx)
            .iter_mut()
            .find_map(|w| w.as_mut().filter(|(b, _)| *b == block))
            .map(|(_, l)| l)
    }

    /// Tests whether `block` is present.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.get(block).is_some()
    }

    /// Records a hit on `block`, promoting it in the replacement order.
    /// Returns `false` if the block is absent.
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        let idx = self.set_index(block);
        match self.way_of(idx, block) {
            Some(w) => {
                self.policy.on_hit(idx, w);
                true
            }
            None => false,
        }
    }

    /// Returns the payload mutably and promotes the block (hit semantics).
    pub fn access_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let idx = self.set_index(block);
        let w = self.way_of(idx, block)?;
        self.policy.on_hit(idx, w);
        self.set_mut(idx)[w].as_mut().map(|(_, l)| l)
    }

    /// Inserts `block`, evicting and returning the replacement victim if
    /// the target set is full.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already present (callers must use [`get_mut`]
    /// to update an existing payload).
    ///
    /// [`get_mut`]: SetAssoc::get_mut
    pub fn insert(&mut self, block: BlockAddr, payload: L) -> Option<(BlockAddr, L)> {
        let idx = self.set_index(block);
        assert!(
            self.way_of(idx, block).is_none(),
            "block {block} already present; update it instead of re-inserting"
        );
        let way = match self.free_way(idx) {
            Some(w) => w,
            None => self.policy.victim(idx, &mut self.rng),
        };
        let evicted = self.set_mut(idx)[way].replace((block, payload));
        self.policy.on_fill(idx, way);
        evicted
    }

    /// The block that would be evicted if `block` were inserted now, or
    /// `None` if the target set still has a free way (or already holds
    /// `block`). May advance policy state (SRRIP aging, RNG draws), which
    /// mirrors hardware where the victim choice is made once per miss.
    pub fn victim_for(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let idx = self.set_index(block);
        if self.way_of(idx, block).is_some() || self.free_way(idx).is_some() {
            return None;
        }
        let w = self.policy.victim(idx, &mut self.rng);
        self.set(idx)[w].as_ref().map(|(b, _)| *b)
    }

    /// Removes `block`, returning its payload.
    pub fn remove(&mut self, block: BlockAddr) -> Option<L> {
        let idx = self.set_index(block);
        let w = self.way_of(idx, block)?;
        self.set_mut(idx)[w].take().map(|(_, l)| l)
    }

    /// Iterates the occupants of the set `block` maps to, as
    /// `(way, block, payload)` triples. Used by callers that pick victims
    /// by payload content (the stash directory's private-first policy).
    pub fn set_occupants(&self, block: BlockAddr) -> impl Iterator<Item = (usize, BlockAddr, &L)> {
        self.set(self.set_index(block))
            .iter()
            .enumerate()
            .filter_map(|(w, slot)| slot.as_ref().map(|(b, l)| (w, *b, l)))
    }

    /// `true` when the set `block` maps to has no free way and does not
    /// already contain `block` (i.e. inserting `block` would evict).
    pub fn would_evict(&self, block: BlockAddr) -> bool {
        let idx = self.set_index(block);
        self.way_of(idx, block).is_none() && self.free_way(idx).is_none()
    }

    /// Iterates every resident `(block, payload)` pair in set order, ways
    /// in order within a set.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
        self.slots.iter().flatten().map(|(b, l)| (*b, l))
    }

    /// Removes every block.
    pub fn clear(&mut self) {
        self.slots.fill_with(|| None);
    }
}

impl<L: std::fmt::Debug> std::fmt::Debug for SetAssoc<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssoc")
            .field("num_sets", &self.num_sets())
            .field("ways", &self.ways)
            .field("occupancy", &self.occupancy())
            .field("repl", &self.repl_kind())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(sets: usize, ways: usize) -> SetAssoc<u32> {
        SetAssoc::new(sets, ways, ReplKind::Lru, 1)
    }

    #[test]
    fn insert_get_remove() {
        let mut a = array(4, 2);
        assert!(a.insert(BlockAddr::new(5), 50).is_none());
        assert_eq!(a.get(BlockAddr::new(5)), Some(&50));
        assert_eq!(a.remove(BlockAddr::new(5)), Some(50));
        assert_eq!(a.get(BlockAddr::new(5)), None);
        assert_eq!(a.remove(BlockAddr::new(5)), None);
    }

    #[test]
    fn conflicting_blocks_evict_lru() {
        let mut a = array(4, 2);
        // Blocks 0, 4, 8 all map to set 0.
        a.insert(BlockAddr::new(0), 0);
        a.insert(BlockAddr::new(4), 4);
        a.touch(BlockAddr::new(0)); // 4 becomes LRU
        let evicted = a.insert(BlockAddr::new(8), 8);
        assert_eq!(evicted, Some((BlockAddr::new(4), 4)));
        assert!(a.contains(BlockAddr::new(0)));
        assert!(a.contains(BlockAddr::new(8)));
    }

    #[test]
    fn victim_for_predicts_then_insert_evicts_it() {
        let mut a = array(1, 4);
        for i in 0..4 {
            a.insert(BlockAddr::new(i), i as u32);
        }
        let predicted = a.victim_for(BlockAddr::new(9)).unwrap();
        let evicted = a.insert(BlockAddr::new(9), 9).unwrap().0;
        assert_eq!(predicted, evicted);
    }

    #[test]
    fn victim_for_none_when_room_or_present() {
        let mut a = array(1, 2);
        a.insert(BlockAddr::new(1), 1);
        assert_eq!(a.victim_for(BlockAddr::new(2)), None, "free way exists");
        a.insert(BlockAddr::new(2), 2);
        assert_eq!(a.victim_for(BlockAddr::new(1)), None, "already present");
        assert!(a.victim_for(BlockAddr::new(3)).is_some());
    }

    #[test]
    fn occupancy_and_capacity_track_contents() {
        let mut a = array(4, 2);
        assert_eq!(a.capacity(), 8);
        assert_eq!(a.occupancy(), 0);
        for i in 0..5 {
            a.insert(BlockAddr::new(i), 0);
        }
        assert_eq!(a.occupancy(), 5);
        a.clear();
        assert_eq!(a.occupancy(), 0);
    }

    #[test]
    fn access_mut_promotes() {
        let mut a = array(1, 2);
        a.insert(BlockAddr::new(0), 0);
        a.insert(BlockAddr::new(1), 1);
        *a.access_mut(BlockAddr::new(0)).unwrap() = 99; // 1 is now LRU
        let evicted = a.insert(BlockAddr::new(2), 2).unwrap();
        assert_eq!(evicted.0, BlockAddr::new(1));
        assert_eq!(a.get(BlockAddr::new(0)), Some(&99));
    }

    #[test]
    fn set_occupants_lists_whole_set() {
        let mut a = array(2, 2);
        a.insert(BlockAddr::new(0), 10); // set 0
        a.insert(BlockAddr::new(2), 20); // set 0
        a.insert(BlockAddr::new(1), 11); // set 1
        let set0: Vec<_> = a.set_occupants(BlockAddr::new(0)).collect();
        assert_eq!(set0.len(), 2);
        assert!(set0
            .iter()
            .any(|&(_, b, &v)| b == BlockAddr::new(0) && v == 10));
        assert!(set0
            .iter()
            .any(|&(_, b, &v)| b == BlockAddr::new(2) && v == 20));
    }

    #[test]
    fn would_evict_reports_pressure() {
        let mut a = array(1, 2);
        assert!(!a.would_evict(BlockAddr::new(0)));
        a.insert(BlockAddr::new(0), 0);
        a.insert(BlockAddr::new(1), 1);
        assert!(a.would_evict(BlockAddr::new(2)));
        assert!(!a.would_evict(BlockAddr::new(0)), "already present");
    }

    #[test]
    fn iter_visits_everything() {
        let mut a = array(4, 2);
        for i in 0..6 {
            a.insert(BlockAddr::new(i), i as u32);
        }
        let mut seen: Vec<u64> = a.iter().map(|(b, _)| b.get()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_panics() {
        let mut a = array(2, 2);
        a.insert(BlockAddr::new(1), 1);
        a.insert(BlockAddr::new(1), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _: SetAssoc<u32> = SetAssoc::new(3, 2, ReplKind::Lru, 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut a = array(8, 1);
        for i in 0..8 {
            assert!(a.insert(BlockAddr::new(i), i as u32).is_none());
        }
        assert_eq!(a.occupancy(), 8);
    }
}
