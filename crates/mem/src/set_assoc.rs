//! A generic set-associative tag array.
//!
//! [`SetAssoc`] maps [`BlockAddr`]s to payloads of type `L` (cache-line
//! metadata, LLC lines, …) with bounded associativity and a selectable
//! replacement policy. It is the storage substrate for the private caches
//! and the LLC banks.
//!
//! Storage is flat and set-major: one tag vector and one line vector of
//! `sets × ways` entries each, and one `ReplState` byte vector with a
//! fixed stride per set. Building an array allocates a constant number of
//! times whatever its size. A lookup scans its set's tags, which for
//! eight ways fill one host cache line, and reads a payload only on a tag
//! match.

// lint: allow-file(indexing) — set indices are masked by `set_mask` and
// way indices come from `way_of`/`free_way`/the policy, all below `ways`;
// the tag and line vectors hold `sets × ways` entries from construction on.

use crate::replacement::{ReplKind, ReplState};
use stashdir_common::{BlockAddr, DetRng};
use std::ops::Range;

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
    /// `sets × ways` tags, raw block numbers; set `s` owns
    /// `tags[s * ways..(s + 1) * ways]`. A way holds a block only while
    /// its line is `Some`: an emptied way keeps its stale tag, which no
    /// lookup answers to. Raw numbers let the vector start as zeroed
    /// memory, so building an array writes no tag.
    tags: Vec<u64>,
    /// `sets × ways` payloads, laid out as `tags`.
    lines: Vec<Option<L>>,
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
            tags: vec![0; num_sets * ways],
            lines: std::iter::repeat_with(|| None)
                .take(num_sets * ways)
                .collect(),
            policy,
            ways,
            set_mask: num_sets as u64 - 1,
            rng: DetRng::seed_from(seed),
        }
    }

    /// The index range of set `set`'s ways in `tags` and `lines`.
    fn ways_of(&self, set: usize) -> Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// The way of `set` holding `block`: the first way whose tag matches
    /// and whose line is present.
    fn way_of(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let ways = self.ways_of(set);
        let lines = &self.lines[ways.clone()];
        self.tags[ways]
            .iter()
            .zip(lines)
            .position(|(&tag, line)| tag == block.get() && line.is_some())
    }

    /// The first free way of `set`.
    fn free_way(&self, set: usize) -> Option<usize> {
        self.lines[self.ways_of(set)]
            .iter()
            .position(Option::is_none)
    }

    /// The index in `tags` and `lines` of `block`'s way.
    fn slot_of(&self, block: BlockAddr) -> Option<usize> {
        let set = self.set_index(block);
        self.way_of(set, block).map(|w| set * self.ways + w)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.lines.len() / self.ways
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.lines.len()
    }

    /// Number of blocks currently stored.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
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
        self.lines[self.slot_of(block)?].as_ref()
    }

    /// Returns the payload for `block` mutably without updating recency.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let slot = self.slot_of(block)?;
        self.lines[slot].as_mut()
    }

    /// Tests whether `block` is present.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.slot_of(block).is_some()
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
        self.lines[idx * self.ways + w].as_mut()
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
        let slot = idx * self.ways + way;
        let old_tag = std::mem::replace(&mut self.tags[slot], block.get());
        let evicted = self.lines[slot].replace(payload);
        self.policy.on_fill(idx, way);
        evicted.map(|line| (BlockAddr::new(old_tag), line))
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
        // The set is full, so the victim way holds a block.
        let w = self.policy.victim(idx, &mut self.rng);
        Some(BlockAddr::new(self.tags[idx * self.ways + w]))
    }

    /// Removes `block`, returning its payload. The way keeps `block`'s
    /// tag, stale until the way is filled again.
    pub fn remove(&mut self, block: BlockAddr) -> Option<L> {
        let slot = self.slot_of(block)?;
        self.lines[slot].take()
    }

    /// Iterates the occupants of the set `block` maps to, as
    /// `(way, block, payload)` triples. Used by callers that pick victims
    /// by payload content (the stash directory's private-first policy).
    pub fn set_occupants(&self, block: BlockAddr) -> impl Iterator<Item = (usize, BlockAddr, &L)> {
        let ways = self.ways_of(self.set_index(block));
        self.tags[ways.clone()]
            .iter()
            .zip(&self.lines[ways])
            .enumerate()
            .filter_map(|(w, (&tag, line))| line.as_ref().map(|l| (w, BlockAddr::new(tag), l)))
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
        self.tags
            .iter()
            .zip(&self.lines)
            .filter_map(|(&tag, line)| line.as_ref().map(|l| (BlockAddr::new(tag), l)))
    }

    /// Removes every block.
    pub fn clear(&mut self) {
        self.lines.fill_with(|| None);
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
    fn stale_tags_never_answer() {
        let mut a = array(1, 2);
        let (x, y, z) = (BlockAddr::new(0), BlockAddr::new(1), BlockAddr::new(2));
        a.insert(x, 10);
        a.insert(y, 11);
        assert_eq!(a.remove(x), Some(10));
        // Way 0 keeps x's tag, but nothing sees x.
        assert_eq!(a.get(x), None);
        assert!(!a.contains(x));
        assert!(!a.touch(x));
        assert_eq!(a.victim_for(z), None, "x's way is free");
        assert!(a.iter().all(|(b, _)| b != x));
        // z fills x's way and is found there.
        assert!(a.insert(z, 12).is_none());
        let set: Vec<_> = a.set_occupants(z).map(|(w, b, &v)| (w, b, v)).collect();
        assert_eq!(set, [(0, z, 12), (1, y, 11)]);
        assert_eq!(a.get(z), Some(&12));
        assert_eq!(a.get(x), None);
        // The victim of the now full set is a live block.
        a.touch(z);
        assert_eq!(a.victim_for(x), Some(y));
    }

    #[test]
    fn a_block_beside_its_own_stale_tag_is_found_once() {
        let mut a = array(1, 3);
        let (x, y) = (BlockAddr::new(0), BlockAddr::new(1));
        a.insert(y, 1);
        a.insert(x, 2);
        a.remove(y);
        a.remove(x);
        // x goes to way 0; way 1 still carries x's stale tag.
        a.insert(x, 3);
        let set: Vec<_> = a.set_occupants(x).map(|(w, b, &v)| (w, b, v)).collect();
        assert_eq!(set, [(0, x, 3)]);
        assert_eq!(a.get(x), Some(&3));
        assert_eq!(a.remove(x), Some(3));
        assert_eq!(a.get(x), None, "neither of x's tags answers");
        assert_eq!(a.occupancy(), 0);
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
