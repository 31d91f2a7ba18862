//! A generic set-associative tag array with LRU replacement.
//!
//! [`SetAssoc`] maps [`BlockAddr`]s to payloads of type `L` (cache-line
//! metadata, LLC lines, directory entries) with bounded associativity.
//! It is the storage substrate for the private caches, the LLC banks and
//! the sparse and stash directory slices.
//!
//! Each set keeps one LRU stack: its way numbers, least-recently used
//! first. A fill or a hit moves its way to the back, and a removal leaves
//! its way where it stands. [`SetAssoc::insert`] evicts the front of a
//! full set's stack. [`SetAssoc::insert_with`] hands a full set's entries
//! in stack order to a chooser instead, so a directory can choose its
//! victim by content (the stash directory's private-first rule) or at
//! random.
//!
//! Storage is set-major, allocated on first touch and grown with use.
//! The sets are cut into chunks of a power-of-two number of consecutive
//! sets, about 256 ways each. A chunk holds its sets' tags, payloads and
//! LRU stacks, and is allocated by the first insert into any of its
//! sets; until then its sets read as empty. A new chunk stores one way
//! slot per set. When an insert finds every slot of its set full and the
//! chunk stores fewer slots than the set has ways, the chunk is laid out
//! again at twice the slots per set (at most the associativity), each
//! way staying where it was, and the new block takes the first new way.
//! A set's LRU stack holds only its stored ways, so it grows with them:
//! the new ways go, in way order, in front of the old stack.
//!
//! The array answers exactly as one that allocated every way up front:
//! fills take the lowest free way, so no way past a chunk's slots has
//! ever held a block, and only a set with all its ways stored and full
//! gives up a victim. In such a set every way has been filled, and so
//! promoted, so its stack is ordered by last promotion alone, wherever
//! a growth put the ways that were still unused. An array thus pays
//! memory for the ways its sets have filled, not for its capacity.
//!
//! A free way carries a sentinel tag, so a lookup or a free-way search
//! scans its set's tags alone, which for eight ways fill one host cache
//! line, and reads a payload only on a tag match.

#![expect(
    clippy::indexing_slicing,
    reason = "set indices are masked by `set_mask`, so chunk indices are \
              below `chunks.len()` and chunk-local sets below the chunk's \
              set count; way indices come from `way_of`/`vacancy`/the LRU \
              stack, all below the chunk's `cap`, or from a chooser whose \
              contract bounds them by `ways`; a chunk's tag, line and LRU \
              slices each hold `sets × cap` entries"
)]

use stashdir_common::BlockAddr;
use std::ops::Range;

/// The number of ways a chunk aims at: the sets of this many ways share
/// one chunk.
const CHUNK_WAYS: usize = 256;

/// The tag of a free way. No block reaches it: block numbers are byte
/// addresses shifted right by the line-offset bits.
const EMPTY: u64 = u64::MAX;

/// The storage of consecutive sets, set-major: ways `0..cap` of set `s`
/// are `tags[s * cap..(s + 1) * cap]` and the same range of `lines`, and
/// its LRU stack is the same range of `lru`.
struct Chunk<L> {
    /// Way slots stored per set. No way at or above `cap` has held a
    /// block.
    cap: usize,
    /// Raw block numbers. [`EMPTY`] marks a free way.
    tags: Box<[u64]>,
    /// Payloads, `Some` exactly where the tag is not [`EMPTY`].
    lines: Box<[Option<L>]>,
    /// Per set, its stored way numbers ordered least- to most-recently
    /// used.
    lru: Box<[u8]>,
}

impl<L> Chunk<L> {
    /// A chunk of `sets` empty sets, one slot each.
    fn new(sets: usize) -> Self {
        Chunk {
            cap: 1,
            tags: vec![EMPTY; sets].into_boxed_slice(),
            lines: std::iter::repeat_with(|| None).take(sets).collect(),
            lru: vec![0; sets].into_boxed_slice(),
        }
    }

    /// The index range of chunk-local set `set`'s slots in `tags` and
    /// `lines`.
    fn slots(&self, set: usize) -> Range<usize> {
        set * self.cap..(set + 1) * self.cap
    }

    /// The way of chunk-local set `set` holding `block`.
    fn way_of(&self, set: usize, block: BlockAddr) -> Option<usize> {
        self.tags[self.slots(set)]
            .iter()
            .position(|&tag| tag == block.get())
    }

    /// The first free slot of chunk-local set `set`, found in the pass
    /// that checks `block` is absent.
    ///
    /// # Panics
    ///
    /// Panics if the set holds `block`.
    fn vacancy(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let mut free = None;
        for (way, &tag) in self.tags[self.slots(set)].iter().enumerate() {
            assert!(
                tag != block.get(),
                "block {block} already present; update it instead of re-inserting"
            );
            if tag == EMPTY && free.is_none() {
                free = Some(way);
            }
        }
        free
    }

    /// Moves `way` to the most-recently-used end of chunk-local set
    /// `set`'s stack: rotating the tail from its position equals removing
    /// it and pushing it again.
    fn promote(&mut self, set: usize, way: usize) {
        let slots = self.slots(set);
        let stack = &mut self.lru[slots];
        let pos = stack.iter().position(|&w| w as usize == way);
        debug_assert!(pos.is_some(), "way {way} tracked by the stack");
        if let Some(pos) = pos {
            stack[pos..].rotate_left(1);
        }
    }

    /// Lays the chunk out again at `cap` slots per set, every way of
    /// every set staying where it is. Each LRU stack takes the new ways,
    /// never used, in way order in front of its old stack.
    fn grow(&mut self, cap: usize) {
        let len = self.tags.len() / self.cap * cap;
        let mut tags = Vec::with_capacity(len);
        let mut lines = Vec::with_capacity(len);
        let mut lru = Vec::with_capacity(len);
        let mut old_lines = Vec::from(std::mem::take(&mut self.lines)).into_iter();
        for (set, stack) in self
            .tags
            .chunks_exact(self.cap)
            .zip(self.lru.chunks_exact(self.cap))
        {
            tags.extend_from_slice(set);
            tags.resize(tags.len() + cap - self.cap, EMPTY);
            lines.extend(old_lines.by_ref().take(self.cap));
            lines.resize_with(lines.len() + cap - self.cap, || None);
            // Way numbers fit a byte: `SetAssoc::new` caps `ways` at 256.
            lru.extend((self.cap..cap).map(|w| w as u8));
            lru.extend_from_slice(stack);
        }
        self.tags = tags.into_boxed_slice();
        self.lines = lines.into_boxed_slice();
        self.lru = lru.into_boxed_slice();
        self.cap = cap;
    }
}

/// A set-associative array of `L` payloads keyed by block address, with
/// LRU replacement.
///
/// The structural invariant is that a block lives in exactly one way of the
/// set its address maps to, so lookups are O(associativity).
///
/// # Examples
///
/// ```
/// use stashdir_common::BlockAddr;
/// use stashdir_mem::SetAssoc;
///
/// let mut a: SetAssoc<u32> = SetAssoc::new(2, 2);
/// a.insert(BlockAddr::new(1), 10);
/// assert_eq!(a.get(BlockAddr::new(1)), Some(&10));
/// assert_eq!(a.occupancy(), 1);
/// ```
pub struct SetAssoc<L> {
    /// One slot per chunk of `chunk_sets` consecutive sets, `None` until
    /// the first insert into one of its sets.
    chunks: Vec<Option<Chunk<L>>>,
    /// Blocks stored.
    len: usize,
    ways: usize,
    /// log2 of the sets per chunk.
    chunk_bits: u32,
    set_mask: u64,
}

impl<L> SetAssoc<L> {
    /// Creates an array with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two, or `ways` is zero or
    /// above 256 (way numbers are bytes).
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(
            num_sets.is_power_of_two(),
            "num_sets must be a power of two, got {num_sets}"
        );
        assert!(ways > 0, "a set needs at least one way");
        assert!(ways <= 256, "at most 256 ways per set, got {ways}");
        // The largest power of two of sets whose ways fit CHUNK_WAYS
        // (one set at least), but no more sets than the array has.
        let fit = (CHUNK_WAYS / ways).max(1);
        let chunk_bits = fit.ilog2().min(num_sets.trailing_zeros());
        SetAssoc {
            chunks: std::iter::repeat_with(|| None)
                .take(num_sets >> chunk_bits)
                .collect(),
            len: 0,
            ways,
            chunk_bits,
            set_mask: num_sets as u64 - 1,
        }
    }

    /// The chunk holding `block`'s set and the set's index within it.
    fn place(&self, block: BlockAddr) -> (usize, usize) {
        let set = self.set_index(block);
        (set >> self.chunk_bits, set & ((1 << self.chunk_bits) - 1))
    }

    /// `block`'s chunk and its slot there.
    fn find(&self, block: BlockAddr) -> Option<(&Chunk<L>, usize)> {
        let (c, set) = self.place(block);
        let chunk = self.chunks[c].as_ref()?;
        let w = chunk.way_of(set, block)?;
        Some((chunk, set * chunk.cap + w))
    }

    /// `block`'s chunk-local set and way, with its chunk, mutably.
    fn find_mut(&mut self, block: BlockAddr) -> Option<(&mut Chunk<L>, usize, usize)> {
        let (c, set) = self.place(block);
        let chunk = self.chunks[c].as_mut()?;
        let w = chunk.way_of(set, block)?;
        Some((chunk, set, w))
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.chunks.len() << self.chunk_bits
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.num_sets() * self.ways
    }

    /// Number of blocks currently stored.
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// The set index a block maps to.
    pub fn set_index(&self, block: BlockAddr) -> usize {
        (block.get() & self.set_mask) as usize
    }

    /// Returns the payload for `block` without updating recency.
    pub fn get(&self, block: BlockAddr) -> Option<&L> {
        let (chunk, slot) = self.find(block)?;
        chunk.lines[slot].as_ref()
    }

    /// Returns the payload for `block` mutably without updating recency.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let (chunk, set, w) = self.find_mut(block)?;
        chunk.lines[set * chunk.cap + w].as_mut()
    }

    /// Tests whether `block` is present.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Records a hit on `block`, making it the most recently used of its
    /// set. Returns `false` if the block is absent.
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        self.access_mut(block).is_some()
    }

    /// Returns the payload mutably and promotes the block (hit semantics).
    pub fn access_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let (chunk, set, w) = self.find_mut(block)?;
        chunk.promote(set, w);
        chunk.lines[set * chunk.cap + w].as_mut()
    }

    /// Inserts `block`, evicting and returning the least-recently-used
    /// block of the target set if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already present (callers must use [`get_mut`]
    /// to update an existing payload).
    ///
    /// [`get_mut`]: SetAssoc::get_mut
    pub fn insert(&mut self, block: BlockAddr, payload: L) -> Option<(BlockAddr, L)> {
        self.insert_with(block, payload, |lru| lru.next().map_or(0, |(way, _)| way))
    }

    /// Inserts `block` as [`insert`] does, except that `choose` picks the
    /// victim of a full set: it is handed the set's `(way, payload)`
    /// entries, least recently used first, and returns the way to evict.
    /// It is called only when the set is full, so any way below
    /// [`ways`] holds a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already present, or if `choose` returns a way
    /// not below [`ways`].
    ///
    /// [`insert`]: SetAssoc::insert
    /// [`ways`]: SetAssoc::ways
    pub fn insert_with(
        &mut self,
        block: BlockAddr,
        payload: L,
        choose: impl FnOnce(&mut dyn Iterator<Item = (usize, &L)>) -> usize,
    ) -> Option<(BlockAddr, L)> {
        assert!(block.get() != EMPTY, "block {block} is the free-way tag");
        let (c, set) = self.place(block);
        let (ways, chunk_sets) = (self.ways, 1 << self.chunk_bits);
        let chunk = self.chunks[c].get_or_insert_with(|| Chunk::new(chunk_sets));
        let way = match chunk.vacancy(set, block) {
            Some(w) => w,
            // Every stored way is full but the set has more: the first
            // of them is the flat array's first free way.
            None if chunk.cap < ways => {
                let w = chunk.cap;
                chunk.grow((2 * w).min(ways));
                w
            }
            None => {
                let slots = chunk.slots(set);
                let lines = &chunk.lines[slots.clone()];
                let w = choose(
                    &mut chunk.lru[slots]
                        .iter()
                        .filter_map(|&w| Some((w as usize, lines[w as usize].as_ref()?))),
                );
                // A larger way would name a slot of the next set.
                assert!(w < ways, "chose way {w} of a {ways}-way set");
                w
            }
        };
        let slot = set * chunk.cap + way;
        let old_tag = std::mem::replace(&mut chunk.tags[slot], block.get());
        let evicted = chunk.lines[slot].replace(payload);
        chunk.promote(set, way);
        if evicted.is_none() {
            self.len += 1;
        }
        evicted.map(|line| (BlockAddr::new(old_tag), line))
    }

    /// The block that [`insert`](SetAssoc::insert) would evict if `block`
    /// were inserted now, or `None` if the target set still has a free
    /// way (or already holds `block`).
    pub fn victim_for(&self, block: BlockAddr) -> Option<BlockAddr> {
        let (c, set) = self.place(block);
        let chunk = self.chunks[c].as_ref()?;
        let slots = chunk.slots(set);
        if chunk.cap < self.ways
            || chunk.tags[slots.clone()]
                .iter()
                .any(|&tag| tag == EMPTY || tag == block.get())
        {
            return None;
        }
        // The set is full, so its least recently used way holds a block.
        let w = chunk.lru[slots.start] as usize;
        Some(BlockAddr::new(chunk.tags[slots.start + w]))
    }

    /// Removes `block`, returning its payload. Its way is free again and
    /// keeps its place in the LRU stack.
    pub fn remove(&mut self, block: BlockAddr) -> Option<L> {
        let (chunk, set, w) = self.find_mut(block)?;
        let slot = set * chunk.cap + w;
        chunk.tags[slot] = EMPTY;
        let line = chunk.lines[slot].take();
        self.len -= 1;
        line
    }

    /// Iterates every resident `(block, payload)` pair in set order, ways
    /// in order within a set. Sets that were never filled cost nothing.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
        self.iter_sets(std::iter::once(0..self.num_sets()))
    }

    /// Iterates the resident `(block, payload)` pairs of the listed
    /// ranges of sets: range by range, in set order within a range and
    /// way order within a set. Sets in chunks that were never allocated
    /// cost nothing, and sets past the last yield nothing.
    pub fn iter_sets(
        &self,
        sets: impl IntoIterator<Item = Range<usize>>,
    ) -> impl Iterator<Item = (BlockAddr, &L)> {
        let (bits, num_sets) = (self.chunk_bits, self.num_sets());
        sets.into_iter().flat_map(move |range| {
            let end = range.end.min(num_sets);
            let start = range.start.min(end);
            // The chunks holding sets `start..end`.
            let chunks = start >> bits..(end + (1 << bits) - 1) >> bits;
            chunks
                .filter_map(move |c| Some((c << bits, self.chunks[c].as_ref()?)))
                .flat_map(move |(first, chunk)| {
                    let lo = start.max(first) - first;
                    let hi = end.min(first + (1 << bits)) - first;
                    let slots = lo * chunk.cap..hi * chunk.cap;
                    chunk.tags[slots.clone()]
                        .iter()
                        .zip(&chunk.lines[slots])
                        .filter_map(|(&tag, line)| line.as_ref().map(|l| (BlockAddr::new(tag), l)))
                })
        })
    }
}

impl<L: std::fmt::Debug> std::fmt::Debug for SetAssoc<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssoc")
            .field("num_sets", &self.num_sets())
            .field("ways", &self.ways)
            .field("occupancy", &self.occupancy())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn array(sets: usize, ways: usize) -> SetAssoc<u32> {
        SetAssoc::new(sets, ways)
    }

    /// The `(way, block, payload)` triples of the set `block` maps to,
    /// read off its chunk's slots in way order.
    fn occupants<L: Copy>(a: &SetAssoc<L>, block: BlockAddr) -> Vec<(usize, BlockAddr, L)> {
        let (c, set) = a.place(block);
        a.chunks[c]
            .iter()
            .flat_map(|chunk| {
                let slots = chunk.slots(set);
                chunk.tags[slots.clone()]
                    .iter()
                    .zip(&chunk.lines[slots])
                    .enumerate()
                    .filter_map(|(w, (&tag, line))| line.map(|l| (w, BlockAddr::new(tag), l)))
            })
            .collect()
    }

    /// The slots per set of the chunk holding `block`'s set, 0 while
    /// that chunk is unallocated.
    fn cap_of<L>(a: &SetAssoc<L>, block: BlockAddr) -> usize {
        a.chunks[a.place(block).0]
            .as_ref()
            .map_or(0, |chunk| chunk.cap)
    }

    /// Whether every slot of `block`'s chunk carries [`EMPTY`] exactly
    /// when it holds no payload.
    fn tags_match_lines<L>(a: &SetAssoc<L>, block: BlockAddr) -> bool {
        a.chunks[a.place(block).0].iter().all(|chunk| {
            chunk
                .tags
                .iter()
                .zip(&chunk.lines)
                .all(|(&tag, line)| (tag == EMPTY) == line.is_none())
        })
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
        a.remove(BlockAddr::new(2));
        assert_eq!(a.occupancy(), 4);
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
    fn removed_blocks_never_answer() {
        let mut a = array(1, 2);
        let (x, y, z) = (BlockAddr::new(0), BlockAddr::new(1), BlockAddr::new(2));
        a.insert(x, 10);
        a.insert(y, 11);
        assert_eq!(a.remove(x), Some(10));
        assert_eq!(a.get(x), None);
        assert!(!a.contains(x));
        assert!(!a.touch(x));
        assert_eq!(a.victim_for(z), None, "x's way is free");
        assert!(a.iter().all(|(b, _)| b != x));
        assert!(tags_match_lines(&a, x));
        // z fills x's way and is found there.
        assert!(a.insert(z, 12).is_none());
        assert_eq!(occupants(&a, z), [(0, z, 12), (1, y, 11)]);
        assert_eq!(a.get(z), Some(&12));
        assert_eq!(a.get(x), None);
        // The victim of the now full set is a live block.
        a.touch(z);
        assert_eq!(a.victim_for(x), Some(y));
    }

    #[test]
    fn a_set_grows_only_once_its_slots_are_full() {
        // Four 8-way sets share one chunk; blocks b and b + 4 share a set.
        let mut a = array(4, 8);
        let b = BlockAddr::new;
        assert_eq!(cap_of(&a, b(0)), 0, "no chunk before the first insert");
        a.insert(b(0), 0);
        assert_eq!(cap_of(&a, b(0)), 1);
        a.insert(b(1), 1);
        assert_eq!(cap_of(&a, b(0)), 1, "set 1 had a free slot of its own");
        a.insert(b(4), 4);
        assert_eq!(cap_of(&a, b(0)), 2);
        a.insert(b(5), 5);
        assert_eq!(cap_of(&a, b(0)), 2, "set 1 fills the slot set 0 grew");
        for (tag, cap) in [(8, 4), (12, 4), (16, 8), (20, 8), (24, 8), (28, 8)] {
            a.insert(b(tag), tag as u32);
            assert_eq!(cap_of(&a, b(0)), cap, "after inserting {tag}");
        }
        let set0: Vec<_> = (0..8).map(|w| (w, b(4 * w as u64), 4 * w as u32)).collect();
        assert_eq!(occupants(&a, b(0)), set0, "ways kept their places");
        assert_eq!(occupants(&a, b(1)), [(0, b(1), 1), (1, b(5), 5)]);
        // All eight ways stored and full: the next block evicts.
        assert!(a.insert(b(32), 32).is_some());
        assert_eq!(cap_of(&a, b(0)), 8);
        assert!(tags_match_lines(&a, b(0)));
    }

    #[test]
    fn a_hole_below_cap_is_refilled_before_the_set_grows() {
        let mut a = array(1, 4);
        let b = BlockAddr::new;
        a.insert(b(0), 0);
        a.insert(b(1), 1);
        assert_eq!(cap_of(&a, b(0)), 2);
        a.remove(b(0));
        assert!(a.insert(b(2), 2).is_none());
        assert_eq!(cap_of(&a, b(0)), 2, "the hole took the block");
        assert_eq!(occupants(&a, b(0)), [(0, b(2), 2), (1, b(1), 1)]);
        a.insert(b(3), 3);
        assert_eq!(cap_of(&a, b(0)), 4);
        assert_eq!(
            occupants(&a, b(0)),
            [(0, b(2), 2), (1, b(1), 1), (2, b(3), 3)]
        );
    }

    #[test]
    fn after_growth_the_lru_victim_matches_the_flat_array() {
        let b = BlockAddr::new;
        let mut chunked: SetAssoc<u64> = SetAssoc::new(2, 8);
        let mut flat: reference::SetAssoc<u64> = reference::SetAssoc::new(2, 8);
        // Set 0 grows from one slot to eight through a hole, with hits
        // between the fills.
        macro_rules! drive {
            ($a:expr) => {{
                for tag in [0, 2, 4] {
                    $a.insert(b(tag), tag);
                }
                $a.touch(b(0));
                $a.remove(b(2));
                for tag in [6, 8, 10, 12, 14, 16] {
                    $a.insert(b(tag), tag);
                }
                $a.touch(b(4));
            }};
        }
        drive!(chunked);
        drive!(flat);
        assert_eq!(cap_of(&chunked, b(0)), 8);
        let victim = chunked.victim_for(b(18));
        assert_eq!(victim, flat.victim_for(b(18)));
        assert_eq!(victim, Some(b(0)), "0 was touched before the last fills");
        assert_eq!(chunked.insert(b(18), 18), flat.insert(b(18), 18));
        assert!(chunked.iter().eq(flat.iter()));
    }

    #[test]
    fn a_set_grown_to_sixteen_ways_evicts_as_the_flat_array() {
        enum Step {
            Insert(u64),
            Touch(u64),
            Remove(u64),
        }
        use Step::*;
        let b = BlockAddr::new;
        let mut chunked: SetAssoc<u64> = SetAssoc::new(1, 16);
        let mut flat: reference::SetAssoc<u64> = reference::SetAssoc::new(1, 16);
        // One set grows from one slot to 16, with hits and removals at
        // every size, so each growth extends a stack out of way order.
        let steps = [Insert(0), Insert(1), Touch(0), Insert(2), Insert(3)]
            .into_iter()
            .chain([Touch(1), Remove(0), Insert(4)])
            .chain((5..9).map(Insert))
            .chain([Touch(2), Remove(6), Touch(4), Insert(9)])
            .chain((10..18).map(Insert))
            .chain([Touch(3)]);
        let mut caps = Vec::new();
        for step in steps {
            match step {
                Insert(tag) => assert_eq!(chunked.insert(b(tag), tag), flat.insert(b(tag), tag)),
                Touch(tag) => assert_eq!(chunked.touch(b(tag)), flat.touch(b(tag))),
                Remove(tag) => assert_eq!(chunked.remove(b(tag)), flat.remove(b(tag))),
            }
            let cap = cap_of(&chunked, b(0));
            if caps.last() != Some(&cap) {
                caps.push(cap);
            }
        }
        assert_eq!(caps, [1, 2, 4, 8, 16]);
        assert!(chunked.iter().eq(flat.iter()));
        // The whole stack, as a chooser sees it.
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        let evicted = chunked.insert_with(b(18), 18, |lru| {
            mine.extend(lru.map(|(w, &l)| (w, l)));
            mine[0].0
        });
        let expected = flat.insert_with(b(18), 18, |lru| {
            theirs.extend(lru.iter().map(|&(w, &l)| (w, l)));
            lru[0].0
        });
        assert_eq!(mine, theirs, "LRU order of the full set");
        assert_eq!(evicted, expected);
        // Then every victim, with hits between the fills.
        for tag in 19..51 {
            assert_eq!(chunked.victim_for(b(tag)), flat.victim_for(b(tag)));
            assert_eq!(chunked.insert(b(tag), tag), flat.insert(b(tag), tag));
            if tag % 3 == 0 {
                assert_eq!(chunked.touch(b(tag - 2)), flat.touch(b(tag - 2)));
            }
        }
        assert!(chunked.iter().eq(flat.iter()));
    }

    #[test]
    fn freed_ways_fill_before_the_lru_victim_is_taken() {
        // Ways 0 and 1 freed, 2 and 3 resident: the two free ways fill
        // without an eviction, then way 2 is the least recently used.
        let mut a: SetAssoc<u64> = SetAssoc::new(1, 4);
        for b in 0..4 {
            a.insert(BlockAddr::new(b), b);
        }
        a.remove(BlockAddr::new(0));
        a.remove(BlockAddr::new(1));
        assert_eq!(a.victim_for(BlockAddr::new(10)), None);
        assert!(a.insert(BlockAddr::new(10), 10).is_none());
        assert!(a.insert(BlockAddr::new(11), 11).is_none());
        assert_eq!(
            a.insert(BlockAddr::new(12), 12),
            Some((BlockAddr::new(2), 2))
        );
    }

    #[test]
    fn insert_with_hands_the_chooser_a_full_set_in_lru_order() {
        let b = BlockAddr::new;
        let mut a: SetAssoc<u32> = SetAssoc::new(1, 3);
        for tag in 0..3 {
            a.insert_with(b(tag), tag as u32, |_| {
                panic!("a set with room asks no chooser")
            });
        }
        a.touch(b(0)); // LRU order: ways 1, 2, 0
        let mut seen = Vec::new();
        let evicted = a.insert_with(b(3), 3, |lru| {
            seen.extend(lru.map(|(w, &l)| (w, l)));
            2
        });
        assert_eq!(seen, [(1, 1), (2, 2), (0, 0)]);
        assert_eq!(evicted, Some((b(2), 2)), "the chosen way is evicted");
        assert_eq!(a.get(b(3)), Some(&3));
        // The new block is the most recently used: order is 1, 0, 2.
        assert_eq!(a.victim_for(b(4)), Some(b(1)));
    }

    #[test]
    #[should_panic(expected = "chose way 2 of a 2-way set")]
    fn a_chosen_way_past_the_set_panics() {
        let mut a = array(2, 2);
        for tag in [0, 2, 4] {
            a.insert_with(BlockAddr::new(tag), 0, |_| 2);
        }
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
        let _: SetAssoc<u32> = SetAssoc::new(3, 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _: SetAssoc<u32> = SetAssoc::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "at most 256 ways")]
    fn ways_beyond_a_byte_panic() {
        let _: SetAssoc<u32> = SetAssoc::new(1, 257);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut a = array(8, 1);
        for i in 0..8 {
            assert!(a.insert(BlockAddr::new(i), i as u32).is_none());
        }
        assert_eq!(a.occupancy(), 8);
    }

    /// The flat array as it was before storage went per chunk: every
    /// set's tags, lines and LRU stack allocated up front. Kept, cut down
    /// to LRU, as the reference model for the differential property
    /// below.
    mod reference {
        #![allow(dead_code)]

        use stashdir_common::BlockAddr;
        use std::ops::Range;

        pub struct SetAssoc<L> {
            /// `sets × ways` tags, raw block numbers; set `s` owns
            /// `tags[s * ways..(s + 1) * ways]`. A way holds a block only while
            /// its line is `Some`: an emptied way keeps its stale tag, which no
            /// lookup answers to. Raw numbers let the vector start as zeroed
            /// memory, so building an array writes no tag.
            tags: Vec<u64>,
            /// `sets × ways` payloads, laid out as `tags`.
            lines: Vec<Option<L>>,
            /// Per set, its way numbers ordered least- to most-recently
            /// used, laid out as `tags`.
            lru: Vec<usize>,
            ways: usize,
            set_mask: u64,
        }

        impl<L> SetAssoc<L> {
            /// Creates an array with `num_sets` sets of `ways` ways.
            ///
            /// # Panics
            ///
            /// Panics if `num_sets` is not a power of two.
            pub fn new(num_sets: usize, ways: usize) -> Self {
                assert!(
                    num_sets.is_power_of_two(),
                    "num_sets must be a power of two, got {num_sets}"
                );
                SetAssoc {
                    tags: vec![0; num_sets * ways],
                    lines: std::iter::repeat_with(|| None)
                        .take(num_sets * ways)
                        .collect(),
                    lru: (0..num_sets).flat_map(|_| 0..ways).collect(),
                    ways,
                    set_mask: num_sets as u64 - 1,
                }
            }

            /// The index range of set `set`'s ways in `tags`, `lines` and
            /// `lru`.
            fn ways_of(&self, set: usize) -> Range<usize> {
                set * self.ways..(set + 1) * self.ways
            }

            /// Moves `way` to the back of `set`'s LRU stack.
            fn promote(&mut self, set: usize, way: usize) {
                let ways = self.ways_of(set);
                let mut stack: Vec<usize> = self.lru[ways.clone()].to_vec();
                stack.retain(|&w| w != way);
                stack.push(way);
                self.lru[ways].copy_from_slice(&stack);
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
                        self.promote(idx, w);
                        true
                    }
                    None => false,
                }
            }

            /// Returns the payload mutably and promotes the block (hit semantics).
            pub fn access_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
                let idx = self.set_index(block);
                let w = self.way_of(idx, block)?;
                self.promote(idx, w);
                self.lines[idx * self.ways + w].as_mut()
            }

            /// Inserts `block`, evicting and returning the LRU victim if
            /// the target set is full.
            ///
            /// # Panics
            ///
            /// Panics if `block` is already present.
            pub fn insert(&mut self, block: BlockAddr, payload: L) -> Option<(BlockAddr, L)> {
                self.insert_with(block, payload, |lru| lru[0].0)
            }

            /// Inserts `block`; when the target set is full, `choose` is
            /// handed its `(way, payload)` entries in LRU order and names
            /// the victim way.
            pub fn insert_with(
                &mut self,
                block: BlockAddr,
                payload: L,
                choose: impl FnOnce(&[(usize, &L)]) -> usize,
            ) -> Option<(BlockAddr, L)> {
                let idx = self.set_index(block);
                assert!(
                    self.way_of(idx, block).is_none(),
                    "block {block} already present; update it instead of re-inserting"
                );
                let way = match self.free_way(idx) {
                    Some(w) => w,
                    None => {
                        let base = idx * self.ways;
                        let lru: Vec<(usize, &L)> = self.lru[self.ways_of(idx)]
                            .iter()
                            .map(|&w| (w, self.lines[base + w].as_ref().unwrap()))
                            .collect();
                        choose(&lru)
                    }
                };
                let slot = idx * self.ways + way;
                let old_tag = std::mem::replace(&mut self.tags[slot], block.get());
                let evicted = self.lines[slot].replace(payload);
                self.promote(idx, way);
                evicted.map(|line| (BlockAddr::new(old_tag), line))
            }

            /// The block that would be evicted if `block` were inserted now, or
            /// `None` if the target set still has a free way (or already holds
            /// `block`).
            pub fn victim_for(&self, block: BlockAddr) -> Option<BlockAddr> {
                let idx = self.set_index(block);
                if self.way_of(idx, block).is_some() || self.free_way(idx).is_some() {
                    return None;
                }
                // The set is full, so the victim way holds a block.
                let w = self.lru[idx * self.ways];
                Some(BlockAddr::new(self.tags[idx * self.ways + w]))
            }

            /// Removes `block`, returning its payload. The way keeps `block`'s
            /// tag, stale until the way is filled again.
            pub fn remove(&mut self, block: BlockAddr) -> Option<L> {
                let slot = self.slot_of(block)?;
                self.lines[slot].take()
            }

            /// Iterates the occupants of the set `block` maps to, as
            /// `(way, block, payload)` triples.
            pub fn set_occupants(
                &self,
                block: BlockAddr,
            ) -> impl Iterator<Item = (usize, BlockAddr, &L)> {
                let ways = self.ways_of(self.set_index(block));
                self.tags[ways.clone()]
                    .iter()
                    .zip(&self.lines[ways])
                    .enumerate()
                    .filter_map(|(w, (&tag, line))| {
                        line.as_ref().map(|l| (w, BlockAddr::new(tag), l))
                    })
            }

            /// Iterates every resident `(block, payload)` pair in set order, ways
            /// in order within a set.
            pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
                self.tags
                    .iter()
                    .zip(&self.lines)
                    .filter_map(|(&tag, line)| line.as_ref().map(|l| (BlockAddr::new(tag), l)))
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Inserts the next tag, round robin, into one of the four sets.
        Fill(u8),
        Insert(u8, u16),
        Remove(u8, u16),
        Touch(u8, u16),
        AccessMut(u8, u16),
        GetMut(u8, u16),
        VictimFor(u8, u16),
        /// Inserts with a chooser that takes the `k`-th entry in LRU
        /// order, modulo the set's ways.
        InsertWith(u8, u16, u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let at = || (0u8..4, 0u16..400);
        prop_oneof![
            400 => (0u8..4).prop_map(Op::Fill),
            400 => at().prop_map(|(s, t)| Op::Insert(s, t)),
            120 => at().prop_map(|(s, t)| Op::Remove(s, t)),
            120 => at().prop_map(|(s, t)| Op::Touch(s, t)),
            120 => at().prop_map(|(s, t)| Op::AccessMut(s, t)),
            60 => at().prop_map(|(s, t)| Op::GetMut(s, t)),
            120 => at().prop_map(|(s, t)| Op::VictimFor(s, t)),
            120 => (at(), any::<u8>()).prop_map(|((s, t), k)| Op::InsertWith(s, t, k)),
        ]
    }

    /// The block an op names in a `sets`-set, `ways`-way array: one of
    /// four sets spread over the chunks (first, second, middle and last
    /// set), and one of a few more tags than the set has ways, so sets
    /// fill and evict.
    fn block_of(sets: usize, ways: usize, set_pick: u8, tag: u16) -> BlockAddr {
        let set = [0, 1, sets / 2, sets - 1][set_pick as usize] % sets;
        let tags = ways + ways / 4 + 2;
        BlockAddr::new((tag as usize % tags * sets + set) as u64)
    }

    /// `(sets, ways)`: one set, several chunks of 3-, 12-, 256- and
    /// 1-way sets, and the machine's L1, L2 and LLC bank shapes.
    const GEOMETRIES: [(usize, usize); 10] = [
        (1, 3),
        (1, 12),
        (1, 256),
        (256, 3),
        (64, 12),
        (2, 256),
        (512, 1),
        (128, 4),
        (512, 8),
        (1024, 16),
    ];

    /// Runs `ops` on a chunked array and on the flat reference, and
    /// fails at the first call whose answer differs.
    fn run_differential(ops: &[Op], (sets, ways): (usize, usize)) -> Result<(), TestCaseError> {
        let mut chunked: SetAssoc<u64> = SetAssoc::new(sets, ways);
        let mut flat: reference::SetAssoc<u64> = reference::SetAssoc::new(sets, ways);
        let mut next_tag = [0u16; 4];
        let at = |s, t| block_of(sets, ways, s, t);
        for (payload, op) in (0u64..).zip(ops) {
            let block = match *op {
                Op::Fill(s) | Op::Insert(s, _) => {
                    let block = match *op {
                        Op::Insert(_, t) => at(s, t),
                        _ => {
                            next_tag[s as usize] = next_tag[s as usize].wrapping_add(1);
                            at(s, next_tag[s as usize])
                        }
                    };
                    prop_assert_eq!(chunked.contains(block), flat.contains(block));
                    if !flat.contains(block) {
                        prop_assert_eq!(
                            chunked.insert(block, payload),
                            flat.insert(block, payload)
                        );
                    }
                    block
                }
                Op::Remove(s, t) => {
                    let block = at(s, t);
                    prop_assert_eq!(chunked.remove(block), flat.remove(block));
                    block
                }
                Op::Touch(s, t) => {
                    let block = at(s, t);
                    prop_assert_eq!(chunked.touch(block), flat.touch(block));
                    block
                }
                Op::AccessMut(s, t) | Op::GetMut(s, t) => {
                    let block = at(s, t);
                    let (mine, theirs) = if matches!(op, Op::AccessMut(..)) {
                        (chunked.access_mut(block), flat.access_mut(block))
                    } else {
                        (chunked.get_mut(block), flat.get_mut(block))
                    };
                    prop_assert_eq!(mine.as_deref(), theirs.as_deref());
                    // Rewrite the payload, so a line answered from the
                    // wrong way shows up later.
                    if let (Some(mine), Some(theirs)) = (mine, theirs) {
                        *mine = payload;
                        *theirs = payload;
                    }
                    block
                }
                Op::VictimFor(s, t) => {
                    let block = at(s, t);
                    prop_assert_eq!(chunked.victim_for(block), flat.victim_for(block));
                    block
                }
                Op::InsertWith(s, t, k) => {
                    let block = at(s, t);
                    let k = k as usize % ways;
                    prop_assert_eq!(chunked.contains(block), flat.contains(block));
                    if !flat.contains(block) {
                        prop_assert_eq!(
                            chunked.insert_with(block, payload, |lru| lru
                                .nth(k)
                                .map_or(ways, |(w, _)| w)),
                            flat.insert_with(block, payload, |lru| lru[k].0)
                        );
                    }
                    block
                }
            };
            prop_assert_eq!(chunked.get(block), flat.get(block));
            prop_assert_eq!(chunked.occupancy(), flat.occupancy());
            let theirs: Vec<_> = flat
                .set_occupants(block)
                .map(|(w, b, &l)| (w, b, l))
                .collect();
            prop_assert_eq!(
                occupants(&chunked, block),
                theirs,
                "{}x{}: the ways of {}'s set differ after {:?}",
                sets,
                ways,
                block,
                op
            );
            prop_assert!(
                tags_match_lines(&chunked, block),
                "{sets}x{ways}: a tag and its line disagree after {op:?}"
            );
            // A whole-array walk every few ops keeps the test fast.
            if payload % 16 == 0 {
                prop_assert!(
                    chunked.iter().eq(flat.iter()),
                    "{sets}x{ways}: iter() differs after {op:?}"
                );
            }
        }
        prop_assert!(
            chunked.iter().eq(flat.iter()),
            "{sets}x{ways}: final iter() differs"
        );
        prop_assert_eq!(chunked.num_sets(), flat.num_sets());
        prop_assert_eq!(chunked.capacity(), flat.capacity());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Under any op sequence and each geometry, the chunked array
        /// answers every call exactly as the flat reference does: the
        /// same victims, the same LRU order handed to a chooser, payloads
        /// and `iter()` order, and after every call the touched
        /// set holds the same blocks in the same ways as the flat
        /// reference's `set_occupants`, however far its chunk has grown.
        /// Sequences are long enough that 256-way sets fill and evict.
        #[test]
        fn chunked_array_matches_flat_reference(
            ops in prop::collection::vec(arb_op(), 1200..2400),
        ) {
            for (sets, ways) in GEOMETRIES {
                // Only 256-way sets need the long tail to fill.
                let len = if ways < 256 { ops.len().min(600) } else { ops.len() };
                run_differential(&ops[..len], (sets, ways))?;
            }
        }
    }

    /// `(sets, ways)` for the set-list walk: 1-, 3- and 12-way arrays of
    /// one chunk (256, 64 and 16 sets) and of several.
    const SET_LIST_GEOMETRIES: [(usize, usize); 6] =
        [(256, 1), (1024, 1), (64, 3), (512, 3), (16, 12), (128, 12)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// After random inserts and removes, confined to the chunks in
        /// `live`, the sets of each batch of residues modulo `2^m_bits`,
        /// `2^w_bits` residues a batch, yield only blocks of those sets,
        /// and over all batches every pair of `iter()` exactly once. The
        /// sets of a chunk never allocated yield nothing.
        #[test]
        fn residue_batches_partition_the_array(
            ops in prop::collection::vec((prop::bool::ANY, 0usize..1 << 12, 0u64..16), 0..400),
            live in any::<u8>(),
            m_bits in 0u32..7,
            w_bits in 0u32..4,
        ) {
            for (sets, ways) in SET_LIST_GEOMETRIES {
                let mut a: SetAssoc<u64> = SetAssoc::new(sets, ways);
                let chunk_sets = 1 << a.chunk_bits;
                for (payload, &(insert, set, tag)) in (0u64..).zip(&ops) {
                    let set = set % sets;
                    if live & (1 << (set / chunk_sets % 8)) == 0 {
                        continue;
                    }
                    let block = BlockAddr::new(set as u64 + sets as u64 * tag);
                    if !insert {
                        a.remove(block);
                    } else if !a.contains(block) {
                        a.insert(block, payload);
                    }
                }
                let modulus = (1 << m_bits).min(sets);
                let width = (1 << w_bits).min(modulus);
                let mut seen = Vec::new();
                for first in (0..modulus).step_by(width) {
                    let ranges = (0..sets)
                        .step_by(modulus)
                        .map(|base| base + first..base + first + width);
                    for (block, &payload) in a.iter_sets(ranges) {
                        prop_assert!(
                            (first..first + width).contains(&(a.set_index(block) % modulus)),
                            "{sets}x{ways}: {block} outside residues {first}+{width} mod {modulus}"
                        );
                        seen.push((block, payload));
                    }
                }
                let mut all: Vec<(BlockAddr, u64)> = a.iter().map(|(b, &l)| (b, l)).collect();
                prop_assert_eq!(all.len(), a.occupancy());
                seen.sort_unstable();
                all.sort_unstable();
                prop_assert_eq!(seen, all, "{}x{} mod {} by {}", sets, ways, modulus, width);
                for (c, chunk) in a.chunks.iter().enumerate() {
                    if chunk.is_none() {
                        let first = c * chunk_sets;
                        prop_assert_eq!(a.iter_sets(std::iter::once(first..first + chunk_sets)).count(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn iter_sets_clamps_and_skips_empty_ranges() {
        let mut a = array(4, 2);
        for i in 0..8 {
            a.insert(BlockAddr::new(i), i as u32);
        }
        let blocks = |ranges: &[Range<usize>]| -> Vec<u64> {
            a.iter_sets(ranges.iter().cloned())
                .map(|(b, _)| b.get())
                .collect()
        };
        assert_eq!(blocks(&[1..3, 0..1]), [1, 5, 2, 6, 0, 4]);
        assert_eq!(blocks(&[3..9, 2..2, 6..8]), [3, 7]);
    }
}
