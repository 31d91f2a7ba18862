//! The discrete-event queue.

#![expect(
    clippy::indexing_slicing,
    reason = "bucket indices are masked below `WINDOW`, the length of \
              `heads` and `tails` (and 64 times that of `occupied`); node \
              indices come from bucket lists and the free list, which hold \
              only indices below `nodes.len()`"
)]

use stashdir_common::Cycle;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fmt;

/// Cycles the calendar covers from the last popped time, one bucket per
/// cycle (a power of two).
const WINDOW: usize = 8192;
/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// A time-ordered queue of events with deterministic FIFO tie-breaking.
///
/// A calendar queue (Brown, CACM 1988) with one bucket per cycle. Bucket
/// `t % WINDOW` holds, in push order, the events at `t` for every `t` in
/// the window `[base, base + WINDOW)`, where `base` is the latest time
/// popped so far; a bitmap finds the next non-empty bucket. Pushes outside
/// the window (at or beyond its end, or before `base`) go to a small
/// `(time, seq)` heap. When a pop moves `base`, the heap entries the new
/// window covers move into their buckets in `(time, seq)` order, before
/// any later push can land beside them, so every bucket stays in push
/// order. Push and pop are O(1) while events land inside the window.
///
/// # Examples
///
/// ```
/// use stashdir_common::Cycle;
/// use stashdir_sim::event::EventQueue;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.push(Cycle::new(10), "later");
/// q.push(Cycle::new(5), "sooner");
/// q.push(Cycle::new(5), "sooner-but-second");
/// assert_eq!(q.pop(), Some((Cycle::new(5), "sooner")));
/// assert_eq!(q.pop(), Some((Cycle::new(5), "sooner-but-second")));
/// assert_eq!(q.pop(), Some((Cycle::new(10), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// The window's first cycle: the latest time popped so far.
    base: Cycle,
    /// First and last node of each bucket's list (`NIL` when empty).
    heads: Box<[u32]>,
    tails: Box<[u32]>,
    /// One bit per non-empty bucket.
    occupied: Box<[u64]>,
    /// The window's events, each with the next node of its bucket (or,
    /// once popped, of the free list).
    nodes: Vec<Node<E>>,
    /// First free node.
    free: u32,
    /// Events outside the window, keyed `(time, seq)`.
    far: BinaryHeap<Reverse<(Cycle, u64, OrdIgnored<E>)>>,
    seq: u64,
    len: usize,
}

/// A window event and the next node of its list.
struct Node<E> {
    event: Option<E>,
    next: u32,
}

/// Wrapper that exempts the payload from ordering (the `(time, seq)` key
/// is already total).
///
/// # Tie-break determinism
///
/// The heap key is the pair `(Cycle, seq)`: `seq` is a monotonically
/// increasing push counter, so two events scheduled for the same cycle
/// always pop in the order they were pushed (FIFO), regardless of the
/// payload. `OrdIgnored` reports every pair of payloads as `Equal` so
/// the payload type never participates in the comparison — the payload
/// needs no `Ord` impl, and `BinaryHeap`'s internal sift order (which
/// *is* allowed to compare equal keys in any order) can never observe a
/// difference. The buckets keep the same order by construction: a
/// bucket is appended to in push order, and heap entries enter it before
/// any later push. This is the property the whole simulator's
/// bit-for-bit determinism rests on: replacing the payload, its hash, or
/// its in-memory layout can never reorder same-cycle events.
struct OrdIgnored<E>(E);

impl<E> PartialEq for OrdIgnored<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for OrdIgnored<E> {}
impl<E> PartialOrd for OrdIgnored<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OrdIgnored<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            base: Cycle::ZERO,
            heads: vec![NIL; WINDOW].into_boxed_slice(),
            tails: vec![NIL; WINDOW].into_boxed_slice(),
            occupied: vec![0; WINDOW / 64].into_boxed_slice(),
            nodes: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` at `time`. Events at equal times pop in push
    /// order.
    pub fn push(&mut self, time: Cycle, event: E) {
        if time >= self.base && time - self.base < WINDOW as u64 {
            self.append(time, event);
        } else {
            self.far.push(Reverse((time, self.seq, OrdIgnored(event))));
        }
        self.seq += 1;
        self.len += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        // The heap holds only times before `base` or past the window, and
        // the former precede every bucket.
        if let Some(top) = self.far.peek_mut() {
            if top.0 .0 < self.base {
                let Reverse((time, _, event)) = PeekMut::pop(top);
                self.len -= 1;
                return Some((time, event.0));
            }
        }
        let time = match self.next_bucket() {
            Some(offset) => self.base + offset,
            None => self.far.peek()?.0 .0,
        };
        self.advance(time);
        let bucket = time.get() as usize & (WINDOW - 1);
        let node = self.heads[bucket];
        let Node { event, next } = &mut self.nodes[node as usize];
        let event = event.take();
        self.heads[bucket] = std::mem::replace(next, self.free);
        self.free = node;
        if self.heads[bucket] == NIL {
            self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        }
        self.len -= 1;
        #[expect(
            clippy::expect_used,
            reason = "a node on a bucket list holds its event until popped"
        )]
        Some((time, event.expect("a listed node holds an event")))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every pending event in pop order, without disturbing the queue
    /// (diagnostic snapshots).
    pub fn pending(&self) -> Vec<(Cycle, &E)> {
        let mut far: Vec<_> = self.far.iter().map(|Reverse(item)| item).collect();
        far.sort_by_key(|&&(t, seq, _)| (t, seq));
        let early = far.partition_point(|&&(t, ..)| t < self.base);
        let (before, after) = far.split_at(early);
        let mut items: Vec<(Cycle, &E)> = before.iter().map(|(t, _, e)| (*t, &e.0)).collect();
        let start = self.base.get() as usize;
        for offset in 0..WINDOW {
            let mut node = self.heads[start.wrapping_add(offset) & (WINDOW - 1)];
            while node != NIL {
                let Node { event, next } = &self.nodes[node as usize];
                items.extend(event.as_ref().map(|e| (self.base + offset as u64, e)));
                node = *next;
            }
        }
        items.extend(after.iter().map(|(t, _, e)| (*t, &e.0)));
        items
    }

    /// Discards every pending event (quiesce).
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.occupied.fill(0);
        self.nodes.clear();
        self.free = NIL;
        self.far.clear();
        self.len = 0;
    }

    /// Appends `event` to the bucket of `time`, which lies in the window.
    fn append(&mut self, time: Cycle, event: E) {
        let node = Node {
            event: Some(event),
            next: NIL,
        };
        let index = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = std::mem::replace(&mut self.nodes[index as usize], node).next;
            index
        };
        let bucket = time.get() as usize & (WINDOW - 1);
        if self.heads[bucket] == NIL {
            self.heads[bucket] = index;
            self.occupied[bucket / 64] |= 1 << (bucket % 64);
        } else {
            self.nodes[self.tails[bucket] as usize].next = index;
        }
        self.tails[bucket] = index;
    }

    /// Cycles from `base` to the first non-empty bucket, if any.
    fn next_bucket(&self) -> Option<u64> {
        let start = self.base.get() as usize & (WINDOW - 1);
        let words = WINDOW / 64;
        let (first, bit) = (start / 64, start % 64);
        // The first word from `start` on; then whole words, wrapping back
        // to the first one, whose bits from `start` on are already known
        // clear.
        let mut word = self.occupied[first] & (u64::MAX << bit);
        for k in 0..=words {
            if word != 0 {
                let bucket = (first + k) % words * 64 + word.trailing_zeros() as usize;
                return Some((bucket.wrapping_sub(start) & (WINDOW - 1)) as u64);
            }
            word = self.occupied[(first + k + 1) % words];
        }
        None
    }

    /// Moves the window to start at `time`, no earlier than `base` and
    /// no later than the earliest pending event, and moves the heap
    /// entries it now covers into their buckets in `(time, seq)` order.
    fn advance(&mut self, time: Cycle) {
        self.base = time;
        let end = time.get().saturating_add(WINDOW as u64);
        loop {
            let Some(top) = self.far.peek_mut() else {
                break;
            };
            if top.0 .0.get() >= end {
                break;
            }
            let Reverse((t, _, event)) = PeekMut::pop(top);
            self.append(t, event.0);
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E: fmt::Debug> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.pending()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(30), 3);
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    proptest::proptest! {
        /// For any interleaving of push times (including duplicates) and
        /// interspersed pops, the pop sequence equals a stable sort of
        /// the pushed events by `(time, push index)` — i.e. time order
        /// with FIFO tie-break, independent of payload values.
        #[test]
        fn tie_break_is_push_order(times in proptest::collection::vec(0u64..8, 1..64)) {
            let mut q = EventQueue::new();
            let mut expected: Vec<(Cycle, usize)> = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Cycle::new(t), i);
                expected.push((Cycle::new(t), i));
            }
            // Stable sort by time preserves push order within a cycle.
            expected.sort_by_key(|&(t, _)| t);
            let popped: Vec<(Cycle, usize)> =
                std::iter::from_fn(|| q.pop()).collect();
            proptest::prop_assert_eq!(popped, expected);
        }

        /// `pending()` previews exactly the pop order.
        #[test]
        fn pending_matches_pop_order(times in proptest::collection::vec(0u64..8, 1..64)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Cycle::new(t), i);
            }
            let preview: Vec<(Cycle, usize)> =
                q.pending().into_iter().map(|(t, &e)| (t, e)).collect();
            let popped: Vec<(Cycle, usize)> =
                std::iter::from_fn(|| q.pop()).collect();
            proptest::prop_assert_eq!(preview, popped);
        }
    }

    /// One step of [`matches_a_reference_heap`]: pushes at times before
    /// the last pop, inside the window, at its edge and beyond it, pops,
    /// previews and clears.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(Cycle),
        Pop,
        Pending,
        Clear,
    }

    /// Resolves a generated `(kind, delta)` pair against `last`, the
    /// latest time popped so far. Most offsets are small, so pushes
    /// collide in time and a pop moves the window by a few cycles,
    /// leaving pushes made beyond its old end right at its new edge.
    fn op(kind: u8, delta: u64, last: u64) -> Op {
        let window = WINDOW as u64;
        match kind {
            0 | 1 => Op::Push(Cycle::new(last.saturating_sub(delta % 4))),
            2 | 3 => Op::Push(Cycle::new(last + delta % 4)),
            4 => Op::Push(Cycle::new(last + delta % window)),
            5 | 6 => Op::Push(Cycle::new(last + window - 3 + delta % 6)),
            7 => Op::Push(Cycle::new(last + window + delta % (3 * window))),
            8 => Op::Push(Cycle::new(last + 2 * window - 2 + delta % 4)),
            9..=13 => Op::Pop,
            14 => Op::Pending,
            _ => Op::Clear,
        }
    }

    proptest::proptest! {
        /// Against a `BinaryHeap` keyed `(time, push index)`, every pop,
        /// `len`, `is_empty` and `pending` agrees, for pushes before the
        /// last pop, inside the window, at its edge and beyond it,
        /// interleaved with pops, previews and clears.
        #[test]
        fn matches_a_reference_heap(
            steps in proptest::collection::vec((0u8..16, 0u64..1_000_000), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(Cycle, usize)>> = BinaryHeap::new();
            let mut last = 0;
            for (i, &(kind, delta)) in steps.iter().enumerate() {
                match op(kind, delta, last) {
                    Op::Push(t) => {
                        q.push(t, i);
                        reference.push(Reverse((t, i)));
                    }
                    Op::Pop => {
                        let expected = reference.pop().map(|Reverse(item)| item);
                        proptest::prop_assert_eq!(q.pop(), expected, "step {}", i);
                        if let Some((t, _)) = expected {
                            last = last.max(t.get());
                        }
                    }
                    Op::Pending => {
                        let mut expected: Vec<(Cycle, usize)> =
                            reference.iter().map(|Reverse(item)| *item).collect();
                        expected.sort();
                        let preview: Vec<(Cycle, usize)> =
                            q.pending().into_iter().map(|(t, &e)| (t, e)).collect();
                        proptest::prop_assert_eq!(preview, expected, "step {}", i);
                    }
                    Op::Clear => {
                        q.clear();
                        reference.clear();
                    }
                }
                proptest::prop_assert_eq!(q.len(), reference.len());
                proptest::prop_assert_eq!(q.is_empty(), reference.is_empty());
            }
            let drained: Vec<(Cycle, usize)> = std::iter::from_fn(|| q.pop()).collect();
            let expected: Vec<(Cycle, usize)> =
                std::iter::from_fn(|| reference.pop().map(|Reverse(item)| item)).collect();
            proptest::prop_assert_eq!(drained, expected);
        }
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
