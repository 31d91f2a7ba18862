//! The discrete-event queue.

use stashdir_common::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered queue of events with deterministic FIFO tie-breaking.
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
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Cycle, u64, OrdIgnored<E>)>>,
    seq: u64,
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
/// difference. This is the property the whole simulator's bit-for-bit
/// determinism rests on: replacing the payload, its hash, or its
/// in-memory layout can never reorder same-cycle events.
#[derive(Debug)]
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
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`. Events at equal times pop in push
    /// order.
    pub fn push(&mut self, time: Cycle, event: E) {
        self.heap.push(Reverse((time, self.seq, OrdIgnored(event))));
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t, e.0))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every pending event in pop order, without disturbing the queue
    /// (diagnostic snapshots).
    pub fn pending(&self) -> Vec<(Cycle, &E)> {
        let mut items: Vec<_> = self.heap.iter().map(|Reverse(item)| item).collect();
        items.sort_by_key(|&&(t, seq, _)| (t, seq));
        items.into_iter().map(|(t, _, e)| (*t, &e.0)).collect()
    }

    /// Discards every pending event (quiesce).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
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
