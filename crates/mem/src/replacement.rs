//! Replacement policies for set-associative structures.
//!
//! `Policy` describes one array's policy and dispatches on [`ReplKind`]
//! with a `match`; the state is a byte slice of a fixed stride per set,
//! which the array keeps beside its tags. Policies see three events:
//! a fill into a way, a hit on a way, and a victim request. The owning
//! [`SetAssoc`] fills invalid ways before it asks for a victim, so a
//! victim request always comes from a full set.
//!
//! [`SetAssoc`]: crate::SetAssoc

// lint: allow-file(indexing) — every index is a way number below `ways` or
// a tree node below `stride`, inside a set slice of `stride` bytes cut
// from state sized `sets × stride` by `Policy::fresh`.

use serde::{Deserialize, Serialize};
use stashdir_common::DetRng;
use std::fmt;
use std::ops::Range;

/// Selects the replacement policy a structure uses.
///
/// # Examples
///
/// ```
/// use stashdir_mem::{ReplKind, SetAssoc};
/// let array: SetAssoc<u32> = SetAssoc::new(4, 8, ReplKind::Srrip, 1);
/// assert_eq!(array.repl_kind(), ReplKind::Srrip);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReplKind {
    /// Least-recently-used, exact stack order.
    #[default]
    Lru,
    /// First-in-first-out (fill order, hits do not promote).
    Fifo,
    /// Uniform random among the set's ways.
    Random,
    /// Not-recently-used: one reference bit per way, cleared in bulk.
    Nru,
    /// Static re-reference interval prediction with 2-bit RRPV counters.
    Srrip,
    /// Tree pseudo-LRU (binary decision tree).
    TreePlru,
}

impl fmt::Display for ReplKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ReplKind::Lru => "lru",
            ReplKind::Fifo => "fifo",
            ReplKind::Random => "random",
            ReplKind::Nru => "nru",
            ReplKind::Srrip => "srrip",
            ReplKind::TreePlru => "tree-plru",
        };
        f.write_str(name)
    }
}

const RRPV_MAX: u8 = 3; // 2-bit counters
const RRPV_INSERT: u8 = 2; // "long" re-reference prediction on insert

/// One array's replacement policy: its kind and geometry. The state
/// itself is bytes its owner keeps, `stride` per set; per policy, a
/// set's bytes are:
///
/// * LRU / FIFO — a stack of way numbers, least recent (oldest fill) first;
/// * NRU — one reference bit per way;
/// * SRRIP — one 2-bit RRPV per way;
/// * tree-PLRU — the bits of a complete binary tree over the next power
///   of two of `ways` leaves, `0` meaning "the LRU side is left";
/// * random — nothing.
///
/// Deterministic given the same event sequence and the same RNG stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    kind: ReplKind,
    ways: usize,
    stride: usize,
}

impl Policy {
    /// The policy `kind` over sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above 256 (way numbers are bytes).
    pub(crate) fn new(kind: ReplKind, ways: usize) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        assert!(ways <= 256, "at most 256 ways per set, got {ways}");
        let stride = match kind {
            ReplKind::Lru | ReplKind::Fifo | ReplKind::Nru | ReplKind::Srrip => ways,
            ReplKind::Random => 0,
            ReplKind::TreePlru => ways.next_power_of_two().max(2) - 1,
        };
        Policy { kind, ways, stride }
    }

    /// The policy kind.
    pub(crate) fn kind(&self) -> ReplKind {
        self.kind
    }

    /// The index range of set `set`'s bytes in state from [`fresh`].
    ///
    /// [`fresh`]: Policy::fresh
    pub(crate) fn bytes_of(&self, set: usize) -> Range<usize> {
        set * self.stride..(set + 1) * self.stride
    }

    /// Fresh state for `sets` sets.
    pub(crate) fn fresh(&self, sets: usize) -> Box<[u8]> {
        let len = sets * self.stride;
        match self.kind {
            ReplKind::Lru | ReplKind::Fifo => {
                let mut bytes = Vec::with_capacity(len);
                for _ in 0..sets {
                    // Way numbers fit a byte: `ways <= 256` in `new`.
                    bytes.extend((0..self.ways).map(|w| w as u8));
                }
                bytes.into_boxed_slice()
            }
            ReplKind::Random | ReplKind::Nru | ReplKind::TreePlru => {
                vec![0; len].into_boxed_slice()
            }
            ReplKind::Srrip => vec![RRPV_MAX; len].into_boxed_slice(),
        }
    }

    /// `way` of the set whose state is `s` was filled with a new block.
    pub(crate) fn on_fill(&self, s: &mut [u8], way: usize) {
        match self.kind {
            ReplKind::Lru | ReplKind::Fifo => promote(s, way),
            ReplKind::Random => {}
            ReplKind::Nru => s[way] = 1,
            ReplKind::Srrip => s[way] = RRPV_INSERT,
            ReplKind::TreePlru => plru_touch(s, self.ways, way),
        }
    }

    /// `way` of the set whose state is `s` hit.
    pub(crate) fn on_hit(&self, s: &mut [u8], way: usize) {
        match self.kind {
            ReplKind::Lru => promote(s, way),
            ReplKind::Fifo | ReplKind::Random => {}
            ReplKind::Nru => s[way] = 1,
            ReplKind::Srrip => s[way] = 0,
            ReplKind::TreePlru => plru_touch(s, self.ways, way),
        }
    }

    /// Chooses the way to evict from the full set whose state is `s`.
    /// NRU's bulk clear, SRRIP's aging and random's draw advance state.
    pub(crate) fn victim(&self, s: &mut [u8], rng: &mut DetRng) -> usize {
        let ways = self.ways;
        match self.kind {
            ReplKind::Lru | ReplKind::Fifo => s[0] as usize,
            ReplKind::Random => rng.index(ways),
            ReplKind::Nru => match s.iter().position(|&r| r == 0) {
                Some(w) => w,
                None => {
                    // Everyone referenced: clear and take the first way.
                    s.fill(0);
                    0
                }
            },
            ReplKind::Srrip => {
                // Age every way until one reaches RRPV_MAX: one step of
                // the gap between the oldest way and RRPV_MAX.
                let oldest = s.iter().copied().max().unwrap_or(RRPV_MAX);
                let age = RRPV_MAX - oldest;
                s.iter_mut().for_each(|r| *r += age);
                s.iter().position(|&r| r == RRPV_MAX).unwrap_or(0)
            }
            ReplKind::TreePlru => {
                let chosen = plru_follow(s, ways);
                // A padding leaf (non-power-of-two ways) falls back to the
                // first way, preserving pseudo-LRU's O(1) spirit.
                if chosen < ways {
                    chosen
                } else {
                    0
                }
            }
        }
    }
}

/// The replacement state of every set of one array in a single flat
/// byte vector, as arrays kept it before they allocated per chunk. The
/// policy tests drive it, and `set_assoc`'s reference array is built on
/// it.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ReplState {
    policy: Policy,
    bytes: Vec<u8>,
}

#[cfg(test)]
impl ReplState {
    /// Fresh state for `sets` sets of `ways` ways.
    pub(crate) fn new(kind: ReplKind, sets: usize, ways: usize) -> Self {
        let policy = Policy::new(kind, ways);
        ReplState {
            bytes: policy.fresh(sets).into_vec(),
            policy,
        }
    }

    pub(crate) fn kind(&self) -> ReplKind {
        self.policy.kind
    }

    fn set_mut(&mut self, set: usize) -> &mut [u8] {
        let range = self.policy.bytes_of(set);
        &mut self.bytes[range]
    }

    pub(crate) fn on_fill(&mut self, set: usize, way: usize) {
        let policy = self.policy;
        policy.on_fill(self.set_mut(set), way);
    }

    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        let policy = self.policy;
        policy.on_hit(self.set_mut(set), way);
    }

    pub(crate) fn victim(&mut self, set: usize, rng: &mut DetRng) -> usize {
        let policy = self.policy;
        policy.victim(self.set_mut(set), rng)
    }
}

/// Moves `way` to the back of a recency/fill stack: rotating the tail
/// from its position equals removing it and pushing it again.
fn promote(stack: &mut [u8], way: usize) {
    let pos = stack.iter().position(|&w| w as usize == way);
    debug_assert!(pos.is_some(), "way {way} tracked by the stack");
    if let Some(pos) = pos {
        stack[pos..].rotate_left(1);
    }
}

/// Flips the tree bits on `way`'s path so they point away from it.
fn plru_touch(tree: &mut [u8], ways: usize, way: usize) {
    let mut node = 0;
    let mut lo = 0;
    let mut size = ways.next_power_of_two();
    while size > 1 {
        let half = size / 2;
        let go_right = way >= lo + half;
        // Point the bit at the *other* half (the LRU side).
        tree[node] = u8::from(!go_right);
        node = 2 * node + if go_right { 2 } else { 1 };
        if go_right {
            lo += half;
        }
        size = half;
    }
}

/// The leaf the tree bits point at.
fn plru_follow(tree: &[u8], ways: usize) -> usize {
    let mut node = 0;
    let mut lo = 0;
    let mut size = ways.next_power_of_two();
    while size > 1 {
        let half = size / 2;
        let go_right = tree[node] != 0;
        node = 2 * node + if go_right { 2 } else { 1 };
        if go_right {
            lo += half;
        }
        size = half;
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetAssoc;
    use stashdir_common::BlockAddr;

    fn rng() -> DetRng {
        DetRng::seed_from(99)
    }

    /// One set of `ways` ways.
    fn one_set(kind: ReplKind, ways: usize) -> ReplState {
        ReplState::new(kind, 1, ways)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = one_set(ReplKind::Lru, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_hit(0, 0); // order now 1,2,3,0
        assert_eq!(p.victim(0, &mut rng()), 1);
        p.on_hit(0, 1);
        assert_eq!(p.victim(0, &mut rng()), 2);
    }

    #[test]
    fn lru_skips_invalid_ways() {
        // Ways 0 and 1 invalid, 2 and 3 valid: the array fills the
        // invalid ways without consulting the policy, then evicts way 2.
        let mut a: SetAssoc<u64> = SetAssoc::new(1, 4, ReplKind::Lru, 0);
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
    fn fifo_ignores_hits() {
        let mut p = one_set(ReplKind::Fifo, 3);
        for w in 0..3 {
            p.on_fill(0, w);
        }
        p.on_hit(0, 0);
        p.on_hit(0, 0);
        assert_eq!(p.victim(0, &mut rng()), 0, "hits do not refresh");
        p.on_fill(0, 0); // refill moves 0 to the back
        assert_eq!(p.victim(0, &mut rng()), 1);
    }

    #[test]
    fn random_only_picks_valid() {
        let mut p = one_set(ReplKind::Random, 8);
        let mut r = rng();
        let mut draws = rng();
        for _ in 0..100 {
            let v = p.victim(0, &mut r);
            assert!(v < 8);
            assert_eq!(v, draws.index(8), "one index draw per victim");
        }
        // Invalid ways are filled before any draw, so victims are always
        // resident blocks of the target set.
        let mut a: SetAssoc<()> = SetAssoc::new(2, 8, ReplKind::Random, 5);
        for b in 0..16 {
            a.insert(BlockAddr::new(b), ());
        }
        for b in 0..5 {
            a.remove(BlockAddr::new(2 * b));
        }
        for b in 100..105 {
            assert!(a.insert(BlockAddr::new(2 * b), ()).is_none());
        }
        for b in 200..300 {
            let (victim, ()) = a.insert(BlockAddr::new(2 * b), ()).unwrap();
            assert_eq!(a.set_index(victim), 0);
        }
        assert_eq!(a.occupancy(), 16);
    }

    #[test]
    fn nru_prefers_unreferenced_then_resets() {
        let mut p = one_set(ReplKind::Nru, 4);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_fill(0, 2);
        // way 3 never filled/referenced in NRU terms.
        assert_eq!(p.victim(0, &mut rng()), 3);
        p.on_hit(0, 3);
        // Now all referenced: reset happens and the first valid way wins.
        assert_eq!(p.victim(0, &mut rng()), 0);
        assert_eq!(p.bytes, [0; 4], "the reset clears every bit");
    }

    #[test]
    fn srrip_hits_protect_lines() {
        let mut p = one_set(ReplKind::Srrip, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_hit(0, 0); // rrpv(0)=0, rrpv(1)=2
        assert_eq!(p.victim(0, &mut rng()), 1);
    }

    #[test]
    fn srrip_ages_until_a_victim_exists() {
        let mut p = one_set(ReplKind::Srrip, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_hit(0, 0);
        p.on_hit(0, 1); // both rrpv 0; aging must terminate
        let v = p.victim(0, &mut rng());
        assert!(v < 2);
        assert_eq!(p.bytes, [RRPV_MAX, RRPV_MAX], "aged by three steps");
    }

    #[test]
    fn tree_plru_points_away_from_recent() {
        let mut p = one_set(ReplKind::TreePlru, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        // Most recent fill was way 3 (right subtree); victim must be on the
        // left subtree.
        let v = p.victim(0, &mut rng());
        assert!(v < 2, "victim {v} should be in the left half");
    }

    #[test]
    fn tree_plru_handles_non_power_of_two() {
        let mut p = one_set(ReplKind::TreePlru, 3);
        for w in 0..3 {
            p.on_fill(0, w);
        }
        for _ in 0..10 {
            let v = p.victim(0, &mut rng());
            assert!(v < 3);
            p.on_fill(0, v);
        }
    }

    #[test]
    fn every_policy_round_trips_under_churn() {
        let mut r = rng();
        for kind in [
            ReplKind::Lru,
            ReplKind::Fifo,
            ReplKind::Random,
            ReplKind::Nru,
            ReplKind::Srrip,
            ReplKind::TreePlru,
        ] {
            let mut p = one_set(kind, 8);
            for i in 0..1000 {
                match i % 3 {
                    0 => p.on_fill(0, i % 8),
                    1 => p.on_hit(0, (i * 5) % 8),
                    _ => {
                        let v = p.victim(0, &mut r);
                        assert!(v < 8, "{kind}: victim out of range");
                        p.on_fill(0, v);
                    }
                }
            }
        }
    }

    #[test]
    fn sets_keep_separate_state() {
        for kind in [
            ReplKind::Lru,
            ReplKind::Fifo,
            ReplKind::Nru,
            ReplKind::Srrip,
            ReplKind::TreePlru,
        ] {
            let mut p = ReplState::new(kind, 3, 4);
            let mut alone = one_set(kind, 4);
            for w in [2, 0, 3, 1, 2] {
                p.on_fill(1, w);
                alone.on_fill(0, w);
                p.on_fill(0, 3 - w);
                p.on_hit(2, w);
            }
            p.on_hit(1, 3);
            alone.on_hit(0, 3);
            assert_eq!(
                p.victim(1, &mut rng()),
                alone.victim(0, &mut rng()),
                "{kind}: neighbouring sets leak into set 1"
            );
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ReplKind::Lru.to_string(), "lru");
        assert_eq!(ReplKind::TreePlru.to_string(), "tree-plru");
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = one_set(ReplKind::Lru, 0);
    }

    #[test]
    #[should_panic(expected = "at most 256 ways")]
    fn ways_beyond_a_byte_panic() {
        let _ = one_set(ReplKind::Lru, 257);
    }
}
