//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the workspace (random replacement, workload
//! generation, fuzz harnesses) draws from [`DetRng`], a small, fast,
//! seedable xoshiro256**-based generator. Simulation results are therefore
//! exactly reproducible from a seed, which the experiment harness relies on.

/// A deterministic random number generator (xoshiro256**).
///
/// Not cryptographically secure; statistically solid and extremely fast,
/// which is what a simulator needs.
///
/// # Examples
///
/// ```
/// use stashdir_common::DetRng;
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed, expanded with SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        // xoshiro must not start from the all-zero state; SplitMix64 cannot
        // produce four zeros from any seed, but guard anyway.
        let s = if s == [0; 4] { [1, 2, 3, 4] } else { s };
        DetRng { s }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)` using Lemire's
    /// multiply-shift reduction (slightly biased for astronomically large
    /// bounds, negligible here).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Forks an independent generator, advancing this one.
    ///
    /// Used to give each simulated core its own stream so adding a core
    /// does not perturb the streams of the others.
    pub fn fork(&mut self) -> DetRng {
        DetRng::seed_from(self.next_u64())
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::seed_from(3);
        for bound in [1u64, 2, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_range() {
        let mut rng = DetRng::seed_from(4);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed_from(5);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = DetRng::seed_from(6);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = DetRng::seed_from(8);
        for _ in 0..1000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = DetRng::seed_from(9);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn pick_returns_member() {
        let mut rng = DetRng::seed_from(10);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.pick(&items)));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        DetRng::seed_from(0).below(0);
    }
}
