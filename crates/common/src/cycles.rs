//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in core clock cycles.
///
/// `Cycle` supports the arithmetic a discrete-event simulator needs:
/// adding a `u64` delay to a timestamp, and subtracting two timestamps to
/// get a `u64` duration. Timestamps cannot be added to each other, which
/// rules out a whole class of scheduling bugs.
///
/// # Examples
///
/// ```
/// use stashdir_common::Cycle;
/// let t = Cycle::ZERO + 10;
/// assert_eq!(t - Cycle::ZERO, 10);
/// assert_eq!((t + 5).get(), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero: the start of simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// A timestamp later than any reachable simulation time; useful as a
    /// "never" sentinel for disabled periodic work.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a timestamp from a raw cycle count.
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the later of two timestamps.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub const fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    fn add(self, delay: u64) -> Cycle {
        Cycle(self.0 + delay)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, delay: u64) {
        self.0 += delay;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Duration between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl Sum<u64> for Cycle {
    fn sum<I: Iterator<Item = u64>>(iter: I) -> Self {
        Cycle(iter.sum())
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sub_are_inverse() {
        let t = Cycle::new(100);
        assert_eq!((t + 42) - t, 42);
    }

    #[test]
    fn max_picks_later() {
        assert_eq!(Cycle::new(3).max(Cycle::new(9)), Cycle::new(9));
        assert_eq!(Cycle::new(9).max(Cycle::new(3)), Cycle::new(9));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        assert_eq!(Cycle::new(5).saturating_since(Cycle::new(9)), 0);
        assert_eq!(Cycle::new(9).saturating_since(Cycle::new(5)), 4);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = Cycle::ZERO;
        t += 7;
        assert_eq!(t.get(), 7);
    }

    #[test]
    fn display_has_unit_suffix() {
        assert_eq!(Cycle::new(12).to_string(), "12cyc");
    }
}
