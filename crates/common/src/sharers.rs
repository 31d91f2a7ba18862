//! Compact sharer sets: which cores hold a copy of a block.
//!
//! Directory entries carry a full-map bit vector of sharers. A set is 16
//! bytes, so a directory view holding one fits 16 bytes too. Up to 64
//! cores the vector is one inline `u64` beside its capacity, so building
//! or cloning a set never touches the heap; larger meshes box their
//! capacity and words together, sized at construction.

use crate::ids::CoreId;
use std::fmt;

/// The words and capacity of a [`SharerSet`]: one inline word up to 64
/// cores, a box beyond.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline { bits: u64, capacity: u8 },
    Wide(Box<Wide>),
}

/// A set of more than 64 cores: its capacity and `capacity.div_ceil(64)`
/// words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Wide {
    capacity: u16,
    words: Box<[u64]>,
}

/// A set of cores, implemented as a full-map bit vector.
///
/// # Examples
///
/// ```
/// use stashdir_common::{CoreId, SharerSet};
/// let mut s = SharerSet::new(16);
/// s.insert(CoreId::new(3));
/// s.insert(CoreId::new(7));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(CoreId::new(3)));
/// assert_eq!(s.sole_member(), None); // two members, not private
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SharerSet(Repr);

impl SharerSet {
    /// Creates an empty set able to hold cores `0..capacity`. Allocates
    /// only when `capacity` exceeds 64.
    pub fn new(capacity: u16) -> Self {
        SharerSet(if capacity <= 64 {
            Repr::Inline {
                bits: 0,
                capacity: capacity as u8,
            }
        } else {
            Repr::Wide(Box::new(Wide {
                capacity,
                words: vec![0; (capacity as usize).div_ceil(64)].into_boxed_slice(),
            }))
        })
    }

    /// Creates a set holding exactly one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside `0..capacity`.
    pub fn singleton(capacity: u16, core: CoreId) -> Self {
        let mut set = SharerSet::new(capacity);
        set.insert(core);
        set
    }

    /// The maximum number of distinct cores the set can hold.
    pub fn capacity(&self) -> u16 {
        match &self.0 {
            Repr::Inline { capacity, .. } => u16::from(*capacity),
            Repr::Wide(wide) => wide.capacity,
        }
    }

    fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { bits, .. } => std::slice::from_ref(bits),
            Repr::Wide(wide) => &wide.words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Inline { bits, .. } => std::slice::from_mut(bits),
            Repr::Wide(wide) => &mut wide.words,
        }
    }

    /// The word holding `core`'s bit, with the bit's mask.
    fn slot(&self, core: CoreId) -> (usize, u64) {
        let capacity = self.capacity();
        assert!(
            core.get() < capacity,
            "core {core} out of range (capacity {capacity})"
        );
        (core.index() / 64, 1u64 << (core.index() % 64))
    }

    /// Adds a core. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside `0..capacity`.
    pub fn insert(&mut self, core: CoreId) -> bool {
        let (w, bit) = self.slot(core);
        let word = &mut self.words_mut()[w];
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes a core. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside `0..capacity`.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let (w, bit) = self.slot(core);
        let word = &mut self.words_mut()[w];
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Tests membership.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside `0..capacity`.
    pub fn contains(&self, core: CoreId) -> bool {
        let (w, bit) = self.slot(core);
        self.words()[w] & bit != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no core is a member.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// If exactly one core is a member, returns it. This is the *private
    /// block* test at the heart of the stash directory: entries whose
    /// sharer set has a sole member may be evicted silently.
    pub fn sole_member(&self) -> Option<CoreId> {
        if self.len() != 1 {
            return None;
        }
        self.iter().next()
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words_mut().iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates members in ascending core order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words(),
            next: 0,
        }
    }

    /// Storage cost of the full-map vector in bits (one bit per trackable
    /// core), used by the directory area model.
    pub fn storage_bits(&self) -> u64 {
        u64::from(self.capacity())
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, core) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", core.get())?;
        }
        write!(f, "}}")
    }
}

impl<'a> IntoIterator for &'a SharerSet {
    type Item = CoreId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<CoreId> for SharerSet {
    fn extend<T: IntoIterator<Item = CoreId>>(&mut self, iter: T) {
        for core in iter {
            self.insert(core);
        }
    }
}

/// Iterator over the members of a [`SharerSet`] in ascending order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    next: u32,
}

impl Iterator for Iter<'_> {
    type Item = CoreId;

    fn next(&mut self) -> Option<CoreId> {
        while let Some(&word) = self.words.get(self.next as usize / 64) {
            let rest = word >> (self.next % 64);
            if rest == 0 {
                self.next = (self.next / 64 + 1) * 64;
                continue;
            }
            let found = self.next + rest.trailing_zeros();
            self.next = found + 1;
            return Some(CoreId::new(found as u16));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::new(16);
        assert!(s.insert(CoreId::new(5)));
        assert!(!s.insert(CoreId::new(5)), "double insert is not fresh");
        assert!(s.contains(CoreId::new(5)));
        assert!(s.remove(CoreId::new(5)));
        assert!(!s.remove(CoreId::new(5)), "double remove not present");
        assert!(s.is_empty());
    }

    #[test]
    fn sole_member_detects_private_blocks() {
        let mut s = SharerSet::new(16);
        assert_eq!(s.sole_member(), None);
        s.insert(CoreId::new(9));
        assert_eq!(s.sole_member(), Some(CoreId::new(9)));
        s.insert(CoreId::new(1));
        assert_eq!(s.sole_member(), None);
    }

    #[test]
    fn iter_ascending_across_word_boundary() {
        let mut s = SharerSet::new(130);
        for c in [0u16, 63, 64, 65, 127, 128, 129] {
            s.insert(CoreId::new(c));
        }
        let got: Vec<u16> = s.iter().map(CoreId::get).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 127, 128, 129]);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn singleton_and_clear() {
        let mut s = SharerSet::singleton(8, CoreId::new(2));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn extend_collects_cores() {
        let mut s = SharerSet::new(8);
        s.extend([CoreId::new(1), CoreId::new(3)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_lists_members() {
        let mut s = SharerSet::new(8);
        s.insert(CoreId::new(1));
        s.insert(CoreId::new(4));
        assert_eq!(s.to_string(), "{1,4}");
        assert_eq!(SharerSet::new(8).to_string(), "{}");
    }

    #[test]
    fn inline_and_boxed_sets_agree() {
        for capacity in [64u16, 65, 1024] {
            let mut s = SharerSet::new(capacity);
            s.extend([CoreId::new(0), CoreId::new(63)]);
            let copy = s.clone();
            assert_eq!(copy, s);
            assert_eq!(copy.iter().map(CoreId::get).collect::<Vec<_>>(), [0, 63]);
            assert_eq!(copy.contains(CoreId::new(capacity - 1)), capacity == 64);
        }
    }

    #[test]
    fn storage_bits_equals_capacity() {
        assert_eq!(SharerSet::new(48).storage_bits(), 48);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        SharerSet::new(4).contains(CoreId::new(4));
    }
}
