//! Property tests: `SharerSet` against a `BTreeSet` reference model, RNG
//! bounds, histogram accounting.

use proptest::prelude::*;
use stashdir_common::{CoreId, DetRng, Histogram, SharerSet};
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum SetOp {
    Insert(u16),
    Remove(u16),
    Clear,
}

fn arb_ops(capacity: u16) -> impl Strategy<Value = Vec<SetOp>> {
    let op = prop_oneof![
        (0..capacity).prop_map(SetOp::Insert),
        (0..capacity).prop_map(SetOp::Remove),
        Just(SetOp::Clear),
    ];
    prop::collection::vec(op, 0..200)
}

proptest! {
    /// SharerSet behaves exactly like a BTreeSet<u16> under any op
    /// sequence, for capacities spanning one to several words.
    #[test]
    fn sharer_set_matches_hashset(
        capacity in prop::sample::select(vec![1u16, 7, 64, 65, 130]),
        ops in arb_ops(130),
    ) {
        let mut set = SharerSet::new(capacity);
        let mut model: BTreeSet<u16> = BTreeSet::new();
        for op in ops {
            match op {
                SetOp::Insert(c) if c < capacity => {
                    let fresh = set.insert(CoreId::new(c));
                    prop_assert_eq!(fresh, model.insert(c));
                }
                SetOp::Remove(c) if c < capacity => {
                    let present = set.remove(CoreId::new(c));
                    prop_assert_eq!(present, model.remove(&c));
                }
                SetOp::Clear => {
                    set.clear();
                    model.clear();
                }
                _ => {}
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            let mine: Vec<u16> = set.iter().map(CoreId::get).collect();
            let mut theirs: Vec<u16> = model.iter().copied().collect();
            theirs.sort_unstable();
            prop_assert_eq!(&mine, &theirs, "iteration is sorted and complete");
            let sole = set.sole_member().map(CoreId::get);
            let model_sole = (model.len() == 1).then(|| *model.iter().next().unwrap());
            prop_assert_eq!(sole, model_sole);
        }
    }

    /// `DetRng::below` stays in bounds and is seed-deterministic.
    #[test]
    fn rng_below_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = DetRng::seed_from(seed);
        let mut b = DetRng::seed_from(seed);
        for _ in 0..50 {
            let x = a.below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.below(bound));
        }
    }

    /// Histogram count/sum/min/max agree with direct computation, and
    /// merging partitions is equivalent to recording everything in one.
    #[test]
    fn histogram_matches_reference(values in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 { left.record(v) } else { right.record(v) }
        }
        prop_assert_eq!(whole.count(), values.len() as u64);
        prop_assert_eq!(whole.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(whole.min(), values.iter().min().copied());
        prop_assert_eq!(whole.max(), values.iter().max().copied());
        left.merge(&right);
        prop_assert_eq!(left, whole);
    }
}
