//! Property tests of the set-associative array against a reference
//! model: bounded associativity is the only way blocks may disappear,
//! and the LRU policy's stack property holds.

use proptest::prelude::*;
use stashdir_common::BlockAddr;
use stashdir_mem::SetAssoc;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Access(u64), // insert if absent (touch if present)
    Remove(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        4 => (0u64..64).prop_map(Op::Access),
        1 => (0u64..64).prop_map(Op::Remove),
    ];
    prop::collection::vec(op, 0..300)
}

proptest! {
    /// Under any access/remove sequence:
    /// * a block disappears only by removal or by an eviction from its
    ///   own set,
    /// * per-set occupancy never exceeds associativity,
    /// * the array's contents equal the reference model's, and every
    ///   resident block's payload is the one inserted with it.
    #[test]
    fn set_assoc_accounts_for_every_block(
        ops in arb_ops(),
        sets in prop::sample::select(vec![1usize, 2, 4]),
        ways in 1usize..4,
    ) {
        let mut array: SetAssoc<u64> = SetAssoc::new(sets, ways);
        // Block -> payload; each insert gets a fresh payload, so a payload
        // left behind by an earlier fill of the same way shows up.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (payload, op) in (0u64..).zip(ops) {
            match op {
                Op::Access(b) => {
                    let block = BlockAddr::new(b);
                    if array.contains(block) {
                        array.touch(block);
                    } else if let Some((victim, _)) = array.insert(block, payload) {
                        prop_assert_eq!(
                            array.set_index(victim), array.set_index(block),
                            "victims come from the target set"
                        );
                        prop_assert!(model.remove(&victim.get()).is_some(), "evicted unknown block");
                        model.insert(b, payload);
                    } else {
                        model.insert(b, payload);
                    }
                }
                Op::Remove(b) => {
                    let got = array.remove(BlockAddr::new(b));
                    prop_assert_eq!(got, model.remove(&b));
                }
            }
            prop_assert_eq!(array.occupancy(), model.len());
            // Per-set occupancy bound.
            let mut per_set: BTreeMap<usize, usize> = BTreeMap::new();
            for (block, payload) in array.iter() {
                *per_set.entry(array.set_index(block)).or_default() += 1;
                prop_assert_eq!(model.get(&block.get()), Some(payload));
            }
            for (&b, payload) in &model {
                prop_assert_eq!(array.get(BlockAddr::new(b)), Some(payload));
            }
            for (&set, &count) in &per_set {
                prop_assert!(count <= ways, "set {set} holds {count} > {ways}");
            }
        }
    }

    /// The LRU stack property: after touching a block, it survives the
    /// next `ways - 1` distinct insertions into its set.
    #[test]
    fn lru_protects_recently_used(ways in 2usize..6, salt in 0u64..100) {
        let mut array: SetAssoc<()> = SetAssoc::new(1, ways);
        for i in 0..ways as u64 {
            array.insert(BlockAddr::new(i), ());
        }
        let protected = BlockAddr::new(0);
        array.touch(protected);
        for i in 0..ways as u64 - 1 {
            array.insert(BlockAddr::new(100 + salt + i), ());
            prop_assert!(
                array.contains(protected),
                "touched block evicted after {i} fills"
            );
        }
    }

    /// `victim_for` is a faithful prediction: the immediately following
    /// insert evicts exactly that block.
    #[test]
    fn victim_prediction_is_exact(
        blocks in prop::collection::hash_set(0u64..32, 4..8),
    ) {
        let mut array: SetAssoc<()> = SetAssoc::new(1, 4);
        for &b in blocks.iter().take(4) {
            array.insert(BlockAddr::new(b), ());
        }
        let newcomer = BlockAddr::new(1000);
        if let Some(victim) = array.victim_for(newcomer) {
            let evicted = array.insert(newcomer, ()).map(|(b, _)| b);
            prop_assert_eq!(evicted, Some(victim));
        }
    }
}
