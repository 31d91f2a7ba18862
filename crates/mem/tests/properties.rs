//! Property tests of the set-associative array against a reference
//! model: bounded associativity is the only way blocks may disappear,
//! and the LRU policy's stack property holds.

use proptest::prelude::*;
use stashdir_common::BlockAddr;
use stashdir_mem::{ReplKind, SetAssoc};
use std::collections::{HashMap, HashSet};

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
    /// Under any access/remove sequence and any policy:
    /// * a block disappears only by removal or by an eviction from its
    ///   own set,
    /// * per-set occupancy never exceeds associativity,
    /// * the array's contents equal the reference model's.
    #[test]
    fn set_assoc_accounts_for_every_block(
        ops in arb_ops(),
        repl in prop::sample::select(vec![
            ReplKind::Lru,
            ReplKind::Fifo,
            ReplKind::Random,
            ReplKind::Nru,
            ReplKind::Srrip,
            ReplKind::TreePlru,
        ]),
        sets in prop::sample::select(vec![1usize, 2, 4]),
        ways in 1usize..4,
    ) {
        let mut array: SetAssoc<u64> = SetAssoc::new(sets, ways, repl, 5);
        let mut model: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                Op::Access(b) => {
                    let block = BlockAddr::new(b);
                    if array.contains(block) {
                        array.touch(block);
                    } else if let Some((victim, _)) = array.insert(block, b) {
                        prop_assert_eq!(
                            array.set_index(victim), array.set_index(block),
                            "victims come from the target set"
                        );
                        prop_assert!(model.remove(&victim.get()), "evicted unknown block");
                        model.insert(b);
                    } else {
                        model.insert(b);
                    }
                }
                Op::Remove(b) => {
                    let got = array.remove(BlockAddr::new(b)).is_some();
                    prop_assert_eq!(got, model.remove(&b));
                }
            }
            prop_assert_eq!(array.occupancy(), model.len());
            // Per-set occupancy bound.
            let mut per_set: HashMap<usize, usize> = HashMap::new();
            for (block, _) in array.iter() {
                *per_set.entry(array.set_index(block)).or_default() += 1;
                prop_assert!(model.contains(&block.get()));
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
        let mut array: SetAssoc<()> = SetAssoc::new(1, ways, ReplKind::Lru, salt);
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

    /// `victim_for` is a faithful prediction: for deterministic policies
    /// the immediately following insert evicts exactly that block.
    #[test]
    fn victim_prediction_is_exact(
        blocks in prop::collection::hash_set(0u64..32, 4..8),
        repl in prop::sample::select(vec![
            ReplKind::Lru,
            ReplKind::Fifo,
            ReplKind::Nru,
            ReplKind::Srrip,
            ReplKind::TreePlru,
        ]),
    ) {
        let mut array: SetAssoc<()> = SetAssoc::new(1, 4, repl, 0);
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
