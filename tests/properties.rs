//! Property-based tests: random traces and random directory-op sequences
//! must never violate an invariant.

use proptest::prelude::*;
use stashdir::common::{BlockAddr, CoreId, SharerSet};
use stashdir::mem::CacheConfig;
use stashdir::protocol::DirView;
use stashdir::{
    CoverageRatio, DirConfig, DirReplPolicy, DirSpec, DirectoryModel, EvictionAction, Machine,
    MemOp, SystemConfig,
};

/// A 4-core machine tiny enough that random 100-op traces hit every
/// conflict path.
fn tiny(dir: DirSpec, notify: bool, seed: u64) -> SystemConfig {
    SystemConfig {
        cores: 4,
        l1: CacheConfig::new(256, 2, 64, 1),
        l2: CacheConfig::new(512, 2, 64, 4),
        llc_bank: CacheConfig::new(1024, 2, 64, 8),
        dir,
        notify_clean_evictions: notify,
        seed,
        ..SystemConfig::default()
    }
    .with_check_interval(1)
}

fn arb_traces() -> impl Strategy<Value = Vec<Vec<MemOp>>> {
    let op = (0u64..40, prop::bool::ANY, 0u32..4).prop_map(|(block, write, think)| {
        let op = if write {
            MemOp::write(BlockAddr::new(block))
        } else {
            MemOp::read(BlockAddr::new(block))
        };
        op.with_think(think)
    });
    prop::collection::vec(prop::collection::vec(op, 0..120), 4)
}

fn arb_dir() -> impl Strategy<Value = DirSpec> {
    prop_oneof![
        Just(DirSpec::FullMap),
        Just(DirSpec::Sparse {
            coverage: CoverageRatio::new(1, 8),
            assoc: 2,
            repl: DirReplPolicy::Lru,
        }),
        Just(DirSpec::Stash {
            coverage: CoverageRatio::new(1, 8),
            assoc: 2,
            repl: DirReplPolicy::PrivateFirstLru,
        }),
        Just(DirSpec::Stash {
            coverage: CoverageRatio::new(1, 16),
            assoc: 1,
            repl: DirReplPolicy::Lru,
        }),
        Just(DirSpec::Cuckoo {
            coverage: CoverageRatio::new(1, 8),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The machine-wide soundness property: any trace, any organization,
    /// either eviction-notification mode — the invariant checker runs
    /// after every transaction and must stay silent, and every op must
    /// retire.
    #[test]
    fn any_trace_runs_coherently(
        traces in arb_traces(),
        dir in arb_dir(),
        notify in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        let expected: u64 = traces.iter().map(|t| t.len() as u64).sum();
        let report = Machine::new(tiny(dir, notify, seed)).run(traces);
        prop_assert!(report.violations.is_empty(), "{:?}", &report.violations[..report.violations.len().min(3)]);
        prop_assert_eq!(report.completed_ops, expected);
    }

    /// Determinism: identical inputs give identical statistics.
    #[test]
    fn runs_are_deterministic(
        traces in arb_traces(),
        seed in 0u64..100,
    ) {
        let dir = DirSpec::stash(CoverageRatio::new(1, 8));
        let a = Machine::new(tiny(dir, true, seed)).run(traces.clone());
        let b = Machine::new(tiny(dir, true, seed)).run(traces);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.sink, b.sink);
    }
}

/// Reference-model ops for the directory structures.
#[derive(Debug, Clone)]
enum DirOp {
    Install(u64, u16),
    InstallShared(u64, u16, u16),
    Remove(u64),
}

fn arb_dir_ops() -> impl Strategy<Value = Vec<DirOp>> {
    let op = prop_oneof![
        (0u64..64, 0u16..8).prop_map(|(b, c)| DirOp::Install(b, c)),
        (0u64..64, 0u16..8, 0u16..8).prop_map(|(b, c, d)| DirOp::InstallShared(b, c, d)),
        (0u64..64).prop_map(DirOp::Remove),
    ];
    prop::collection::vec(op, 0..200)
}

fn view_excl(core: u16) -> DirView {
    DirView::Exclusive(CoreId::new(core))
}

fn view_shared(a: u16, b: u16) -> DirView {
    let mut s = SharerSet::new(8);
    s.insert(CoreId::new(a));
    s.insert(CoreId::new(b));
    DirView::Shared(s)
}

fn apply(dir: &mut dyn DirectoryModel, ops: &[DirOp]) -> Vec<EvictionAction> {
    ops.iter()
        .map(|op| match op {
            DirOp::Install(b, c) => dir.install(BlockAddr::new(*b), view_excl(*c)),
            DirOp::InstallShared(b, c, d) => dir.install(BlockAddr::new(*b), view_shared(*c, *d)),
            DirOp::Remove(b) => {
                dir.remove(BlockAddr::new(*b));
                EvictionAction::None
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Structural properties every bounded directory organization must
    /// keep under arbitrary op sequences: capacity respected, no entry
    /// lost without an eviction action, silent evictions only for
    /// private views.
    #[test]
    fn directory_structures_account_for_every_entry(
        ops in arb_dir_ops(),
        which in 0usize..3,
    ) {
        let mut dir: Box<dyn DirectoryModel> = match which {
            0 => DirConfig::sparse(8, 2).build(1),
            1 => DirConfig::stash(8, 2).build(1),
            _ => DirConfig::cuckoo(16).build(1),
        };
        // Reference model: which blocks *should* be tracked.
        let mut tracked = std::collections::HashSet::new();
        for (op, action) in ops.iter().zip(apply(dir.as_mut(), &ops)) {
            match op {
                DirOp::Install(b, _) | DirOp::InstallShared(b, _, _) => {
                    tracked.insert(*b);
                }
                DirOp::Remove(b) => {
                    tracked.remove(b);
                }
            }
            match action {
                EvictionAction::None => {}
                EvictionAction::Silent { block, .. } => {
                    prop_assert!(tracked.remove(&block.get()), "silent-evicted unknown block");
                }
                EvictionAction::Invalidate { block, view } => {
                    prop_assert!(tracked.remove(&block.get()), "evicted unknown block");
                    prop_assert!(view != DirView::Untracked);
                }
            }
            prop_assert!(dir.occupancy() <= dir.capacity());
        }
        // Exactly the reference set is tracked.
        let entries: std::collections::HashSet<u64> =
            dir.entries().iter().map(|(b, _)| b.get()).collect();
        prop_assert_eq!(entries, tracked);
    }

    /// The stash directory's defining property: it never returns an
    /// invalidating eviction whose victim view is private.
    #[test]
    fn stash_never_invalidates_private_victims(ops in arb_dir_ops()) {
        let mut dir = DirConfig::stash(4, 2).build(3);
        for action in apply(dir.as_mut(), &ops) {
            if let EvictionAction::Invalidate { view, .. } = action {
                prop_assert!(!view.is_private(), "stash must hide private victims");
            }
        }
    }

    /// Sparse never evicts silently.
    #[test]
    fn sparse_never_evicts_silently(ops in arb_dir_ops()) {
        let mut dir = DirConfig::sparse(4, 2).build(3);
        for action in apply(dir.as_mut(), &ops) {
            let silent = matches!(action, EvictionAction::Silent { .. });
            prop_assert!(!silent, "sparse evicted silently");
        }
    }
}
