//! One table over every registered directory backend. Each is built
//! through `DirConfig::build` on a one-set slice (cuckoo: one slot per
//! table) and checked against the conflict rule, counters, key scheme
//! and storage formula its organization promises.

use stashdir_common::{BlockAddr, CoreId, SharerSet};
use stashdir_core::{
    backends, CostParams, DirConfig, DirectoryModel, EvictionAction, SharerFormat,
};
use stashdir_protocol::DirView;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cores every view is sized for.
const CORES: u16 = 16;

/// What a conflict does to a victim tracked by a single core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrivateVictim {
    /// The organization is unbounded: no install ever displaces.
    NeverEvicts,
    /// The holder is invalidated, and the victim is counted as one a
    /// stash directory would have kept.
    Invalidated,
    /// The entry is dropped and the copy kept (the stash bit is set).
    Silent,
}

struct Case {
    config: DirConfig,
    private_victim: PrivateVictim,
    /// Holders an invalidating eviction of a three-sharer entry
    /// destroys: three, or every core once a limited-pointer entry has
    /// overflowed.
    shared_victim_copies: u64,
    global_keys: bool,
    storage_bits: fn(&CostParams) -> u64,
}

/// Bits of one tagged entry with a full sharer vector: tag, two state
/// bits, one bit per core.
fn entry(p: &CostParams) -> u64 {
    u64::from(p.tag_bits) + 2 + u64::from(p.cores)
}

fn table() -> Vec<Case> {
    use PrivateVictim::*;
    vec![
        Case {
            config: DirConfig::full_map(),
            private_victim: NeverEvicts,
            shared_victim_copies: 0,
            global_keys: false,
            storage_bits: |p| p.llc_lines * (2 + u64::from(p.cores)),
        },
        Case {
            config: DirConfig::sparse(1, 2),
            private_victim: Invalidated,
            shared_victim_copies: 3,
            global_keys: false,
            storage_bits: |p| 2 * entry(p),
        },
        Case {
            config: DirConfig::stash(1, 2),
            private_victim: Silent,
            shared_victim_copies: 3,
            global_keys: false,
            storage_bits: |p| 2 * entry(p) + p.llc_lines,
        },
        Case {
            config: DirConfig::stash(1, 2).with_sharer_format(SharerFormat::LimitedPtr { k: 2 }),
            private_victim: Silent,
            shared_victim_copies: u64::from(CORES),
            global_keys: false,
            // Two 4-bit pointers and an overflow flag replace the
            // 16-bit sharer vector.
            storage_bits: |p| 2 * (u64::from(p.tag_bits) + 2 + 2 * 4 + 1) + p.llc_lines,
        },
        Case {
            config: DirConfig::cuckoo(4),
            private_victim: Invalidated,
            shared_victim_copies: 3,
            global_keys: false,
            storage_bits: |p| 4 * entry(p),
        },
        Case {
            config: DirConfig::dls(),
            private_victim: NeverEvicts,
            shared_victim_copies: 0,
            global_keys: false,
            storage_bits: |_| 0,
        },
        Case {
            config: DirConfig::opaque(1, 2),
            private_victim: Invalidated,
            shared_victim_copies: 3,
            global_keys: true,
            storage_bits: |p| 2 * entry(p),
        },
    ]
}

fn private(core: u16) -> DirView {
    DirView::Exclusive(CoreId::new(core))
}

fn three_sharers(first: u16) -> DirView {
    let mut set = SharerSet::new(CORES);
    set.extend((first..first + 3).map(|c| CoreId::new(c % CORES)));
    DirView::Shared(set)
}

/// Installs `views` at blocks `first..` into a fresh `dir`; none evicts.
fn fill(name: &str, dir: &mut dyn DirectoryModel, first: u64, views: &[DirView]) {
    for (block, view) in (first..).zip(views) {
        let action = dir.install(BlockAddr::new(block), view.clone());
        assert_eq!(action, EvictionAction::None, "{name}: block {block} fit");
    }
}

/// Fills the slice with `views`, then installs one more block, which
/// conflicts in every bounded organization. Returns the directory and
/// what the conflicting install displaced.
fn conflict(
    case: &Case,
    views: impl Fn(u16) -> DirView,
) -> (Box<dyn DirectoryModel>, EvictionAction) {
    let name = case.config.backend_name();
    let mut dir = case.config.build(7);
    let ways = dir.capacity().min(64) as u16;
    let filled: Vec<DirView> = (0..ways).map(&views).collect();
    fill(name, &mut *dir, 0, &filled);
    let newcomer = BlockAddr::new(u64::from(ways));
    let action = dir.install(newcomer, private(CORES - 1));
    assert!(
        dir.lookup(newcomer).is_some(),
        "{name}: the newcomer is tracked"
    );
    if let EvictionAction::Silent { block, .. } | EvictionAction::Invalidate { block, .. } = &action
    {
        assert!(
            block.get() < u64::from(ways),
            "{name}: the victim was stored"
        );
        assert_eq!(dir.lookup(*block), None, "{name}: the victim is untracked");
    }
    let s = dir.stats();
    assert_eq!(s.lookups.get(), u64::from(ways) + 1, "{name}: lookups");
    assert_eq!(
        s.allocations.get(),
        u64::from(ways) + 1,
        "{name}: allocations"
    );
    assert_eq!(s.hits.get(), 0, "{name}: hits");
    (dir, action)
}

#[test]
fn every_registered_backend_keeps_its_organizations_promises() {
    let cases = table();
    let mut names: Vec<&str> = cases.iter().map(|c| c.config.backend_name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), cases.len(), "one case per backend");
    assert_eq!(
        cases.len(),
        backends().len(),
        "a case for every registered backend"
    );

    let params = CostParams {
        tag_bits: 20,
        cores: CORES,
        llc_lines: 1000,
    };
    for case in &cases {
        let name = case.config.backend_name();
        let dir = case.config.build(7);
        assert_eq!(dir.global_keys(), case.global_keys, "{name}: global keys");
        assert_eq!(
            dir.storage_bits(&params),
            (case.storage_bits)(&params),
            "{name}: storage bits"
        );
        assert_eq!(dir.occupancy(), 0, "{name}: starts empty");

        // A private victim: silent, invalidated or never displaced.
        let (dir, action) = conflict(case, private);
        let s = dir.stats();
        match case.private_victim {
            PrivateVictim::NeverEvicts => {
                assert_eq!(dir.capacity(), usize::MAX, "{name}: unbounded");
                assert_eq!(action, EvictionAction::None, "{name}: never evicts");
                assert_eq!(s.total_evictions(), 0, "{name}: no evictions");
                assert_eq!(dir.occupancy(), 65, "{name}: tracks every block");
            }
            PrivateVictim::Invalidated => {
                let EvictionAction::Invalidate { view, .. } = &action else {
                    panic!("{name}: expected an invalidation, got {action:?}");
                };
                assert!(view.is_private(), "{name}: the victim was private");
                assert_eq!(s.invalidating_evictions.get(), 1, "{name}");
                assert_eq!(s.copies_invalidated.get(), 1, "{name}");
                assert_eq!(s.private_victims_invalidated.get(), 1, "{name}");
                assert_eq!(s.silent_evictions.get(), 0, "{name}");
            }
            PrivateVictim::Silent => {
                let EvictionAction::Silent { block, owner } = action else {
                    panic!("{name}: expected a silent drop, got {action:?}");
                };
                assert_eq!(owner, CoreId::new(block.get() as u16), "{name}: the owner");
                assert_eq!(s.silent_evictions.get(), 1, "{name}");
                assert_eq!(s.invalidating_evictions.get(), 0, "{name}");
                assert_eq!(s.copies_invalidated.get(), 0, "{name}");
                assert_eq!(s.private_victims_invalidated.get(), 0, "{name}");
            }
        }

        // A shared victim is invalidated by every bounded organization;
        // an overflowed limited-pointer entry names every core.
        let (dir, action) = conflict(case, three_sharers);
        let s = dir.stats();
        if case.private_victim == PrivateVictim::NeverEvicts {
            assert_eq!(action, EvictionAction::None, "{name}: never evicts");
        } else {
            let EvictionAction::Invalidate { view, .. } = &action else {
                panic!("{name}: expected an invalidation, got {action:?}");
            };
            assert_eq!(
                view.holder_count() as u64,
                case.shared_victim_copies,
                "{name}: holders of the shared victim"
            );
            assert_eq!(s.invalidating_evictions.get(), 1, "{name}");
            assert_eq!(
                s.copies_invalidated.get(),
                case.shared_victim_copies,
                "{name}"
            );
            assert_eq!(s.private_victims_invalidated.get(), 0, "{name}");
            assert_eq!(s.silent_evictions.get(), 0, "{name}");
        }

        // Updating a tracked block never evicts, even in a full slice,
        // and remove untracks (a second remove is a no-op).
        let mut dir = case.config.build(7);
        let ways = dir.capacity().min(64) as u64;
        let filled: Vec<DirView> = (0..ways as u16).map(private).collect();
        fill(name, &mut *dir, 0, &filled);
        let block = BlockAddr::new(0);
        assert_eq!(
            dir.install(block, three_sharers(4)),
            EvictionAction::None,
            "{name}"
        );
        assert_eq!(dir.stats().hits.get(), 1, "{name}: an update hits");
        assert_eq!(
            dir.occupancy() as u64,
            ways,
            "{name}: occupancy after update"
        );
        dir.remove(block);
        dir.remove(block);
        assert_eq!(dir.lookup(block), None, "{name}: removed");
        assert_eq!(
            dir.occupancy() as u64,
            ways - 1,
            "{name}: occupancy after remove"
        );
        assert_eq!(
            dir.entries().len() as u64,
            ways - 1,
            "{name}: entries after remove"
        );

        // Untracking goes through remove, never install.
        let mut dir = case.config.build(7);
        let untracked = catch_unwind(AssertUnwindSafe(|| {
            dir.install(BlockAddr::new(0), DirView::Untracked)
        }));
        assert!(
            untracked.is_err(),
            "{name}: installing Untracked must panic"
        );
    }
}
