//! Property tests for the machine-wide invariants in
//! `stashdir_sim::checker`.
//!
//! The unit tests in `checker.rs` corrupt a machine by hand and confirm
//! each invariant *fires*; these tests attack from the other side: no
//! sequence of legal operations — any trace mix, any directory
//! organization, silent or notifying clean evictions, with the checker
//! running periodically *and* at end of run — may ever produce a
//! violation. Alongside cleanliness they pin down op conservation,
//! bit-for-bit determinism, and the timeline-sampling gate.

use proptest::prelude::*;
use stashdir_common::{BlockAddr, MemOp};
use stashdir_mem::CacheConfig;
use stashdir_sim::{CoverageRatio, DirSpec, Machine, SimReport, SystemConfig};

/// Distinct blocks the traces touch: three times the 8-block private L2
/// below, so replacements, discovery and directory evictions all trigger.
const BLOCKS: u64 = 24;
const CORES: usize = 4;

/// A deliberately tiny 4-core machine (8-block L2, 16-block LLC bank) so
/// short random traces still exercise every eviction path.
fn small_config(dir: DirSpec) -> SystemConfig {
    SystemConfig {
        cores: CORES as u16,
        l1: CacheConfig::new(256, 2, 64, 1),
        l2: CacheConfig::new(512, 2, 64, 4),
        llc_bank: CacheConfig::new(1024, 2, 64, 8),
        dir,
        ..SystemConfig::default()
    }
}

/// Every directory organization, with coverage pressure on the bounded
/// ones so entry eviction (and stash discovery) actually happens.
fn dirs() -> Vec<DirSpec> {
    vec![
        DirSpec::FullMap,
        DirSpec::sparse(CoverageRatio::new(1, 2)),
        DirSpec::sparse(CoverageRatio::new(1, 8)),
        DirSpec::stash(CoverageRatio::new(1, 2)),
        DirSpec::stash(CoverageRatio::new(1, 8)),
        DirSpec::Cuckoo {
            coverage: CoverageRatio::new(1, 2),
        },
        DirSpec::limited_ptr(CoverageRatio::new(1, 2), 1),
        DirSpec::Dls,
        DirSpec::opaque(CoverageRatio::new(1, 2)),
    ]
}

fn any_dir() -> impl Strategy<Value = DirSpec> {
    prop::sample::select(dirs())
}

/// The list above covers exactly the registered backends, so a new
/// backend fails here until the property tests run it too.
#[test]
fn dirs_cover_every_registered_backend() {
    let mut covered: Vec<&str> = dirs().iter().map(DirSpec::name).collect();
    covered.sort_unstable();
    covered.dedup();
    let mut registered = stashdir_core::backends().to_vec();
    registered.sort_unstable();
    assert_eq!(covered, registered);
}

/// One core's trace: reads and writes over a small shared block space,
/// with occasional think time so cores drift out of lockstep.
fn trace() -> impl Strategy<Value = Vec<MemOp>> {
    prop::collection::vec(
        (0u64..BLOCKS, prop::bool::ANY, 0u32..4).prop_map(|(b, w, think)| {
            let op = if w {
                MemOp::write(BlockAddr::new(b))
            } else {
                MemOp::read(BlockAddr::new(b))
            };
            op.with_think(think)
        }),
        0..48,
    )
}

/// Per-core traces (empty traces included: a core may sit idle).
fn traces() -> impl Strategy<Value = Vec<Vec<MemOp>>> {
    prop::collection::vec(trace(), CORES)
}

fn total_ops(traces: &[Vec<MemOp>]) -> u64 {
    traces.iter().map(|t| t.len() as u64).sum()
}

fn run(dir: DirSpec, traces: Vec<Vec<MemOp>>, notify: bool, seed: u64) -> SimReport {
    let mut cfg = small_config(dir)
        .with_seed(seed)
        // Re-check all invariants every few transactions, not just at the
        // end, so transient corruption cannot hide behind a clean finish.
        .with_check_interval(7);
    cfg.notify_clean_evictions = notify;
    Machine::new(cfg).run(traces)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_runs_stay_invariant_clean(
        traces in traces(),
        dir in any_dir(),
        notify in prop::bool::ANY,
        seed in 0u64..1024,
    ) {
        let expected_ops = total_ops(&traces);
        let report = run(dir, traces, notify, seed);
        prop_assert!(
            report.violations.is_empty(),
            "{dir} notify={notify} seed={seed}: {:?}",
            report.violations
        );
        prop_assert_eq!(report.completed_ops, expected_ops);
    }

    #[test]
    fn identical_runs_are_deterministic(
        traces in traces(),
        dir in any_dir(),
        notify in prop::bool::ANY,
        seed in 0u64..1024,
    ) {
        let a = run(dir, traces.clone(), notify, seed);
        let b = run(dir, traces, notify, seed);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.completed_ops, b.completed_ops);
        prop_assert_eq!(a.violations.clone(), b.violations.clone());
        prop_assert_eq!(a.sink.clone(), b.sink.clone());
        prop_assert_eq!(a.timeline.clone(), b.timeline.clone());
    }

    #[test]
    fn timeline_gate_samples_only_when_enabled(
        traces in traces(),
        dir in any_dir(),
        seed in 0u64..1024,
    ) {
        let expected_ops = total_ops(&traces);
        let off = Machine::new(small_config(dir).with_seed(seed)).run(traces.clone());
        prop_assert!(off.timeline.is_empty(), "interval 0 must record nothing");

        let on = Machine::new(small_config(dir).with_seed(seed).with_timeline(64)).run(traces);
        if expected_ops > 0 {
            prop_assert!(!on.timeline.is_empty(), "interval 64 must sample a live run");
        }
        for w in on.timeline.windows(2) {
            prop_assert!(
                w[0].cycle < w[1].cycle && w[0].ops <= w[1].ops,
                "samples must advance: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        // Sampling is observation only: it must not perturb the simulation.
        prop_assert_eq!(off.cycles, on.cycles);
        prop_assert_eq!(off.sink, on.sink);
    }
}
