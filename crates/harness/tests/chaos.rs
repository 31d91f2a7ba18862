//! Integration tests for the chaos layer's harness-facing guarantees:
//!
//! 1. **The hook layer is provably zero-cost.** Threading a *disabled*
//!    `FaultConfig` through the pool yields `SimReport` JSON byte-identical
//!    to plain runs of the same cases, and the artifacts carry no
//!    fault/snapshot keys — the chaos layer cannot perturb production
//!    sweeps it is not asked to perturb.
//! 2. **Faulty runs persist their evidence.** A case that injects damage
//!    completes (no panic, no hang), its artifact records the injection
//!    and detection counters, and the diagnostic snapshot survives the
//!    save/load round trip still matching the published schema.

use stashdir::common::json::Value;
use stashdir::sim::fault::validate_snapshot;
use stashdir::{
    expected_detector, CoverageRatio, DirReplPolicy, DirSpec, FaultClass, FaultConfig,
    SystemConfig, Workload,
};
use stashdir_harness::artifact::{load_report, report_to_json};
use stashdir_harness::runner::execute_cases;
use stashdir_harness::{run_cases, CaseSpec, CaseStatus, ExperimentPlan, Params, RunOptions};
use std::path::PathBuf;

fn tmp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("stashdir_chaos_{tag}_{}", std::process::id()))
}

/// A small cross-scheme plan: the zero-cost property must hold for every
/// directory organization, not just the one the chaos suite runs.
fn small_plan() -> ExperimentPlan {
    ExperimentPlan::new("chaos", SystemConfig::default().with_cores(4), 200)
        .dirs(vec![
            DirSpec::FullMap,
            DirSpec::stash(CoverageRatio::new(1, 8)),
        ])
        .workloads(vec![Workload::DataParallel, Workload::ProducerConsumer])
        .seeds(vec![7, 1234])
}

#[test]
fn disabled_fault_layer_is_byte_identical_at_the_artifact_level() {
    let plain = small_plan().expand();
    let threaded: Vec<CaseSpec> = plain
        .iter()
        .map(|c| c.clone().with_fault(FaultConfig::disabled()))
        .collect();

    let plain_out = run_cases(&plain, &RunOptions::default());
    let threaded_out = run_cases(&threaded, &RunOptions::default());

    for ((spec, p), t) in plain.iter().zip(&plain_out).zip(&threaded_out) {
        assert_eq!(p.status, CaseStatus::Completed, "{}", spec.id());
        assert_eq!(t.status, CaseStatus::Completed, "{}", spec.id());
        let p_json = report_to_json(p.report.as_ref().unwrap()).render_pretty();
        let t_json = report_to_json(t.report.as_ref().unwrap()).render_pretty();
        assert_eq!(
            p_json,
            t_json,
            "threading a disabled FaultConfig changed the artifact for {}",
            spec.id()
        );
        assert!(
            !p_json.contains("\"fault\"") && !p_json.contains("\"snapshot\""),
            "fault-free artifacts must keep the historical key set"
        );
    }
}

/// The chaos case the persistence test runs: tight 2-way stash directory
/// (so every fault class finds a victim) with one sharer-flip injection.
fn faulty_case() -> CaseSpec {
    let dir = DirSpec::Stash {
        coverage: CoverageRatio::new(1, 8),
        assoc: 2,
        repl: DirReplPolicy::PrivateFirstLru,
    };
    CaseSpec::new(
        SystemConfig::default().with_cores(8).with_dir(dir),
        Workload::DataParallel,
        400,
        7,
    )
    .with_fault(FaultConfig::for_class(FaultClass::SharerFlip, 7))
}

#[test]
fn faulty_artifact_persists_counters_and_snapshot() {
    let root = tmp_root("persist");
    std::fs::remove_dir_all(&root).ok();
    let cases = vec![faulty_case()];
    let exec = execute_cases(
        &cases,
        "run",
        &root,
        vec!["chaos".into()],
        Params { ops: 400, seed: 7 },
        &RunOptions::default(),
        false,
    )
    .unwrap();
    assert_eq!(exec.failed, 0, "a faulty run must quiesce, not panic");

    let report = load_report(&exec.run_dir, &cases[0].id()).expect("artifact on disk");
    let f = report.fault;
    assert_eq!(f.injected_for(FaultClass::SharerFlip), 1);
    assert!(
        f.detected_for(expected_detector(FaultClass::SharerFlip)) > 0,
        "the checker must flag the flipped sharer: {f:?}"
    );
    assert_eq!(f.quiesced, 1, "detection quiesces the machine");
    let snapshot = report.snapshot.expect("quiesced run dumps a snapshot");
    let parsed = Value::parse(&snapshot).expect("snapshot is valid JSON");
    validate_snapshot(&parsed).expect("persisted snapshot matches the published schema");

    std::fs::remove_dir_all(&root).ok();
}
