//! Byte-identity regression for the E17 stall snapshots.
//!
//! Two chaos-smoke cases (stash 1/8×2w, 8 cores, data_parallel, 400 ops,
//! seed 7) whose artifacts carry a diagnostic snapshot taken while the
//! run loop is mid-flight:
//!
//! - `noc_duplicate` quiesces with an event still in flight at the
//!   quiesce cycle, so the snapshot's `in_flight` list pins how pending
//!   same-cycle events are ordered;
//! - `stuck_transient` is a liveness-watchdog stall.
//!
//! Re-running the cases must reproduce the case artifacts byte for
//! byte, so a change to the event loop cannot silently reorder or drop
//! what a snapshot reports as in flight.
//!
//! To regenerate after an *intentional* behavior change, run
//! `STASHDIR_REGEN_GOLDEN=1 cargo test -p stashdir-harness --test
//! stall_snapshot_regression` and commit the rewritten fixtures together
//! with the change that justifies them.

use std::path::Path;

use stashdir::FaultClass;
use stashdir_harness::artifact::report_to_json;
use stashdir_harness::{registry, run_cases, CaseSpec, Params, RunOptions};

const GOLDEN: [(FaultClass, &str); 2] = [
    (FaultClass::NocDuplicate, "e17_noc_duplicate.json"),
    (FaultClass::StuckTransient, "e17_stuck_transient.json"),
];

fn fixture_dir() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/stall_snapshots"
    ))
}

/// The chaos-smoke case injecting `class`, exactly as the E17 sweep
/// builds it.
fn chaos_case(class: FaultClass) -> CaseSpec {
    let exp = registry()
        .into_iter()
        .find(|e| e.key == "chaos_smoke")
        .expect("chaos_smoke is registered");
    exp.cases(Params { ops: 400, seed: 7 })
        .into_iter()
        .find(|c| {
            c.fault
                .as_ref()
                .is_some_and(|f| f.enabled_classes() == [class])
        })
        .unwrap_or_else(|| panic!("chaos_smoke has a {class:?} case"))
}

#[test]
fn stall_snapshot_artifacts_stay_byte_identical() {
    let specs: Vec<CaseSpec> = GOLDEN.iter().map(|&(c, _)| chaos_case(c)).collect();
    let regen = std::env::var_os("STASHDIR_REGEN_GOLDEN").is_some();
    let quiet = RunOptions {
        progress: false,
        ..RunOptions::default()
    };
    for (outcome, (class, file)) in run_cases(&specs, &quiet).into_iter().zip(GOLDEN) {
        let id = outcome.spec.id();
        let report = outcome.report.unwrap_or_else(|| panic!("{id} failed"));
        assert!(
            report.snapshot.is_some(),
            "{class:?} must stall and dump a snapshot"
        );
        let rendered = report_to_json(&report).render_pretty();
        let path = fixture_dir().join(file);
        if regen {
            eprintln!("regen {} (id {id})", path.display());
            std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
            std::fs::write(&path, &rendered).expect("write fixture");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
        assert_eq!(
            rendered, golden,
            "artifact for {id} is no longer byte-identical"
        );
    }
}
