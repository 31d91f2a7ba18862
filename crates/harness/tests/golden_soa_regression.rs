//! Byte-identity regression for the struct-of-arrays sim-core rewrite.
//!
//! One representative case per directory backend (stash, sparse,
//! limited-ptr, DLS, opaque, full-map), captured from the sweep *before*
//! the SoA refactor (dense core/bank tables, interned witness counters,
//! the watchdog retire floor). Re-running the cases must
//! reproduce both the case ids (the config digest covers the full
//! `Debug` rendering of the config) and the artifact bytes, so the
//! rewrite cannot silently drift event ordering, stats, or rendering.
//!
//! To regenerate after an *intentional* behavior change, run
//! `STASHDIR_REGEN_GOLDEN=1 cargo test -p stashdir-harness --test
//! golden_soa_regression` and commit the rewritten fixtures together
//! with the change that justifies them.

use std::path::Path;

use stashdir::{CoverageRatio, DirSpec, Workload};
use stashdir_harness::artifact::report_to_json;
use stashdir_harness::{machine_with, run_cases, CaseSpec, Params, RunOptions};

fn quiet() -> RunOptions {
    RunOptions {
        progress: false,
        ..RunOptions::default()
    }
}

const GOLDEN: [(&str, &str); 6] = [
    (
        "stash-1_8x8w-c16-data_parallel-o80-s11-5a780a3d",
        "stash-1_8x8w-c16-data_parallel-o80-s11.json",
    ),
    (
        "sparse-1_8x8w-c16-data_parallel-o80-s11-b265fdca",
        "sparse-1_8x8w-c16-data_parallel-o80-s11.json",
    ),
    (
        "limited-ptr4-1_8x8w-c16-data_parallel-o80-s11-6682c7af",
        "limited-1_8x8w-k4-c16-data_parallel-o80-s11.json",
    ),
    (
        "dls-c16-data_parallel-o80-s11-43586ee3",
        "dls-c16-data_parallel-o80-s11.json",
    ),
    (
        "opaque-1_8x8w-c16-data_parallel-o80-s11-f786f5ab",
        "opaque-1_8x8w-c16-data_parallel-o80-s11.json",
    ),
    (
        "fullmap-c16-data_parallel-o80-s11-d83499e3",
        "fullmap-c16-data_parallel-o80-s11.json",
    ),
];

fn golden_dirs() -> [DirSpec; 6] {
    let c = CoverageRatio::new(1, 8);
    [
        DirSpec::stash(c),
        DirSpec::sparse(c),
        DirSpec::limited_ptr(c, 4),
        DirSpec::Dls,
        DirSpec::opaque(c),
        DirSpec::FullMap,
    ]
}

fn fixture_dir() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_soa"
    ))
}

#[test]
fn per_backend_case_artifacts_stay_byte_identical() {
    let specs: Vec<CaseSpec> = golden_dirs()
        .into_iter()
        .map(|d| CaseSpec::new(machine_with(d), Workload::DataParallel, 80, 11))
        .collect();
    let regen = std::env::var_os("STASHDIR_REGEN_GOLDEN").is_some();
    if !regen {
        for (spec, (id, _)) in specs.iter().zip(GOLDEN) {
            assert_eq!(spec.id(), id, "case identity (config digest) drifted");
        }
    }
    let outcomes = run_cases(&specs, &quiet());
    for (outcome, (id, file)) in outcomes.into_iter().zip(GOLDEN) {
        let report = outcome.report.unwrap_or_else(|| panic!("{id} failed"));
        let rendered = report_to_json(&report).render_pretty();
        let path = fixture_dir().join(file);
        if regen {
            eprintln!("regen {} (id {})", path.display(), outcome.spec.id());
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

#[test]
fn params_default_matches_sweep_defaults() {
    // The fixtures above intentionally use non-default ops/seed so they
    // exercise a distinct point; the sweep byte-identity contract itself
    // is anchored on the defaults, which must not drift silently.
    let p = Params::default();
    assert_eq!((p.ops, p.seed), (10_000, 7));
}
