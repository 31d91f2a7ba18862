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
//! A second set of fixtures runs every registered backend on canneal
//! with caches shrunk far below the default, so LLC evictions, LLC
//! recalls, directory-eviction probes and discoveries all fire: the
//! default-size fixtures above read zero for each of them.
//!
//! To regenerate after an *intentional* behavior change, run
//! `STASHDIR_REGEN_GOLDEN=1 cargo test -p stashdir-harness --test
//! golden_soa_regression` and commit the rewritten fixtures together
//! with the change that justifies them.

use std::path::Path;

use stashdir::mem::CacheConfig;
use stashdir::{CoverageRatio, DirSpec, SystemConfig, Workload};
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

/// Runs `specs` and compares each artifact with its `(id, file)`
/// fixture (or rewrites the fixtures under `STASHDIR_REGEN_GOLDEN`),
/// returning the reports for further checks.
fn check_against_fixtures(specs: &[CaseSpec], golden: &[(&str, &str)]) -> Vec<stashdir::SimReport> {
    let regen = std::env::var_os("STASHDIR_REGEN_GOLDEN").is_some();
    if !regen {
        for (spec, (id, _)) in specs.iter().zip(golden) {
            assert_eq!(spec.id(), *id, "case identity (config digest) drifted");
        }
    }
    let outcomes = run_cases(specs, &quiet());
    let mut reports = Vec::new();
    for (outcome, (id, file)) in outcomes.into_iter().zip(golden) {
        let report = outcome.report.unwrap_or_else(|| panic!("{id} failed"));
        let rendered = report_to_json(&report).render_pretty();
        let path = fixture_dir().join(file);
        if regen {
            eprintln!("regen {} (id {})", path.display(), outcome.spec.id());
            std::fs::write(&path, &rendered).expect("write fixture");
        } else {
            let fixture = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
            assert_eq!(
                rendered, fixture,
                "artifact for {id} is no longer byte-identical"
            );
        }
        reports.push(report);
    }
    reports
}

#[test]
fn per_backend_case_artifacts_stay_byte_identical() {
    let specs: Vec<CaseSpec> = golden_dirs()
        .into_iter()
        .map(|d| CaseSpec::new(machine_with(d), Workload::DataParallel, 80, 11))
        .collect();
    check_against_fixtures(&specs, &GOLDEN);
}

const PRESSURE: [(&str, &str); 7] = [
    (
        "stash-1_8x8w-c16-canneal-o600-s11-83dae6ff",
        "pressure-stash-c16-canneal-o600-s11.json",
    ),
    (
        "sparse-1_8x8w-c16-canneal-o600-s11-40f2e26e",
        "pressure-sparse-c16-canneal-o600-s11.json",
    ),
    (
        "limited-ptr4-1_8x8w-c16-canneal-o600-s11-35db05e5",
        "pressure-limited-k4-c16-canneal-o600-s11.json",
    ),
    (
        "dls-c16-canneal-o600-s11-8ef2ecb5",
        "pressure-dls-c16-canneal-o600-s11.json",
    ),
    (
        "opaque-1_8x8w-c16-canneal-o600-s11-c435f05b",
        "pressure-opaque-c16-canneal-o600-s11.json",
    ),
    (
        "fullmap-c16-canneal-o600-s11-a9376deb",
        "pressure-fullmap-c16-canneal-o600-s11.json",
    ),
    (
        "cuckoo-1_8-c16-canneal-o600-s11-a646685b",
        "pressure-cuckoo-c16-canneal-o600-s11.json",
    ),
];

/// The default machine with 2 KiB 2-way L1s, 8 KiB 4-way L2s and 32 KiB
/// 8-way LLC banks (default latencies), so canneal's footprint overflows
/// every level.
fn pressure_machine(dir: DirSpec) -> SystemConfig {
    let mut cfg = machine_with(dir);
    cfg.l1 = CacheConfig::new(2 * 1024, 2, 64, 1);
    cfg.l2 = CacheConfig::new(8 * 1024, 4, 64, 8);
    cfg.llc_bank = CacheConfig::new(32 * 1024, 8, 64, 24);
    cfg
}

#[test]
fn pressure_case_artifacts_stay_byte_identical() {
    let c = CoverageRatio::new(1, 8);
    let mut dirs = golden_dirs().to_vec();
    dirs.push(DirSpec::Cuckoo { coverage: c });
    let specs: Vec<CaseSpec> = dirs
        .into_iter()
        .map(|d| CaseSpec::new(pressure_machine(d), Workload::Canneal, 600, 11))
        .collect();
    let reports = check_against_fixtures(&specs, &PRESSURE);
    // Each fixture is only worth keeping while it drives the paths the
    // default-size fixtures never reach.
    for ((_, file), r) in PRESSURE.iter().zip(&reports) {
        assert!(r.stat("llc.evictions") > 0.0, "{file}: no LLC evictions");
        assert!(r.stat("llc.writebacks") > 0.0, "{file}: no LLC writebacks");
        let name = file.split('-').nth(1).expect("pressure-<backend>-...");
        let wanted: &[&str] = match name {
            "stash" | "limited" => &[
                "bank.discoveries",
                "bank.evict_discoveries",
                "bank.hidden_writebacks",
            ],
            "sparse" | "opaque" | "cuckoo" => &["bank.dir_eviction_probes"],
            "fullmap" => &["bank.llc_recalls"],
            "dls" => &["bank.llc_recalls", "backend.dls_reclassifications"],
            other => panic!("no counter list for {other}"),
        };
        for key in wanted {
            assert!(r.stat(key) > 0.0, "{file}: {key} is zero");
        }
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
