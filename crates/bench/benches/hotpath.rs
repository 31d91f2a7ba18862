//! The hot-path benchmark gate: microbenches of directory lookup, the
//! block-keyed FxHash map and interned stat bumping, plus scaled-down
//! E9 macro points (64 and 256 cores), with a JSON baseline
//! (`BENCH_sim_hotpath.json` at the repo root) and a `--check` mode
//! that fails on regression.
//!
//! ```sh
//! # Run and print:
//! cargo bench -p stashdir-bench --bench hotpath
//! # Refresh the committed baseline:
//! cargo bench -p stashdir-bench --bench hotpath -- --record
//! # The CI gate (fails on >10% regression vs the committed file):
//! cargo bench -p stashdir-bench --bench hotpath -- --check
//! ```

use criterion::{BenchResult, Criterion};
use stashdir::common::json::Value;
use stashdir::common::{BlockAddr, DetRng, FxHashMap, StatSink};
use stashdir::{CoverageRatio, DirConfig, DirSpec, SystemConfig, Workload};
use stashdir_harness::{run_case, Params};
use std::hint::black_box;
use std::process::ExitCode;

/// Committed baseline location (repo root).
fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim_hotpath.json")
}

/// Allowed regression of any median before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.10;

fn bench_dir_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("dir_lookup");
    group.bench_function("stash8_install_lookup", |b| {
        let dir = DirConfig::stash(64, 8).build(1);
        let mut rng = DetRng::seed_from(2);
        b.iter(|| {
            let block = BlockAddr::new(rng.below(4096));
            black_box(dir.lookup(block));
        });
    });
    group.bench_function("block_map_fxhash", |b| {
        let mut map: FxHashMap<BlockAddr, u64> = FxHashMap::default();
        for i in 0..4096u64 {
            map.insert(BlockAddr::new(i), i);
        }
        let mut rng = DetRng::seed_from(3);
        b.iter(|| black_box(map.get(&BlockAddr::new(rng.below(8192)))));
    });
    group.finish();
}

const STAT_KEYS: [&str; 8] = [
    "l1.hits",
    "l1.misses",
    "l2.hits",
    "l2.misses",
    "llc.hits",
    "dir.lookups",
    "noc.flit_hops",
    "dram.accesses",
];

fn bench_stat_bump(c: &mut Criterion) {
    let mut group = c.benchmark_group("stat_bump");
    group.bench_function("interned", |b| {
        let mut sink = StatSink::new();
        let ids: Vec<_> = STAT_KEYS.iter().map(|k| sink.register(*k)).collect();
        let mut i = 0usize;
        b.iter(|| {
            let id = ids[i % ids.len()];
            i += 1;
            sink.bump(id, 1.0);
            black_box(sink.len())
        });
    });
    group.finish();
}

fn bench_macro_e9(c: &mut Criterion) {
    let mut group = c.benchmark_group("macro");
    // A scaled-down E9 point: the 64-core stash@1/8 Stencil case with a
    // tiny op budget — the full simulator stack (caches, directory,
    // NoC, DRAM, checker) end to end.
    group.bench_function("e9_64c_stash8_scaled", |b| {
        let config = SystemConfig::default()
            .with_cores(64)
            .with_dir(DirSpec::stash(CoverageRatio::new(1, 8)));
        b.iter(|| {
            let report = run_case(
                config.clone(),
                Workload::Stencil,
                Params { ops: 25, seed: 7 },
            );
            black_box(report.cycles)
        });
    });
    // The XL point the SoA overhaul unlocked: 256 cores through the
    // same stack (E20's second grid column), op budget scaled down to
    // keep the gate quick.
    group.bench_function("e9_256c_stash8_scaled", |b| {
        let config = SystemConfig::default()
            .with_cores(256)
            .with_dir(DirSpec::stash(CoverageRatio::new(1, 8)));
        b.iter(|| {
            let report = run_case(
                config.clone(),
                Workload::DataParallel,
                Params { ops: 10, seed: 7 },
            );
            black_box(report.cycles)
        });
    });
    group.finish();
}

fn results_to_json(results: &[BenchResult]) -> Value {
    let benches = results
        .iter()
        .map(|r| {
            (
                r.label(),
                Value::object(vec![
                    ("median_ns".into(), r.median_ns.into()),
                    ("mean_ns".into(), r.mean_ns.into()),
                    ("iters".into(), r.iters.into()),
                ]),
            )
        })
        .collect();
    Value::object(vec![
        ("schema".into(), "stashdir/bench-hotpath/v1".into()),
        ("benches".into(), Value::object(benches)),
    ])
}

fn median_of(results: &[BenchResult], label: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.label() == label)
        .map(|r| r.median_ns)
}

fn check_against_baseline(results: &[BenchResult]) -> Result<(), String> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading {}: {e} (run with --record first)", path.display()))?;
    let value = Value::parse(&text).map_err(|e| format!("parsing baseline: {e:?}"))?;
    let benches = value
        .get("benches")
        .and_then(|b| b.as_object())
        .ok_or("baseline has no benches section")?;
    let mut failures = Vec::new();
    for (label, entry) in benches {
        let Some(baseline_median) = entry.get("median_ns").and_then(Value::as_f64) else {
            continue;
        };
        let Some(current) = median_of(results, label) else {
            failures.push(format!("bench {label} present in baseline but not run"));
            continue;
        };
        let ratio = current / baseline_median;
        let verdict = if ratio > 1.0 + REGRESSION_TOLERANCE {
            failures.push(format!(
                "{label}: {current:.1} ns vs baseline {baseline_median:.1} ns ({:+.1}%)",
                (ratio - 1.0) * 100.0
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "check: {label:<42} {current:>10.1} ns (baseline {baseline_median:.1}, {:+5.1}%) {verdict}",
            (ratio - 1.0) * 100.0
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} bench(es) regressed >{:.0}%:\n  {}",
            failures.len(),
            REGRESSION_TOLERANCE * 100.0,
            failures.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record = args.iter().any(|a| a == "--record");
    let check = args.iter().any(|a| a == "--check");

    let mut criterion = Criterion::default();
    bench_dir_lookup(&mut criterion);
    bench_stat_bump(&mut criterion);
    bench_macro_e9(&mut criterion);
    let results = criterion.results();

    if record {
        let path = baseline_path();
        let mut text = results_to_json(results).render_pretty();
        if !text.ends_with('\n') {
            text.push('\n');
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("hotpath gate: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("hotpath gate: baseline written to {}", path.display());
    }

    if check {
        if let Err(e) = check_against_baseline(results) {
            eprintln!("hotpath gate: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "hotpath gate: no regression beyond {:.0}%",
            REGRESSION_TOLERANCE * 100.0
        );
    }

    ExitCode::SUCCESS
}
