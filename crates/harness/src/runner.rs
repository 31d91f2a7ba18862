//! Orchestration: expand experiment selections into a deduplicated case
//! list, execute it on the pool (optionally resuming from a prior
//! manifest), persist per-case artifacts and the run manifest, and
//! assemble each experiment's tables with output identical to the old
//! serial binaries.

use crate::artifact;
use crate::digest;
use crate::experiments::{registry, Experiment, ResultSet};
use crate::manifest::RunManifest;
use crate::params::Params;
use crate::plan::CaseSpec;
use crate::pool::{run_cases, CaseOutcome, CaseStatus, RunOptions};
use std::collections::HashSet;
use std::io;
use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Everything one sweep invocation needs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Experiment keys to run (must exist in the registry).
    pub experiments: Vec<String>,
    /// Run name: manifest and artifacts live in `<out_root>/<run>/`.
    pub run: String,
    /// Ops/seed for every case.
    pub params: Params,
    /// Pool options (jobs, fail-fast, progress, panic injection).
    pub options: RunOptions,
    /// Skip cases already completed in `<out_root>/<run>/manifest.json`.
    pub resume: bool,
    /// Where CSVs land and run directories nest (the serial binaries
    /// used `results/`).
    pub out_root: PathBuf,
    /// Print assembled tables and save lines to stdout (off in tests).
    pub print_tables: bool,
}

impl SweepConfig {
    /// A config with the given experiments and defaults matching the old
    /// serial binaries: `results/` output, env-derived params, progress
    /// on a tty, all cores.
    pub fn new(experiments: Vec<String>, run: impl Into<String>) -> Self {
        SweepConfig {
            experiments,
            run: run.into(),
            params: Params::default(),
            options: RunOptions {
                jobs: env_jobs(),
                progress: std::io::stderr().is_terminal(),
                ..Default::default()
            },
            resume: false,
            out_root: PathBuf::from("results"),
            print_tables: true,
        }
    }
}

/// `STASHDIR_JOBS` (0 / unset = all cores).
fn env_jobs() -> usize {
    std::env::var("STASHDIR_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// What one execution produced (before table assembly).
#[derive(Debug)]
pub struct ExecReport {
    /// One outcome per unique case, in plan order.
    pub outcomes: Vec<CaseOutcome>,
    /// Completed reports keyed by case id (resumed ones included).
    pub results: ResultSet,
    /// Cases satisfied from a prior manifest + artifacts.
    pub resumed: usize,
    /// Cases actually executed this invocation.
    pub ran: usize,
    /// Cases that panicked.
    pub failed: usize,
    /// Cases that exceeded the per-case wall-clock budget.
    pub timed_out: usize,
    /// The manifest, as saved to `<run_dir>/manifest.json`.
    pub manifest: RunManifest,
    /// The run directory.
    pub run_dir: PathBuf,
}

/// Executes `cases` (deduplicated by the caller) under `run`, writing
/// per-case artifacts and the run manifest. With `resume`, cases
/// completed by the run's existing manifest are loaded from their
/// artifacts instead of re-run.
///
/// # Errors
///
/// Returns any I/O error writing artifacts or the manifest, and an
/// `Other` error if the pool does not return one outcome per case
/// submitted; simulation panics are *not* errors (they become `failed`
/// case records).
pub fn execute_cases(
    cases: &[CaseSpec],
    run: &str,
    out_root: &Path,
    experiment_keys: Vec<String>,
    params: Params,
    options: &RunOptions,
    resume: bool,
) -> io::Result<ExecReport> {
    let run_dir = out_root.join(run);
    let prior = if resume {
        RunManifest::load(&run_dir)
    } else {
        None
    };

    // Satisfy what we can from the prior manifest + artifacts; the rest
    // are the cases to run.
    let slots: Vec<Option<CaseOutcome>> = cases
        .iter()
        .map(|spec| {
            prior
                .as_ref()
                .and_then(|m| resumed_outcome(m, &run_dir, spec))
        })
        .collect();
    let to_run: Vec<CaseSpec> = cases
        .iter()
        .zip(&slots)
        .filter(|(_, slot)| slot.is_none())
        .map(|(c, _)| c.clone())
        .collect();

    let start = Instant::now();
    let fresh = run_cases(&to_run, options);
    let wall = start.elapsed();
    let fresh_ms: u64 = fresh.iter().map(|o| o.duration.as_millis() as u64).sum();
    let outcomes = merge_outcomes(slots, fresh)?;

    // Persist artifacts for freshly completed cases, then the manifest.
    for outcome in &outcomes {
        if let (CaseStatus::Completed, Some(report)) = (outcome.status, outcome.report.as_ref()) {
            artifact::save_report(&run_dir, &outcome.spec.id(), report)?;
        }
    }
    let mut manifest = RunManifest::from_outcomes(
        run,
        experiment_keys,
        params.ops,
        params.seed,
        options.resolved_jobs(),
        wall,
        &outcomes,
    );
    // Resumed cases carry their *prior* durations (useful in the record)
    // but did no work this invocation; speedup must not count them.
    if to_run.len() < cases.len() {
        manifest.speedup = fresh_ms as f64 / manifest.wall_ms.max(1) as f64;
    }
    manifest.save(&run_dir)?;

    let results: ResultSet = outcomes
        .iter()
        .filter_map(|o| o.report.clone().map(|r| (o.spec.id(), r)))
        .collect();
    let resumed_total = cases.len() - to_run.len();
    let failed = outcomes
        .iter()
        .filter(|o| o.status == CaseStatus::Failed)
        .count();
    let timed_out = outcomes
        .iter()
        .filter(|o| o.status == CaseStatus::TimedOut)
        .count();
    Ok(ExecReport {
        ran: to_run.len(),
        resumed: resumed_total,
        failed,
        timed_out,
        results,
        manifest,
        run_dir,
        outcomes,
    })
}

/// The outcome for `spec` satisfied from a prior manifest: `Some` when
/// the manifest records it completed with the same digest and its
/// artifact loads.
fn resumed_outcome(prior: &RunManifest, run_dir: &Path, spec: &CaseSpec) -> Option<CaseOutcome> {
    let id = spec.id();
    if !prior.completed(&id, &digest::hex(spec.digest())) {
        return None;
    }
    let report = artifact::load_report(run_dir, &id).ok()?;
    let duration = prior
        .record(&id)
        .map_or(Duration::ZERO, |r| Duration::from_millis(r.duration_ms));
    Some(CaseOutcome {
        spec: spec.clone(),
        status: CaseStatus::Completed,
        duration,
        report: Some(report),
        error: None,
    })
}

/// Fills the empty `slots` (plan order) with `fresh` outcomes, in order.
///
/// # Errors
///
/// Returns an `Other` error naming both counts when `fresh` does not hold
/// exactly one outcome per empty slot.
fn merge_outcomes(
    slots: Vec<Option<CaseOutcome>>,
    fresh: Vec<CaseOutcome>,
) -> io::Result<Vec<CaseOutcome>> {
    let submitted = slots.iter().filter(|s| s.is_none()).count();
    let returned = fresh.len();
    let mut fresh = fresh.into_iter();
    let merged: Option<Vec<CaseOutcome>> = slots
        .into_iter()
        .map(|slot| slot.or_else(|| fresh.next()))
        .collect();
    match merged {
        Some(outcomes) if fresh.next().is_none() => Ok(outcomes),
        _ => Err(io::Error::other(format!(
            "the pool returned {returned} outcomes for {submitted} submitted cases"
        ))),
    }
}

/// A finished sweep: execution plus table assembly.
#[derive(Debug)]
pub struct SweepSummary {
    /// Execution record (outcomes, manifest, counts).
    pub exec: ExecReport,
    /// Experiments whose tables could not be assembled because a needed
    /// case failed or was skipped.
    pub incomplete: Vec<&'static str>,
    /// CSV paths written, in registry order.
    pub csv_paths: Vec<PathBuf>,
}

/// Resolves `keys` against the registry, preserving order.
fn resolve(keys: &[String]) -> Result<Vec<Experiment>, String> {
    let reg = registry();
    keys.iter()
        .map(|k| {
            reg.iter()
                .find(|e| e.key == *k)
                .copied()
                .ok_or_else(|| format!("unknown experiment `{k}` (try --list)"))
        })
        .collect()
}

/// Runs a full sweep: dedup cases across the selected experiments,
/// execute, persist manifest + artifacts, assemble and save each
/// experiment's table.
///
/// # Errors
///
/// Returns `InvalidInput` for unknown experiment keys and any underlying
/// I/O error from persisting artifacts, manifests or CSVs.
pub fn run_sweep(cfg: &SweepConfig) -> io::Result<SweepSummary> {
    let experiments =
        resolve(&cfg.experiments).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;

    // The union of every experiment's cases, first-seen order.
    let mut seen = HashSet::new();
    let mut cases: Vec<CaseSpec> = Vec::new();
    for exp in &experiments {
        for case in exp.cases(cfg.params) {
            if seen.insert(case.id()) {
                cases.push(case);
            }
        }
    }

    let exec = execute_cases(
        &cases,
        &cfg.run,
        &cfg.out_root,
        experiments.iter().map(|e| e.key.to_string()).collect(),
        cfg.params,
        &cfg.options,
        cfg.resume,
    )?;

    let mut incomplete = Vec::new();
    let mut csv_paths = Vec::new();
    for exp in &experiments {
        let needed = exp.cases(cfg.params);
        if needed.iter().any(|c| !exec.results.contains_key(&c.id())) {
            incomplete.push(exp.key);
            if cfg.print_tables {
                eprintln!(
                    "[{} not assembled: missing or failed cases — see {}]",
                    exp.key,
                    RunManifest::path(&exec.run_dir).display()
                );
            }
            continue;
        }
        let assembled = exp.assemble(cfg.params, &exec.results);
        std::fs::create_dir_all(&cfg.out_root)?;
        let path = cfg.out_root.join(format!("{}.csv", exp.csv));
        std::fs::write(&path, assembled.table.to_csv())?;
        if cfg.print_tables {
            assembled.table.print();
            println!("[saved {}]", path.display());
            if let Some(note) = &assembled.note {
                println!("{note}");
            }
        }
        csv_paths.push(path);
    }

    Ok(SweepSummary {
        exec,
        incomplete,
        csv_paths,
    })
}

/// Runs a configured sweep and maps the outcome to an exit code,
/// printing the closing summary line.
pub fn finish_sweep(cfg: &SweepConfig) -> ExitCode {
    match run_sweep(cfg) {
        Ok(summary) => {
            let m = &summary.exec.manifest;
            let timeouts = if summary.exec.timed_out > 0 {
                format!(", {} timed out", summary.exec.timed_out)
            } else {
                String::new()
            };
            eprintln!(
                "run `{}`: {} cases ({} ran, {} resumed, {} failed{timeouts}) in {:.1}s wall, {:.2}x speedup on {} workers; manifest {}",
                m.run,
                m.cases.len(),
                summary.exec.ran,
                summary.exec.resumed,
                summary.exec.failed,
                m.wall_ms as f64 / 1000.0,
                m.speedup,
                m.jobs,
                RunManifest::path(&summary.exec.run_dir).display(),
            );
            if summary.exec.failed > 0
                || summary.exec.timed_out > 0
                || !summary.incomplete.is_empty()
            {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Whether flag parsing wants the process to continue or exit cleanly
/// (e.g. after `--help`).
pub enum FlagOutcome {
    /// Run the sweep.
    Proceed,
    /// Flags fully handled (help/list); exit success.
    Exit,
}

/// Common flags shared by the `sweep` and `campaign` binaries.
pub fn common_usage() -> &'static str {
    "  --jobs <n>           worker threads (default: all cores; STASHDIR_JOBS)\n\
     \x20 --ops <n>            operations per core (default 10000; STASHDIR_OPS)\n\
     \x20 --seed <n>           workload seed (default 7; STASHDIR_SEED)\n\
     \x20 --run <name>         run directory name under results/\n\
     \x20 --out <dir>          output root (default results/)\n\
     \x20 --resume             skip cases completed in the run's manifest\n\
     \x20 --fail-fast          cancel remaining cases after the first failure\n\
     \x20 --timeout-secs <n>   per-case wall-clock budget; over-budget cases\n\
     \x20                      are recorded timed_out and abandoned\n\
     \x20 --no-progress        suppress the live progress line\n\
     \x20 --inject-panic <s>   test hook: panic in cases whose id contains <s>\n\
     \x20 --help               this text"
}

/// Applies the common flag set to `cfg`. Unknown flags are errors.
///
/// # Errors
///
/// Returns a usage/error message for unknown flags or malformed values.
pub fn apply_common_flags(
    cfg: &mut SweepConfig,
    args: impl Iterator<Item = String>,
) -> Result<FlagOutcome, String> {
    let mut it = args;
    while let Some(flag) = it.next() {
        match parse_one_common_flag(cfg, &flag, &mut it)? {
            Some(FlagOutcome::Exit) => return Ok(FlagOutcome::Exit),
            Some(FlagOutcome::Proceed) => {}
            None => return Err(format!("unknown flag {flag}\n{}", common_usage())),
        }
    }
    Ok(FlagOutcome::Proceed)
}

/// Tries to consume one common flag; `Ok(None)` means "not a common
/// flag" (the sweep binary layers its own on top).
///
/// # Errors
///
/// Returns a message for malformed values.
pub fn parse_one_common_flag(
    cfg: &mut SweepConfig,
    flag: &str,
    it: &mut impl Iterator<Item = String>,
) -> Result<Option<FlagOutcome>, String> {
    let mut value = |name: &str| {
        it.next()
            .ok_or_else(|| format!("{name} needs a value\n{}", common_usage()))
    };
    match flag {
        "--jobs" => {
            cfg.options.jobs = value("--jobs")?
                .parse()
                .map_err(|e| format!("bad --jobs: {e}"))?;
        }
        "--ops" => {
            cfg.params.ops = value("--ops")?
                .parse()
                .map_err(|e| format!("bad --ops: {e}"))?;
        }
        "--seed" => {
            cfg.params.seed = value("--seed")?
                .parse()
                .map_err(|e| format!("bad --seed: {e}"))?;
        }
        "--run" => cfg.run = value("--run")?,
        "--out" => cfg.out_root = PathBuf::from(value("--out")?),
        "--resume" => cfg.resume = true,
        "--fail-fast" => cfg.options.fail_fast = true,
        "--timeout-secs" => {
            let secs: u64 = value("--timeout-secs")?
                .parse()
                .map_err(|e| format!("bad --timeout-secs: {e}"))?;
            cfg.options.timeout = Some(Duration::from_secs(secs));
        }
        "--no-progress" => cfg.options.progress = false,
        "--inject-panic" => cfg.options.inject_panic = Some(value("--inject-panic")?),
        "--help" | "-h" => {
            println!("usage: [options]\n{}", common_usage());
            return Ok(Some(FlagOutcome::Exit));
        }
        _ => return Ok(None),
    }
    Ok(Some(FlagOutcome::Proceed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir::{CoverageRatio, DirSpec, SystemConfig, Workload};

    fn tmp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("stashdir_runner_{tag}_{}", std::process::id()))
    }

    fn small_cases(n: u64) -> Vec<CaseSpec> {
        (0..n)
            .map(|i| {
                CaseSpec::new(
                    SystemConfig::default()
                        .with_cores(4)
                        .with_dir(DirSpec::stash(CoverageRatio::new(1, 8))),
                    Workload::Uniform,
                    40,
                    i,
                )
            })
            .collect()
    }

    #[test]
    fn execute_writes_manifest_and_artifacts() {
        let root = tmp_root("exec");
        let cases = small_cases(3);
        let rep = execute_cases(
            &cases,
            "r1",
            &root,
            vec!["x".into()],
            Params { ops: 40, seed: 0 },
            &RunOptions {
                jobs: 2,
                ..Default::default()
            },
            false,
        )
        .unwrap();
        assert_eq!(rep.ran, 3);
        assert_eq!(rep.resumed, 0);
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.results.len(), 3);
        assert!(RunManifest::path(&rep.run_dir).exists());
        for c in &cases {
            assert!(artifact::case_path(&rep.run_dir, &c.id()).exists());
        }
        // Second invocation with resume touches nothing.
        let rep2 = execute_cases(
            &cases,
            "r1",
            &root,
            vec!["x".into()],
            Params { ops: 40, seed: 0 },
            &RunOptions::default(),
            true,
        )
        .unwrap();
        assert_eq!(rep2.resumed, 3);
        assert_eq!(rep2.ran, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn flags_apply() {
        let mut cfg = SweepConfig::new(vec!["traffic".into()], "t");
        let args = [
            "--jobs",
            "3",
            "--ops",
            "123",
            "--seed",
            "9",
            "--resume",
            "--fail-fast",
            "--no-progress",
            "--run",
            "other",
            "--inject-panic",
            "zzz",
            "--timeout-secs",
            "30",
        ]
        .iter()
        .map(|s| s.to_string());
        assert!(matches!(
            apply_common_flags(&mut cfg, args),
            Ok(FlagOutcome::Proceed)
        ));
        assert_eq!(cfg.options.jobs, 3);
        assert_eq!(cfg.params.ops, 123);
        assert_eq!(cfg.params.seed, 9);
        assert!(cfg.resume);
        assert!(cfg.options.fail_fast);
        assert!(!cfg.options.progress);
        assert_eq!(cfg.run, "other");
        assert_eq!(cfg.options.inject_panic.as_deref(), Some("zzz"));
        assert_eq!(cfg.options.timeout, Some(Duration::from_secs(30)));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let mut cfg = SweepConfig::new(vec![], "t");
        assert!(apply_common_flags(&mut cfg, ["--bogus".to_string()].into_iter()).is_err());
    }

    /// The retry and compact-artifact flags are gone: each is now an
    /// unknown flag rather than a silently accepted no-op.
    #[test]
    fn retired_flags_are_unknown() {
        for args in [&["--retries", "2"][..], &["--compact-artifacts"][..]] {
            let mut cfg = SweepConfig::new(vec![], "t");
            let err = apply_common_flags(&mut cfg, args.iter().map(|s| s.to_string()))
                .err()
                .expect("retired flag must be rejected");
            assert!(
                err.starts_with(&format!("unknown flag {}", args[0])),
                "{err}"
            );
        }
    }

    /// A pool that returns the wrong number of outcomes is a named error,
    /// not a panic.
    #[test]
    fn outcome_count_mismatch_is_an_error() {
        let outcome = |seed: u64| CaseOutcome {
            spec: small_cases(seed + 1).pop().unwrap(),
            status: CaseStatus::Completed,
            duration: Duration::ZERO,
            report: None,
            error: None,
        };
        let slots = || vec![Some(outcome(0)), None, None];
        let merged = merge_outcomes(slots(), vec![outcome(1), outcome(2)]).unwrap();
        let seeds: Vec<u64> = merged.iter().map(|o| o.spec.seed).collect();
        assert_eq!(seeds, [0, 1, 2]);
        for fresh in [vec![outcome(1)], vec![outcome(1), outcome(2), outcome(3)]] {
            let err = merge_outcomes(slots(), fresh).unwrap_err();
            assert!(err.to_string().contains("for 2 submitted cases"), "{err}");
        }
    }

    #[test]
    fn unknown_experiment_key_is_invalid_input() {
        let mut cfg = SweepConfig::new(vec!["not_a_thing".into()], "t");
        cfg.print_tables = false;
        cfg.out_root = tmp_root("badkey");
        let err = run_sweep(&cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&cfg.out_root).ok();
    }
}
