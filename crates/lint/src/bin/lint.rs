//! The `lint` binary: runs every `stashdir-lint` pass over a repo root,
//! prints findings and per-pass timings, writes the artifacts, and exits
//! non-zero when anything fires.
//!
//! ```text
//! usage: lint [--root DIR] [--model FILE | --no-artifact] [--json FILE] [--quiet]
//!        lint --verify-coverage FILE
//! ```
//!
//! Defaults: `--root .`, protocol model (v3) at
//! `<root>/results/lint/protocol_model.json`. `--json FILE` additionally
//! writes the machine-readable findings artifact. All artifact writes go
//! through the shared atomic temp+rename discipline
//! (`stashdir_common::fsio`).
//!
//! `--verify-coverage FILE` is a standalone mode: it parses `FILE` and
//! checks it is a well-formed harness campaign
//! `stashdir/chaos-coverage/v1` artifact — shape, per-section hit-count
//! consistency and the pairwise/total gate fields — exiting 0/1. `ci.sh`
//! runs it against the E19 smoke's `coverage.json`.

use stashdir_common::fsio::write_atomic;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn write_artifact(path: &Path, value: &stashdir_common::json::Value) -> Result<(), ExitCode> {
    let mut text = value.render_pretty();
    text.push('\n');
    write_atomic(path, &text).map_err(|e| {
        eprintln!("lint: cannot write {}: {e}", path.display());
        ExitCode::from(2)
    })
}

fn verify_coverage(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lint: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let value = match stashdir_common::json::Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("lint: {} is not valid JSON: {e}", path.display());
            return ExitCode::from(1);
        }
    };
    match stashdir_lint::artifact::verify_chaos_coverage(&value) {
        Ok(()) => {
            println!(
                "lint: {} is a well-formed coverage artifact",
                path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lint: {} fails the coverage check: {e}", path.display());
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut model: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut verify_cov: Option<PathBuf> = None;
    let mut no_artifact = false;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--model" => match args.next() {
                Some(v) => model = Some(PathBuf::from(v)),
                None => return usage("--model needs a value"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs a value"),
            },
            "--verify-coverage" => match args.next() {
                Some(v) => verify_cov = Some(PathBuf::from(v)),
                None => return usage("--verify-coverage needs a value"),
            },
            "--no-artifact" => no_artifact = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(path) = verify_cov {
        return verify_coverage(&path);
    }

    let report = match stashdir_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: failed to read sources under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if !quiet {
        let total: f64 = report.timings.iter().map(|t| t.millis).sum();
        let laps: Vec<String> = report
            .timings
            .iter()
            .map(|t| format!("{} {:.0}ms", t.name, t.millis))
            .collect();
        println!("lint: passes: {} (total {total:.0}ms)", laps.join(", "));
    }

    if !no_artifact {
        let lint_dir = root.join("results").join("lint");
        let model_path = model.unwrap_or_else(|| lint_dir.join("protocol_model.json"));
        if let Err(code) = write_artifact(&model_path, &report.model) {
            return code;
        }
        if !quiet {
            println!("lint: protocol model written to {}", model_path.display());
        }
    }
    if let Some(path) = json {
        let findings = stashdir_lint::artifact::findings_json(&report.findings);
        if let Err(code) = write_artifact(&path, &findings) {
            return code;
        }
        if !quiet {
            println!("lint: findings written to {}", path.display());
        }
    }

    for f in &report.findings {
        println!("{f}");
    }
    if report.findings.is_empty() {
        if !quiet {
            println!("lint: clean (0 findings)");
        }
        ExitCode::SUCCESS
    } else {
        println!("lint: {} finding(s)", report.findings.len());
        ExitCode::from(1)
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("lint: {err}");
    }
    eprintln!(
        "usage: lint [--root DIR] [--model FILE | --no-artifact] [--json FILE] [--quiet]\n       lint --verify-coverage FILE"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
