//! The coverage-guided chaos campaign (E19): multi-fault burst
//! schedules, a witnessed-transition coverage loop against the lint
//! protocol model, and automatic minimization of the first reproducible
//! failure.
//!
//! ```sh
//! # A budgeted campaign against the checked-in protocol model:
//! cargo run --release -p stashdir-harness --bin campaign -- \
//!     --model results/lint/protocol_model.json --rounds 4
//!
//! # Scratch checkout (no model artifact): falls back to the builtin
//! # model checker's reachable sets.
//! cargo run --release -p stashdir-harness --bin campaign -- --ops 400
//! ```
//!
//! The run writes the usual `results/<run>/manifest.json` and per-case
//! artifacts, plus `results/<run>/coverage.json`
//! (`stashdir/chaos-coverage/v1`) and, when a composed case failed, the
//! minimized reproducer at `results/<run>/cases/<id>.minimized.json`.

use stashdir_harness::runner::{common_usage, parse_one_common_flag, FlagOutcome};
use stashdir_harness::{run_campaign, CampaignConfig, SweepConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: campaign [options]\n\
         \x20 --rounds <n>         adaptive-round budget after baseline+pairwise (default 4)\n\
         \x20 --plateau <n>        stop after n adaptive rounds with no new coverage (default 2)\n\
         \x20 --model <path>       protocol-model artifact to diff coverage against\n\
         \x20                      (default: builtin model checker)\n{}",
        common_usage()
    )
}

fn main() -> ExitCode {
    // Reuse the sweep flag set for ops/seed/jobs/run/out/etc.
    let mut sweep = SweepConfig::new(Vec::new(), "campaign");
    let mut rounds = 4usize;
    let mut plateau = 2usize;
    let mut model_path: Option<PathBuf> = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--rounds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => rounds = n,
                None => {
                    eprintln!("bad --rounds\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--plateau" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => plateau = n,
                None => {
                    eprintln!("bad --plateau\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--model" => match it.next() {
                Some(v) => model_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--model needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => match parse_one_common_flag(&mut sweep, other, &mut it) {
                Ok(Some(FlagOutcome::Proceed)) => {}
                Ok(Some(FlagOutcome::Exit)) => return ExitCode::SUCCESS,
                Ok(None) => {
                    eprintln!("unknown flag {other}\n{}", usage());
                    return ExitCode::FAILURE;
                }
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }

    let mut cfg = CampaignConfig::new(sweep.run.clone());
    cfg.out_root = sweep.out_root.clone();
    cfg.params = sweep.params;
    cfg.rounds = rounds;
    cfg.plateau = plateau;
    cfg.model_path = model_path;
    cfg.options = sweep.options.clone();

    let outcome = match run_campaign(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    for r in &outcome.rounds {
        println!(
            "round {:<12} {:>2} new case(s), +{} pair(s), {}/{} witnessed",
            r.name, r.cases, r.new_pairs, r.witnessed, outcome.reachable
        );
    }
    println!(
        "pairwise gate: {}/{} fault classes caught when composed — {}",
        outcome.classes_caught,
        outcome.classes_total,
        if outcome.pairwise_pass() {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "coverage gate: campaign witnessed {}/{} reachable transitions \
         (single-fault baseline {}) — {}",
        outcome.witnessed,
        outcome.reachable,
        outcome.baseline_witnessed,
        if outcome.improved() { "PASS" } else { "FAIL" }
    );
    match &outcome.minimized {
        Some(m) => println!(
            "minimized: {} reproduces `{}` with {} burst(s): {}\n[saved {}]",
            m.case_id,
            m.signature,
            m.plan.bursts.len(),
            m.plan,
            m.path.display()
        ),
        None => println!("minimized: no composed failure to minimize"),
    }
    println!("[saved {}]", outcome.artifact_path.display());

    if outcome.failed > 0 || !outcome.pairwise_pass() || !outcome.improved() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
