//! The parallel experiment sweep: runs any subset of the E1–E20 suite —
//! or all of it — in one invocation, deduplicating shared cases across
//! experiments and spreading them over every host core.
//!
//! ```sh
//! # The whole suite, all cores, with a live progress line:
//! cargo run --release -p stashdir-harness --bin sweep -- --all
//!
//! # One experiment, exactly the table/CSV the serial binary produced:
//! cargo run --release -p stashdir-harness --bin sweep -- --plan perf_vs_coverage
//!
//! # Resume an interrupted or partially failed run:
//! cargo run --release -p stashdir-harness --bin sweep -- --all --resume
//! ```
//!
//! Each run writes `results/<run>/manifest.json` (per-case status,
//! duration, config digest, achieved speedup) plus one
//! `results/<run>/cases/<id>.json` report artifact per completed case,
//! alongside the usual `results/e*.csv` tables.

use stashdir_harness::runner::{common_usage, finish_sweep, parse_one_common_flag, FlagOutcome};
use stashdir_harness::{registry, SweepConfig};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: sweep [--plan <k1,k2,...> | --all] [options]\n\
         \x20 --plan <keys>        comma-separated experiment keys (see --list)\n\
         \x20 --all                the full E1-E20 suite (default)\n\
         \x20 --list               list experiment keys and exit\n{}",
        common_usage()
    )
}

fn main() -> ExitCode {
    let all_keys: Vec<String> = registry().iter().map(|e| e.key.to_string()).collect();
    let mut cfg = SweepConfig::new(all_keys.clone(), "sweep");

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--plan" => {
                let Some(v) = it.next() else {
                    eprintln!("--plan needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg.experiments = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--all" => cfg.experiments = all_keys.clone(),
            "--list" => {
                for e in registry() {
                    println!("{:<20} {:>4}  {}", e.key, e.code, e.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => match parse_one_common_flag(&mut cfg, other, &mut it) {
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

    finish_sweep(&cfg)
}
