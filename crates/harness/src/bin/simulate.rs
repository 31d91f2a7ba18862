//! A command-line front end for one-off simulations.
//!
//! ```sh
//! cargo run --release -p stashdir-harness --bin simulate -- \
//!     --workload canneal --dir limited-ptr2@1/8 --cores 16 \
//!     --ops 20000 --seed 7 --full-stats
//! ```
//!
//! Prints the headline numbers (cycles, miss latency, eviction and
//! discovery counts) and, with `--full-stats`, the entire statistics
//! sink as CSV.

use stashdir::sim::config::DIR_KIND_HELP;
use stashdir::{CoverageRatio, DirSpec, Machine, SystemConfig, Workload};
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    workload: Workload,
    dir: DirSpec,
    cores: u16,
    ops: usize,
    seed: u64,
    notify: bool,
    full_stats: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: Workload::DataParallel,
            dir: DirSpec::stash(CoverageRatio::new(1, 8)),
            cores: 16,
            ops: 10_000,
            seed: 7,
            notify: true,
            full_stats: false,
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = Workload::suite().iter().map(|w| w.name()).collect();
    format!(
        "usage: simulate [options]\n\
         \x20 --workload <name>    one of: {}\n\
         \x20 --dir <spec>         directory spec (default stash@1/8), one of:\n\
         \x20                      {}\n\
         \x20 --cores <n>          power-of-two core count (default 16)\n\
         \x20 --ops <n>            operations per core (default 10000)\n\
         \x20 --seed <n>           workload seed (default 7)\n\
         \x20 --no-notify          silent clean evictions (ablation)\n\
         \x20 --full-stats         dump every counter as CSV",
        names.join(" | "),
        DIR_KIND_HELP
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workload =
                    Workload::from_name(&v).ok_or_else(|| format!("unknown workload {v}"))?;
            }
            "--dir" => {
                args.dir = value("--dir")?
                    .parse()
                    .map_err(|e| format!("bad --dir: {e}\n{}", usage()))?;
            }
            "--cores" => {
                let v = value("--cores")?;
                args.cores = v
                    .parse()
                    .ok()
                    .filter(|n: &u16| n.is_power_of_two())
                    .ok_or_else(|| {
                        format!("bad core count `{v}`: expected a power of two, e.g. 16")
                    })?;
            }
            "--ops" => {
                args.ops = value("--ops")?
                    .parse()
                    .map_err(|e| format!("bad op count: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--no-notify" => args.notify = false,
            "--full-stats" => args.full_stats = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = SystemConfig::default()
        .with_cores(args.cores)
        .with_dir(args.dir);
    config.notify_clean_evictions = args.notify;

    eprintln!(
        "simulating {} on {} cores, {} ({} ops/core, seed {}) ...",
        args.workload, args.cores, config.dir, args.ops, args.seed
    );
    let traces = args.workload.generate(args.cores, args.ops, args.seed);
    let report = Machine::new(config).run(traces);
    if !report.violations.is_empty() {
        eprintln!("COHERENCE VIOLATIONS:");
        for v in report.violations.iter().take(10) {
            eprintln!("  {v}");
        }
        return ExitCode::FAILURE;
    }

    println!("cycles                 {}", report.cycles);
    println!("ops retired            {}", report.completed_ops);
    println!(
        "mean miss latency      {:.1} cyc over {} misses",
        report.stat("core.mean_miss_latency"),
        report.stat("core.misses"),
    );
    println!(
        "dir evictions          {} silent / {} invalidating ({} copies lost)",
        report.stat("dir.silent_evictions"),
        report.stat("dir.invalidating_evictions"),
        report.stat("dir.copies_invalidated"),
    );
    println!(
        "discoveries            {} demand ({} found, {} stale) + {} for LLC evictions",
        report.stat("bank.discoveries"),
        report.stat("bank.discoveries_found"),
        report.stat("bank.discoveries_stale"),
        report.stat("bank.evict_discoveries"),
    );
    println!("noc flit-hops          {}", report.stat("noc.flit_hops"));
    println!("dram accesses          {}", report.stat("dram.accesses"));
    if args.full_stats {
        println!("\n{}", report.sink.to_csv());
    }
    ExitCode::SUCCESS
}
