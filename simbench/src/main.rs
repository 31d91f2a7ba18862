//! End-to-end and per-layer benchmark of the stashdir simulator.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark --compare BASE CHANGE
//! ```
//!
//! Each sample is one whole case run to completion in a fresh child
//! process (a re-exec of this binary), one child at a time. Samples go
//! round-robin across the selected workloads: one discarded warm-up
//! round, then measured rounds until `--seconds` have passed. With
//! `--trace 1` the rounds pair an untraced with a traced sample (spans
//! plus a layer replay) and the per-layer metrics are reported instead;
//! without `--trace` both phases
//! run. The last line of stdout is one JSON object with the verdict and
//! every metric's median. See README.md.

mod compare;
mod metrics;
mod replay;
mod sample;
mod stats;
mod workloads;

use metrics::Metric;
use sample::Sample;
use stashdir::common::json::Value;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::{Case, CASES};

/// The benchmark definition: metric names, units, directions, bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Recorded baseline and the expected report digests.
const BASELINE_JSON: &str = include_str!("../baseline.json");

/// Measured rounds always run, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

const USAGE: &str =
    "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark --compare BASE CHANGE   (each a results file or a directory of them)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(Cmd::Child { case, seed, traced }) => child(&case, seed, traced),
        Ok(Cmd::Run(opts)) => run(&opts),
        Ok(Cmd::Compare { base, change }) => compare::main(&base, &change),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

struct Opts {
    cases: Vec<Case>,
    seed: u64,
    seconds: f64,
    /// `None`: the timed rounds, then the traced rounds.
    trace: Option<bool>,
    out: Option<PathBuf>,
}

enum Cmd {
    Run(Opts),
    Child { case: Case, seed: u64, traced: bool },
    Compare { base: PathBuf, change: PathBuf },
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut opts = Opts {
        cases: Vec::new(),
        seed: 7,
        seconds: 60.0,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let case =
                    Case::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                opts.cases.push(case);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let base = PathBuf::from(value()?);
                let change = PathBuf::from(value()?);
                return Ok(Cmd::Compare { base, change });
            }
            "--child" => {
                let name = value()?;
                let case =
                    Case::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                let traced = match value()?.as_str() {
                    "plain" => false,
                    "traced" => true,
                    m => return Err(format!("unknown child mode {m:?}")),
                };
                let seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--child NAME plain|traced SEED")?;
                return Ok(Cmd::Child { case, seed, traced });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.cases.is_empty() {
        opts.cases = CASES.to_vec();
    }
    Ok(Cmd::Run(opts))
}

/// Child side: run one sample and print it as one JSON line.
fn child(case: &Case, seed: u64, traced: bool) -> i32 {
    let s = sample::measure(case, seed, traced);
    println!("{}", s.to_json().render());
    0
}

/// Runs one sample in a fresh child process.
fn spawn(case: &Case, seed: u64, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mode = if traced { "traced" } else { "plain" };
    let out = Command::new(exe)
        .args(["--child", case.name, mode, &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    Value::parse(line)
        .ok()
        .as_ref()
        .and_then(Sample::from_json)
        .ok_or_else(|| "child printed no sample".to_string())
}

/// Every sample of one workload, split by phase, plus its failures.
struct Log {
    case: Case,
    /// Expected report digest for this seed, when recorded.
    expected: Option<u64>,
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
    timed: Vec<Sample>,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
}

impl Log {
    /// Checks a sample; returns it only when it is correct.
    fn check(&mut self, got: Result<Sample, String>) -> Option<Sample> {
        self.attempted += 1;
        let why = match got {
            Err(e) => e,
            Ok(s) if !s.problems.is_empty() => s.problems.join("; "),
            Ok(s) if self.digest.is_some_and(|d| d != s.digest) => format!(
                "report digest {:016x} differs from this run's earlier {:016x}",
                s.digest,
                self.digest.unwrap_or_default()
            ),
            Ok(s) if self.expected.is_some_and(|d| d != s.digest) => format!(
                "report digest {:016x} differs from the recorded {:016x}",
                s.digest,
                self.expected.unwrap_or_default()
            ),
            Ok(s) => {
                self.digest = Some(s.digest);
                return Some(s);
            }
        };
        self.failed += 1;
        eprintln!("benchmark: {} sample failed: {why}", self.case.name);
        None
    }
}

fn run(opts: &Opts) -> i32 {
    let mut logs: Vec<Log> = opts
        .cases
        .iter()
        .map(|&case| Log {
            case,
            expected: expected_digest(case.name, opts.seed),
            digest: None,
            attempted: 0,
            failed: 0,
            timed: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
        })
        .collect();
    let seed = opts.seed;

    // The budget covers the warm-up round too, so a run takes about
    // `--seconds` plus the sample in flight when it runs out.
    let start = Instant::now();
    let budget_left = || start.elapsed().as_secs_f64() < opts.seconds;

    // Warm-up round: checked for correctness, not measured.
    for log in &mut logs {
        let got = spawn(&log.case, seed, false);
        log.check(got);
    }
    if opts.trace != Some(true) {
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || budget_left() {
            for log in &mut logs {
                let got = spawn(&log.case, seed, false);
                let ok = log.check(got);
                log.timed.extend(ok);
            }
            rounds += 1;
        }
    }
    if opts.trace != Some(false) {
        // Untraced and traced samples alternate so drift hits both alike.
        let mut rounds = 0;
        while rounds < 1 || (opts.trace == Some(true) && budget_left()) {
            for log in &mut logs {
                let got = spawn(&log.case, seed, false);
                let ok = log.check(got);
                log.untraced.extend(ok);
                let got = spawn(&log.case, seed, true);
                let ok = log.check(got);
                log.traced.extend(ok);
            }
            rounds += 1;
        }
    }

    let reported: Vec<(&Log, Vec<Metric>)> = logs
        .iter()
        .map(|log| {
            let mut m = metrics::end_to_end(&log.timed);
            m.extend(metrics::per_layer(&log.case, &log.untraced, &log.traced));
            (log, m)
        })
        .collect();
    for (log, ms) in &reported {
        for m in ms {
            let s = m.summary;
            println!(
                "{} {} {} {} ({} {} {})",
                log.case.name, m.name, s.median, m.unit, s.q1, s.q3, s.n
            );
        }
    }
    if let Err(e) = write_outputs(opts, &reported) {
        eprintln!("benchmark: cannot write results: {e}");
    }

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let single = logs.len() == 1;
    let metrics = reported
        .iter()
        .flat_map(|(log, ms)| {
            ms.iter().map(move |m| {
                let key = if single {
                    m.name.to_string()
                } else {
                    format!("{}.{}", log.case.name, m.name)
                };
                (
                    key,
                    Value::object(vec![
                        ("value".into(), Value::Number(m.summary.median)),
                        ("unit".into(), Value::from(m.unit)),
                    ]),
                )
            })
        })
        .collect();
    let verdict = Value::object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::from(attempted)),
        ("failed".into(), Value::from(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", verdict.render());
    i32::from(failed > 0)
}

/// The report digest `baseline.json` records for `workload` at `seed`.
fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    let doc = Value::parse(BASELINE_JSON).expect("baseline.json parses");
    let hex = doc
        .get("expected_digest")?
        .get(workload)?
        .get(&seed.to_string())?
        .as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// Writes `results-<seed>.json` and, after traced rounds,
/// `trace-<seed>.json` under `target/benchmark/`.
fn write_outputs(opts: &Opts, reported: &[(&Log, Vec<Metric>)]) -> std::io::Result<()> {
    let dir = PathBuf::from("target/benchmark");
    let results = opts
        .out
        .clone()
        .unwrap_or_else(|| dir.join(format!("results-{}.json", opts.seed)));
    std::fs::create_dir_all(&dir)?;
    if let Some(parent) = results.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let workloads = reported
        .iter()
        .map(|(log, ms)| {
            let metrics = ms
                .iter()
                .map(|m| {
                    let s = m.summary;
                    (
                        m.name.to_string(),
                        Value::object(vec![
                            ("median".into(), Value::Number(s.median)),
                            ("q1".into(), Value::Number(s.q1)),
                            ("q3".into(), Value::Number(s.q3)),
                            ("n".into(), Value::from(s.n)),
                            ("unit".into(), Value::from(m.unit)),
                            (
                                "values".into(),
                                Value::array(m.values.iter().map(|&v| Value::Number(v)).collect()),
                            ),
                        ]),
                    )
                })
                .collect();
            (
                log.case.name.to_string(),
                Value::object(vec![
                    (
                        "digest".into(),
                        log.digest
                            .map_or(Value::Null, |d| Value::from(format!("{d:016x}"))),
                    ),
                    ("attempted".into(), Value::from(log.attempted)),
                    ("failed".into(), Value::from(log.failed)),
                    ("metrics".into(), Value::Object(metrics)),
                ]),
            )
        })
        .collect();
    let doc = Value::object(vec![
        ("schema".into(), Value::from("stashdir/benchmark/v1")),
        ("seed".into(), Value::from(opts.seed)),
        ("nproc".into(), Value::from(nproc())),
        ("rustc".into(), Value::from(rustc_version())),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    std::fs::write(&results, doc.render_pretty())?;

    let spans: Vec<Value> = reported
        .iter()
        .flat_map(|(log, _)| {
            log.traced.iter().enumerate().flat_map(move |(id, s)| {
                s.spans.iter().map(move |sp| {
                    Value::object(vec![
                        ("sample".into(), Value::from(id)),
                        ("workload".into(), Value::from(log.case.name)),
                        ("name".into(), Value::from(sp.name.as_str())),
                        ("start".into(), Value::Number(sp.start)),
                        ("end".into(), Value::Number(sp.end)),
                        ("parent".into(), sp.parent.map_or(Value::Null, Value::from)),
                    ])
                })
            })
        })
        .collect();
    if !spans.is_empty() {
        let doc = Value::object(vec![
            ("schema".into(), Value::from("stashdir/benchmark-trace/v1")),
            ("seed".into(), Value::from(opts.seed)),
            ("spans".into(), Value::array(spans)),
        ]);
        std::fs::write(
            dir.join(format!("trace-{}.json", opts.seed)),
            doc.render_pretty(),
        )?;
    }
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stderr(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(section: &str) -> Vec<(String, String)> {
        let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Value::as_array)
            .expect("section present")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_follow_the_grammar_and_caps() {
        let e2e = listed("end_to_end");
        let layer = listed("per_layer");
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layer.len()));
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in e2e.iter().chain(&layer).chain(&listed("workloads")) {
            assert!(is_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        // The code computes exactly what the file declares, in order.
        let code = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(e2e, code(&metrics::END_TO_END));
        let per: Vec<(&str, &str)> = metrics::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(layer, code(&per));
    }

    #[test]
    fn a_small_run_emits_every_listed_metric_and_workload() {
        for (name, _) in listed("workloads") {
            let case = Case::by_name(&name)
                .expect("listed workload exists")
                .scaled(4, 50);
            let untraced = sample::measure(&case, 7, false);
            let traced = sample::measure(&case, 7, true);
            assert!(untraced.problems.is_empty(), "{:?}", untraced.problems);
            let mut emitted: Vec<&str> = metrics::end_to_end(std::slice::from_ref(&untraced))
                .iter()
                .map(|m| m.name)
                .collect();
            emitted.extend(
                metrics::per_layer(&case, &[untraced], &[traced])
                    .iter()
                    .map(|m| m.name),
            );
            for (metric, _) in listed("end_to_end").iter().chain(&listed("per_layer")) {
                assert!(emitted.contains(&metric.as_str()), "{name} lacks {metric}");
            }
        }
    }

    #[test]
    fn runs_repeat_their_digest() {
        let case = CASES[1].scaled(4, 200);
        let a = sample::measure(&case, 11, false);
        let b = sample::measure(&case, 11, false);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, sample::measure(&case, 12, false).digest);
    }

    #[test]
    fn samples_survive_the_trip_through_json() {
        let case = CASES[0].scaled(4, 50);
        let s = sample::measure(&case, 7, true);
        let line = s.to_json().render();
        let back = Sample::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
