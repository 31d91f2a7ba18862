//! One sample: a whole case run to completion, timed from outside at the
//! public calls into each layer, and checked for correctness.

use crate::replay::{self, Replay};
use crate::workloads::Case;
use stashdir::common::json::Value;
use stashdir::{Machine, SimReport};
use stashdir_harness::artifact::report_to_json;
use stashdir_harness::digest::fnv1a;
use std::time::Instant;

/// Report counters the per-layer metrics need, copied out of the run.
pub const REPORT_STATS: [&str; 25] = [
    "core.misses",
    "l1.misses",
    "l2.hits",
    "l2.misses",
    "llc.hits",
    "llc.misses",
    "dir.lookups",
    "dir.hits",
    "dir.allocations",
    "dir.silent_evictions",
    "dir.invalidating_evictions",
    "dir.copies_invalidated",
    "bank.discoveries",
    "bank.discoveries_found",
    "bank.evict_discoveries",
    "bank.mean_inv_round_size",
    "noc.total_messages",
    "noc.flit_hops",
    "noc.mean_latency",
    "noc.messages.wb",
    "noc.messages.fwd",
    "noc.messages.inv",
    "noc.messages.discovery",
    "dram.accesses",
    "dram.queue_cycles",
];

/// Time the calibration kernel takes at reference host speed: its
/// median on the host the baseline was recorded on.
const REFERENCE_CALIBRATION_S: f64 = 0.0072;

/// A span recorded around one call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Seconds since the sample started.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
}

/// Everything one sample measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub generate_s: f64,
    pub new_s: f64,
    pub run_s: f64,
    pub encode_s: f64,
    pub case_s: f64,
    /// Peak resident set of the process, MiB (`VmHWM`).
    pub peak_rss_mb: f64,
    /// Host speed when the sample ran, relative to the reference host;
    /// every host time is reported multiplied by it.
    pub speed: f64,
    pub cycles: u64,
    pub completed_ops: u64,
    /// FNV-1a of the canonical report artifact.
    pub digest: u64,
    /// Why the sample is wrong; empty when it is correct.
    pub problems: Vec<String>,
    /// `REPORT_STATS`, in order (absent keys read 0).
    pub stats: Vec<f64>,
    /// Spans and layer replay, recorded only by traced samples.
    pub spans: Vec<Span>,
    pub replay: Option<Replay>,
}

impl Sample {
    /// A report counter; `key` must be one of `REPORT_STATS`.
    pub fn stat(&self, key: &str) -> f64 {
        let i = REPORT_STATS
            .iter()
            .position(|k| *k == key)
            .expect("counter listed in REPORT_STATS");
        self.stats[i]
    }
}

/// Runs `case` on traces generated from `seed`. A traced sample also
/// records spans and then, after the timed case, replays the traces
/// through the layers one call at a time.
pub fn measure(case: &Case, seed: u64, traced: bool) -> Sample {
    let speed_before = host_speed();
    let t0 = Instant::now();
    let since = |t: Instant| t.duration_since(t0).as_secs_f64();

    let traces = case.workload.generate(case.cores, case.ops, seed);
    let t_gen = Instant::now();
    let machine = Machine::new(case.config());
    let t_new = Instant::now();
    let report = machine.run(traces);
    let t_run = Instant::now();
    let rendered = report_to_json(&report).render();
    let t_enc = Instant::now();
    // Host speed drifts slowly; the mean of both ends tracks the case.
    let speed = (speed_before + host_speed()) / 2.0;

    let spans = if traced {
        let span = |name: &str, a: f64, b: f64| Span {
            name: name.to_string(),
            start: a,
            end: b,
            parent: Some(0),
        };
        vec![
            Span {
                name: "case".to_string(),
                start: 0.0,
                end: since(t_enc),
                parent: None,
            },
            span("workloads.generate", 0.0, since(t_gen)),
            span("sim.machine.new", since(t_gen), since(t_new)),
            span("sim.machine.run", since(t_new), since(t_run)),
            span("harness.artifact.encode", since(t_run), since(t_enc)),
        ]
    } else {
        Vec::new()
    };

    let expected_ops = case.cores as u64 * case.ops as u64;
    let mut problems: Vec<String> = report.violations.iter().take(3).cloned().collect();
    if report.completed_ops != expected_ops {
        problems.push(format!(
            "completed {} ops, expected {expected_ops}",
            report.completed_ops
        ));
    }
    let peak_rss_mb = peak_rss_mb().unwrap_or_else(|| {
        problems.push("peak RSS unavailable: /proc/self/status has no VmHWM".into());
        f64::NAN
    });
    let stats = stats_of(&report);
    let replay = traced.then(|| {
        let traces = case.workload.generate(case.cores, case.ops, seed);
        replay::run(&case.config(), &traces)
    });

    Sample {
        generate_s: t_gen.duration_since(t0).as_secs_f64(),
        new_s: t_new.duration_since(t_gen).as_secs_f64(),
        run_s: t_run.duration_since(t_new).as_secs_f64(),
        encode_s: t_enc.duration_since(t_run).as_secs_f64(),
        case_s: since(t_enc),
        peak_rss_mb,
        speed,
        cycles: report.cycles,
        completed_ops: report.completed_ops,
        digest: fnv1a(rendered.as_bytes()),
        problems,
        stats,
        spans,
        replay,
    }
}

fn stats_of(report: &SimReport) -> Vec<f64> {
    REPORT_STATS.iter().map(|k| report.stat(k)).collect()
}

/// Host speed relative to the reference host, from a fixed kernel that
/// shares no code with the simulator: random read-modify-writes over a
/// 2 MiB array, timed five times, median taken. On a shared host,
/// neighbours' load slows the simulator by up to ~2x over minutes, and
/// this kernel slows with it, so host times scaled by its speed compare
/// across runs.
fn host_speed() -> f64 {
    const WORDS: usize = 1 << 18;
    let mut v: Vec<u64> = (0..WORDS as u64).collect();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let w = &mut v[x as usize & (WORDS - 1)];
                *w = w.wrapping_add(acc);
                acc = acc.wrapping_add(*w >> 3);
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    std::hint::black_box(acc);
    times.sort_by(f64::total_cmp);
    REFERENCE_CALIBRATION_S / times[2]
}

/// The process's peak resident set (`VmHWM`) in MiB, from procfs.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

impl Sample {
    /// The sample as one JSON line (child → parent).
    pub fn to_json(&self) -> Value {
        let num = |v: f64| Value::Number(v);
        let mut fields = vec![
            ("generate_s".into(), num(self.generate_s)),
            ("new_s".into(), num(self.new_s)),
            ("run_s".into(), num(self.run_s)),
            ("encode_s".into(), num(self.encode_s)),
            ("case_s".into(), num(self.case_s)),
            ("peak_rss_mb".into(), num(self.peak_rss_mb)),
            ("speed".into(), num(self.speed)),
            ("cycles".into(), Value::from(self.cycles)),
            ("completed_ops".into(), Value::from(self.completed_ops)),
            // A string: a u64 does not survive a trip through f64.
            (
                "digest".into(),
                Value::from(format!("{:016x}", self.digest)),
            ),
            (
                "problems".into(),
                Value::array(
                    self.problems
                        .iter()
                        .map(|p| Value::from(p.as_str()))
                        .collect(),
                ),
            ),
            (
                "stats".into(),
                Value::array(self.stats.iter().map(|&v| num(v)).collect()),
            ),
            (
                "spans".into(),
                Value::array(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::object(vec![
                                ("name".into(), Value::from(s.name.as_str())),
                                ("start".into(), num(s.start)),
                                ("end".into(), num(s.end)),
                                ("parent".into(), s.parent.map_or(Value::Null, Value::from)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(r) = &self.replay {
            fields.push(("replay".into(), r.to_json()));
        }
        Value::object(fields)
    }

    /// Parses a child's JSON line; `None` when malformed.
    pub fn from_json(v: &Value) -> Option<Sample> {
        let f = |k: &str| v.get(k)?.as_f64();
        let spans = v
            .get("spans")?
            .as_array()?
            .iter()
            .map(|s| {
                Some(Span {
                    name: s.get("name")?.as_str()?.to_string(),
                    start: s.get("start")?.as_f64()?,
                    end: s.get("end")?.as_f64()?,
                    parent: match s.get("parent")? {
                        Value::Null => None,
                        p => Some(p.as_u64()? as usize),
                    },
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let stats = v
            .get("stats")?
            .as_array()?
            .iter()
            .map(Value::as_f64)
            .collect::<Option<Vec<_>>>()?;
        if stats.len() != REPORT_STATS.len() {
            return None;
        }
        Some(Sample {
            generate_s: f("generate_s")?,
            new_s: f("new_s")?,
            run_s: f("run_s")?,
            encode_s: f("encode_s")?,
            case_s: f("case_s")?,
            peak_rss_mb: f("peak_rss_mb").unwrap_or(f64::NAN),
            speed: f("speed")?,
            cycles: v.get("cycles")?.as_u64()?,
            completed_ops: v.get("completed_ops")?.as_u64()?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            problems: v
                .get("problems")?
                .as_array()?
                .iter()
                .map(|p| p.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
            stats,
            spans,
            replay: match v.get("replay") {
                Some(r) => Some(Replay::from_json(r)?),
                None => None,
            },
        })
    }
}
