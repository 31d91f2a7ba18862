//! Metric definitions and how each is computed from samples.
//!
//! Names, units, directions and bounds are declared once, in the
//! repository's `BENCHMARK.json`; the tables here say how to compute
//! each one and are checked against that file by the tests.

use crate::replay::{Layer, LAYERS};
use crate::sample::Sample;
use crate::stats::Summary;
use crate::workloads::Case;

/// One reported metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
    pub values: Vec<f64>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, values: Vec<f64>) -> Option<Metric> {
        Some(Metric {
            name,
            unit,
            summary: Summary::of(&values)?,
            values,
        })
    }
}

/// End-to-end metrics, measured with tracing off. Host times are scaled
/// to reference host speed (see `Sample::speed`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_ops_per_s", "ops/s"),
    ("case_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// One value of each end-to-end metric per sample.
pub fn end_to_end(samples: &[Sample]) -> Vec<Metric> {
    let per = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let values = [
        per(|s| s.completed_ops as f64 / (s.run_s * s.speed)),
        per(|s| s.case_s * s.speed),
        per(|s| (s.generate_s + s.new_s) * s.speed),
        per(|s| s.peak_rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .filter_map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect()
}

/// Per-layer metrics: `(name, unit, exact)`. Exact metrics are counts or
/// simulated quantities that repeat bit for bit for one seed.
pub const PER_LAYER: [(&str, &str, bool); 36] = [
    ("workloads.generate_s", "s", false),
    ("sim.machine.new_s", "s", false),
    ("sim.machine.run_s", "s", false),
    ("sim.machine.unattributed_s", "s", false),
    ("harness.artifact.encode_s", "s", false),
    ("sim.private.access_ns", "ns", false),
    ("sim.private.fill_ns", "ns", false),
    ("sim.private.probe_ns", "ns", false),
    ("sim.private.l1_misses", "count", true),
    ("sim.private.l2_misses", "count", true),
    ("sim.private.l2_hit_ratio", "ratio", true),
    ("sim.bank.dir_view_ns", "ns", false),
    ("sim.bank.dir_install_ns", "ns", false),
    ("sim.bank.llc_ns", "ns", false),
    ("core.dir.lookups", "count", true),
    ("core.dir.hit_ratio", "ratio", true),
    ("core.dir.allocations", "count", true),
    ("core.dir.silent_evictions", "count", true),
    ("core.dir.invalidating_evictions", "count", true),
    ("core.dir.copies_invalidated", "count", true),
    ("protocol.decide_ns", "ns", false),
    ("sim.bank.discoveries", "count", true),
    ("sim.bank.discovery_found_ratio", "ratio", true),
    ("sim.bank.mean_inv_round_size", "count", true),
    ("noc.send_ns", "ns", false),
    ("noc.total_messages", "count", true),
    ("noc.flit_hops", "count", true),
    ("noc.mean_latency", "cycles", true),
    ("sim.event.push_pop_ns", "ns", false),
    ("mem.dram.access_ns", "ns", false),
    ("mem.llc.misses", "count", true),
    ("mem.dram.accesses", "count", true),
    ("mem.dram.queue_cycles", "cycles", true),
    ("sim.cycles", "cycles", true),
    ("trace.overhead_frac", "ratio", false),
    ("host.speed", "ratio", false),
];

/// `true` for metrics that must repeat exactly for one seed.
pub fn is_exact(name: &str) -> bool {
    PER_LAYER.iter().any(|&(n, _, exact)| n == name && exact)
}

/// Calls the real run made into `layer`, from its report counters.
///
/// Exact where the report counts the call itself; otherwise the counter
/// that bounds it (one directory update per demand or `Put`, one
/// push/pop per issue or message event).
pub fn real_calls(layer: Layer, s: &Sample, cores: u16) -> f64 {
    let demands = s.stat("core.misses");
    let puts = s.stat("noc.messages.wb");
    match layer {
        Layer::Access => s.completed_ops as f64,
        Layer::Fill => demands,
        Layer::Probe => {
            s.stat("noc.messages.fwd")
                + s.stat("noc.messages.inv")
                + s.stat("noc.messages.discovery")
        }
        Layer::DirView => s.stat("dir.lookups"),
        Layer::DirInstall | Layer::Decide => demands + puts,
        Layer::Llc => s.stat("llc.hits") + s.stat("llc.misses"),
        Layer::Send => s.stat("noc.total_messages"),
        Layer::PushPop => s.completed_ops as f64 + cores as f64 + demands + puts,
        Layer::Dram => s.stat("dram.accesses"),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics of one workload from its traced samples, each of
/// which carries a layer replay, and the untraced samples interleaved
/// with them. Host times are scaled to reference host speed, each by the
/// speed of the sample that took it.
pub fn per_layer(case: &Case, untraced: &[Sample], traced: &[Sample]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Sample) -> f64| traced.iter().map(f).collect::<Vec<_>>();
    let ns_per_call =
        |s: &Sample, layer| s.replay.as_ref().map_or(f64::NAN, |r| r.ns_per_call(layer)) * s.speed;
    let attributed_s = |s: &Sample| {
        LAYERS
            .iter()
            .map(|&(layer, _)| real_calls(layer, s, case.cores) * ns_per_call(s, layer))
            .sum::<f64>()
            * 1e-9
    };
    let case_s = |samples: &[Sample]| {
        Summary::of(
            &samples
                .iter()
                .map(|s| s.case_s * s.speed)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = match (case_s(traced), case_s(untraced)) {
        (Some(t), Some(u)) => vec![(t.median - u.median) / u.median],
        _ => Vec::new(),
    };

    PER_LAYER
        .iter()
        .filter_map(|&(name, unit, _)| {
            let values = match name {
                "workloads.generate_s" => per(&|s| s.generate_s * s.speed),
                "sim.machine.new_s" => per(&|s| s.new_s * s.speed),
                "sim.machine.run_s" => per(&|s| s.run_s * s.speed),
                "sim.machine.unattributed_s" => per(&|s| s.run_s * s.speed - attributed_s(s)),
                "harness.artifact.encode_s" => per(&|s| s.encode_s * s.speed),
                "sim.private.l1_misses" => per(&|s| s.stat("l1.misses")),
                "sim.private.l2_misses" => per(&|s| s.stat("l2.misses")),
                "sim.private.l2_hit_ratio" => {
                    per(&|s| ratio(s.stat("l2.hits"), s.stat("l2.hits") + s.stat("l2.misses")))
                }
                "core.dir.lookups" => per(&|s| s.stat("dir.lookups")),
                "core.dir.hit_ratio" => per(&|s| ratio(s.stat("dir.hits"), s.stat("dir.lookups"))),
                "core.dir.allocations" => per(&|s| s.stat("dir.allocations")),
                "core.dir.silent_evictions" => per(&|s| s.stat("dir.silent_evictions")),
                "core.dir.invalidating_evictions" => per(&|s| s.stat("dir.invalidating_evictions")),
                "core.dir.copies_invalidated" => per(&|s| s.stat("dir.copies_invalidated")),
                "sim.bank.discoveries" => {
                    per(&|s| s.stat("bank.discoveries") + s.stat("bank.evict_discoveries"))
                }
                "sim.bank.discovery_found_ratio" => {
                    per(&|s| ratio(s.stat("bank.discoveries_found"), s.stat("bank.discoveries")))
                }
                "sim.bank.mean_inv_round_size" => per(&|s| s.stat("bank.mean_inv_round_size")),
                "noc.total_messages" => per(&|s| s.stat("noc.total_messages")),
                "noc.flit_hops" => per(&|s| s.stat("noc.flit_hops")),
                "noc.mean_latency" => per(&|s| s.stat("noc.mean_latency")),
                "mem.llc.misses" => per(&|s| s.stat("llc.misses")),
                "mem.dram.accesses" => per(&|s| s.stat("dram.accesses")),
                "mem.dram.queue_cycles" => per(&|s| s.stat("dram.queue_cycles")),
                "sim.cycles" => per(&|s| s.cycles as f64),
                "trace.overhead_frac" => overhead.clone(),
                "host.speed" => per(&|s| s.speed),
                layer_ns => LAYERS
                    .iter()
                    .find(|&&(_, n)| n == layer_ns)
                    .map(|&(layer, _)| per(&|s| ns_per_call(s, layer)))
                    .unwrap_or_default(),
            };
            Metric::new(name, unit, values)
        })
        .collect()
}
