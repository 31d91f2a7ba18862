//! E16 (Figure M, extension): the stash directory *over time* — how fast
//! occupancy saturates, when hiding kicks in, and how the discovery rate
//! settles. Rendered as a table plus terminal sparklines.

use stashdir::{CoverageRatio, DirSpec, Machine, SystemConfig, Workload};
use stashdir_harness::{n0, Params, Table};

/// Renders a unicode sparkline of `values` scaled to their max.
fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| BARS[((v * 7) / max) as usize])
        .collect()
}

fn main() {
    let params = Params::default();
    let workload = std::env::args()
        .nth(1)
        .and_then(|n| Workload::from_name(&n))
        .unwrap_or(Workload::Canneal);
    let cfg = SystemConfig::default()
        .with_dir(DirSpec::stash(CoverageRatio::new(1, 8)))
        .with_timeline(50_000);
    let capacity = cfg.dir_slice().entries() * cfg.cores as usize;
    let traces = workload.generate(cfg.cores, params.ops, params.seed);
    let report = Machine::new(cfg).run(traces);
    report.assert_clean();

    let mut table = Table::new(
        format!("E16 / Fig M — stash@1/8 time series on {workload} (sampled every 50k cycles)"),
        &[
            "cycle",
            "dir_occ",
            "occ_%",
            "ops",
            "silent_cum",
            "inval_cum",
            "disc_cum",
        ],
    );
    for s in &report.timeline {
        table.row(vec![
            s.cycle.to_string(),
            s.dir_occupancy.to_string(),
            format!("{:.0}%", 100.0 * s.dir_occupancy as f64 / capacity as f64),
            s.ops.to_string(),
            n0(s.silent_evictions as f64),
            n0(s.invalidating_evictions as f64),
            n0(s.discoveries as f64),
        ]);
    }
    table.print();
    table.save_csv("e16_timeline");

    // Per-interval rates as sparklines.
    let deltas = |f: fn(&stashdir::sim::report::TimelineSample) -> u64| -> Vec<u64> {
        report
            .timeline
            .windows(2)
            .map(|w| f(&w[1]).saturating_sub(f(&w[0])))
            .collect()
    };
    println!(
        "occupancy  {}",
        sparkline(
            &report
                .timeline
                .iter()
                .map(|s| s.dir_occupancy)
                .collect::<Vec<_>>()
        )
    );
    println!("hides/int  {}", sparkline(&deltas(|s| s.silent_evictions)));
    println!("disc/int   {}", sparkline(&deltas(|s| s.discoveries)));
    println!(
        "\n{} samples over {} cycles; directory capacity {capacity} entries.",
        report.timeline.len(),
        report.cycles
    );
}
