//! Coverage sweep: how far can the directory shrink before performance
//! collapses? Reproduces the shape of the paper's headline figure on one
//! workload (`sweep --plan perf_vs_coverage` runs all of them).
//!
//! ```sh
//! cargo run --release --example coverage_sweep [workload]
//! ```

use stashdir::{CoverageRatio, DirSpec, Machine, SystemConfig, Workload};

fn run(dir: DirSpec, workload: Workload, cores: u16) -> f64 {
    let config = SystemConfig::default().with_cores(cores).with_dir(dir);
    let traces = workload.generate(cores, 15_000, 7);
    let report = Machine::new(config).run(traces);
    report.assert_clean();
    report.cycles as f64
}

fn main() {
    let workload = std::env::args()
        .nth(1)
        .and_then(|n| Workload::from_name(&n))
        .unwrap_or(Workload::Fft);
    let cores = 16;
    println!("workload: {workload}, {cores} cores; execution time normalized to full-map\n");

    let ideal = run(DirSpec::FullMap, workload, cores);
    println!("{:>10} {:>12} {:>12}", "coverage", "sparse", "stash");
    for coverage in CoverageRatio::sweep() {
        let sparse = run(DirSpec::sparse(coverage), workload, cores) / ideal;
        let stash = run(DirSpec::stash(coverage), workload, cores) / ideal;
        println!(
            "{:>10} {:>11.3}x {:>11.3}x",
            coverage.to_string(),
            sparse,
            stash
        );
    }

    println!(
        "\nExpected shape: sparse degrades as coverage shrinks; \
         stash stays near 1.0x down to 1/8 and below."
    );
}
