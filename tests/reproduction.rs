//! The paper's qualitative claims as executable assertions: these are the
//! relationships the experiment registry (`crates/harness`, `sweep --all`)
//! quantifies.

use stashdir::{CostParams, CoverageRatio, DirConfig, DirSpec, Machine, SystemConfig, Workload};

fn run(dir: DirSpec, workload: Workload, ops: usize) -> stashdir::SimReport {
    let cfg = SystemConfig::default().with_dir(dir);
    let traces = workload.generate(cfg.cores, ops, 7);
    let report = Machine::new(cfg).run(traces);
    report.assert_clean();
    report
}

/// The headline: at 1/8 coverage, stash ≈ full-map while sparse suffers,
/// on the private-dominated workloads the paper's motivation describes.
#[test]
fn stash_at_eighth_matches_fullmap_where_sparse_degrades() {
    // Private-streaming: the case the paper's motivation describes, where
    // the separation is dramatic.
    let workload = Workload::DataParallel;
    let ideal = run(DirSpec::FullMap, workload, 8_000);
    let stash = run(DirSpec::stash(CoverageRatio::new(1, 8)), workload, 8_000);
    let sparse = run(DirSpec::sparse(CoverageRatio::new(1, 8)), workload, 8_000);
    let stash_ratio = stash.cycles as f64 / ideal.cycles as f64;
    let sparse_ratio = sparse.cycles as f64 / ideal.cycles as f64;
    assert!(
        stash_ratio < 1.05,
        "stash at 1/8 should be within 5% of ideal, got {stash_ratio:.3}"
    );
    assert!(
        sparse_ratio > 1.2,
        "sparse at 1/8 should degrade badly on private streaming, got {sparse_ratio:.3}"
    );
}

/// On footprint-dominated, incidentally-shared workloads (canneal), both
/// under-provisioned organizations stay close to ideal and to each
/// other: the bottleneck is the LLC, not the directory.
#[test]
fn canneal_is_a_statistical_tie() {
    let workload = Workload::Canneal;
    let ideal = run(DirSpec::FullMap, workload, 8_000);
    let stash = run(DirSpec::stash(CoverageRatio::new(1, 8)), workload, 8_000);
    let sparse = run(DirSpec::sparse(CoverageRatio::new(1, 8)), workload, 8_000);
    let stash_ratio = stash.cycles as f64 / ideal.cycles as f64;
    let sparse_ratio = sparse.cycles as f64 / ideal.cycles as f64;
    assert!(stash_ratio < 1.12, "stash {stash_ratio:.3}");
    assert!(sparse_ratio < 1.12, "sparse {sparse_ratio:.3}");
    assert!(
        (stash_ratio - sparse_ratio).abs() < 0.05,
        "stash {stash_ratio:.3} vs sparse {sparse_ratio:.3} should be close"
    );
}

/// Directory-induced invalidations: near-zero for stash, large for sparse
/// under pressure (experiment E4's shape).
#[test]
fn stash_eliminates_directory_induced_invalidations() {
    let workload = Workload::DataParallel;
    let stash = run(DirSpec::stash(CoverageRatio::new(1, 8)), workload, 8_000);
    let sparse = run(DirSpec::sparse(CoverageRatio::new(1, 8)), workload, 8_000);
    assert!(sparse.invalidations_per_kop() > 100.0 * stash.invalidations_per_kop().max(0.01));
    assert!(stash.silent_eviction_fraction() > 0.95);
}

/// Discoveries are rare relative to the invalidations sparse pays
/// (experiment E6's justification for the broadcast).
#[test]
fn discoveries_are_rare() {
    for workload in [Workload::DataParallel, Workload::Stencil, Workload::Lu] {
        let stash = run(DirSpec::stash(CoverageRatio::new(1, 8)), workload, 8_000);
        let sparse = run(DirSpec::sparse(CoverageRatio::new(1, 8)), workload, 8_000);
        assert!(
            stash.discoveries_per_kop() < sparse.invalidations_per_kop().max(1.0),
            "{workload}: discoveries/kop {:.2} vs sparse invalidations/kop {:.2}",
            stash.discoveries_per_kop(),
            sparse.invalidations_per_kop()
        );
    }
}

/// Traffic: the stash directory's total NoC traffic at 1/8 stays below
/// the sparse directory's (discovery probes cost less than the
/// invalidation + refetch storm they replace) — experiment E7's shape.
#[test]
fn stash_traffic_beats_sparse_under_pressure() {
    let workload = Workload::DataParallel;
    let stash = run(DirSpec::stash(CoverageRatio::new(1, 8)), workload, 8_000);
    let sparse = run(DirSpec::sparse(CoverageRatio::new(1, 8)), workload, 8_000);
    assert!(
        stash.flit_hops() < sparse.flit_hops(),
        "stash {} vs sparse {}",
        stash.flit_hops(),
        sparse.flit_hops()
    );
}

/// The storage claim (E10): an eighth-size stash directory costs well
/// under half the bits of the full-size sparse directory it replaces,
/// even counting the per-LLC-line stash bits.
#[test]
fn storage_claim_holds() {
    let cfg = SystemConfig::default();
    let tracked = cfg.tracked_blocks_per_slice();
    let params: CostParams = cfg.cost_params();
    let sparse_full: Box<dyn stashdir::DirectoryModel> = DirSpec::sparse(CoverageRatio::FULL)
        .slice_config(tracked)
        .build(0);
    let stash_eighth: Box<dyn stashdir::DirectoryModel> = DirSpec::stash(CoverageRatio::new(1, 8))
        .slice_config(tracked)
        .build(0);
    // Per-slice stash bits: the chip-wide bits split across slices.
    let slice_params = CostParams {
        llc_lines: params.llc_lines / cfg.cores as u64,
        ..params
    };
    let sparse_bits = sparse_full.storage_bits(&slice_params);
    let stash_bits = stash_eighth.storage_bits(&slice_params);
    assert!(
        (stash_bits as f64) < 0.55 * sparse_bits as f64,
        "stash/8 {stash_bits} bits vs sparse {sparse_bits} bits"
    );
}

/// At generous coverage (2x), all organizations behave identically —
/// the differences only appear under pressure.
#[test]
fn generous_coverage_equalizes_everyone() {
    let workload = Workload::Stencil;
    let ideal = run(DirSpec::FullMap, workload, 6_000);
    for dir in [
        DirSpec::sparse(CoverageRatio::new(2, 1)),
        DirSpec::stash(CoverageRatio::new(2, 1)),
    ] {
        let r = run(dir, workload, 6_000);
        let ratio = r.cycles as f64 / ideal.cycles as f64;
        assert!(
            (0.98..1.02).contains(&ratio),
            "{dir:?} at 2x should match ideal, got {ratio:.3}"
        );
    }
}

/// DirConfig sizes follow coverage arithmetic end to end.
#[test]
fn coverage_resolves_to_expected_slice_entries() {
    let cfg = SystemConfig::default();
    assert_eq!(cfg.tracked_blocks_per_slice(), 4096);
    let slice: DirConfig = DirSpec::stash(CoverageRatio::new(1, 8)).slice_config(4096);
    assert_eq!(slice.entries(), 512);
}
