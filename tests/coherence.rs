//! Cross-crate integration: every workload in the suite runs coherently
//! on every directory organization, with the machine-wide invariant
//! checker sampling throughout the run.

use stashdir::{CoverageRatio, DirSpec, Machine, SystemConfig, Workload};

/// A reduced machine (8 cores, quarter-size caches) so the whole matrix
/// stays fast while still exercising conflicts at every level.
fn small_config(dir: DirSpec) -> SystemConfig {
    use stashdir::mem::CacheConfig;
    SystemConfig {
        cores: 8,
        l1: CacheConfig::new(8 * 1024, 4, 64, 1),
        l2: CacheConfig::new(64 * 1024, 8, 64, 8),
        llc_bank: CacheConfig::new(256 * 1024, 16, 64, 24),
        dir,
        ..SystemConfig::default()
    }
    .with_check_interval(500)
}

#[test]
fn every_workload_is_coherent_under_stash_at_eighth() {
    for workload in Workload::suite() {
        let cfg = small_config(DirSpec::stash(CoverageRatio::new(1, 8)));
        let traces = workload.generate(cfg.cores, 3_000, 11);
        let report = Machine::new(cfg).run(traces);
        assert!(
            report.violations.is_empty(),
            "{workload}: {:?}",
            &report.violations[..report.violations.len().min(3)]
        );
        assert_eq!(report.completed_ops, 8 * 3_000, "{workload}");
    }
}

#[test]
fn every_workload_is_coherent_under_sparse_at_eighth() {
    for workload in Workload::suite() {
        let cfg = small_config(DirSpec::sparse(CoverageRatio::new(1, 8)));
        let traces = workload.generate(cfg.cores, 3_000, 12);
        let report = Machine::new(cfg).run(traces);
        assert!(
            report.violations.is_empty(),
            "{workload}: {:?}",
            &report.violations[..report.violations.len().min(3)]
        );
    }
}

#[test]
fn every_workload_is_coherent_under_cuckoo() {
    for workload in Workload::suite() {
        let cfg = small_config(DirSpec::Cuckoo {
            coverage: CoverageRatio::new(1, 8),
        });
        let traces = workload.generate(cfg.cores, 2_000, 13);
        let report = Machine::new(cfg).run(traces);
        assert!(
            report.violations.is_empty(),
            "{workload}: {:?}",
            &report.violations[..report.violations.len().min(3)]
        );
    }
}

#[test]
fn silent_clean_evictions_stay_coherent() {
    for workload in [Workload::Canneal, Workload::Migratory, Workload::Uniform] {
        let mut cfg = small_config(DirSpec::stash(CoverageRatio::new(1, 16)));
        cfg.notify_clean_evictions = false;
        let traces = workload.generate(cfg.cores, 3_000, 14);
        let report = Machine::new(cfg).run(traces);
        assert!(
            report.violations.is_empty(),
            "{workload}: {:?}",
            &report.violations[..report.violations.len().min(3)]
        );
    }
}

#[test]
fn scaling_to_32_cores_is_coherent() {
    let mut cfg = small_config(DirSpec::stash(CoverageRatio::new(1, 8)));
    cfg = cfg.with_cores(32);
    let traces = Workload::Fft.generate(32, 1_500, 15);
    let report = Machine::new(cfg).run(traces);
    report.assert_clean();
    assert_eq!(report.completed_ops, 32 * 1_500);
}

#[test]
fn every_workload_is_coherent_under_dls_and_opaque() {
    for dir in [DirSpec::Dls, DirSpec::opaque(CoverageRatio::new(1, 8))] {
        for workload in Workload::suite() {
            let cfg = small_config(dir);
            let traces = workload.generate(cfg.cores, 2_000, 17);
            let report = Machine::new(cfg).run(traces);
            assert!(
                report.violations.is_empty(),
                "{workload} on {dir}: {:?}",
                &report.violations[..report.violations.len().min(3)]
            );
            assert_eq!(report.completed_ops, 8 * 2_000, "{workload} on {dir}");
        }
    }
}

/// Regression: an Upgrade queued behind other transactions on its block
/// can lose its Shared copy to a crossing invalidation; an *overflowed*
/// limited-pointer entry claims every core, so the home cannot prune the
/// requester from the view and used to grant data-less permission to a
/// dead copy ("data-less grant targets a live copy" panic, E18 migratory
/// at 10k ops). The home now refills such upgrades with data, modelling
/// the requester's retry-as-GetM.
#[test]
fn overflowed_upgrade_crossing_an_inv_refills_data() {
    let spec = DirSpec::LimitedPtr {
        coverage: CoverageRatio::new(576, 4096),
        assoc: 9,
        k: 2,
    };
    let cfg = SystemConfig::default().with_dir(spec);
    let traces = Workload::Migratory.generate(cfg.cores, 6_000, 7);
    let report = Machine::new(cfg).run(traces);
    report.assert_clean();
    assert_eq!(report.completed_ops, 16 * 6_000);
}

#[test]
fn limited_pointer_formats_stay_coherent() {
    use stashdir::SharerFormat;
    for k in [1u8, 2] {
        // The limited-pointer spec resolves to exactly the stash slice
        // with a limited-pointer sharer format.
        let spec = DirSpec::limited_ptr(CoverageRatio::new(1, 8), k);
        let stash = small_config(DirSpec::stash(CoverageRatio::new(1, 8))).dir_slice();
        assert_eq!(
            small_config(spec).dir_slice(),
            stash.with_sharer_format(SharerFormat::LimitedPtr { k: k.into() })
        );
        for workload in [Workload::ReadMostly, Workload::Lu, Workload::Uniform] {
            let cfg = small_config(spec);
            let traces = workload.generate(cfg.cores, 2_000, 16);
            let report = Machine::new(cfg).run(traces);
            assert!(
                report.violations.is_empty(),
                "{workload} ptr{k}: {:?}",
                &report.violations[..report.violations.len().min(3)]
            );
        }
    }
}
