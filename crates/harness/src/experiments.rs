//! The experiment registry: every table and figure of the reproduction
//! (E1–E20, from the configuration table to the E16 timeline, the E17
//! chaos smoke and the E18 equal-area shoot-out) expressed as *data* — a
//! function contributing simulation cases to a run, and a function
//! assembling the table back out of the shared result set.
//!
//! The sweep collects cases from every selected experiment, deduplicates
//! them by [`CaseSpec::id`] (E3's full-map ideals are E7's and E13's
//! too), runs the union once on the pool, and then each experiment
//! assembles its table from the same results a serial run would have
//! produced — the tables and CSVs are identical, column for column.

use crate::campaign;
use crate::params::{geomean, machine_with, Params};
use crate::plan::CaseSpec;
use crate::table::{f2, f3, n0, Table};
use stashdir::sim::report::TimelineSample;
use stashdir::{
    expected_detector, Characterization, CostParams, CoverageRatio, DirReplPolicy, DirSpec,
    EnergyCounts, EnergyModel, FaultClass, FaultConfig, SharerFormat, SimReport, SystemConfig,
    Workload,
};
use std::collections::{BTreeMap, BTreeSet};

/// Completed reports keyed by [`CaseSpec::id`].
pub type ResultSet = BTreeMap<String, SimReport>;

/// An assembled experiment: the table plus an optional trailing note
/// (printed after the CSV save line, exactly like the serial binaries).
pub struct Assembled {
    /// The result table.
    pub table: Table,
    /// Commentary printed after the table, if any.
    pub note: Option<String>,
}

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Stable selection key (`--plan` value), e.g. `perf_vs_coverage`.
    pub key: &'static str,
    /// Paper anchor, e.g. `E3`.
    pub code: &'static str,
    /// CSV file stem under `results/`, e.g. `e3_perf_vs_coverage`.
    pub csv: &'static str,
    /// One-line description for `--list`.
    pub summary: &'static str,
    cases_fn: fn(Params) -> Vec<CaseSpec>,
    assemble_fn: fn(Params, &ResultSet) -> Assembled,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("key", &self.key)
            .field("code", &self.code)
            .field("csv", &self.csv)
            .finish()
    }
}

impl Experiment {
    /// The simulation cases this experiment needs at the given params.
    pub fn cases(&self, params: Params) -> Vec<CaseSpec> {
        (self.cases_fn)(params)
    }

    /// Assembles the experiment's table from completed results.
    ///
    /// # Panics
    ///
    /// Panics if a needed case is missing from `results`; the runner
    /// checks completeness (see [`crate::runner`]) before calling this.
    pub fn assemble(&self, params: Params, results: &ResultSet) -> Assembled {
        (self.assemble_fn)(params, results)
    }
}

/// All experiments, in suite order (E1..E20).
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            key: "config_table",
            code: "E1",
            csv: "e1_config",
            summary: "system configuration table (no simulation)",
            cases_fn: |_| Vec::new(),
            assemble_fn: e1_assemble,
        },
        Experiment {
            key: "workload_table",
            code: "E2",
            csv: "e2_workloads",
            summary: "workload characterization table (trace analysis only)",
            cases_fn: |_| Vec::new(),
            assemble_fn: e2_assemble,
        },
        Experiment {
            key: "perf_vs_coverage",
            code: "E3",
            csv: "e3_perf_vs_coverage",
            summary: "normalized execution time vs coverage, sparse vs stash",
            cases_fn: e3_cases,
            assemble_fn: e3_assemble,
        },
        Experiment {
            key: "invalidations",
            code: "E4",
            csv: "e4_invalidations",
            summary: "directory-induced invalidations per 1k ops vs coverage",
            cases_fn: e4_cases,
            assemble_fn: e4_assemble,
        },
        Experiment {
            key: "eviction_breakdown",
            code: "E5",
            csv: "e5_eviction_breakdown",
            summary: "silent vs invalidating stash evictions at 1/8 coverage",
            cases_fn: e5_cases,
            assemble_fn: e5_assemble,
        },
        Experiment {
            key: "discovery",
            code: "E6",
            csv: "e6_discovery",
            summary: "discovery broadcast behavior at 1/8 coverage",
            cases_fn: e6_cases,
            assemble_fn: e6_assemble,
        },
        Experiment {
            key: "traffic",
            code: "E7",
            csv: "e7_traffic",
            summary: "NoC flit-hops and message-class breakdown at 1/8 coverage",
            cases_fn: e7_cases,
            assemble_fn: e7_assemble,
        },
        Experiment {
            key: "assoc_sensitivity",
            code: "E8",
            csv: "e8_assoc_sensitivity",
            summary: "sensitivity to directory associativity at 1/8 coverage",
            cases_fn: e8_cases,
            assemble_fn: e8_assemble,
        },
        Experiment {
            key: "scalability",
            code: "E9",
            csv: "e9_scalability",
            summary: "16/32/64-core scaling at 1/8 coverage",
            cases_fn: e9_cases,
            assemble_fn: e9_assemble,
        },
        Experiment {
            key: "storage_table",
            code: "E10",
            csv: "e10_storage",
            summary: "directory storage accounting (no simulation)",
            cases_fn: |_| Vec::new(),
            assemble_fn: e10_assemble,
        },
        Experiment {
            key: "repl_ablation",
            code: "E11",
            csv: "e11_repl_ablation",
            summary: "stash victim-selection policy ablation",
            cases_fn: e11_cases,
            assemble_fn: e11_assemble,
        },
        Experiment {
            key: "cuckoo",
            code: "E12",
            csv: "e12_cuckoo",
            summary: "stash vs cuckoo vs sparse at matched entry counts",
            cases_fn: e12_cases,
            assemble_fn: e12_assemble,
        },
        Experiment {
            key: "energy",
            code: "E13",
            csv: "e13_energy",
            summary: "first-order dynamic energy at 1/8 coverage",
            cases_fn: e13_cases,
            assemble_fn: e13_assemble,
        },
        Experiment {
            key: "notify_ablation",
            code: "E14",
            csv: "e14_notify",
            summary: "clean-eviction notification ablation",
            cases_fn: e14_cases,
            assemble_fn: e14_assemble,
        },
        Experiment {
            key: "limited_ptr",
            code: "E15",
            csv: "e15_limited_ptr",
            summary: "limited-pointer sharer formats on the stash directory",
            cases_fn: e15_cases,
            assemble_fn: e15_assemble,
        },
        Experiment {
            key: "timeline",
            code: "E16",
            csv: "e16_timeline",
            summary: "stash@1/8 occupancy, hide and discovery time series",
            cases_fn: |p| vec![e16_case(p)],
            assemble_fn: e16_assemble,
        },
        Experiment {
            key: "chaos_smoke",
            code: "E17",
            csv: "e17_chaos_smoke",
            summary: "fault-injection smoke: every fault class vs its detector",
            cases_fn: e17_cases,
            assemble_fn: e17_assemble,
        },
        Experiment {
            key: "shootout",
            code: "E18",
            csv: "e18_shootout",
            summary: "equal-area shoot-out across every registered backend",
            cases_fn: e18_cases,
            assemble_fn: e18_assemble,
        },
        Experiment {
            key: "campaign",
            code: "E19",
            csv: "e19_campaign",
            summary: "chaos campaign static rounds: witnessed baseline + pairwise compositions",
            cases_fn: e19_cases,
            assemble_fn: e19_assemble,
        },
        Experiment {
            key: "scaling_xl",
            code: "E20",
            csv: "e20_scaling_xl",
            summary: "128-1024-core scaling at 1/8 coverage (SoA sim core)",
            cases_fn: e20_cases,
            assemble_fn: e20_assemble,
        },
    ]
}

/// Looks up an experiment by key.
pub fn find(key: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.key == key)
}

/// A case on the default 16-core machine with `dir`.
fn case(dir: DirSpec, workload: Workload, p: Params) -> CaseSpec {
    CaseSpec::new(machine_with(dir), workload, p.ops, p.seed)
}

/// A case on a `cores`-core machine with `dir`.
fn scaled_case(dir: DirSpec, cores: u16, workload: Workload, p: Params) -> CaseSpec {
    CaseSpec::new(
        SystemConfig::default().with_cores(cores).with_dir(dir),
        workload,
        p.ops,
        p.seed,
    )
}

/// A stash@1/8 case with clean-eviction notification toggled (E14).
fn notify_case(notify: bool, workload: Workload, p: Params) -> CaseSpec {
    let mut cfg = SystemConfig::default().with_dir(DirSpec::stash(CoverageRatio::new(1, 8)));
    cfg.notify_clean_evictions = notify;
    CaseSpec::new(cfg, workload, p.ops, p.seed)
}

/// The report for `spec`.
///
/// # Panics
///
/// Panics when absent — the runner guarantees completeness before
/// assembling.
fn report<'a>(results: &'a ResultSet, spec: &CaseSpec) -> &'a SimReport {
    results
        .get(&spec.id())
        .unwrap_or_else(|| panic!("missing result for case {}", spec.id()))
}

fn eighth() -> CoverageRatio {
    CoverageRatio::new(1, 8)
}

// ---------------------------------------------------------------- E1

fn e1_assemble(_p: Params, _results: &ResultSet) -> Assembled {
    let config = SystemConfig::default().with_dir(DirSpec::stash(eighth()));
    let mut table = Table::new(
        "E1 / Table 1 — system configuration (16-core CMP model)",
        &["parameter", "value"],
    );
    for (k, v) in config.table() {
        table.row(vec![k, v]);
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E2

fn e2_assemble(p: Params, _results: &ResultSet) -> Assembled {
    let mut headers = vec!["workload"];
    headers.extend(Characterization::headers());
    let mut table = Table::new(
        format!(
            "E2 / Table 2 — workload characterization (16 cores x {} ops)",
            p.ops
        ),
        &headers,
    );
    for workload in Workload::suite() {
        let traces = workload.generate(16, p.ops, p.seed);
        let c = Characterization::of(&traces);
        let mut row = vec![workload.name().to_string()];
        row.extend(c.row());
        table.row(row);
    }
    Assembled {
        table,
        note: Some(
            "Reading the table: high private_frac + low sharing_degree is the \
             regime where silent eviction pays off."
                .to_string(),
        ),
    }
}

// ---------------------------------------------------------------- E3

fn e3_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for workload in Workload::suite() {
        cases.push(case(DirSpec::FullMap, workload, p));
        for coverage in CoverageRatio::sweep() {
            cases.push(case(DirSpec::sparse(coverage), workload, p));
        }
        for coverage in CoverageRatio::sweep() {
            cases.push(case(DirSpec::stash(coverage), workload, p));
        }
    }
    cases
}

fn e3_assemble(p: Params, results: &ResultSet) -> Assembled {
    let sweep = CoverageRatio::sweep();
    let mut headers: Vec<String> = vec!["workload".into()];
    for c in &sweep {
        headers.push(format!("sparse@{c}"));
    }
    for c in &sweep {
        headers.push(format!("stash@{c}"));
    }
    let mut table = Table::new(
        format!(
            "E3 / Fig A — normalized execution time vs coverage (16 cores x {} ops, 1.0 = full-map)",
            p.ops
        ),
        &headers,
    );

    let mut sparse_cols: Vec<Vec<f64>> = vec![Vec::new(); sweep.len()];
    let mut stash_cols: Vec<Vec<f64>> = vec![Vec::new(); sweep.len()];
    for workload in Workload::suite() {
        let ideal = report(results, &case(DirSpec::FullMap, workload, p)).cycles as f64;
        let mut row = vec![workload.name().to_string()];
        for (i, &coverage) in sweep.iter().enumerate() {
            let r = report(results, &case(DirSpec::sparse(coverage), workload, p));
            let norm = r.cycles as f64 / ideal;
            sparse_cols[i].push(norm);
            row.push(f3(norm));
        }
        for (i, &coverage) in sweep.iter().enumerate() {
            let r = report(results, &case(DirSpec::stash(coverage), workload, p));
            let norm = r.cycles as f64 / ideal;
            stash_cols[i].push(norm);
            row.push(f3(norm));
        }
        table.row(row);
    }
    let mut gm = vec!["geomean".to_string()];
    gm.extend(sparse_cols.iter().map(|c| f3(geomean(c))));
    gm.extend(stash_cols.iter().map(|c| f3(geomean(c))));
    table.row(gm);
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E4

fn e4_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for workload in Workload::suite() {
        for coverage in CoverageRatio::sweep() {
            cases.push(case(DirSpec::sparse(coverage), workload, p));
        }
        for coverage in CoverageRatio::sweep() {
            cases.push(case(DirSpec::stash(coverage), workload, p));
        }
    }
    cases
}

fn e4_assemble(p: Params, results: &ResultSet) -> Assembled {
    let sweep = CoverageRatio::sweep();
    let mut headers: Vec<String> = vec!["workload".into()];
    for c in &sweep {
        headers.push(format!("sparse@{c}"));
    }
    for c in &sweep {
        headers.push(format!("stash@{c}"));
    }
    let mut table = Table::new(
        "E4 / Fig B — directory-induced invalidations per 1k ops vs coverage",
        &headers,
    );
    for workload in Workload::suite() {
        let mut row = vec![workload.name().to_string()];
        for &coverage in &sweep {
            let r = report(results, &case(DirSpec::sparse(coverage), workload, p));
            row.push(f2(r.invalidations_per_kop()));
        }
        for &coverage in &sweep {
            let r = report(results, &case(DirSpec::stash(coverage), workload, p));
            row.push(f2(r.invalidations_per_kop()));
        }
        table.row(row);
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E5

fn e5_cases(p: Params) -> Vec<CaseSpec> {
    Workload::suite()
        .into_iter()
        .flat_map(|w| {
            [
                case(DirSpec::stash(eighth()), w, p),
                case(DirSpec::sparse(eighth()), w, p),
            ]
        })
        .collect()
}

fn e5_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut table = Table::new(
        "E5 / Fig C — stash eviction breakdown at 1/8 coverage",
        &[
            "workload",
            "evictions",
            "silent",
            "invalidating",
            "silent_frac",
            "sparse_copies_lost",
            "stash_copies_lost",
        ],
    );
    for workload in Workload::suite() {
        let stash = report(results, &case(DirSpec::stash(eighth()), workload, p));
        let sparse = report(results, &case(DirSpec::sparse(eighth()), workload, p));
        let silent = stash.stat("dir.silent_evictions");
        let inval = stash.stat("dir.invalidating_evictions");
        table.row(vec![
            workload.name().to_string(),
            n0(silent + inval),
            n0(silent),
            n0(inval),
            f2(stash.silent_eviction_fraction()),
            n0(sparse.stat("dir.copies_invalidated")),
            n0(stash.stat("dir.copies_invalidated")),
        ]);
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E6

fn e6_cases(p: Params) -> Vec<CaseSpec> {
    Workload::suite()
        .into_iter()
        .map(|w| case(DirSpec::stash(eighth()), w, p))
        .collect()
}

fn e6_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut table = Table::new(
        "E6 / Fig D — discovery behavior of the stash directory at 1/8 coverage",
        &[
            "workload",
            "disc/kop",
            "demand_disc",
            "found",
            "stale",
            "llc_evict_disc",
            "mean_disc_lat",
            "hidden_wb",
        ],
    );
    for workload in Workload::suite() {
        let r = report(results, &case(DirSpec::stash(eighth()), workload, p));
        table.row(vec![
            workload.name().to_string(),
            f2(r.discoveries_per_kop()),
            n0(r.stat("bank.discoveries")),
            n0(r.stat("bank.discoveries_found")),
            n0(r.stat("bank.discoveries_stale")),
            n0(r.stat("bank.evict_discoveries")),
            f2(r.stat("bank.mean_discovery_latency")),
            n0(r.stat("bank.hidden_writebacks")),
        ]);
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E7

fn e7_cases(p: Params) -> Vec<CaseSpec> {
    Workload::suite()
        .into_iter()
        .flat_map(|w| {
            [
                case(DirSpec::FullMap, w, p),
                case(DirSpec::sparse(eighth()), w, p),
                case(DirSpec::stash(eighth()), w, p),
            ]
        })
        .collect()
}

fn e7_assemble(p: Params, results: &ResultSet) -> Assembled {
    fn class_flits(r: &SimReport, class: &str) -> f64 {
        r.stat(&format!("noc.flits.{class}"))
    }
    let mut table = Table::new(
        "E7 / Fig E — NoC traffic at 1/8 coverage (flit-hops normalized to full-map; flits by class)",
        &[
            "workload",
            "sparse_norm",
            "stash_norm",
            "sparse_inv_flits",
            "stash_inv_flits",
            "stash_disc_flits",
            "sparse_data_flits",
            "stash_data_flits",
        ],
    );
    for workload in Workload::suite() {
        let ideal = report(results, &case(DirSpec::FullMap, workload, p));
        let sparse = report(results, &case(DirSpec::sparse(eighth()), workload, p));
        let stash = report(results, &case(DirSpec::stash(eighth()), workload, p));
        table.row(vec![
            workload.name().to_string(),
            f3(sparse.flit_hops() / ideal.flit_hops()),
            f3(stash.flit_hops() / ideal.flit_hops()),
            n0(class_flits(sparse, "inv")),
            n0(class_flits(stash, "inv")),
            n0(class_flits(stash, "discovery")),
            n0(class_flits(sparse, "data")),
            n0(class_flits(stash, "data")),
        ]);
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E8

const E8_ASSOCS: [usize; 4] = [2, 4, 8, 16];
const E8_WORKLOADS: [Workload; 4] = [
    Workload::DataParallel,
    Workload::Fft,
    Workload::Lu,
    Workload::ReadMostly,
];

fn e8_sparse(assoc: usize) -> DirSpec {
    DirSpec::Sparse {
        coverage: CoverageRatio::new(1, 8),
        assoc,
        repl: DirReplPolicy::Lru,
    }
}

fn e8_stash(assoc: usize) -> DirSpec {
    DirSpec::Stash {
        coverage: CoverageRatio::new(1, 8),
        assoc,
        repl: DirReplPolicy::PrivateFirstLru,
    }
}

fn e8_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for workload in E8_WORKLOADS {
        cases.push(case(DirSpec::FullMap, workload, p));
        for assoc in E8_ASSOCS {
            cases.push(case(e8_sparse(assoc), workload, p));
        }
        for assoc in E8_ASSOCS {
            cases.push(case(e8_stash(assoc), workload, p));
        }
    }
    cases
}

fn e8_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut headers: Vec<String> = vec!["workload".into()];
    for a in E8_ASSOCS {
        headers.push(format!("sparse_{a}w"));
    }
    for a in E8_ASSOCS {
        headers.push(format!("stash_{a}w"));
    }
    let mut table = Table::new(
        "E8 / Fig F — sensitivity to directory associativity at 1/8 coverage (normalized to full-map)",
        &headers,
    );
    for workload in E8_WORKLOADS {
        let ideal = report(results, &case(DirSpec::FullMap, workload, p)).cycles as f64;
        let mut row = vec![workload.name().to_string()];
        for assoc in E8_ASSOCS {
            let r = report(results, &case(e8_sparse(assoc), workload, p));
            row.push(f3(r.cycles as f64 / ideal));
        }
        for assoc in E8_ASSOCS {
            let r = report(results, &case(e8_stash(assoc), workload, p));
            row.push(f3(r.cycles as f64 / ideal));
        }
        table.row(row);
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E9

const E9_CORES: [u16; 3] = [16, 32, 64];
const E9_WORKLOADS: [Workload; 3] = [
    Workload::DataParallel,
    Workload::Stencil,
    Workload::Migratory,
];

fn e9_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for workload in E9_WORKLOADS {
        for cores in E9_CORES {
            cases.push(scaled_case(DirSpec::FullMap, cores, workload, p));
            cases.push(scaled_case(DirSpec::sparse(eighth()), cores, workload, p));
            cases.push(scaled_case(DirSpec::stash(eighth()), cores, workload, p));
        }
    }
    cases
}

fn e9_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut table = Table::new(
        "E9 / Fig G — scalability at 1/8 coverage (normalized to full-map at each core count)",
        &[
            "workload",
            "cores",
            "sparse_norm",
            "stash_norm",
            "stash_disc/kop",
        ],
    );
    for workload in E9_WORKLOADS {
        for cores in E9_CORES {
            let ideal = report(results, &scaled_case(DirSpec::FullMap, cores, workload, p));
            let sparse = report(
                results,
                &scaled_case(DirSpec::sparse(eighth()), cores, workload, p),
            );
            let stash = report(
                results,
                &scaled_case(DirSpec::stash(eighth()), cores, workload, p),
            );
            table.row(vec![
                workload.name().to_string(),
                cores.to_string(),
                f3(sparse.cycles as f64 / ideal.cycles as f64),
                f3(stash.cycles as f64 / ideal.cycles as f64),
                f2(stash.discoveries_per_kop()),
            ]);
        }
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E10

fn e10_assemble(_p: Params, _results: &ResultSet) -> Assembled {
    let config = SystemConfig::default();
    let tracked = config.tracked_blocks_per_slice();
    let params = config.cost_params();
    let per_slice = CostParams {
        llc_lines: params.llc_lines / config.cores as u64,
        ..params
    };

    let mut table = Table::new(
        "E10 / Table 3 — directory storage per slice (16-core model, 48-bit PA)",
        &[
            "organization",
            "entries",
            "entry_bits",
            "extra_bits",
            "total_KiB",
            "vs sparse@1",
        ],
    );

    let sparse_full = DirSpec::sparse(CoverageRatio::FULL)
        .slice_config(tracked)
        .build(0);
    let baseline_bits = sparse_full.storage_bits(&per_slice) as f64;

    let cases: Vec<(String, DirSpec)> =
        std::iter::once(("sparse@1".to_string(), DirSpec::sparse(CoverageRatio::FULL)))
            .chain(CoverageRatio::sweep().into_iter().flat_map(|c| {
                [
                    (format!("sparse@{c}"), DirSpec::sparse(c)),
                    (format!("stash@{c}"), DirSpec::stash(c)),
                ]
            }))
            .collect();

    let mut seen = BTreeSet::new();
    for (label, spec) in cases {
        if !seen.insert(label.clone()) {
            continue;
        }
        let dir = spec.slice_config(tracked).build(0);
        let total = dir.storage_bits(&per_slice);
        let entry_bits = per_slice.bits_per_entry() * dir.capacity() as u64;
        table.row(vec![
            label,
            dir.capacity().to_string(),
            entry_bits.to_string(),
            (total - entry_bits).to_string(),
            f2(total as f64 / 8.0 / 1024.0),
            f2(total as f64 / baseline_bits),
        ]);
    }
    let note = format!(
        "stash@1/8 costs ~{:.0}% of the conventional sparse@1 directory it \
         replaces (per E3, at equal performance).",
        100.0
            * DirSpec::stash(eighth())
                .slice_config(tracked)
                .build(0)
                .storage_bits(&per_slice) as f64
            / baseline_bits
    );
    Assembled {
        table,
        note: Some(note),
    }
}

// ---------------------------------------------------------------- E11

const E11_POLICIES: [(&str, DirReplPolicy); 3] = [
    ("private-first-lru", DirReplPolicy::PrivateFirstLru),
    ("plain-lru", DirReplPolicy::Lru),
    ("random", DirReplPolicy::Random),
];
const E11_WORKLOADS: [Workload; 4] = [
    Workload::Lu,
    Workload::ReadMostly,
    Workload::Stencil,
    Workload::ProducerConsumer,
];

fn e11_stash(repl: DirReplPolicy) -> DirSpec {
    DirSpec::Stash {
        coverage: CoverageRatio::new(1, 8),
        assoc: 8,
        repl,
    }
}

fn e11_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for workload in E11_WORKLOADS {
        cases.push(case(DirSpec::FullMap, workload, p));
        for (_, repl) in E11_POLICIES {
            cases.push(case(e11_stash(repl), workload, p));
        }
    }
    cases
}

fn e11_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut table = Table::new(
        "E11 / Fig H — stash victim-selection ablation at 1/8 coverage",
        &[
            "workload",
            "policy",
            "norm_time",
            "silent_frac",
            "copies_lost",
        ],
    );
    for workload in E11_WORKLOADS {
        let ideal = report(results, &case(DirSpec::FullMap, workload, p)).cycles as f64;
        for (name, repl) in E11_POLICIES {
            let r = report(results, &case(e11_stash(repl), workload, p));
            table.row(vec![
                workload.name().to_string(),
                name.to_string(),
                f3(r.cycles as f64 / ideal),
                f2(r.silent_eviction_fraction()),
                f2(r.stat("dir.copies_invalidated")),
            ]);
        }
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E12

const E12_WORKLOADS: [Workload; 4] = [
    Workload::DataParallel,
    Workload::Fft,
    Workload::Canneal,
    Workload::Migratory,
];

fn e12_coverages() -> [CoverageRatio; 2] {
    [CoverageRatio::new(1, 4), CoverageRatio::new(1, 8)]
}

fn e12_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for workload in E12_WORKLOADS {
        cases.push(case(DirSpec::FullMap, workload, p));
        for coverage in e12_coverages() {
            cases.push(case(DirSpec::sparse(coverage), workload, p));
            cases.push(case(DirSpec::Cuckoo { coverage }, workload, p));
            cases.push(case(DirSpec::stash(coverage), workload, p));
        }
    }
    cases
}

fn e12_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut table = Table::new(
        "E12 / Fig I — stash vs cuckoo vs sparse at matched entry counts (normalized to full-map)",
        &[
            "workload",
            "coverage",
            "sparse",
            "cuckoo",
            "stash",
            "cuckoo_relocs",
            "cuckoo_copies_lost",
            "stash_copies_lost",
        ],
    );
    for workload in E12_WORKLOADS {
        let ideal = report(results, &case(DirSpec::FullMap, workload, p)).cycles as f64;
        for coverage in e12_coverages() {
            let sparse = report(results, &case(DirSpec::sparse(coverage), workload, p));
            let cuckoo = report(results, &case(DirSpec::Cuckoo { coverage }, workload, p));
            let stash = report(results, &case(DirSpec::stash(coverage), workload, p));
            table.row(vec![
                workload.name().to_string(),
                coverage.to_string(),
                f3(sparse.cycles as f64 / ideal),
                f3(cuckoo.cycles as f64 / ideal),
                f3(stash.cycles as f64 / ideal),
                n0(cuckoo.stat("dir.relocations")),
                n0(cuckoo.stat("dir.copies_invalidated")),
                n0(stash.stat("dir.copies_invalidated")),
            ]);
        }
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E13

fn e13_cases(p: Params) -> Vec<CaseSpec> {
    Workload::suite()
        .into_iter()
        .flat_map(|w| {
            [
                case(DirSpec::FullMap, w, p),
                case(DirSpec::sparse(eighth()), w, p),
                case(DirSpec::stash(eighth()), w, p),
            ]
        })
        .collect()
}

fn e13_assemble(p: Params, results: &ResultSet) -> Assembled {
    fn counts_of(r: &SimReport) -> EnergyCounts {
        EnergyCounts {
            dir_accesses: r.stat("dir.lookups") as u64,
            llc_accesses: (r.stat("llc.hits") + r.stat("llc.misses") + r.stat("llc.writebacks"))
                as u64,
            dram_accesses: r.stat("dram.accesses") as u64,
            flit_hops: r.stat("noc.flit_hops") as u64,
            probes: (r.stat("noc.messages.inv")
                + r.stat("noc.messages.fwd")
                + r.stat("noc.messages.discovery")) as u64,
        }
    }
    let model = EnergyModel::default();
    let mut table = Table::new(
        "E13 / Fig J — dynamic energy at 1/8 coverage (normalized to full-map)",
        &[
            "workload",
            "sparse",
            "stash",
            "stash_dir_uJ",
            "stash_noc_uJ",
        ],
    );
    for workload in Workload::suite() {
        let ideal = report(results, &case(DirSpec::FullMap, workload, p));
        let sparse = report(results, &case(DirSpec::sparse(eighth()), workload, p));
        let stash = report(results, &case(DirSpec::stash(eighth()), workload, p));
        let base = model.dynamic_pj(&counts_of(ideal));
        let stash_counts = counts_of(stash);
        table.row(vec![
            workload.name().to_string(),
            f3(model.dynamic_pj(&counts_of(sparse)) / base),
            f3(model.dynamic_pj(&stash_counts) / base),
            f3(stash_counts.dir_accesses as f64 * model.dir_access_pj / 1e6),
            f3(stash_counts.flit_hops as f64 * model.flit_hop_pj / 1e6),
        ]);
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E14

const E14_WORKLOADS: [Workload; 4] = [
    Workload::DataParallel,
    Workload::Canneal,
    Workload::Fft,
    Workload::ReadMostly,
];

fn e14_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for workload in E14_WORKLOADS {
        cases.push(case(DirSpec::FullMap, workload, p));
        for notify in [true, false] {
            cases.push(notify_case(notify, workload, p));
        }
    }
    cases
}

fn e14_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut table = Table::new(
        "E14 / Fig K — clean-eviction notification ablation (stash at 1/8)",
        &[
            "workload",
            "notify",
            "norm_time",
            "discoveries",
            "found",
            "stale",
            "stale_frac",
        ],
    );
    for workload in E14_WORKLOADS {
        let ideal = report(results, &case(DirSpec::FullMap, workload, p)).cycles as f64;
        for notify in [true, false] {
            let r = report(results, &notify_case(notify, workload, p));
            let found = r.stat("bank.discoveries_found");
            let stale = r.stat("bank.discoveries_stale");
            let total = found + stale;
            table.row(vec![
                workload.name().to_string(),
                notify.to_string(),
                f3(r.cycles as f64 / ideal),
                n0(total),
                n0(found),
                n0(stale),
                f2(if total == 0.0 { 0.0 } else { stale / total }),
            ]);
        }
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E15

const E15_WORKLOADS: [Workload; 4] = [
    Workload::DataParallel,
    Workload::Lu,
    Workload::ReadMostly,
    Workload::Stencil,
];

/// The E15 format ladder: the stash full-map sharer vector and the
/// limited-pointer encodings, all at 1/8 coverage. The `fullmap-vec` row
/// is the plain stash directory (its entries carry a full 16-bit vector);
/// the `ptr{k}` rows are the `limited-ptr` backend at the same geometry.
fn e15_formats() -> [(&'static str, DirSpec, SharerFormat); 4] {
    [
        (
            "fullmap-vec",
            DirSpec::stash(eighth()),
            SharerFormat::FullMap,
        ),
        (
            "ptr4",
            DirSpec::limited_ptr(eighth(), 4),
            SharerFormat::LimitedPtr { k: 4 },
        ),
        (
            "ptr2",
            DirSpec::limited_ptr(eighth(), 2),
            SharerFormat::LimitedPtr { k: 2 },
        ),
        (
            "ptr1",
            DirSpec::limited_ptr(eighth(), 1),
            SharerFormat::LimitedPtr { k: 1 },
        ),
    ]
}

fn e15_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for workload in E15_WORKLOADS {
        cases.push(case(DirSpec::FullMap, workload, p));
        for (_, spec, _) in e15_formats() {
            cases.push(case(spec, workload, p));
        }
    }
    cases
}

fn e15_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut table = Table::new(
        "E15 / Fig L — limited-pointer formats on the stash directory at 1/8 coverage",
        &[
            "workload",
            "format",
            "norm_time",
            "inv_probes",
            "entry_bits",
            "slice_KiB",
        ],
    );
    for workload in E15_WORKLOADS {
        let ideal = report(results, &case(DirSpec::FullMap, workload, p)).cycles as f64;
        for (name, spec, format) in e15_formats() {
            let cfg = machine_with(spec);
            let cost = cfg.cost_params();
            let slice_params = CostParams {
                llc_lines: cost.llc_lines / cfg.cores as u64,
                ..cost
            };
            let slice_bits = cfg.dir_slice().build(0).storage_bits(&slice_params);
            let r = report(results, &case(spec, workload, p));
            table.row(vec![
                workload.name().to_string(),
                name.to_string(),
                f3(r.cycles as f64 / ideal),
                f2(r.stat("noc.messages.inv")),
                format.entry_bits(&slice_params).to_string(),
                f2(slice_bits as f64 / 8.0 / 1024.0),
            ]);
        }
    }
    Assembled { table, note: None }
}

// ---------------------------------------------------------------- E16

/// Cycles between E16 timeline samples.
const E16_INTERVAL: u64 = 50_000;

/// The one E16 run: stash@1/8 on canneal with the timeline sampler on.
fn e16_case(p: Params) -> CaseSpec {
    let cfg = machine_with(DirSpec::stash(eighth())).with_timeline(E16_INTERVAL);
    CaseSpec::new(cfg, Workload::Canneal, p.ops, p.seed)
}

/// A unicode sparkline of `values` scaled to their max.
fn sparkline(values: impl Iterator<Item = u64>) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let values: Vec<u64> = values.collect();
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| BARS[(v * 7 / max) as usize])
        .collect()
}

fn e16_assemble(p: Params, results: &ResultSet) -> Assembled {
    let spec = e16_case(p);
    let r = report(results, &spec);
    let capacity = spec.config.dir_slice().entries() * spec.config.cores as usize;
    let mut table = Table::new(
        format!(
            "E16 / Fig M — stash@1/8 time series on {} (sampled every {}k cycles)",
            spec.workload,
            E16_INTERVAL / 1000
        ),
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
    for s in &r.timeline {
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
    // Per-interval rates of the cumulative counters.
    let deltas = |f: fn(&TimelineSample) -> u64| {
        r.timeline
            .windows(2)
            .map(move |w| f(&w[1]).saturating_sub(f(&w[0])))
    };
    Assembled {
        table,
        note: Some(format!(
            "occupancy  {}\nhides/int  {}\ndisc/int   {}\n\n\
             {} samples over {} cycles; directory capacity {capacity} entries.",
            sparkline(r.timeline.iter().map(|s| s.dir_occupancy)),
            sparkline(deltas(|s| s.silent_evictions)),
            sparkline(deltas(|s| s.discoveries)),
            r.timeline.len(),
            r.cycles,
        )),
    }
}

// ---------------------------------------------------------------- E17

/// Chaos-smoke params: a capped op count keeps the gate fast even when
/// the suite runs at full scale — a few hundred ops is plenty to build
/// the directory state every fault class needs a victim in.
fn e17_params(p: Params) -> Params {
    Params {
        ops: p.ops.min(400),
        seed: p.seed,
    }
}

/// One chaos case: a small machine with a deliberately tight (2-way)
/// stash directory, so eviction pressure silently evicts private lines
/// and sets stash bits — the precondition `stash_clear` needs a victim
/// for. Every class runs the same machine/workload; only the injected
/// fault differs, so any table row that goes undetected is attributable
/// to the detector, not the configuration.
fn e17_case(class: FaultClass, p: Params) -> CaseSpec {
    let p = e17_params(p);
    let dir = DirSpec::Stash {
        coverage: eighth(),
        assoc: 2,
        repl: DirReplPolicy::PrivateFirstLru,
    };
    CaseSpec::new(
        SystemConfig::default().with_cores(8).with_dir(dir),
        Workload::DataParallel,
        p.ops,
        p.seed,
    )
    .with_fault(FaultConfig::for_class(class, p.seed))
}

fn e17_cases(p: Params) -> Vec<CaseSpec> {
    FaultClass::ALL.iter().map(|&c| e17_case(c, p)).collect()
}

fn e17_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut table = Table::new(
        "E17 — chaos smoke: one injected fault per class, detection accounting",
        &[
            "fault_class",
            "injected",
            "expected_detector",
            "detected_invariant",
            "detected_watchdog",
            "quiesced",
            "caught",
        ],
    );
    let mut caught = 0usize;
    for &class in FaultClass::ALL {
        let f = report(results, &e17_case(class, p)).fault;
        let expected = expected_detector(class);
        let hit = f.injected_for(class) > 0 && f.detected_for(expected) > 0;
        caught += usize::from(hit);
        table.row(vec![
            class.label().to_string(),
            n0(f.injected_for(class) as f64),
            expected.label().to_string(),
            n0(f.detected_invariant as f64),
            n0(f.detected_watchdog as f64),
            n0(f.quiesced as f64),
            if hit { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let total = FaultClass::ALL.len();
    let verdict = if caught == total { "PASS" } else { "FAIL" };
    Assembled {
        table,
        note: Some(format!(
            "chaos gate: {caught}/{total} fault classes caught by their expected detector — {verdict}"
        )),
    }
}

// ---------------------------------------------------------------- E18

/// Per-slice directory storage of `spec` on the default 16-core machine.
fn e18_slice_bits(spec: DirSpec) -> u64 {
    let cfg = machine_with(spec);
    let cost = cfg.cost_params();
    let per_slice = CostParams {
        llc_lines: cost.llc_lines / cfg.cores as u64,
        ..cost
    };
    cfg.dir_slice().build(0).storage_bits(&per_slice)
}

/// The equal-area budget every contender must fit: the per-slice storage
/// of the paper's headline stash@1/8 configuration.
fn e18_budget_bits() -> u64 {
    e18_slice_bits(DirSpec::stash(eighth()))
}

/// The widest `make(ways)` whose slice storage still fits `budget`
/// (storage grows monotonically with ways at fixed set count).
fn e18_fit(budget: u64, make: impl Fn(u32) -> DirSpec) -> DirSpec {
    let mut best = make(1);
    for ways in 2..=64 {
        let spec = make(ways);
        if e18_slice_bits(spec) > budget {
            break;
        }
        best = spec;
    }
    best
}

/// One contender per registered backend, each provisioned to the
/// stash@1/8 storage budget. The set count is pinned to the anchor's so
/// every set-associative contender differs only in ways (entry count):
/// cheaper entries (limited pointers) buy more of them, costlier ones
/// (cuckoo tags) fewer. `fullmap` is the unconstrained ideal used for
/// normalization; `dls` stores nothing and is trivially within budget.
fn e18_backends() -> Vec<(&'static str, DirSpec)> {
    let tracked = SystemConfig::default().tracked_blocks_per_slice();
    let budget = e18_budget_bits();
    let sets = (eighth().entries_for(tracked) / 8)
        .max(1)
        .next_power_of_two() as u32;
    let cov = |ways: u32| CoverageRatio::new(sets * ways, tracked as u32);
    let sparse = e18_fit(budget, |w| DirSpec::Sparse {
        coverage: cov(w),
        assoc: w as usize,
        repl: DirReplPolicy::Lru,
    });
    let limited = e18_fit(budget, |w| DirSpec::LimitedPtr {
        coverage: cov(w),
        assoc: w as usize,
        k: 2,
    });
    let opaque = e18_fit(budget, |w| DirSpec::Opaque {
        coverage: cov(w),
        assoc: w as usize,
    });
    let cuckoo = {
        // Cuckoo has no set/way split — fit its flat entry count in
        // steps of 4 (it keeps 4 equal hash tables).
        let mut best = DirSpec::Cuckoo {
            coverage: CoverageRatio::new(4, tracked as u32),
        };
        let mut entries = 8u32;
        while entries as usize <= tracked {
            let spec = DirSpec::Cuckoo {
                coverage: CoverageRatio::new(entries, tracked as u32),
            };
            if e18_slice_bits(spec) > budget {
                break;
            }
            best = spec;
            entries += 4;
        }
        best
    };
    vec![
        ("fullmap", DirSpec::FullMap),
        ("sparse", sparse),
        ("stash", DirSpec::stash(eighth())),
        ("limited-ptr", limited),
        ("cuckoo", cuckoo),
        ("dls", DirSpec::Dls),
        ("opaque", opaque),
    ]
}

fn e18_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for workload in E9_WORKLOADS {
        for (_, spec) in e18_backends() {
            cases.push(case(spec, workload, p));
        }
    }
    cases
}

fn e18_assemble(p: Params, results: &ResultSet) -> Assembled {
    fn counts_of(r: &SimReport) -> EnergyCounts {
        EnergyCounts {
            dir_accesses: r.stat("dir.lookups") as u64,
            llc_accesses: (r.stat("llc.hits") + r.stat("llc.misses") + r.stat("llc.writebacks"))
                as u64,
            dram_accesses: r.stat("dram.accesses") as u64,
            flit_hops: r.stat("noc.flit_hops") as u64,
            probes: (r.stat("noc.messages.inv")
                + r.stat("noc.messages.fwd")
                + r.stat("noc.messages.discovery")) as u64,
        }
    }
    let model = EnergyModel::default();
    let backends = e18_backends();
    let budget = e18_budget_bits();
    let mut table = Table::new(
        format!(
            "E18 — equal-area backend shoot-out at the stash@1/8 budget ({:.2} KiB/slice)",
            budget as f64 / 8.0 / 1024.0
        ),
        &[
            "workload",
            "backend",
            "spec",
            "norm_time",
            "norm_traffic",
            "norm_energy",
            "slice_KiB",
        ],
    );
    let mut norms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for workload in E9_WORKLOADS {
        let ideal = report(results, &case(DirSpec::FullMap, workload, p));
        let ideal_cycles = ideal.cycles as f64;
        let ideal_hops = ideal.stat("noc.flit_hops").max(1.0);
        let ideal_pj = model.dynamic_pj(&counts_of(ideal)).max(f64::MIN_POSITIVE);
        for &(name, spec) in &backends {
            let r = report(results, &case(spec, workload, p));
            let norm_time = r.cycles as f64 / ideal_cycles;
            norms.entry(name).or_default().push(norm_time);
            table.row(vec![
                workload.name().to_string(),
                name.to_string(),
                spec.to_string(),
                f3(norm_time),
                f3(r.stat("noc.flit_hops") / ideal_hops),
                f3(model.dynamic_pj(&counts_of(r)) / ideal_pj),
                f2(e18_slice_bits(spec) as f64 / 8.0 / 1024.0),
            ]);
        }
    }
    let g = |name: &str| geomean(&norms[name]);
    let (stash, sparse) = (g("stash"), g("sparse"));
    let verdict = if stash <= sparse {
        "stash keeps the paper's equal-area win"
    } else {
        "RANKING INVERTED vs the paper"
    };
    Assembled {
        table,
        note: Some(format!(
            "equal-area geomeans: stash {} vs sparse {} (cuckoo {}, limited-ptr {}, \
             dls {}, opaque {}) — {verdict}",
            f3(stash),
            f3(sparse),
            f3(g("cuckoo")),
            f3(g("limited-ptr")),
            f3(g("dls")),
            f3(g("opaque")),
        )),
    }
}

// ---------------------------------------------------------------- E19

/// The campaign's statically-known rounds: the witnessed single-fault
/// baseline plus the pairwise compositions. The adaptive
/// coverage-feedback rounds need the round loop and live in
/// [`campaign::run_campaign`] (driven by the `campaign` binary).
fn e19_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = campaign::baseline_cases(p);
    cases.extend(campaign::pairwise_cases(p));
    cases
}

fn e19_assemble(p: Params, results: &ResultSet) -> Assembled {
    let pairwise = campaign::pairwise_cases(p);
    let mut table = Table::new(
        "E19 — chaos campaign: fault classes composed pairwise through burst schedules",
        &[
            "fault_class",
            "composed_with",
            "injected",
            "expected_detector",
            "caught",
        ],
    );
    for &class in FaultClass::ALL {
        let mut partners: Vec<&'static str> = Vec::new();
        let mut injected = 0u64;
        let mut hit = false;
        for c in &pairwise {
            let f = c.fault.as_ref().expect("pairwise cases carry faults");
            if !f.enabled_classes().contains(&class) {
                continue;
            }
            partners.extend(
                f.enabled_classes()
                    .into_iter()
                    .filter(|&o| o != class)
                    .map(FaultClass::label),
            );
            let r = report(results, c);
            injected += r.fault.injected_for(class);
            hit |= r.fault.injected_for(class) > 0
                && r.fault.detected_for(expected_detector(class)) > 0;
        }
        table.row(vec![
            class.label().to_string(),
            partners.join("+"),
            n0(injected as f64),
            expected_detector(class).label().to_string(),
            if hit { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let (caught, total) = campaign::pairwise_catch(&pairwise, results);
    let (model, _) = campaign::load_model(None).expect("builtin model");
    let mut acc = campaign::CoverageMap::new();
    for c in e19_cases(p) {
        campaign::accumulate(&mut acc, report(results, &c));
    }
    let witnessed = campaign::witnessed_reachable(&model, &acc);
    let verdict = if caught == total { "PASS" } else { "FAIL" };
    Assembled {
        table,
        note: Some(format!(
            "pairwise gate: {caught}/{total} fault classes caught when composed — {verdict}\n\
             static-round coverage: {witnessed}/{} reachable transitions witnessed under fault \
             (adaptive rounds: the `campaign` binary)",
            model.total_reachable(),
        )),
    }
}

// ---------------------------------------------------------------- E20

/// The XL extension of E9's grid: same three organizations, four
/// doublings past E9's 64-core ceiling. One workload (data-parallel,
/// the paper's private-heavy best case for stash) keeps the plan
/// budgeted — each point already simulates `cores × ops` operations,
/// and the 1024-core stash point alone covers 10M+ ops at default
/// params.
const E20_CORES: [u16; 4] = [128, 256, 512, 1024];

fn e20_cases(p: Params) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for cores in E20_CORES {
        cases.push(scaled_case(
            DirSpec::FullMap,
            cores,
            Workload::DataParallel,
            p,
        ));
        cases.push(scaled_case(
            DirSpec::sparse(eighth()),
            cores,
            Workload::DataParallel,
            p,
        ));
        cases.push(scaled_case(
            DirSpec::stash(eighth()),
            cores,
            Workload::DataParallel,
            p,
        ));
    }
    cases
}

fn e20_assemble(p: Params, results: &ResultSet) -> Assembled {
    let mut table = Table::new(
        "E20 / Fig G-XL — 128-1024-core scaling at 1/8 coverage (normalized to full-map at each core count)",
        &[
            "workload",
            "cores",
            "sparse_norm",
            "stash_norm",
            "stash_disc/kop",
        ],
    );
    let workload = Workload::DataParallel;
    for cores in E20_CORES {
        let ideal = report(results, &scaled_case(DirSpec::FullMap, cores, workload, p));
        let sparse = report(
            results,
            &scaled_case(DirSpec::sparse(eighth()), cores, workload, p),
        );
        let stash = report(
            results,
            &scaled_case(DirSpec::stash(eighth()), cores, workload, p),
        );
        table.row(vec![
            workload.name().to_string(),
            cores.to_string(),
            f3(sparse.cycles as f64 / ideal.cycles as f64),
            f3(stash.cycles as f64 / ideal.cycles as f64),
            f2(stash.discoveries_per_kop()),
        ]);
    }
    Assembled { table, note: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params { ops: 50, seed: 7 }
    }

    #[test]
    fn registry_keys_and_csvs_are_unique() {
        let reg = registry();
        assert_eq!(reg.len(), 20);
        let mut keys: Vec<_> = reg.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 20, "duplicate experiment key");
        let mut csvs: Vec<_> = reg.iter().map(|e| e.csv).collect();
        csvs.sort_unstable();
        csvs.dedup();
        assert_eq!(csvs.len(), 20, "duplicate csv stem");
        let mut codes: Vec<_> = reg.iter().map(|e| e.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 20, "duplicate experiment code");
    }

    /// `sweep --all` regenerates every committed `results/e*.csv`: each
    /// CSV stem there belongs to a registered experiment.
    #[test]
    fn registry_covers_every_committed_csv() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let csvs: Vec<&str> = registry().iter().map(|e| e.csv).collect();
        let mut committed = 0;
        for entry in std::fs::read_dir(&results).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let Some(stem) = name.strip_suffix(".csv") else {
                continue;
            };
            if !stem.starts_with('e') {
                continue;
            }
            committed += 1;
            assert!(csvs.contains(&stem), "{name} has no registry entry");
        }
        assert_eq!(committed, csvs.len(), "a registered csv is not committed");
    }

    /// Every registered backend fields an E18 contender, and every
    /// storage-bearing contender lands within (and actually uses) the
    /// stash@1/8 equal-area budget.
    #[test]
    fn e18_contenders_cover_the_registry_at_equal_area() {
        let backends = e18_backends();
        let names: Vec<_> = backends.iter().map(|(n, _)| *n).collect();
        for name in stashdir::core::backends() {
            assert!(
                names.contains(name),
                "registry backend {name} has no E18 contender"
            );
        }
        let budget = e18_budget_bits();
        for &(name, spec) in &backends {
            if name == "fullmap" {
                continue; // the normalization ideal is unconstrained
            }
            let bits = e18_slice_bits(spec);
            assert!(bits <= budget, "{name} over budget: {bits} > {budget}");
            if name != "dls" {
                assert!(
                    bits * 2 > budget,
                    "{name} leaves half the budget unused: {bits} of {budget}"
                );
            }
        }
    }

    #[test]
    fn find_resolves_keys() {
        assert_eq!(find("perf_vs_coverage").unwrap().code, "E3");
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn case_lists_are_duplicate_free_within_each_experiment() {
        for exp in registry() {
            let cases = exp.cases(tiny());
            let mut ids: Vec<_> = cases.iter().map(|c| c.id()).collect();
            ids.sort();
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before, "{} repeats a case", exp.key);
        }
    }

    #[test]
    fn suite_shares_cases_across_experiments() {
        // E3's full-map ideals are also E7's and E13's — the union must be
        // strictly smaller than the sum of the parts.
        let p = tiny();
        let total: usize = registry().iter().map(|e| e.cases(p).len()).sum();
        let mut union: Vec<String> = registry()
            .iter()
            .flat_map(|e| e.cases(p))
            .map(|c| c.id())
            .collect();
        union.sort();
        union.dedup();
        assert!(
            union.len() < total,
            "expected cross-experiment case sharing ({} unique of {total})",
            union.len()
        );
    }

    /// The mutation gate: run the actual E17 grid and require every
    /// fault class to be injected *and* caught by its expected detector.
    /// A checker or watchdog regression that silently stops seeing a
    /// fault class fails here, not in production chaos runs.
    #[test]
    fn chaos_smoke_gate_detects_every_fault_class() {
        let p = Params { ops: 400, seed: 7 };
        let exp = find("chaos_smoke").unwrap();
        let cases = exp.cases(p);
        assert_eq!(cases.len(), stashdir::FaultClass::ALL.len());
        let outcomes = crate::pool::run_cases(&cases, &crate::pool::RunOptions::default());
        let results: ResultSet = outcomes
            .into_iter()
            .filter_map(|o| o.report.map(|r| (o.spec.id(), r)))
            .collect();
        assert_eq!(results.len(), cases.len(), "every chaos case must complete");
        let a = exp.assemble(p, &results);
        let note = a.note.expect("chaos smoke always carries a verdict");
        assert!(
            note.contains("7/7") && note.ends_with("PASS"),
            "{note}\n{}",
            a.table.render()
        );
    }

    /// E16 is one timeline case: a CSV row per sample, and the
    /// sparklines and sample count in the note.
    #[test]
    fn timeline_assembles_a_row_per_sample() {
        let p = Params {
            ops: 3_000,
            seed: 7,
        };
        let exp = find("timeline").unwrap();
        let cases = exp.cases(p);
        assert_eq!(cases.len(), 1);
        let outcomes = crate::pool::run_cases(&cases, &crate::pool::RunOptions::default());
        let report = outcomes[0].report.clone().expect("timeline case completes");
        let samples = report.timeline.len();
        assert!(samples > 2, "expected several samples, got {samples}");
        let results: ResultSet = [(cases[0].id(), report)].into_iter().collect();
        let a = exp.assemble(p, &results);
        assert_eq!(a.table.to_csv().lines().count(), samples + 1);
        let note = a.note.expect("timeline note");
        assert_eq!(note.lines().count(), 5, "{note}");
        assert!(note.contains(&format!("{samples} samples over")), "{note}");
    }

    #[test]
    fn static_experiments_assemble_without_results() {
        let results = ResultSet::new();
        for key in ["config_table", "workload_table", "storage_table"] {
            let exp = find(key).unwrap();
            assert!(exp.cases(tiny()).is_empty());
            let a = exp.assemble(tiny(), &results);
            assert!(!a.table.render().is_empty());
        }
    }
}
