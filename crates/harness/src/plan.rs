//! Experiment plans: grids over machine and workload parameters, expanded
//! into independent, identity-carrying simulation cases.

use crate::digest;
use stashdir::mem::{CacheConfig, DramConfig};
use stashdir::noc::NocConfig;
use stashdir::{DirSpec, FaultConfig, SystemConfig, Workload};

/// One independent simulation: a full machine configuration plus the
/// workload, op count and seed that drive it.
///
/// A `CaseSpec` is *pure data*: two specs with equal fields produce the
/// same [`id`](CaseSpec::id) and — because the simulator is deterministic
/// — the same report, which is what lets the pool run them in any order
/// on any thread and lets a resumed run trust completed artifacts.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// The machine to simulate.
    pub config: SystemConfig,
    /// The workload driving it.
    pub workload: Workload,
    /// Operations per core.
    pub ops: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Optional fault-injection config (the chaos suite). Fault-free
    /// cases carry `None` and keep their historical digests/ids.
    pub fault: Option<FaultConfig>,
}

impl CaseSpec {
    /// Builds a (fault-free) spec.
    pub fn new(config: SystemConfig, workload: Workload, ops: usize, seed: u64) -> Self {
        CaseSpec {
            config,
            workload,
            ops,
            seed,
            fault: None,
        }
    }

    /// Threads a fault-injection config into the case.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The 64-bit digest of everything that determines this case's
    /// result: the FNV-1a hash of its [`key`](CaseSpec::key).
    pub fn digest(&self) -> u64 {
        digest::fnv1a(self.key().as_bytes())
    }

    /// The text that identifies this case: the full machine
    /// configuration, then workload, op count and seed, and the fault
    /// config when one is threaded (fault-free keys are unchanged,
    /// keeping prior manifests resume-compatible).
    ///
    /// The configuration is written field by field in the bytes its
    /// `Debug` rendering once gave, so a config type is free to gain,
    /// lose or reorder fields without moving any case id. A field that
    /// went is written from the `RETIRED` table with the value every
    /// case had then. `DirSpec`,
    /// `Workload` and `FaultConfig` have lost no field, so they are
    /// still written by `Debug`.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}|{:?}|{}|{}",
            system_key(&self.config),
            self.workload,
            self.ops,
            self.seed
        );
        if let Some(fault) = &self.fault {
            key.push_str(&format!("|{fault:?}"));
        }
        key
    }

    /// A unique, filesystem-safe identity: human-readable prefix
    /// (directory, cores, workload, ops, seed, fault class if any) plus
    /// a digest suffix covering every remaining config knob.
    pub fn id(&self) -> String {
        let dir = self
            .config
            .dir
            .to_string()
            .replace('/', "_")
            .replace('@', "-");
        // A one-burst fault is named by its class, a composed one by its
        // schedule size (the digest suffix still covers the exact
        // schedule).
        let fault = match self.fault.as_ref().map(|f| f.bursts.as_slice()) {
            None | Some([]) => String::new(),
            Some([b]) => format!("-f{}", b.class.label()),
            Some(bursts) => format!("-fmulti{}", bursts.len()),
        };
        format!(
            "{dir}-c{}-{}-o{}-s{}{fault}-{}",
            self.config.cores,
            self.workload.name(),
            self.ops,
            self.seed,
            digest::short_hex(self.digest()),
        )
    }
}

/// Retired config fields, kept for id stability: each `name: value`
/// that [`CaseSpec::key`] writes where the field stood, with the value
/// every case had when the field went.
const RETIRED: Retired = Retired {
    sharer_format: "sharer_format: FullMap",
    cache_repl: "repl: Lru",
};

/// The fields of [`RETIRED`].
struct Retired {
    /// `SystemConfig`'s machine-level sharer format, written before
    /// `dir_latency`; the format is now part of `DirSpec::LimitedPtr`.
    sharer_format: &'static str,
    /// Each `CacheConfig`'s replacement policy, written last; every cache
    /// is now LRU.
    cache_repl: &'static str,
}

/// `config` as its `Debug` rendering wrote it, retired fields included.
/// The destructuring patterns fail to compile when a field is added, so
/// no new knob is left out of the key by accident.
fn system_key(config: &SystemConfig) -> String {
    let SystemConfig {
        cores,
        block_bytes,
        l1,
        l2,
        llc_bank,
        dir,
        dir_latency,
        bank_occupancy,
        noc,
        dram,
        notify_clean_evictions,
        check_interval,
        timeline_interval,
        seed,
    } = config;
    let NocConfig {
        hop_latency,
        local_latency,
        model_contention,
    } = noc;
    let DramConfig {
        latency,
        channels,
        service_time,
    } = dram;
    format!(
        "SystemConfig {{ cores: {cores}, block_bytes: {block_bytes}, l1: {}, l2: {}, \
         llc_bank: {}, dir: {dir:?}, {}, dir_latency: {dir_latency}, \
         bank_occupancy: {bank_occupancy}, noc: NocConfig {{ hop_latency: {hop_latency}, \
         local_latency: {local_latency}, model_contention: {model_contention} }}, \
         dram: DramConfig {{ latency: {latency}, channels: {channels}, \
         service_time: {service_time} }}, notify_clean_evictions: {notify_clean_evictions}, \
         check_interval: {check_interval}, timeline_interval: {timeline_interval}, \
         seed: {seed} }}",
        cache_key(l1),
        cache_key(l2),
        cache_key(llc_bank),
        RETIRED.sharer_format,
    )
}

fn cache_key(c: &CacheConfig) -> String {
    format!(
        "CacheConfig {{ size_bytes: {}, assoc: {}, block_bytes: {}, latency: {}, {} }}",
        c.size_bytes(),
        c.assoc(),
        c.block_bytes(),
        c.latency,
        RETIRED.cache_repl,
    )
}

/// Derives the `index`-th seed from a base seed (SplitMix64 step), so a
/// caller drawing many seeds (the campaign's rounds) gets distinct,
/// reproducible ones without enumerating them.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A declarative grid of cases: the cross product of directory specs,
/// workloads, core counts and seeds over a base configuration.
///
/// # Examples
///
/// ```
/// use stashdir::{CoverageRatio, DirSpec, SystemConfig, Workload};
/// use stashdir_harness::ExperimentPlan;
///
/// let plan = ExperimentPlan::new("demo", SystemConfig::default(), 1_000)
///     .dirs(vec![DirSpec::FullMap, DirSpec::stash(CoverageRatio::new(1, 8))])
///     .workloads(vec![Workload::DataParallel, Workload::Uniform])
///     .seeds(vec![7, 8]);
/// let cases = plan.expand();
/// assert_eq!(cases.len(), 2 * 2 * 2);
/// // Identities are unique.
/// let mut ids: Vec<_> = cases.iter().map(|c| c.id()).collect();
/// ids.sort();
/// ids.dedup();
/// assert_eq!(ids.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// Plan name (used in manifests and progress output).
    pub name: String,
    /// Base machine configuration each case derives from.
    pub base: SystemConfig,
    /// Directory organizations to sweep.
    pub dirs: Vec<DirSpec>,
    /// Workloads to sweep.
    pub workloads: Vec<Workload>,
    /// Core counts to sweep (empty = keep the base core count).
    pub core_counts: Vec<u16>,
    /// Operations per core.
    pub ops: usize,
    /// Workload seeds to sweep.
    pub seeds: Vec<u64>,
}

impl ExperimentPlan {
    /// A plan with the given name, base machine and op count; sweeps
    /// default to the base directory spec, the full workload suite, the
    /// base core count, and seed 7.
    pub fn new(name: impl Into<String>, base: SystemConfig, ops: usize) -> Self {
        ExperimentPlan {
            name: name.into(),
            dirs: vec![base.dir],
            workloads: Workload::suite(),
            core_counts: Vec::new(),
            ops,
            base,
            seeds: vec![7],
        }
    }

    /// Replaces the directory sweep.
    pub fn dirs(mut self, dirs: Vec<DirSpec>) -> Self {
        self.dirs = dirs;
        self
    }

    /// Replaces the workload sweep.
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Replaces the core-count sweep.
    pub fn core_counts(mut self, core_counts: Vec<u16>) -> Self {
        self.core_counts = core_counts;
        self
    }

    /// Replaces the seed sweep.
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Expands the grid into independent cases, outermost axis first
    /// (workload, then core count, then directory, then seed) so related
    /// cases sit adjacently in the queue.
    pub fn expand(&self) -> Vec<CaseSpec> {
        let core_counts: Vec<u16> = if self.core_counts.is_empty() {
            vec![self.base.cores]
        } else {
            self.core_counts.clone()
        };
        let mut cases = Vec::new();
        for &workload in &self.workloads {
            for &cores in &core_counts {
                for &dir in &self.dirs {
                    for &seed in &self.seeds {
                        let config = self.base.clone().with_cores(cores).with_dir(dir);
                        cases.push(CaseSpec::new(config, workload, self.ops, seed));
                    }
                }
            }
        }
        cases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir::CoverageRatio;

    #[test]
    fn id_is_filesystem_safe_and_stable() {
        let spec = CaseSpec::new(
            SystemConfig::default().with_dir(DirSpec::stash(CoverageRatio::new(1, 8))),
            Workload::Canneal,
            1000,
            7,
        );
        let id = spec.id();
        assert!(id.starts_with("stash-1_8x8w-c16-canneal-o1000-s7-"));
        assert!(id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
        assert_eq!(id, spec.clone().id(), "id must be deterministic");
    }

    #[test]
    fn digest_sees_hidden_config_knobs() {
        let a = CaseSpec::new(SystemConfig::default(), Workload::Uniform, 100, 7);
        let cfg = SystemConfig {
            notify_clean_evictions: false,
            ..SystemConfig::default()
        };
        let b = CaseSpec::new(cfg, Workload::Uniform, 100, 7);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn expand_covers_the_grid() {
        let plan = ExperimentPlan::new("t", SystemConfig::default(), 100)
            .dirs(vec![
                DirSpec::FullMap,
                DirSpec::sparse(CoverageRatio::new(1, 2)),
            ])
            .workloads(vec![Workload::Uniform])
            .core_counts(vec![16, 32])
            .seeds(vec![1, 2, 3]);
        let cases = plan.expand();
        // 2 dirs x 1 workload x 2 core counts x 3 seeds.
        assert_eq!(cases.len(), 12);
        assert!(cases.iter().any(|c| c.config.cores == 32));
    }

    #[test]
    fn derive_seed_is_distinct_and_reproducible() {
        let a: Vec<u64> = (0..16).map(|i| derive_seed(7, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| derive_seed(7, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 16);
    }
}
