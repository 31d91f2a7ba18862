//! System configuration: the reconstructed 16-core CMP of the paper,
//! parameterized for sweeps.

use serde::{Deserialize, Serialize};
use stashdir_core::{CostParams, DirConfig, DirReplPolicy, SharerFormat};
use stashdir_mem::{CacheConfig, DramConfig, ReplKind};
use stashdir_noc::{Mesh, NocConfig};
use std::fmt;

/// Directory provisioning relative to the aggregate private-cache capacity
/// it must track.
///
/// A coverage of 1 means one directory entry per private L2 block
/// chip-wide; the paper's headline configuration is stash at **1/8**.
///
/// # Examples
///
/// ```
/// use stashdir_sim::CoverageRatio;
/// assert_eq!(CoverageRatio::new(1, 8).entries_for(4096), 512);
/// assert_eq!(CoverageRatio::FULL.entries_for(4096), 4096);
/// assert_eq!(format!("{}", CoverageRatio::new(1, 8)), "1/8");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoverageRatio {
    num: u32,
    den: u32,
}

impl CoverageRatio {
    /// One entry per tracked block (1×).
    pub const FULL: CoverageRatio = CoverageRatio { num: 1, den: 1 };

    /// Creates a `num/den` coverage ratio.
    ///
    /// # Panics
    ///
    /// Panics if either component is zero.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(num > 0 && den > 0, "coverage ratio must be positive");
        CoverageRatio { num, den }
    }

    /// The ratio as a float.
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Number of directory entries for `tracked_blocks` blocks of private
    /// cache (rounded down, at least 1).
    pub fn entries_for(self, tracked_blocks: usize) -> usize {
        ((tracked_blocks * self.num as usize) / self.den as usize).max(1)
    }

    /// The sweep used throughout the evaluation: 2, 1, 1/2, 1/4, 1/8, 1/16.
    pub fn sweep() -> Vec<CoverageRatio> {
        vec![
            CoverageRatio::new(2, 1),
            CoverageRatio::new(1, 1),
            CoverageRatio::new(1, 2),
            CoverageRatio::new(1, 4),
            CoverageRatio::new(1, 8),
            CoverageRatio::new(1, 16),
        ]
    }
}

impl fmt::Display for CoverageRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Which directory organization the machine uses, plus its provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirSpec {
    /// The unbounded ideal.
    FullMap,
    /// Conventional sparse directory at the given coverage/associativity.
    Sparse {
        /// Entries relative to tracked private blocks.
        coverage: CoverageRatio,
        /// Ways per directory set.
        assoc: usize,
        /// Victim selection.
        repl: DirReplPolicy,
    },
    /// The paper's stash directory at the given coverage/associativity.
    Stash {
        /// Entries relative to tracked private blocks.
        coverage: CoverageRatio,
        /// Ways per directory set.
        assoc: usize,
        /// Victim selection.
        repl: DirReplPolicy,
    },
    /// Cuckoo directory at the given coverage.
    Cuckoo {
        /// Entries relative to tracked private blocks.
        coverage: CoverageRatio,
    },
    /// The stash organization with limited-pointer sharer encoding:
    /// `k` pointers per entry, degrading to broadcast on overflow.
    LimitedPtr {
        /// Entries relative to tracked private blocks.
        coverage: CoverageRatio,
        /// Ways per directory set.
        assoc: usize,
        /// Pointers per entry.
        k: u8,
    },
    /// Directoryless DLS: no directory storage at all. Blocks touched by
    /// a second core are reclassified shared and serviced as remote LLC
    /// accesses from then on, never cached privately.
    Dls,
    /// Opaque-distributed directory: sparse-style entries sharded across
    /// banks by an opaque address→bank map instead of the home function.
    Opaque {
        /// Entries relative to tracked private blocks.
        coverage: CoverageRatio,
        /// Ways per directory set.
        assoc: usize,
    },
}

impl DirSpec {
    /// Shorthand for a stash directory with the paper's defaults
    /// (8-way, private-first LRU).
    pub fn stash(coverage: CoverageRatio) -> Self {
        DirSpec::Stash {
            coverage,
            assoc: 8,
            repl: DirReplPolicy::PrivateFirstLru,
        }
    }

    /// Shorthand for a conventional sparse directory (8-way, LRU).
    pub fn sparse(coverage: CoverageRatio) -> Self {
        DirSpec::Sparse {
            coverage,
            assoc: 8,
            repl: DirReplPolicy::Lru,
        }
    }

    /// Shorthand for the stash organization with `k` limited pointers
    /// (8-way, private-first LRU).
    pub fn limited_ptr(coverage: CoverageRatio, k: u8) -> Self {
        DirSpec::LimitedPtr {
            coverage,
            assoc: 8,
            k,
        }
    }

    /// Shorthand for an opaque-distributed directory (8-way).
    pub fn opaque(coverage: CoverageRatio) -> Self {
        DirSpec::Opaque { coverage, assoc: 8 }
    }

    /// The organization's short name (its backend-registry name).
    pub fn name(&self) -> &'static str {
        match self {
            DirSpec::FullMap => "fullmap",
            DirSpec::Sparse { .. } => "sparse",
            DirSpec::Stash { .. } => "stash",
            DirSpec::Cuckoo { .. } => "cuckoo",
            DirSpec::LimitedPtr { .. } => "limited-ptr",
            DirSpec::Dls => "dls",
            DirSpec::Opaque { .. } => "opaque",
        }
    }

    /// `true` when the machine must maintain LLC stash bits and run
    /// discovery (the limited-pointer organization is stash-based).
    pub fn uses_stash(&self) -> bool {
        matches!(self, DirSpec::Stash { .. } | DirSpec::LimitedPtr { .. })
    }

    /// `true` for the directoryless DLS backend, whose shared blocks the
    /// machine services as remote LLC accesses.
    pub fn is_dls(&self) -> bool {
        matches!(self, DirSpec::Dls)
    }

    /// `true` for the opaque-distributed backend, whose directory entries
    /// live at banks chosen by the opaque map rather than the home.
    pub fn is_opaque(&self) -> bool {
        matches!(self, DirSpec::Opaque { .. })
    }

    /// `true` when the machine maintains backend-specific counters
    /// (remote LLC accesses, indirection hops, dir-bank load) that the
    /// report should export.
    pub fn has_backend_stats(&self) -> bool {
        self.is_dls() || self.is_opaque()
    }

    /// Resolves to a per-slice [`DirConfig`] given the number of private
    /// blocks each slice must cover. Set counts round up to a power of
    /// two.
    pub fn slice_config(&self, tracked_blocks_per_slice: usize) -> DirConfig {
        match *self {
            DirSpec::FullMap => DirConfig::full_map(),
            DirSpec::Sparse {
                coverage,
                assoc,
                repl,
            } => {
                let (sets, ways) = geometry(coverage.entries_for(tracked_blocks_per_slice), assoc);
                DirConfig::sparse(sets, ways).with_repl(repl)
            }
            DirSpec::Stash {
                coverage,
                assoc,
                repl,
            } => {
                let (sets, ways) = geometry(coverage.entries_for(tracked_blocks_per_slice), assoc);
                DirConfig::stash(sets, ways).with_repl(repl)
            }
            DirSpec::Cuckoo { coverage } => {
                let entries = coverage.entries_for(tracked_blocks_per_slice);
                // Keep 4 tables of equal size.
                DirConfig::cuckoo((entries / 4).max(1) * 4)
            }
            DirSpec::LimitedPtr { coverage, assoc, k } => {
                let (sets, ways) = geometry(coverage.entries_for(tracked_blocks_per_slice), assoc);
                DirConfig::stash(sets, ways)
                    .with_sharer_format(SharerFormat::LimitedPtr { k: k as usize })
            }
            DirSpec::Dls => DirConfig::dls(),
            DirSpec::Opaque { coverage, assoc } => {
                let (sets, ways) = geometry(coverage.entries_for(tracked_blocks_per_slice), assoc);
                DirConfig::opaque(sets, ways)
            }
        }
    }
}

/// Rounds `entries` into a power-of-two set count at fixed associativity.
fn geometry(entries: usize, assoc: usize) -> (usize, usize) {
    let sets = (entries / assoc).max(1).next_power_of_two();
    (sets, assoc)
}

impl fmt::Display for DirSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirSpec::FullMap => write!(f, "fullmap"),
            DirSpec::Sparse {
                coverage, assoc, ..
            } => write!(f, "sparse@{coverage}x{assoc}w"),
            DirSpec::Stash {
                coverage, assoc, ..
            } => write!(f, "stash@{coverage}x{assoc}w"),
            DirSpec::Cuckoo { coverage } => write!(f, "cuckoo@{coverage}"),
            DirSpec::LimitedPtr { coverage, assoc, k } => {
                write!(f, "limited-ptr{k}@{coverage}x{assoc}w")
            }
            DirSpec::Dls => write!(f, "dls"),
            DirSpec::Opaque { coverage, assoc } => write!(f, "opaque@{coverage}x{assoc}w"),
        }
    }
}

/// The grammar [`DirSpec`]'s `FromStr` impl accepts, kind by kind.
pub const DIR_KIND_HELP: &str = "fullmap, sparse@<cov>[x<ways>w], stash@<cov>[x<ways>w], \
     cuckoo@<cov>, limited-ptr<k>@<cov>[x<ways>w], dls, opaque@<cov>[x<ways>w]";

/// Parses a coverage ratio: `1/8` or a bare integer like `2`.
fn parse_coverage(s: &str) -> Result<CoverageRatio, String> {
    let bad = || format!("bad coverage `{s}`: expected <num>/<den> or <num>, e.g. 1/8");
    let (num, den) = match s.split_once('/') {
        Some((n, d)) => (
            n.parse::<u32>().map_err(|_| bad())?,
            d.parse::<u32>().map_err(|_| bad())?,
        ),
        None => (s.parse::<u32>().map_err(|_| bad())?, 1),
    };
    if num == 0 || den == 0 {
        return Err(bad());
    }
    Ok(CoverageRatio::new(num, den))
}

/// Parses a geometry suffix: `<cov>` or `<cov>x<ways>w` (default 8-way).
fn parse_geometry(kind: &str, g: &str) -> Result<(CoverageRatio, usize), String> {
    let (cov, assoc) = match g.rsplit_once('x') {
        Some((c, a)) => {
            let ways = a
                .strip_suffix('w')
                .and_then(|w| w.parse::<usize>().ok())
                .filter(|&w| w > 0)
                .ok_or_else(|| {
                    format!("bad `{kind}` geometry `{g}`: expected <cov>x<ways>w, e.g. 1/8x8w")
                })?;
            (c, ways)
        }
        None => (g, 8),
    };
    Ok((parse_coverage(cov)?, assoc))
}

impl std::str::FromStr for DirSpec {
    type Err = String;

    /// Parses the rendering produced by [`Display`](fmt::Display)
    /// (`stash@1/8x8w`, `cuckoo@1/4`, `limited-ptr2@1/8x8w`, `dls`, …),
    /// with the `x<ways>w` suffix optional (8-way default). Unknown kinds
    /// name every valid one in the error.
    fn from_str(s: &str) -> Result<Self, String> {
        let (kind, geom) = match s.split_once('@') {
            Some((k, g)) => (k, Some(g)),
            None => (s, None),
        };
        let need_geom =
            |kind: &str| format!("directory kind `{kind}` needs a coverage, e.g. {kind}@1/8x8w");
        let no_geom = |kind: &str| format!("directory kind `{kind}` takes no coverage");
        match kind {
            "fullmap" => match geom {
                None => Ok(DirSpec::FullMap),
                Some(_) => Err(no_geom(kind)),
            },
            "dls" => match geom {
                None => Ok(DirSpec::Dls),
                Some(_) => Err(no_geom(kind)),
            },
            "sparse" => {
                let (coverage, assoc) = parse_geometry(kind, geom.ok_or_else(|| need_geom(kind))?)?;
                Ok(DirSpec::Sparse {
                    coverage,
                    assoc,
                    repl: DirReplPolicy::Lru,
                })
            }
            "stash" => {
                let (coverage, assoc) = parse_geometry(kind, geom.ok_or_else(|| need_geom(kind))?)?;
                Ok(DirSpec::Stash {
                    coverage,
                    assoc,
                    repl: DirReplPolicy::PrivateFirstLru,
                })
            }
            "opaque" => {
                let (coverage, assoc) = parse_geometry(kind, geom.ok_or_else(|| need_geom(kind))?)?;
                Ok(DirSpec::Opaque { coverage, assoc })
            }
            "cuckoo" => {
                let coverage = parse_coverage(geom.ok_or_else(|| need_geom(kind))?)?;
                Ok(DirSpec::Cuckoo { coverage })
            }
            _ => {
                if let Some(rest) = kind.strip_prefix("limited-ptr") {
                    let k: u8 = rest.parse().map_err(|_| {
                        format!("bad limited-ptr pointer count `{rest}`: expected limited-ptr<k>, e.g. limited-ptr2")
                    })?;
                    if k == 0 {
                        return Err("limited-ptr needs at least one pointer".to_string());
                    }
                    let (coverage, assoc) = parse_geometry(
                        "limited-ptr",
                        geom.ok_or_else(|| need_geom("limited-ptr<k>"))?,
                    )?;
                    Ok(DirSpec::LimitedPtr { coverage, assoc, k })
                } else {
                    Err(format!(
                        "unknown directory kind `{kind}`; valid kinds: {DIR_KIND_HELP}"
                    ))
                }
            }
        }
    }
}

/// Full machine configuration.
///
/// The default reproduces the paper's 16-core model (see `DESIGN.md` E1).
///
/// # Examples
///
/// ```
/// use stashdir_sim::{CoverageRatio, DirSpec, SystemConfig};
///
/// let cfg = SystemConfig::default()
///     .with_dir(DirSpec::stash(CoverageRatio::new(1, 8)));
/// assert_eq!(cfg.cores, 16);
/// assert_eq!(cfg.dir.name(), "stash");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of cores = tiles = LLC banks (power of two).
    pub cores: u16,
    /// Coherence block size in bytes.
    pub block_bytes: u64,
    /// Per-core private L1.
    pub l1: CacheConfig,
    /// Per-core private L2 (the coherence point; inclusive of L1).
    pub l2: CacheConfig,
    /// Per-tile LLC bank (the shared LLC is `cores ×` this).
    pub llc_bank: CacheConfig,
    /// Directory organization and provisioning.
    pub dir: DirSpec,
    /// Directory slice access latency (cycles).
    pub dir_latency: u64,
    /// Bank pipeline occupancy per transaction (cycles): the throughput
    /// limit of one home's directory+LLC controller.
    pub bank_occupancy: u64,
    /// On-chip network.
    pub noc: NocConfig,
    /// Off-chip memory.
    pub dram: DramConfig,
    /// Private caches notify the home on clean evictions (`PutS`/`PutE`).
    /// When `false`, clean evictions are silent and directories accumulate
    /// stale entries (an ablation).
    pub notify_clean_evictions: bool,
    /// Run the full invariant checker every this many completed
    /// transactions (`0` = only at end of run).
    pub check_interval: u64,
    /// Record a [`TimelineSample`] every this many cycles (`0` = off).
    ///
    /// [`TimelineSample`]: crate::report::TimelineSample
    pub timeline_interval: u64,
    /// Seed for every stochastic policy in the machine.
    pub seed: u64,
}

impl Default for SystemConfig {
    /// The reconstructed 16-core HPCA-2014 model: 32 KiB 4-way L1 (1 cyc),
    /// 256 KiB 8-way L2 (8 cyc), 1 MiB 16-way LLC bank (24 cyc), stash
    /// directory at 1× coverage, 4×4 mesh at 3 cyc/hop, 160-cycle DRAM.
    fn default() -> Self {
        SystemConfig {
            cores: 16,
            block_bytes: 64,
            l1: CacheConfig::new(32 * 1024, 4, 64, 1, ReplKind::Lru),
            l2: CacheConfig::new(256 * 1024, 8, 64, 8, ReplKind::Lru),
            llc_bank: CacheConfig::new(1024 * 1024, 16, 64, 24, ReplKind::Lru),
            dir: DirSpec::stash(CoverageRatio::FULL),
            dir_latency: 2,
            bank_occupancy: 4,
            noc: NocConfig::default(),
            dram: DramConfig::default(),
            notify_clean_evictions: true,
            check_interval: 0,
            timeline_interval: 0,
            seed: 0xC0FFEE,
        }
    }
}

impl SystemConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if core count is not a positive power of two, block sizes
    /// disagree across levels, or the L2 is not larger than the L1.
    pub fn validate(&self) {
        assert!(
            self.cores > 0 && self.cores.is_power_of_two(),
            "core count must be a positive power of two, got {}",
            self.cores
        );
        for (name, c) in [("l1", &self.l1), ("l2", &self.l2), ("llc", &self.llc_bank)] {
            assert_eq!(
                c.block_bytes(),
                self.block_bytes,
                "{name} block size disagrees with system block size"
            );
        }
        assert!(
            self.l2.size_bytes() >= self.l1.size_bytes(),
            "L2 must be at least as large as L1 (inclusive hierarchy)"
        );
    }

    /// Replaces the directory spec.
    pub fn with_dir(mut self, dir: DirSpec) -> Self {
        self.dir = dir;
        self
    }

    /// Replaces the core count (mesh resizes to match).
    pub fn with_cores(mut self, cores: u16) -> Self {
        self.cores = cores;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables periodic paranoid invariant checking.
    pub fn with_check_interval(mut self, every_transactions: u64) -> Self {
        self.check_interval = every_transactions;
        self
    }

    /// Enables time-series sampling every `cycles` cycles.
    pub fn with_timeline(mut self, cycles: u64) -> Self {
        self.timeline_interval = cycles;
        self
    }

    /// The mesh carrying this machine's tiles.
    pub fn mesh(&self) -> Mesh {
        Mesh::for_nodes(self.cores)
    }

    /// Private blocks each directory slice must cover: the per-core L2
    /// capacity (one slice per core; L1 content is a subset of L2).
    pub fn tracked_blocks_per_slice(&self) -> usize {
        self.l2.num_blocks()
    }

    /// The resolved per-slice directory configuration.
    pub fn dir_slice(&self) -> DirConfig {
        self.dir.slice_config(self.tracked_blocks_per_slice())
    }

    /// LLC lines chip-wide.
    pub fn llc_lines(&self) -> u64 {
        self.llc_bank.num_blocks() as u64 * self.cores as u64
    }

    /// Cost-model parameters for this machine (48-bit physical address
    /// space).
    pub fn cost_params(&self) -> CostParams {
        let slice = self.dir_slice();
        let sets = match slice.kind {
            stashdir_core::DirKind::Sparse { sets, .. }
            | stashdir_core::DirKind::Stash { sets, .. }
            | stashdir_core::DirKind::Opaque { sets, .. } => sets,
            _ => 1,
        };
        CostParams {
            tag_bits: CostParams::tag_bits_for(48, self.block_bytes, sets),
            cores: self.cores,
            llc_lines: self.llc_lines(),
        }
    }

    /// Renders the configuration as `(parameter, value)` rows — the
    /// "Table 1: system configuration" of the paper.
    pub fn table(&self) -> Vec<(String, String)> {
        let slice = self.dir_slice();
        vec![
            ("cores".into(), self.cores.to_string()),
            ("mesh".into(), self.mesh().to_string()),
            ("block".into(), format!("{}B", self.block_bytes)),
            ("L1 (private)".into(), self.l1.to_string()),
            ("L2 (private)".into(), self.l2.to_string()),
            ("LLC bank (shared)".into(), self.llc_bank.to_string()),
            (
                "LLC total".into(),
                format!(
                    "{}MiB inclusive",
                    self.llc_bank.size_bytes() * self.cores as u64 / (1024 * 1024)
                ),
            ),
            ("directory".into(), format!("{} ({slice})", self.dir)),
            (
                "dir entries/slice".into(),
                if slice.entries() == usize::MAX {
                    "unbounded".into()
                } else {
                    slice.entries().to_string()
                },
            ),
            ("dir latency".into(), format!("{} cyc", self.dir_latency)),
            (
                "NoC".into(),
                format!(
                    "{} cyc/hop, contention={}",
                    self.noc.hop_latency, self.noc.model_contention
                ),
            ),
            (
                "DRAM".into(),
                format!(
                    "{} cyc, {} ch, {} cyc/access",
                    self.dram.latency, self.dram.channels, self.dram.service_time
                ),
            ),
            (
                "clean-eviction notify".into(),
                self.notify_clean_evictions.to_string(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let cfg = SystemConfig::default();
        cfg.validate();
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.l2.num_blocks(), 4096);
        assert_eq!(cfg.tracked_blocks_per_slice(), 4096);
        assert_eq!(cfg.llc_lines(), 16 * 16384);
    }

    #[test]
    fn coverage_entries() {
        assert_eq!(CoverageRatio::new(2, 1).entries_for(4096), 8192);
        assert_eq!(CoverageRatio::new(1, 16).entries_for(4096), 256);
        assert_eq!(CoverageRatio::new(1, 100).entries_for(10), 1, "floor of 1");
        assert!((CoverageRatio::new(1, 2).as_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sweep_is_descending() {
        let sweep = CoverageRatio::sweep();
        assert_eq!(sweep.len(), 6);
        let vals: Vec<f64> = sweep.iter().map(|c| c.as_f64()).collect();
        assert!(vals.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn slice_config_geometry() {
        // 4096 tracked blocks at 1/8 coverage, 8-way: 512 entries = 64 sets.
        let spec = DirSpec::stash(CoverageRatio::new(1, 8));
        let cfg = spec.slice_config(4096);
        assert_eq!(cfg.entries(), 512);
        assert_eq!(cfg.name(), "stash");
    }

    #[test]
    fn slice_config_rounds_sets_to_power_of_two() {
        let spec = DirSpec::sparse(CoverageRatio::new(1, 3));
        let cfg = spec.slice_config(4096); // 1365 entries -> 1024/2048 region
        if let stashdir_core::DirKind::Sparse { sets, .. } = cfg.kind {
            assert!(sets.is_power_of_two());
        } else {
            panic!("expected sparse");
        }
    }

    #[test]
    fn cuckoo_slice_is_multiple_of_tables() {
        let cfg = DirSpec::Cuckoo {
            coverage: CoverageRatio::new(1, 8),
        }
        .slice_config(4096);
        assert_eq!(cfg.entries() % 4, 0);
    }

    #[test]
    fn table_mentions_key_parameters() {
        let rows = SystemConfig::default().table();
        let text: String = rows.iter().map(|(k, v)| format!("{k}={v};")).collect();
        assert!(text.contains("cores=16"));
        assert!(text.contains("4x4 mesh"));
        assert!(text.contains("stash"));
    }

    #[test]
    fn builders_chain() {
        let cfg = SystemConfig::default()
            .with_cores(64)
            .with_seed(7)
            .with_dir(DirSpec::FullMap)
            .with_check_interval(100);
        cfg.validate();
        assert_eq!(cfg.cores, 64);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.check_interval, 100);
        assert_eq!(cfg.mesh().nodes(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn validate_rejects_odd_core_counts() {
        SystemConfig::default().with_cores(12).validate();
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            DirSpec::stash(CoverageRatio::new(1, 8)).to_string(),
            "stash@1/8x8w"
        );
        assert_eq!(DirSpec::FullMap.to_string(), "fullmap");
        assert_eq!(CoverageRatio::new(2, 1).to_string(), "2");
        assert_eq!(DirSpec::Dls.to_string(), "dls");
        assert_eq!(
            DirSpec::opaque(CoverageRatio::new(1, 8)).to_string(),
            "opaque@1/8x8w"
        );
        assert_eq!(
            DirSpec::limited_ptr(CoverageRatio::new(1, 8), 2).to_string(),
            "limited-ptr2@1/8x8w"
        );
    }

    #[test]
    fn parse_round_trips_display() {
        for spec in [
            DirSpec::FullMap,
            DirSpec::Dls,
            DirSpec::sparse(CoverageRatio::new(1, 8)),
            DirSpec::stash(CoverageRatio::new(1, 4)),
            DirSpec::opaque(CoverageRatio::new(1, 8)),
            DirSpec::Cuckoo {
                coverage: CoverageRatio::new(1, 8),
            },
            DirSpec::limited_ptr(CoverageRatio::new(1, 8), 4),
            DirSpec::Stash {
                coverage: CoverageRatio::new(3, 16),
                assoc: 4,
                repl: DirReplPolicy::PrivateFirstLru,
            },
        ] {
            let parsed: DirSpec = spec.to_string().parse().expect("round-trip parse");
            assert_eq!(parsed, spec, "round-trip of {spec}");
        }
    }

    #[test]
    fn parse_defaults_to_eight_ways() {
        assert_eq!(
            "stash@1/8".parse::<DirSpec>().unwrap(),
            DirSpec::stash(CoverageRatio::new(1, 8))
        );
        assert_eq!(
            "opaque@1/2x4w".parse::<DirSpec>().unwrap(),
            DirSpec::Opaque {
                coverage: CoverageRatio::new(1, 2),
                assoc: 4,
            }
        );
    }

    #[test]
    fn parse_errors_name_every_kind() {
        let err = "bogus@1/8".parse::<DirSpec>().unwrap_err();
        for kind in [
            "fullmap",
            "sparse",
            "stash",
            "cuckoo",
            "limited-ptr",
            "dls",
            "opaque",
        ] {
            assert!(err.contains(kind), "error `{err}` missing kind `{kind}`");
        }
        assert!("fullmap@1/8".parse::<DirSpec>().is_err());
        assert!("stash".parse::<DirSpec>().is_err());
        assert!("stash@0/8".parse::<DirSpec>().is_err());
        assert!("limited-ptr0@1/8".parse::<DirSpec>().is_err());
        assert!("stash@1/8x0w".parse::<DirSpec>().is_err());
    }

    #[test]
    fn limited_ptr_slice_keeps_its_format() {
        let cfg =
            SystemConfig::default().with_dir(DirSpec::limited_ptr(CoverageRatio::new(1, 8), 2));
        let slice = cfg.dir_slice();
        assert_eq!(slice.backend_name(), "limited-ptr");
        assert_eq!(
            slice.format,
            stashdir_core::SharerFormat::LimitedPtr { k: 2 }
        );
        // The geometry matches the plain stash slice at the same coverage.
        let stash = SystemConfig::default()
            .with_dir(DirSpec::stash(CoverageRatio::new(1, 8)))
            .dir_slice();
        assert_eq!(slice.entries(), stash.entries());
    }

    #[test]
    fn dls_and_opaque_slices_resolve() {
        let dls = SystemConfig::default().with_dir(DirSpec::Dls).dir_slice();
        assert_eq!(dls.backend_name(), "dls");
        let opaque = SystemConfig::default()
            .with_dir(DirSpec::opaque(CoverageRatio::new(1, 8)))
            .dir_slice();
        assert_eq!(opaque.backend_name(), "opaque");
        assert_eq!(opaque.entries(), 512);
    }
}
