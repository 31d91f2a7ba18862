//! The [`DirectoryModel`] trait, its configuration, and shared statistics.

use crate::cost::CostParams;
use crate::format::SharerFormat;
use serde::{Deserialize, Serialize};
use stashdir_common::{BlockAddr, CoreId, Counter, StatSink};
use stashdir_protocol::DirView;
use std::fmt;

/// What a directory did to make room for a new entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionAction {
    /// No entry was displaced.
    None,
    /// The stash mechanism: an entry tracking a *private* block was
    /// dropped without invalidating the cached copy. The caller must set
    /// the stash bit on `block`'s LLC line; `owner` becomes hidden.
    Silent {
        /// The block whose entry was dropped.
        block: BlockAddr,
        /// The core that keeps the now-hidden copy.
        owner: CoreId,
    },
    /// A conventional eviction: every holder in `view` must be
    /// invalidated (Inv/Recall probes) to restore directory inclusion.
    Invalidate {
        /// The block whose entry was dropped.
        block: BlockAddr,
        /// The holders the caller must invalidate.
        view: DirView,
    },
}

impl EvictionAction {
    /// `true` when no entry was displaced.
    pub fn is_none(&self) -> bool {
        matches!(self, EvictionAction::None)
    }
}

/// Uniform interface over directory organizations.
///
/// Views stored through [`install`] are never [`DirView::Untracked`];
/// dropping tracking is expressed with [`remove`].
///
/// [`install`]: DirectoryModel::install
/// [`remove`]: DirectoryModel::remove
pub trait DirectoryModel: fmt::Debug {
    /// A short organization name (`"stash"`, `"sparse"`, …).
    fn name(&self) -> &'static str;

    /// Maximum number of simultaneously tracked blocks (`usize::MAX` for
    /// the unbounded full-map ideal).
    fn capacity(&self) -> usize;

    /// Number of blocks currently tracked.
    fn occupancy(&self) -> usize;

    /// The directory's knowledge of `block`; `None` when untracked.
    fn lookup(&self, block: BlockAddr) -> Option<DirView>;

    /// Records `view` for `block`, allocating an entry (and possibly
    /// displacing another) when the block is not yet tracked. Updating an
    /// existing entry refreshes its recency and never evicts.
    ///
    /// Returns the displacement the **caller must enact**: setting the
    /// stash bit for a [`EvictionAction::Silent`] victim, or invalidating
    /// the holders of an [`EvictionAction::Invalidate`] victim.
    ///
    /// # Panics
    ///
    /// Panics if `view` is [`DirView::Untracked`].
    fn install(&mut self, block: BlockAddr, view: DirView) -> EvictionAction;

    /// Stops tracking `block` (no-op when untracked).
    fn remove(&mut self, block: BlockAddr);

    /// Snapshot of every tracked `(block, view)` pair, for invariant
    /// checking and introspection.
    fn entries(&self) -> Vec<(BlockAddr, DirView)>;

    /// Accumulated event counts.
    fn stats(&self) -> &DirStats;

    /// `true` when entries are keyed by global block addresses. A slice
    /// that only tracks its own bank's home blocks (the default) is keyed
    /// by bank-local addresses instead; a shard that holds blocks homed
    /// at other banks cannot be.
    fn global_keys(&self) -> bool {
        false
    }

    /// Storage cost of this organization in bits under `params`.
    fn storage_bits(&self, params: &CostParams) -> u64;
}

/// Event counts every organization maintains.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirStats {
    /// `lookup` calls.
    pub lookups: Counter,
    /// `lookup` calls that found an entry.
    pub hits: Counter,
    /// Entries allocated for previously untracked blocks.
    pub allocations: Counter,
    /// Entries dropped silently (stash mechanism).
    pub silent_evictions: Counter,
    /// Entries dropped with holder invalidation (conventional behavior).
    pub invalidating_evictions: Counter,
    /// Cached copies the invalidating evictions destroyed (sum of holder
    /// counts) — the "directory-induced invalidations" of experiment E4.
    pub copies_invalidated: Counter,
    /// Invalidating evictions whose victim was private (a stash directory
    /// would have saved these; always zero for the stash directory itself).
    pub private_victims_invalidated: Counter,
    /// Cuckoo relocations performed during inserts.
    pub relocations: Counter,
}

impl DirStats {
    /// Exports counters under `prefix.` into `sink`.
    pub fn export(&self, prefix: &str, sink: &mut StatSink) {
        sink.put_counter(format!("{prefix}.lookups"), self.lookups);
        sink.put_counter(format!("{prefix}.hits"), self.hits);
        sink.put_counter(format!("{prefix}.allocations"), self.allocations);
        sink.put_counter(format!("{prefix}.silent_evictions"), self.silent_evictions);
        sink.put_counter(
            format!("{prefix}.invalidating_evictions"),
            self.invalidating_evictions,
        );
        sink.put_counter(
            format!("{prefix}.copies_invalidated"),
            self.copies_invalidated,
        );
        sink.put_counter(
            format!("{prefix}.private_victims_invalidated"),
            self.private_victims_invalidated,
        );
        sink.put_counter(format!("{prefix}.relocations"), self.relocations);
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &DirStats) {
        self.lookups.add(other.lookups.get());
        self.hits.add(other.hits.get());
        self.allocations.add(other.allocations.get());
        self.silent_evictions.add(other.silent_evictions.get());
        self.invalidating_evictions
            .add(other.invalidating_evictions.get());
        self.copies_invalidated.add(other.copies_invalidated.get());
        self.private_victims_invalidated
            .add(other.private_victims_invalidated.get());
        self.relocations.add(other.relocations.get());
    }

    /// Total evictions of either kind.
    pub fn total_evictions(&self) -> u64 {
        self.silent_evictions.get() + self.invalidating_evictions.get()
    }
}

/// Victim selection policy for the set-associative organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DirReplPolicy {
    /// Least-recently-used entry, regardless of content (the conventional
    /// sparse directory's policy; also an ablation for stash).
    #[default]
    Lru,
    /// The stash directory's policy: the least-recently-used entry
    /// tracking a *private* block, falling back to plain LRU when the set
    /// holds no private entry.
    PrivateFirstLru,
    /// Uniformly random valid entry (ablation).
    Random,
}

impl fmt::Display for DirReplPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DirReplPolicy::Lru => "lru",
            DirReplPolicy::PrivateFirstLru => "private-first-lru",
            DirReplPolicy::Random => "random",
        })
    }
}

/// Which organization to build, with its geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirKind {
    /// Unbounded ideal directory.
    FullMap,
    /// Conventional sparse directory.
    Sparse {
        /// Number of sets (power of two).
        sets: usize,
        /// Ways per set.
        ways: usize,
        /// Victim selection.
        repl: DirReplPolicy,
    },
    /// The paper's stash directory.
    Stash {
        /// Number of sets (power of two).
        sets: usize,
        /// Ways per set.
        ways: usize,
        /// Victim selection ([`DirReplPolicy::PrivateFirstLru`] is the
        /// paper's design; others are ablations).
        repl: DirReplPolicy,
    },
    /// Cuckoo-hashed directory (related-work baseline).
    Cuckoo {
        /// Total entries across all hash tables.
        entries: usize,
        /// Number of hash functions/tables.
        hashes: usize,
        /// Relocation path budget per insert.
        max_path: usize,
    },
    /// Directoryless (related-work baseline): an unbounded owner map with
    /// zero storage cost; shared blocks are serviced as remote LLC
    /// accesses by the machine.
    Dls,
    /// Opaque-distributed (related-work baseline): sparse shards placed
    /// at banks by an opaque address→bank map, keyed by global addresses.
    Opaque {
        /// Number of sets (power of two).
        sets: usize,
        /// Ways per set.
        ways: usize,
        /// Victim selection.
        repl: DirReplPolicy,
    },
}

/// A buildable directory configuration.
///
/// # Examples
///
/// ```
/// use stashdir_core::DirConfig;
/// let dir = DirConfig::sparse(64, 8).build(7);
/// assert_eq!(dir.name(), "sparse");
/// assert_eq!(dir.capacity(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirConfig {
    /// The organization and geometry.
    pub kind: DirKind,
    /// Sharer-set encoding (set-associative kinds only).
    pub format: SharerFormat,
}

impl DirConfig {
    /// An unbounded full-map directory.
    pub fn full_map() -> Self {
        DirConfig {
            kind: DirKind::FullMap,
            format: SharerFormat::FullMap,
        }
    }

    /// A conventional sparse directory with LRU replacement.
    pub fn sparse(sets: usize, ways: usize) -> Self {
        DirConfig {
            kind: DirKind::Sparse {
                sets,
                ways,
                repl: DirReplPolicy::Lru,
            },
            format: SharerFormat::FullMap,
        }
    }

    /// The paper's stash directory (private-first LRU replacement).
    pub fn stash(sets: usize, ways: usize) -> Self {
        DirConfig {
            kind: DirKind::Stash {
                sets,
                ways,
                repl: DirReplPolicy::PrivateFirstLru,
            },
            format: SharerFormat::FullMap,
        }
    }

    /// A cuckoo directory with 4 hash tables and an 8-step path budget.
    pub fn cuckoo(entries: usize) -> Self {
        DirConfig {
            kind: DirKind::Cuckoo {
                entries,
                hashes: 4,
                max_path: 8,
            },
            format: SharerFormat::FullMap,
        }
    }

    /// The directoryless DLS backend.
    pub fn dls() -> Self {
        DirConfig {
            kind: DirKind::Dls,
            format: SharerFormat::FullMap,
        }
    }

    /// An opaque-distributed directory shard with LRU replacement.
    pub fn opaque(sets: usize, ways: usize) -> Self {
        DirConfig {
            kind: DirKind::Opaque {
                sets,
                ways,
                repl: DirReplPolicy::Lru,
            },
            format: SharerFormat::FullMap,
        }
    }

    /// Overrides the sharer-encoding format (sparse and stash kinds; the
    /// full-map ideal and cuckoo baseline keep precise vectors).
    pub fn with_sharer_format(mut self, format: SharerFormat) -> Self {
        self.format = format;
        self
    }

    /// Overrides the victim-selection policy (set-associative kinds only;
    /// ignored by full-map and cuckoo).
    pub fn with_repl(mut self, repl: DirReplPolicy) -> Self {
        match &mut self.kind {
            DirKind::Sparse { repl: r, .. }
            | DirKind::Stash { repl: r, .. }
            | DirKind::Opaque { repl: r, .. } => *r = repl,
            DirKind::FullMap | DirKind::Cuckoo { .. } | DirKind::Dls => {}
        }
        self
    }

    /// Number of entries this configuration provides.
    pub fn entries(&self) -> usize {
        match self.kind {
            DirKind::FullMap | DirKind::Dls => usize::MAX,
            DirKind::Sparse { sets, ways, .. }
            | DirKind::Stash { sets, ways, .. }
            | DirKind::Opaque { sets, ways, .. } => sets * ways,
            DirKind::Cuckoo { entries, .. } => entries,
        }
    }

    /// The backend-registry name this configuration resolves to. Differs
    /// from [`name`](DirConfig::name) only for the stash organization
    /// composed with a limited-pointer format, which is the registered
    /// `limited-ptr` backend.
    pub fn backend_name(&self) -> &'static str {
        match (self.kind, self.format) {
            (DirKind::Stash { .. }, SharerFormat::LimitedPtr { .. }) => "limited-ptr",
            _ => self.name(),
        }
    }

    /// Builds the directory by resolving this configuration's
    /// [`backend_name`](DirConfig::backend_name) through the backend
    /// registry. `seed` feeds stochastic policies; views carry their own
    /// sharer-set capacity.
    ///
    /// # Panics
    ///
    /// Panics if the backend name is not registered (impossible for
    /// configurations built through this type's constructors).
    pub fn build(&self, seed: u64) -> Box<dyn DirectoryModel> {
        let entry = crate::registry::resolve(self.backend_name())
            .unwrap_or_else(|| panic!("unregistered directory backend {}", self.backend_name()));
        (entry.build)(self, seed)
    }

    /// `true` when this organization can hide blocks (so homes must
    /// consult stash bits and run discovery).
    pub fn uses_stash(&self) -> bool {
        matches!(self.kind, DirKind::Stash { .. })
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self.kind {
            DirKind::FullMap => "fullmap",
            DirKind::Sparse { .. } => "sparse",
            DirKind::Stash { .. } => "stash",
            DirKind::Cuckoo { .. } => "cuckoo",
            DirKind::Dls => "dls",
            DirKind::Opaque { .. } => "opaque",
        }
    }
}

impl fmt::Display for DirConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DirKind::FullMap => write!(f, "fullmap"),
            DirKind::Sparse { sets, ways, repl } => {
                write!(f, "sparse({sets}x{ways},{repl})")
            }
            DirKind::Stash { sets, ways, repl } => write!(f, "stash({sets}x{ways},{repl})"),
            DirKind::Cuckoo {
                entries,
                hashes,
                max_path,
            } => write!(f, "cuckoo({entries},d={hashes},path={max_path})"),
            DirKind::Dls => write!(f, "dls"),
            DirKind::Opaque { sets, ways, repl } => write!(f, "opaque({sets}x{ways},{repl})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_entry_counts() {
        assert_eq!(DirConfig::sparse(64, 8).entries(), 512);
        assert_eq!(DirConfig::stash(16, 4).entries(), 64);
        assert_eq!(DirConfig::cuckoo(100).entries(), 100);
        assert_eq!(DirConfig::full_map().entries(), usize::MAX);
    }

    #[test]
    fn with_repl_only_touches_set_assoc_kinds() {
        let c = DirConfig::stash(8, 2).with_repl(DirReplPolicy::Random);
        assert!(matches!(
            c.kind,
            DirKind::Stash {
                repl: DirReplPolicy::Random,
                ..
            }
        ));
        let c = DirConfig::cuckoo(8).with_repl(DirReplPolicy::Random);
        assert!(matches!(c.kind, DirKind::Cuckoo { .. }));
    }

    #[test]
    fn uses_stash_only_for_stash() {
        assert!(DirConfig::stash(8, 2).uses_stash());
        assert!(!DirConfig::sparse(8, 2).uses_stash());
        assert!(!DirConfig::full_map().uses_stash());
        assert!(!DirConfig::cuckoo(8).uses_stash());
    }

    #[test]
    fn build_produces_named_models() {
        for (cfg, name) in [
            (DirConfig::full_map(), "fullmap"),
            (DirConfig::sparse(8, 2), "sparse"),
            (DirConfig::stash(8, 2), "stash"),
            (DirConfig::cuckoo(32), "cuckoo"),
        ] {
            assert_eq!(cfg.build(1).name(), name);
            assert_eq!(cfg.name(), name);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(DirConfig::sparse(8, 2).to_string(), "sparse(8x2,lru)");
        assert_eq!(
            DirConfig::stash(8, 2).to_string(),
            "stash(8x2,private-first-lru)"
        );
        assert_eq!(DirConfig::cuckoo(64).to_string(), "cuckoo(64,d=4,path=8)");
        assert_eq!(DirConfig::full_map().to_string(), "fullmap");
    }

    #[test]
    fn stats_merge_and_totals() {
        let mut a = DirStats::default();
        a.silent_evictions.add(3);
        let mut b = DirStats::default();
        b.invalidating_evictions.add(2);
        b.copies_invalidated.add(5);
        a.merge(&b);
        assert_eq!(a.total_evictions(), 5);
        assert_eq!(a.copies_invalidated.get(), 5);
    }

    #[test]
    fn stats_export_keys() {
        let mut sink = StatSink::new();
        DirStats::default().export("dir", &mut sink);
        assert_eq!(sink.get("dir.silent_evictions"), Some(0.0));
        assert_eq!(sink.get("dir.relocations"), Some(0.0));
        assert_eq!(sink.len(), 8);
    }

    #[test]
    fn eviction_action_is_none() {
        assert!(EvictionAction::None.is_none());
        assert!(!EvictionAction::Silent {
            block: BlockAddr::new(0),
            owner: CoreId::new(0)
        }
        .is_none());
    }
}
