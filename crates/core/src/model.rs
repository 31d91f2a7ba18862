//! The [`DirectoryModel`] trait, its configuration, and shared statistics.

use crate::cost::CostParams;
use crate::cuckoo::CuckooDirectory;
use crate::format::SharerFormat;
use crate::map::{MapDirectory, MapOrg};
use crate::set_assoc::{SetAssocDirectory, SetAssocOrg};
use stashdir_common::{BlockAddr, CoreId, Counter, StatSink};
use stashdir_protocol::DirView;
use std::fmt;

/// What a directory did to make room for a new entry.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// The directory's knowledge of `block`, borrowed from the entry;
    /// `None` when untracked.
    fn lookup(&self, block: BlockAddr) -> Option<&DirView>;

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

    /// Every tracked `(block, view)` pair with its view borrowed, in a
    /// fixed order: storage order for the set-associative and hashed
    /// organizations, address order for the map-backed ones.
    fn tracked(&self) -> Box<dyn Iterator<Item = (BlockAddr, &DirView)> + '_>;

    /// Snapshot of every tracked `(block, view)` pair in
    /// [`tracked`](DirectoryModel::tracked) order, for introspection.
    fn entries(&self) -> Vec<(BlockAddr, DirView)> {
        self.tracked().map(|(b, v)| (b, v.clone())).collect()
    }

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
///
/// `export` and `merge` destructure every field, with no `..`, so a new
/// counter does not compile until both handle it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirStats {
    /// `install` calls: each looks its block up before storing the view.
    /// (The read-only [`DirectoryModel::lookup`] is not counted.)
    pub lookups: Counter,
    /// `install` calls that found an entry to update.
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
        let DirStats {
            lookups,
            hits,
            allocations,
            silent_evictions,
            invalidating_evictions,
            copies_invalidated,
            private_victims_invalidated,
            relocations,
        } = *self;
        sink.put_counter(format!("{prefix}.lookups"), lookups);
        sink.put_counter(format!("{prefix}.hits"), hits);
        sink.put_counter(format!("{prefix}.allocations"), allocations);
        sink.put_counter(format!("{prefix}.silent_evictions"), silent_evictions);
        sink.put_counter(
            format!("{prefix}.invalidating_evictions"),
            invalidating_evictions,
        );
        sink.put_counter(format!("{prefix}.copies_invalidated"), copies_invalidated);
        sink.put_counter(
            format!("{prefix}.private_victims_invalidated"),
            private_victims_invalidated,
        );
        sink.put_counter(format!("{prefix}.relocations"), relocations);
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &DirStats) {
        let DirStats {
            lookups,
            hits,
            allocations,
            silent_evictions,
            invalidating_evictions,
            copies_invalidated,
            private_victims_invalidated,
            relocations,
        } = other;
        self.lookups.add(lookups.get());
        self.hits.add(hits.get());
        self.allocations.add(allocations.get());
        self.silent_evictions.add(silent_evictions.get());
        self.invalidating_evictions
            .add(invalidating_evictions.get());
        self.copies_invalidated.add(copies_invalidated.get());
        self.private_victims_invalidated
            .add(private_victims_invalidated.get());
        self.relocations.add(relocations.get());
    }

    /// Total evictions of either kind.
    pub fn total_evictions(&self) -> u64 {
        self.silent_evictions.get() + self.invalidating_evictions.get()
    }
}

/// Victim selection policy for the set-associative organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirKind {
    /// An unbounded map: the full-map ideal or the directoryless DLS
    /// owner map.
    Map(MapOrg),
    /// A set-associative array: sparse, stash or an opaque shard.
    SetAssoc {
        /// Which set-associative organization.
        org: SetAssocOrg,
        /// Number of sets (power of two).
        sets: usize,
        /// Ways per set.
        ways: usize,
        /// Victim selection ([`DirReplPolicy::PrivateFirstLru`] is the
        /// stash directory's design; others are ablations).
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
}

/// Every directory backend the simulator can build, by registry name, in
/// suite order: the names [`DirConfig::backend_name`] returns. Sweeps
/// enumerate it to cover every organization without hard-coding the
/// list (the E18 shoot-out fields one contender per name).
///
/// `limited-ptr` is a backend but not a distinct [`DirKind`]: it is the
/// stash organization composed with a limited-pointer [`SharerFormat`].
pub fn backends() -> &'static [&'static str] {
    &[
        "fullmap",
        "sparse",
        "stash",
        "limited-ptr",
        "cuckoo",
        "dls",
        "opaque",
    ]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirConfig {
    /// The organization and geometry.
    pub kind: DirKind,
    /// Sharer-set encoding (set-associative kinds only).
    pub format: SharerFormat,
}

impl DirConfig {
    /// `kind` with precise full-map sharer vectors.
    fn of(kind: DirKind) -> Self {
        DirConfig {
            kind,
            format: SharerFormat::FullMap,
        }
    }

    /// `sets × ways` entries of the set-associative `org`.
    fn set_assoc(org: SetAssocOrg, sets: usize, ways: usize, repl: DirReplPolicy) -> Self {
        DirConfig::of(DirKind::SetAssoc {
            org,
            sets,
            ways,
            repl,
        })
    }

    /// An unbounded full-map directory.
    pub fn full_map() -> Self {
        DirConfig::of(DirKind::Map(MapOrg::FullMap))
    }

    /// A conventional sparse directory with LRU replacement.
    pub fn sparse(sets: usize, ways: usize) -> Self {
        DirConfig::set_assoc(SetAssocOrg::Sparse, sets, ways, DirReplPolicy::Lru)
    }

    /// The paper's stash directory (private-first LRU replacement).
    pub fn stash(sets: usize, ways: usize) -> Self {
        DirConfig::set_assoc(
            SetAssocOrg::Stash,
            sets,
            ways,
            DirReplPolicy::PrivateFirstLru,
        )
    }

    /// A cuckoo directory with 4 hash tables and an 8-step path budget.
    pub fn cuckoo(entries: usize) -> Self {
        DirConfig::of(DirKind::Cuckoo {
            entries,
            hashes: 4,
            max_path: 8,
        })
    }

    /// The directoryless DLS backend.
    pub fn dls() -> Self {
        DirConfig::of(DirKind::Map(MapOrg::Dls))
    }

    /// An opaque-distributed directory shard with LRU replacement.
    pub fn opaque(sets: usize, ways: usize) -> Self {
        DirConfig::set_assoc(SetAssocOrg::Opaque, sets, ways, DirReplPolicy::Lru)
    }

    /// Overrides the sharer-encoding format (set-associative kinds; the
    /// map and cuckoo organizations keep precise vectors).
    pub fn with_sharer_format(mut self, format: SharerFormat) -> Self {
        self.format = format;
        self
    }

    /// Overrides the victim-selection policy (set-associative kinds only;
    /// ignored by the others).
    pub fn with_repl(mut self, repl: DirReplPolicy) -> Self {
        if let DirKind::SetAssoc { repl: r, .. } = &mut self.kind {
            *r = repl;
        }
        self
    }

    /// Number of entries this configuration provides.
    pub fn entries(&self) -> usize {
        match self.kind {
            DirKind::Map(_) => usize::MAX,
            DirKind::SetAssoc { sets, ways, .. } => sets * ways,
            DirKind::Cuckoo { entries, .. } => entries,
        }
    }

    /// The [`backends`] name this configuration builds. Differs from
    /// [`name`](DirConfig::name) only for the stash organization composed
    /// with a limited-pointer format, which is the `limited-ptr` backend.
    pub fn backend_name(&self) -> &'static str {
        match (self.kind, self.format) {
            (
                DirKind::SetAssoc {
                    org: SetAssocOrg::Stash,
                    ..
                },
                SharerFormat::LimitedPtr { .. },
            ) => "limited-ptr",
            _ => self.name(),
        }
    }

    /// Builds the directory. `seed` feeds stochastic policies; views
    /// carry their own sharer-set capacity.
    pub fn build(&self, seed: u64) -> Box<dyn DirectoryModel> {
        match self.kind {
            DirKind::Map(org) => Box::new(MapDirectory::new(org)),
            DirKind::SetAssoc {
                org,
                sets,
                ways,
                repl,
            } => Box::new(
                SetAssocDirectory::new(org, sets, ways, repl, seed).with_format(self.format),
            ),
            DirKind::Cuckoo {
                entries,
                hashes,
                max_path,
            } => Box::new(CuckooDirectory::new(entries, hashes, max_path, seed)),
        }
    }

    /// `true` when this organization can hide blocks (so homes must
    /// consult stash bits and run discovery).
    pub fn uses_stash(&self) -> bool {
        matches!(
            self.kind,
            DirKind::SetAssoc {
                org: SetAssocOrg::Stash,
                ..
            }
        )
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self.kind {
            DirKind::Map(org) => org.name(),
            DirKind::SetAssoc { org, .. } => org.name(),
            DirKind::Cuckoo { .. } => "cuckoo",
        }
    }
}

impl fmt::Display for DirConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DirKind::Map(org) => f.write_str(org.name()),
            DirKind::SetAssoc {
                org,
                sets,
                ways,
                repl,
            } => write!(f, "{}({sets}x{ways},{repl})", org.name()),
            DirKind::Cuckoo {
                entries,
                hashes,
                max_path,
            } => write!(f, "cuckoo({entries},d={hashes},path={max_path})"),
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
            DirKind::SetAssoc {
                org: SetAssocOrg::Stash,
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
            (DirConfig::dls(), "dls"),
            (DirConfig::opaque(8, 2), "opaque"),
        ] {
            assert_eq!(cfg.build(1).name(), name);
            assert_eq!(cfg.name(), name);
            assert_eq!(cfg.backend_name(), name);
        }
        // limited-ptr is the stash model under another backend name.
        let cfg = DirConfig::stash(8, 2).with_sharer_format(SharerFormat::LimitedPtr { k: 2 });
        assert_eq!(cfg.backend_name(), "limited-ptr");
        assert_eq!(cfg.build(1).name(), "stash");
    }

    #[test]
    fn backend_names_are_unique() {
        let mut names = backends().to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), backends().len(), "duplicate backend name");
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
        assert_eq!(DirConfig::dls().to_string(), "dls");
        assert_eq!(DirConfig::opaque(8, 2).to_string(), "opaque(8x2,lru)");
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
