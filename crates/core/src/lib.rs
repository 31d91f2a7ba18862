//! Coherence-directory organizations: the **Stash Directory** (the paper's
//! contribution) and the baselines it is evaluated against.
//!
//! A directory tracks, per block, which private caches hold copies. The
//! organizations differ in *storage* and in *what happens when they run
//! out of it*:
//!
//! | Organization | Type | Storage | On conflict |
//! |---|---|---|---|
//! | full-map | [`MapDirectory`] ([`MapOrg::FullMap`]) | one entry per LLC line (ideal) | never conflicts |
//! | DLS | [`MapDirectory`] ([`MapOrg::Dls`]) | none (directoryless) | never conflicts; shared blocks are never cached privately |
//! | sparse | [`SetAssocDirectory`] ([`SetAssocOrg::Sparse`]) | set-associative, under-provisioned | invalidate all copies of the victim |
//! | stash | [`SetAssocDirectory`] ([`SetAssocOrg::Stash`]) | set-associative, under-provisioned, plus a stash bit per LLC line | **silently drop** entries tracking *private* blocks (set the LLC stash bit); invalidate only shared victims |
//! | opaque | [`SetAssocDirectory`] ([`SetAssocOrg::Opaque`]) | set-associative shards at opaque banks, global keys | invalidate all copies of the victim |
//! | cuckoo | [`CuckooDirectory`] | multi-hash, under-provisioned | relocate; invalidate only when a relocation path is exhausted |
//!
//! One struct exists per storage layout; the organization is data it
//! holds. All implement [`DirectoryModel`], so the simulator (and your
//! own code) can swap them freely. [`DirConfig::build`] builds any of
//! them, and [`backends`] lists every registered backend by name
//! (`limited-ptr` is the stash organization with a limited-pointer
//! [`SharerFormat`]).
//!
//! # Examples
//!
//! ```
//! use stashdir_common::{BlockAddr, CoreId};
//! use stashdir_core::{DirConfig, DirectoryModel, EvictionAction};
//! use stashdir_protocol::DirView;
//!
//! // A tiny stash directory: 1 set x 2 ways.
//! let mut dir = DirConfig::stash(1, 2).build(42);
//! let owner = |i| DirView::Exclusive(CoreId::new(i));
//! assert_eq!(dir.install(BlockAddr::new(1), owner(1)), EvictionAction::None);
//! assert_eq!(dir.install(BlockAddr::new(2), owner(2)), EvictionAction::None);
//! // Third entry: the set is full, but the LRU victim is private, so the
//! // stash directory drops it silently instead of invalidating.
//! match dir.install(BlockAddr::new(3), owner(3)) {
//!     EvictionAction::Silent { block, .. } => assert_eq!(block, BlockAddr::new(1)),
//!     other => panic!("expected silent eviction, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Artifact determinism: no `for` loop over a hash map or set; the
// std maps and wall-clock reads are banned in `crates/clippy.toml`.
#![deny(clippy::iter_over_hash_type)]
// Panic hygiene: a justified site carries `#[expect(clippy::…, reason)]`;
// test code is exempt through `crates/clippy.toml`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub mod cost;
pub mod cuckoo;
pub mod format;
pub mod map;
pub mod model;
pub mod set_assoc;

pub use cost::{CostParams, EnergyCounts, EnergyModel};
pub use cuckoo::CuckooDirectory;
pub use format::SharerFormat;
pub use map::{MapDirectory, MapOrg};
pub use model::{
    backends, DirConfig, DirKind, DirReplPolicy, DirStats, DirectoryModel, EvictionAction,
};
pub use set_assoc::{SetAssocDirectory, SetAssocOrg};
