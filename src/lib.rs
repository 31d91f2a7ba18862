//! # stashdir
//!
//! A from-scratch Rust reproduction of **"Stash Directory: A Scalable
//! Directory for Many-core Coherence"** (Demetriades & Cho, HPCA 2014),
//! including the full tiled-CMP simulation substrate the evaluation
//! needs: a MESI directory protocol, private two-level cache hierarchies,
//! a banked inclusive LLC, a mesh NoC, a DRAM model, and a synthetic
//! multi-threaded workload suite.
//!
//! ## The idea in one paragraph
//!
//! Sparse coherence directories must invalidate every cached copy of a
//! block whose tracking entry they evict. The **stash directory** relaxes
//! that inclusion requirement for *private* blocks (cached by exactly one
//! core): their entries are dropped silently, a **stash bit** on the
//! block's LLC line remembers that a *hidden* copy may exist, and a
//! **discovery** broadcast re-locates the copy in the rare case someone
//! else asks for it. Since most blocks are private and hidden copies are
//! almost never re-requested by other cores, a stash directory with 1/8
//! the entries of a conventional sparse directory matches its
//! performance — the paper's headline claim, reproduced by this
//! repository's experiment harness (see `EXPERIMENTS.md`).
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `stashdir-core` | The backend names ([`backends`]) and one type per storage layout: [`SetAssocDirectory`] (sparse, stash, opaque), [`MapDirectory`] (full-map, DLS), [`CuckooDirectory`] |
//! | [`sim`] | `stashdir-sim` | The machine: [`Machine`], [`SystemConfig`], invariant checker |
//! | [`protocol`] | `stashdir-protocol` | MESI states, messages, home decision logic |
//! | [`workloads`] | `stashdir-workloads` | The twelve-workload suite: [`Workload`] |
//! | [`mem`] | `stashdir-mem` | The LRU set-associative array, cache geometry, DRAM |
//! | [`noc`] | `stashdir-noc` | Mesh network model |
//! | [`common`] | `stashdir-common` | Addresses, ids, RNG, stats |
//!
//! ## Quickstart
//!
//! ```
//! use stashdir::{CoverageRatio, DirSpec, Machine, SystemConfig, Workload};
//!
//! // The paper's 16-core machine with a stash directory at 1/8 coverage.
//! let config = SystemConfig::default().with_dir(DirSpec::stash(CoverageRatio::new(1, 8)));
//! let traces = Workload::DataParallel.generate(16, 2_000, 42);
//! let report = Machine::new(config).run(traces);
//! report.assert_clean(); // full coherence + consistency checking
//! println!(
//!     "{} cycles, {} silent evictions, {} discoveries",
//!     report.cycles,
//!     report.stat("dir.silent_evictions"),
//!     report.stat("bank.discoveries"),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use stashdir_common as common;
pub use stashdir_core as core;
pub use stashdir_mem as mem;
pub use stashdir_noc as noc;
pub use stashdir_protocol as protocol;
pub use stashdir_sim as sim;
pub use stashdir_workloads as workloads;

pub use stashdir_common::{Addr, BlockAddr, CoreId, Cycle, MemOp, MemOpKind, StatSink};
pub use stashdir_core::{
    backends, CostParams, CuckooDirectory, DirConfig, DirReplPolicy, DirectoryModel, EnergyCounts,
    EnergyModel, EvictionAction, MapDirectory, MapOrg, SetAssocDirectory, SetAssocOrg,
    SharerFormat,
};
pub use stashdir_sim::{
    expected_detector, CoverageRatio, Detector, DirSpec, FaultBurst, FaultClass, FaultConfig,
    FaultPlan, FaultSummary, Machine, SimReport, SystemConfig, TransitionHits,
};
pub use stashdir_workloads::{Characterization, Workload};
