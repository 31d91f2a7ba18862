//! Parallel experiment orchestration for the Stash Directory reproduction.
//!
//! Every experiment (E1–E20) regenerates one table or figure from
//! `DESIGN.md`'s per-experiment index. This crate runs them:
//!
//! * [`plan`] — [`ExperimentPlan`] grids over directory scheme, coverage,
//!   workload, core count, seed and op count, expanded into independent
//!   [`CaseSpec`]s with deterministic identities and per-case seeds.
//! * [`pool`] — a worker pool on `std::thread` that runs cases in
//!   parallel with per-case panic isolation (a crashing case becomes a
//!   `failed` record, not a dead sweep), per-case timeouts and optional
//!   fail-fast cancellation.
//! * [`manifest`] — [`RunManifest`]s written to
//!   `results/<run>/manifest.json` recording the plan, per-case digests,
//!   statuses and durations, enabling `--resume` to skip completed cases.
//! * [`artifact`] — structured per-case artifacts: each
//!   [`SimReport`](stashdir::SimReport) serialized to
//!   `results/<run>/cases/<id>.json` (deterministically, so parallel and
//!   serial runs produce byte-identical files).
//! * [`experiments`] — the E1–E20 registry: each experiment contributes
//!   cases to a run and assembles its table from the shared result set.
//! * [`progress`] — a live `done/total`, ETA and worker-utilization line.
//!
//! The `sweep` binary drives the whole suite in one parallel invocation,
//! printing each table to stdout and writing its CSV under `results/`;
//! the `campaign` binary runs the adaptive chaos campaign (E19) and
//! `simulate` one ad-hoc configuration:
//!
//! ```sh
//! cargo run --release -p stashdir-harness --bin sweep -- --all
//! cargo run --release -p stashdir-harness --bin sweep -- --plan perf_vs_coverage,traffic
//! cargo run --release -p stashdir-harness --bin simulate -- --dir limited-ptr2@1/8
//! ```
//!
//! Environment knobs: `STASHDIR_OPS` (operations per core, default
//! 10000), `STASHDIR_SEED` (default 7), `STASHDIR_JOBS` (worker threads,
//! default all cores).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Artifact determinism: no `for` loop over a hash map or set; the
// std maps and wall-clock reads are banned in `crates/clippy.toml`.
#![deny(clippy::iter_over_hash_type)]

pub mod artifact;
pub mod campaign;
pub mod digest;
pub mod experiments;
pub mod fsio {
    //! Durable-write discipline for run artifacts — atomic temp+rename
    //! writes and corrupt-file quarantine. The implementation lives in
    //! [`stashdir::common::fsio`] so artifact writers outside the harness
    //! (the lint binary, future tools) share the same discipline.
    pub use stashdir::common::fsio::{quarantine, write_atomic};
}
pub mod manifest;
pub mod params;
pub mod plan;
pub mod pool;
pub mod progress;
pub mod runner;
pub mod table;

pub use campaign::{run_campaign, CampaignConfig, CampaignOutcome, COVERAGE_SCHEMA};
pub use experiments::{registry, Experiment, ResultSet};
pub use manifest::{CaseRecord, RunManifest};
pub use params::{geomean, machine_with, Params};
pub use plan::{CaseSpec, ExperimentPlan};
pub use pool::{run_cases, CaseOutcome, CaseStatus, RunOptions};
pub use runner::SweepConfig;
pub use table::{f2, f3, n0, Table};
