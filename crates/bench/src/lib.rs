//! The experiment front end for the Stash Directory reproduction.
//!
//! Every registered experiment (E1–E15, E17–E20) regenerates one table
//! or figure from `DESIGN.md`'s per-experiment index through the
//! harness's `sweep` binary, which prints a human-readable table to
//! stdout and writes machine-readable CSV under `results/`. The grid
//! expansion, parallel execution, manifests and table assembly all live
//! in [`stashdir_harness`]. One experiment runs with `--plan <key>`, the
//! whole suite in one parallel invocation with `--all`:
//!
//! ```sh
//! cargo run --release -p stashdir-harness --bin sweep -- --plan perf_vs_coverage
//! cargo run --release -p stashdir-harness --bin sweep -- --all
//! ```
//!
//! Environment knobs: `STASHDIR_OPS` (operations per core, default
//! 10000), `STASHDIR_SEED` (default 7), `STASHDIR_JOBS` (worker threads,
//! default all cores).
//!
//! This crate keeps the two binaries the registry does not cover,
//! `exp_timeline` (E16) and `simulate` (one ad-hoc run), and the
//! Criterion micro and end-to-end benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
