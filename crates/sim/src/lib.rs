//! A tiled-CMP discrete-event simulator for evaluating coherence
//! directories — the substrate on which the Stash Directory (HPCA 2014)
//! reproduction runs its experiments.
//!
//! # Machine model
//!
//! `N` tiles in a 2-D mesh. Each tile has an in-order, trace-driven core
//! with a private L1 and private L2 (L2 inclusive of L1, coherence kept at
//! L2), plus one bank of the shared, inclusive LLC with its co-located
//! directory slice. Blocks are address-interleaved across banks; a block's
//! bank is its **home**. Off-chip DRAM hangs off the banks.
//!
//! # Simulation discipline
//!
//! The engine is event-driven, but each coherence transaction is computed
//! *procedurally and atomically* inside the handler that starts it: the
//! handler walks the whole message exchange (request → probes → replies →
//! data), calling the NoC model for every leg to obtain arrival times, and
//! applies all state changes immediately, in event order. Per-block
//! busy-windows at the home enforce transaction serialization in *time*,
//! while event order enforces it in *program order*. Point-to-point
//! channels are FIFO, which closes the classic
//! writeback-overtaken-by-refetch race: a message on a source/destination
//! pair arrives strictly after the one sent before it there.
//!
//! Only some channels need a clamp to keep that order. On a contended
//! NoC, a remote packet reserves every link of its fixed XY route from
//! `max(head, link_free)`, so a packet sent later on the same route
//! leaves each link at least the earlier one's flit count after it and
//! arrives at least a cycle later: link reservation orders every remote
//! channel, and its raw arrival is delivered. Arrivals are clamped
//! monotonic per node on tile-local channels, which cross no link, and
//! per source/destination pair on a contention-free NoC, where packets
//! reserve nothing, and under a threaded fault plan, whose `NocDelay`
//! moves an arrival after its links were reserved. A zero hop latency
//! keeps the per-pair clamp too: there a first packet could arrive at
//! cycle 0, which the clamp moves to 1.
//!
//! This discipline trades a small amount of timing fidelity (probes take
//! effect in program order slightly before their modeled arrival) for a
//! protocol engine whose correctness is easy to state and test: see
//! [`checker`] for the machine-wide invariants verified during and after
//! every run.
//!
//! # Examples
//!
//! ```
//! use stashdir_common::{BlockAddr, MemOp};
//! use stashdir_sim::{Machine, SystemConfig};
//!
//! // Two cores ping-pong a block; default 16-core machine.
//! let config = SystemConfig::default();
//! let mut traces = vec![Vec::new(); config.cores as usize];
//! for i in 0..100u64 {
//!     traces[0].push(MemOp::write(BlockAddr::new(i % 4)));
//!     traces[1].push(MemOp::read(BlockAddr::new(i % 4)));
//! }
//! let report = Machine::new(config).run(traces);
//! assert!(report.cycles > 0);
//! assert_eq!(report.completed_ops, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic hygiene: a justified site carries `#[expect(clippy::…, reason)]`;
// test code is exempt through the root `clippy.toml`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub mod bank;
pub mod checker;
pub mod config;
pub mod event;
pub mod fault;
pub mod machine;
pub mod private;
pub mod report;
pub mod values;

pub use config::{CoverageRatio, DirSpec, SystemConfig};
pub use fault::{
    expected_detector, Detector, FaultBurst, FaultClass, FaultConfig, FaultPlan, FaultSummary,
};
pub use machine::Machine;
pub use report::{SimReport, TransitionHits};
