//! The MESI directory coherence protocol used by the Stash Directory
//! reproduction.
//!
//! This crate is deliberately **pure**: it defines the message vocabulary,
//! the private-cache (L2) state machine, and the home-node decision
//! function, all as data-in/data-out logic with no timing, no queues and no
//! I/O. The [`stashdir-sim`] crate executes these decisions with timing
//! over the NoC; this crate is where protocol *correctness* lives and is
//! exhaustively unit- and property-tested.
//!
//! # Protocol overview
//!
//! * Private caches keep blocks in MESI states ([`PrivState`]).
//! * A block's **home** is the LLC bank + directory slice its address maps
//!   to. Cores send [`Request`]s to the home; the home consults the
//!   directory and answers with data, possibly after probing other cores
//!   ([`Probe`]) and collecting [`ProbeReply`]s.
//! * The home serializes transactions per block, so the decision function
//!   ([`home::decide`]) sees a consistent directory view.
//! * The **stash** extension adds one probe ([`Probe::Discovery`]) and the
//!   home-side rule that a directory miss with the LLC *stash bit* set must
//!   run a discovery round before the request can be answered.
//!
//! [`stashdir-sim`]: https://docs.rs/stashdir-sim

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Artifact determinism: no `for` loop over a hash map or set; the
// std maps and wall-clock reads are banned in `crates/clippy.toml`.
#![deny(clippy::iter_over_hash_type)]
// Panic hygiene: a justified site carries `#[expect(clippy::…, reason)]`;
// test code is exempt through `crates/clippy.toml`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub mod home;
pub mod model;
pub mod msg;
pub mod private;
pub mod reachability;

pub use home::{
    decide, decide_put, discovery_intent, discovery_targets, needs_discovery, DirView, PutOutcome,
    RequestOutcome,
};
pub use msg::{DiscoveryIntent, Grant, Probe, ProbeReply, Request, CONTROL_FLITS, DATA_FLITS};
pub use private::{local_access, probe, AccessOutcome, MemOpKind, PrivState, ProbeEffect};
