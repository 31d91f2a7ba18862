//! Common kernel for the `stashdir` workspace.
//!
//! This crate holds the vocabulary types shared by every other crate in the
//! Stash Directory reproduction: physical addresses and block addresses,
//! core/tile identifiers, simulated time, a deterministic RNG, compact
//! sharer sets, and a lightweight statistics registry.
//!
//! # Examples
//!
//! ```
//! use stashdir_common::{Addr, BlockAddr, BlockGeometry};
//!
//! let geom = BlockGeometry::new(64);
//! let a = Addr::new(0x1234);
//! let b = geom.block_of(a);
//! assert_eq!(b, BlockAddr::new(0x48)); // 0x1234 >> 6
//! assert_eq!(geom.base_addr(b), Addr::new(0x1200));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Artifact determinism: no `for` loop over a hash map or set; the
// std maps and wall-clock reads are banned in `crates/clippy.toml`.
#![deny(clippy::iter_over_hash_type)]

pub mod addr;
pub mod cycles;
pub mod fsio;
pub mod fxhash;
pub mod ids;
pub mod json;
pub mod ops;
pub mod rng;
pub mod sharers;
pub mod stats;

pub use addr::{Addr, BlockAddr, BlockGeometry};
pub use cycles::Cycle;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{BankId, CoreId, NodeId};
pub use ops::{MemOp, MemOpKind};
pub use rng::DetRng;
pub use sharers::SharerSet;
pub use stats::{Counter, Histogram, StatSink};
