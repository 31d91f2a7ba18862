//! Cache and memory substrates for the Stash Directory reproduction.
//!
//! The paper's simulator needs set-associative storage in four places: the
//! private L1s, the private L2s, the shared LLC banks, and the sparse and
//! stash directory slices themselves. This crate provides one generic,
//! well-tested building block for all of them — [`SetAssoc`], an LRU
//! array whose full sets can also hand their victim choice to the
//! caller — plus a first-order DRAM timing model.
//!
//! # Examples
//!
//! ```
//! use stashdir_common::BlockAddr;
//! use stashdir_mem::SetAssoc;
//!
//! // A 4-set, 2-way array holding `char` payloads.
//! let mut array: SetAssoc<char> = SetAssoc::new(4, 2);
//! assert!(array.insert(BlockAddr::new(0), 'a').is_none());
//! assert!(array.insert(BlockAddr::new(4), 'b').is_none()); // same set, 2nd way
//! // Third block in set 0 evicts the LRU entry ('a').
//! let victim = array.insert(BlockAddr::new(8), 'c').unwrap();
//! assert_eq!(victim, (BlockAddr::new(0), 'a'));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic hygiene: a justified site carries `#[expect(clippy::…, reason)]`;
// test code is exempt through the root `clippy.toml`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub mod cache;
pub mod dram;
pub mod set_assoc;

pub use cache::{CacheConfig, CacheStats};
pub use dram::{DramConfig, DramModel};
pub use set_assoc::SetAssoc;
