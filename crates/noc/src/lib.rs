//! A 2-D mesh network-on-chip latency and traffic model.
//!
//! The Stash Directory evaluation cares about the NoC for two reasons:
//! message latency contributes to memory access time (three-hop protocol
//! transactions, invalidation rounds, discovery broadcasts), and **traffic**
//! is one of the reported metrics (discovery broadcasts are the stash
//! directory's overhead; invalidation/refetch storms are the conventional
//! sparse directory's).
//!
//! The model is a wormhole-routed mesh with dimension-order (XY) routing,
//! per-hop pipeline latency, single-flit-per-cycle links, and optional link
//! contention: each directed link tracks when it is next free, and a packet
//! occupies every link of its path for its length in flits.
//!
//! # Examples
//!
//! ```
//! use stashdir_common::{Cycle, NodeId};
//! use stashdir_noc::{Mesh, Network, NocConfig};
//!
//! let mut net = Network::new(Mesh::new(4, 4), NocConfig::default());
//! let arrival = net.send(NodeId::new(0), NodeId::new(15), 1, "req", Cycle::ZERO);
//! // 6 hops (3 east + 3 south) at 3 cycles each.
//! assert_eq!(arrival.get(), 18);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic hygiene: a justified site carries `#[expect(clippy::…, reason)]`;
// test code is exempt through the root `clippy.toml`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub mod network;
pub mod topology;

pub use network::{Network, NocConfig, Packet};
pub use topology::{Link, LinkRun, Mesh};
