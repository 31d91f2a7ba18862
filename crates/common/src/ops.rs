//! Memory-operation trace records.
//!
//! Workload generators emit per-core sequences of [`MemOp`]s; the
//! simulator consumes them. Keeping the record here (rather than in the
//! protocol or simulator crates) lets trace tooling stay dependency-light.

use crate::addr::BlockAddr;
use std::fmt;

/// The kind of a memory operation issued by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl MemOpKind {
    /// Both kinds, in declaration order.
    pub const ALL: [MemOpKind; 2] = [MemOpKind::Read, MemOpKind::Write];
}

impl fmt::Display for MemOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemOpKind::Read => "R",
            MemOpKind::Write => "W",
        })
    }
}

/// One memory reference in a core's trace.
///
/// `think` models the non-memory instructions executed *before* this
/// reference: the core spends `think` cycles of local computation, then
/// issues the access. This is the standard trace-driven abstraction of an
/// in-order core with a fixed CPI for non-memory work.
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, MemOp, MemOpKind};
/// let op = MemOp::read(BlockAddr::new(42)).with_think(3);
/// assert_eq!(op.kind, MemOpKind::Read);
/// assert_eq!(op.think, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemOp {
    /// Load or store.
    pub kind: MemOpKind,
    /// The block referenced.
    pub block: BlockAddr,
    /// Local compute cycles preceding the access.
    pub think: u32,
}

impl MemOp {
    /// A load of `block` with no preceding compute.
    pub const fn read(block: BlockAddr) -> Self {
        MemOp {
            kind: MemOpKind::Read,
            block,
            think: 0,
        }
    }

    /// A store to `block` with no preceding compute.
    pub const fn write(block: BlockAddr) -> Self {
        MemOp {
            kind: MemOpKind::Write,
            block,
            think: 0,
        }
    }

    /// Sets the preceding compute time.
    pub const fn with_think(mut self, think: u32) -> Self {
        self.think = think;
        self
    }

    /// `true` for stores.
    pub const fn is_write(&self) -> bool {
        matches!(self.kind, MemOpKind::Write)
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.kind, self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert!(!MemOp::read(BlockAddr::new(1)).is_write());
        assert!(MemOp::write(BlockAddr::new(1)).is_write());
    }

    #[test]
    fn with_think_chains() {
        let op = MemOp::write(BlockAddr::new(2)).with_think(7);
        assert_eq!(op.think, 7);
        assert_eq!(op.block, BlockAddr::new(2));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(MemOp::read(BlockAddr::new(255)).to_string(), "RB0xff");
    }
}
