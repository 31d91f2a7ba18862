//! Physical and block addresses.

use std::fmt;

/// A physical byte address in the simulated machine.
///
/// Newtype over `u64` so byte addresses and [`BlockAddr`]s cannot be mixed
/// up by accident.
///
/// # Examples
///
/// ```
/// use stashdir_common::Addr;
/// let a = Addr::new(0x1000);
/// assert_eq!(a.get(), 0x1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte offset.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte offset.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on `u64` overflow.
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-block address: a byte address with the block-offset bits shifted
/// out. Coherence operates on block addresses exclusively.
///
/// # Examples
///
/// ```
/// use stashdir_common::BlockAddr;
/// let b = BlockAddr::new(7);
/// assert_eq!(b.get(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a raw block number.
    pub const fn new(raw: u64) -> Self {
        BlockAddr(raw)
    }

    /// Returns the raw block number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the block advanced by `blocks`.
    pub const fn offset(self, blocks: u64) -> Self {
        BlockAddr(self.0 + blocks)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{:#x}", self.0)
    }
}

impl fmt::LowerHex for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for BlockAddr {
    fn from(raw: u64) -> Self {
        BlockAddr(raw)
    }
}

/// Conversion between byte addresses and block addresses for a fixed
/// power-of-two block size.
///
/// # Examples
///
/// ```
/// use stashdir_common::{Addr, BlockGeometry};
/// let geom = BlockGeometry::new(64);
/// assert_eq!(geom.block_of(Addr::new(128)).get(), 2);
/// assert_eq!(geom.block_bytes(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockGeometry {
    offset_bits: u32,
}

impl BlockGeometry {
    /// Creates a geometry for the given block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or not a power of two.
    pub fn new(block_bytes: u64) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two, got {block_bytes}"
        );
        BlockGeometry {
            offset_bits: block_bytes.trailing_zeros(),
        }
    }

    /// The block size in bytes.
    pub const fn block_bytes(self) -> u64 {
        1 << self.offset_bits
    }

    /// Number of block-offset bits.
    pub const fn offset_bits(self) -> u32 {
        self.offset_bits
    }

    /// Maps a byte address to the block containing it.
    pub const fn block_of(self, addr: Addr) -> BlockAddr {
        BlockAddr(addr.0 >> self.offset_bits)
    }

    /// Returns the first byte address of a block.
    pub const fn base_addr(self, block: BlockAddr) -> Addr {
        Addr(block.0 << self.offset_bits)
    }
}

impl Default for BlockGeometry {
    /// 64-byte blocks, the configuration used throughout the paper.
    fn default() -> Self {
        BlockGeometry::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping_round_trips_to_base() {
        let geom = BlockGeometry::new(64);
        let addr = Addr::new(0x12345);
        let block = geom.block_of(addr);
        let base = geom.base_addr(block);
        assert!(base.get() <= addr.get());
        assert!(addr.get() < base.get() + geom.block_bytes());
    }

    #[test]
    fn same_block_for_all_offsets_within_it() {
        let geom = BlockGeometry::new(32);
        let base = Addr::new(0x40);
        let b0 = geom.block_of(base);
        for off in 0..32 {
            assert_eq!(geom.block_of(base.offset(off)), b0);
        }
        assert_ne!(geom.block_of(base.offset(32)), b0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_size_panics() {
        let _ = BlockGeometry::new(48);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(BlockAddr::new(255).to_string(), "B0xff");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
    }

    #[test]
    fn addr_offset_advances() {
        assert_eq!(Addr::new(8).offset(8), Addr::new(16));
        assert_eq!(BlockAddr::new(1).offset(2), BlockAddr::new(3));
    }

    #[test]
    fn from_u64_conversions() {
        assert_eq!(Addr::from(9u64), Addr::new(9));
        assert_eq!(BlockAddr::from(9u64), BlockAddr::new(9));
    }

    #[test]
    fn default_geometry_is_64_bytes() {
        assert_eq!(BlockGeometry::default().block_bytes(), 64);
        assert_eq!(BlockGeometry::default().offset_bits(), 6);
    }
}
