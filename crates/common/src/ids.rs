//! Identifiers for cores, LLC banks and NoC nodes.
//!
//! The simulated machine is a tiled CMP: tile *i* holds core *i*, LLC bank
//! *i* and NoC node *i*, so the three id spaces are isomorphic but kept as
//! distinct newtypes to prevent mixups (a directory slice indexed by a
//! [`CoreId`] is a bug the type system should catch).

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u16);

        impl $name {
            /// Creates an id from a raw index.
            pub const fn new(raw: u16) -> Self {
                $name(raw)
            }

            /// Returns the raw index.
            pub const fn get(self) -> u16 {
                self.0
            }

            /// Returns the raw index widened to `usize` for table lookups.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u16> for $name {
            fn from(raw: u16) -> Self {
                $name(raw)
            }
        }
    };
}

id_newtype!(
    /// Identifies one core (and its private cache hierarchy).
    ///
    /// # Examples
    ///
    /// ```
    /// use stashdir_common::CoreId;
    /// assert_eq!(CoreId::new(3).to_string(), "core3");
    /// ```
    CoreId,
    "core"
);

id_newtype!(
    /// Identifies one LLC bank / directory slice (the "home" of the blocks
    /// that map to it).
    ///
    /// # Examples
    ///
    /// ```
    /// use stashdir_common::BankId;
    /// assert_eq!(BankId::new(0).index(), 0);
    /// ```
    BankId,
    "bank"
);

id_newtype!(
    /// Identifies one router in the on-chip network.
    ///
    /// # Examples
    ///
    /// ```
    /// use stashdir_common::NodeId;
    /// assert_eq!(NodeId::new(15).get(), 15);
    /// ```
    NodeId,
    "node"
);

impl CoreId {
    /// The NoC node the core is attached to (tile-local mapping).
    pub const fn node(self) -> NodeId {
        NodeId(self.0)
    }
}

impl BankId {
    /// The NoC node the bank is attached to (tile-local mapping).
    pub const fn node(self) -> NodeId {
        NodeId(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(CoreId::new(7).to_string(), "core7");
        assert_eq!(BankId::new(7).to_string(), "bank7");
        assert_eq!(NodeId::new(7).to_string(), "node7");
    }

    #[test]
    fn tile_local_node_mapping() {
        assert_eq!(CoreId::new(5).node(), NodeId::new(5));
        assert_eq!(BankId::new(5).node(), NodeId::new(5));
    }

    #[test]
    fn ids_order_by_raw_index() {
        assert!(CoreId::new(1) < CoreId::new(2));
        assert_eq!(CoreId::from(4u16).index(), 4);
    }
}
