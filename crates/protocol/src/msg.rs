//! The coherence message vocabulary and its NoC footprint.
//!
//! Sizes follow the usual convention: control messages are a single flit,
//! data-bearing messages carry a 64-byte block over a 16-byte-flit network
//! (1 head flit + 4 body flits).

use std::fmt;

/// Flits in a control (address-only) message.
pub const CONTROL_FLITS: u32 = 1;

/// Flits in a data-bearing message (64-byte block, 16-byte flits, plus a
/// head flit).
pub const DATA_FLITS: u32 = 5;

/// A request from a core to a block's home node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    /// Read miss: asks for a readable copy.
    GetS,
    /// Write miss: asks for an exclusive, writable copy.
    GetM,
    /// Write hit on a Shared copy: asks for ownership, data not needed.
    Upgrade,
    /// Eviction notice for a clean Shared copy.
    PutS,
    /// Eviction notice for a clean Exclusive copy.
    PutE,
    /// Eviction writeback of a dirty (Modified) copy; carries data.
    PutM,
}

impl Request {
    /// Every request, in declaration order: the row order of the
    /// protocol model's `home` section.
    pub const ALL: [Request; 6] = [
        Request::GetS,
        Request::GetM,
        Request::Upgrade,
        Request::PutS,
        Request::PutE,
        Request::PutM,
    ];

    /// NoC size of the request message.
    pub const fn flits(self) -> u32 {
        match self {
            Request::PutM => DATA_FLITS,
            _ => CONTROL_FLITS,
        }
    }

    /// Traffic-accounting class.
    pub const fn class(self) -> &'static str {
        match self {
            Request::GetS | Request::GetM | Request::Upgrade => "req",
            Request::PutS | Request::PutE | Request::PutM => "wb",
        }
    }

    /// `true` for the demand misses that start a data-bearing transaction.
    pub const fn is_demand(self) -> bool {
        matches!(self, Request::GetS | Request::GetM | Request::Upgrade)
    }

    /// `true` for eviction notifications.
    pub const fn is_put(self) -> bool {
        !self.is_demand()
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Request::GetS => "GetS",
            Request::GetM => "GetM",
            Request::Upgrade => "Upgrade",
            Request::PutS => "PutS",
            Request::PutE => "PutE",
            Request::PutM => "PutM",
        };
        f.write_str(s)
    }
}

/// A probe from the home to a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Probe {
    /// Forwarded read: the owner must supply data and downgrade to Shared.
    FwdGetS,
    /// Forwarded write: the owner must supply data and invalidate.
    FwdGetM,
    /// Invalidate a Shared copy (exclusive request or directory eviction).
    Inv,
    /// Recall an Exclusive/Modified copy because the home is evicting its
    /// tracking state (conventional sparse directory eviction, or LLC
    /// eviction of the block). Dirty data is written back.
    Recall,
    /// Stash-directory discovery probe: "do you hold a hidden copy of this
    /// block?" Carries the intent so the holder transitions correctly.
    Discovery(DiscoveryIntent),
}

/// What a discovery round will do with the hidden copy once found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiscoveryIntent {
    /// Triggered by a GetS: the hidden owner downgrades to Shared.
    Share,
    /// Triggered by a GetM/Upgrade or an LLC eviction: the hidden owner
    /// invalidates.
    Invalidate,
}

impl Probe {
    /// Every probe, in declaration order with each discovery intent in
    /// its own declaration order: the column order of the protocol
    /// model's `private_probe` section.
    pub const ALL: [Probe; 6] = [
        Probe::FwdGetS,
        Probe::FwdGetM,
        Probe::Inv,
        Probe::Recall,
        Probe::Discovery(DiscoveryIntent::Share),
        Probe::Discovery(DiscoveryIntent::Invalidate),
    ];

    /// NoC size of the probe message.
    pub const fn flits(self) -> u32 {
        CONTROL_FLITS
    }

    /// Traffic-accounting class.
    pub const fn class(self) -> &'static str {
        match self {
            Probe::FwdGetS | Probe::FwdGetM => "fwd",
            Probe::Inv | Probe::Recall => "inv",
            Probe::Discovery(_) => "discovery",
        }
    }
}

impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Probe::FwdGetS => f.write_str("FwdGetS"),
            Probe::FwdGetM => f.write_str("FwdGetM"),
            Probe::Inv => f.write_str("Inv"),
            Probe::Recall => f.write_str("Recall"),
            Probe::Discovery(DiscoveryIntent::Share) => f.write_str("Discovery(S)"),
            Probe::Discovery(DiscoveryIntent::Invalidate) => f.write_str("Discovery(I)"),
        }
    }
}

/// A private cache's answer to a [`Probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeReply {
    /// Acknowledgement without data (the copy was clean or absent).
    Ack,
    /// Acknowledgement carrying clean data (an E/S owner answering a
    /// forward; data travels to the requester and/or LLC).
    AckData,
    /// Acknowledgement carrying dirty data that must reach the requester
    /// and be written back to the LLC.
    AckDirtyData,
    /// Discovery response: no copy here.
    NotPresent,
}

impl ProbeReply {
    /// NoC size of the reply.
    pub const fn flits(self) -> u32 {
        match self {
            ProbeReply::AckData | ProbeReply::AckDirtyData => DATA_FLITS,
            ProbeReply::Ack | ProbeReply::NotPresent => CONTROL_FLITS,
        }
    }

    /// Traffic-accounting class.
    pub const fn class(self) -> &'static str {
        match self {
            ProbeReply::AckData | ProbeReply::AckDirtyData => "data",
            ProbeReply::Ack | ProbeReply::NotPresent => "ack",
        }
    }

    /// `true` when the reply carries the block.
    pub const fn has_data(self) -> bool {
        matches!(self, ProbeReply::AckData | ProbeReply::AckDirtyData)
    }
}

impl fmt::Display for ProbeReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeReply::Ack => "Ack",
            ProbeReply::AckData => "AckData",
            ProbeReply::AckDirtyData => "AckDirtyData",
            ProbeReply::NotPresent => "NotPresent",
        };
        f.write_str(s)
    }
}

/// The permission granted by the home's data reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grant {
    /// Readable copy; others may also hold it ([`PrivState::Shared`]).
    ///
    /// [`PrivState::Shared`]: crate::PrivState::Shared
    Shared,
    /// Exclusive readable copy, silently upgradable to Modified
    /// ([`PrivState::Exclusive`]).
    ///
    /// [`PrivState::Exclusive`]: crate::PrivState::Exclusive
    Exclusive,
    /// Writable copy ([`PrivState::Modified`]).
    ///
    /// [`PrivState::Modified`]: crate::PrivState::Modified
    Modified,
}

impl fmt::Display for Grant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Grant::Shared => "S",
            Grant::Exclusive => "E",
            Grant::Modified => "M",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_messages_are_bigger_than_control() {
        assert_eq!(Request::GetS.flits(), CONTROL_FLITS);
        assert_eq!(Request::PutM.flits(), DATA_FLITS);
        assert_eq!(Probe::Inv.flits(), CONTROL_FLITS);
        assert_eq!(ProbeReply::AckDirtyData.flits(), DATA_FLITS);
        assert_eq!(ProbeReply::Ack.flits(), CONTROL_FLITS);
    }

    #[test]
    fn classes_partition_the_vocabulary() {
        assert_eq!(Request::GetS.class(), "req");
        assert_eq!(Request::PutS.class(), "wb");
        assert_eq!(Probe::FwdGetM.class(), "fwd");
        assert_eq!(Probe::Recall.class(), "inv");
        assert_eq!(
            Probe::Discovery(DiscoveryIntent::Share).class(),
            "discovery"
        );
        assert_eq!(ProbeReply::NotPresent.class(), "ack");
        assert_eq!(ProbeReply::AckData.class(), "data");
    }

    #[test]
    fn demand_and_put_are_complementary() {
        for req in Request::ALL {
            assert_ne!(req.is_demand(), req.is_put(), "{req}");
        }
    }

    #[test]
    fn has_data_matches_flit_size() {
        for reply in [
            ProbeReply::Ack,
            ProbeReply::AckData,
            ProbeReply::AckDirtyData,
            ProbeReply::NotPresent,
        ] {
            assert_eq!(reply.has_data(), reply.flits() == DATA_FLITS, "{reply}");
        }
    }

    #[test]
    fn displays_are_stable() {
        assert_eq!(Request::Upgrade.to_string(), "Upgrade");
        assert_eq!(
            Probe::Discovery(DiscoveryIntent::Invalidate).to_string(),
            "Discovery(I)"
        );
        assert_eq!(Grant::Exclusive.to_string(), "E");
    }
}
