//! The private-cache (coherence point: private L2) state machine.
//!
//! Pure transition functions: given a stable MESI state and an event
//! (local access, incoming probe, or data grant), they return the new
//! state and what must be sent. The simulator owns timing and queues.

use crate::msg::{DiscoveryIntent, Grant, Probe, ProbeReply, Request};
use std::fmt;

/// Stable MESI states of a block in a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivState {
    /// Writable, dirty, sole copy.
    Modified,
    /// Readable, clean, sole copy; silently upgradable to Modified.
    Exclusive,
    /// Readable; other caches may hold copies.
    Shared,
    /// No valid copy (used for blocks absent from the cache too).
    Invalid,
}

impl PrivState {
    /// Every state, in declaration order: the row order of the protocol
    /// model's `private_probe` and `local_access` sections.
    pub const ALL: [PrivState; 4] = [
        PrivState::Modified,
        PrivState::Exclusive,
        PrivState::Shared,
        PrivState::Invalid,
    ];

    /// `true` when a local load can be served without a transaction.
    pub const fn can_read(self) -> bool {
        !matches!(self, PrivState::Invalid)
    }

    /// `true` when a local store can be served without a transaction
    /// (counting the silent E→M upgrade).
    pub const fn can_write(self) -> bool {
        matches!(self, PrivState::Modified | PrivState::Exclusive)
    }

    /// `true` when this cache holds the block's only copy.
    pub const fn is_exclusive(self) -> bool {
        matches!(self, PrivState::Modified | PrivState::Exclusive)
    }

    /// `true` when the copy differs from the LLC copy.
    pub const fn is_dirty(self) -> bool {
        matches!(self, PrivState::Modified)
    }
}

impl fmt::Display for PrivState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrivState::Modified => "M",
            PrivState::Exclusive => "E",
            PrivState::Shared => "S",
            PrivState::Invalid => "I",
        };
        f.write_str(s)
    }
}

pub use stashdir_common::MemOpKind;

/// Result of attempting a local access against a block's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The access completes locally; the block moves to the given state
    /// (identical to the old state except for the silent E→M upgrade).
    Hit(PrivState),
    /// A transaction is required: send this request to the home.
    Miss(Request),
}

/// Attempts a local access: the cache-side half of the MESI table.
///
/// # Examples
///
/// ```
/// use stashdir_protocol::{local_access, AccessOutcome, MemOpKind, PrivState};
/// use stashdir_protocol::msg::Request;
///
/// // A store to an Exclusive copy silently upgrades to Modified.
/// assert_eq!(
///     local_access(PrivState::Exclusive, MemOpKind::Write),
///     AccessOutcome::Hit(PrivState::Modified),
/// );
/// // A store to a Shared copy needs an Upgrade transaction.
/// assert_eq!(
///     local_access(PrivState::Shared, MemOpKind::Write),
///     AccessOutcome::Miss(Request::Upgrade),
/// );
/// ```
pub fn local_access(state: PrivState, op: MemOpKind) -> AccessOutcome {
    use AccessOutcome::*;
    use MemOpKind::*;
    use PrivState::*;
    match (state, op) {
        (Modified, _) => Hit(Modified),
        (Exclusive, Read) => Hit(Exclusive),
        (Exclusive, Write) => Hit(Modified), // silent upgrade
        (Shared, Read) => Hit(Shared),
        (Shared, Write) => Miss(Request::Upgrade),
        (Invalid, Read) => Miss(Request::GetS),
        (Invalid, Write) => Miss(Request::GetM),
    }
}

/// The grant a demand request expects from the home (before any
/// E-on-uncached-read optimization the home may apply).
pub fn expected_state(grant: Grant) -> PrivState {
    match grant {
        Grant::Shared => PrivState::Shared,
        Grant::Exclusive => PrivState::Exclusive,
        Grant::Modified => PrivState::Modified,
    }
}

/// What a probe did to a private copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeEffect {
    /// The block's state after the probe.
    pub next: PrivState,
    /// The reply to send back (to the home and/or the requester).
    pub reply: ProbeReply,
}

/// Applies a probe to a block in `state`: the probe-side half of the MESI
/// table. Works for blocks the cache does not hold (`Invalid`), which
/// arises in races (the copy was evicted while the probe was in flight)
/// and in stash discovery rounds (stale stash bits).
///
/// # Examples
///
/// ```
/// use stashdir_protocol::{probe, PrivState, ProbeEffect};
/// use stashdir_protocol::msg::{Probe, ProbeReply};
///
/// // An Inv to a Shared copy invalidates and acks without data.
/// assert_eq!(
///     probe(PrivState::Shared, Probe::Inv),
///     ProbeEffect { next: PrivState::Invalid, reply: ProbeReply::Ack },
/// );
/// // A FwdGetS to a Modified owner downgrades it and extracts dirty data.
/// assert_eq!(
///     probe(PrivState::Modified, Probe::FwdGetS),
///     ProbeEffect { next: PrivState::Shared, reply: ProbeReply::AckDirtyData },
/// );
/// ```
pub fn probe(state: PrivState, probe: Probe) -> ProbeEffect {
    use PrivState::*;
    use Probe::*;
    use ProbeReply::*;
    let (next, reply) = match (state, probe) {
        // Forwarded reads: owner downgrades and supplies data.
        (Modified, FwdGetS) => (Shared, AckDirtyData),
        (Exclusive, FwdGetS) => (Shared, AckData),
        // Forwarded writes: owner invalidates and supplies data.
        (Modified, FwdGetM) => (Invalid, AckDirtyData),
        (Exclusive, FwdGetM) => (Invalid, AckData),
        // A Shared copy receiving a forward is a protocol bug (the
        // directory forwarded to a non-owner) *except* in eviction races,
        // where the old owner degraded. Treat as data-less ack; the home
        // falls back to the LLC copy, which is clean whenever no M copy
        // exists.
        (Shared, FwdGetS | FwdGetM) => (if probe == FwdGetS { Shared } else { Invalid }, Ack),
        (Invalid, FwdGetS | FwdGetM) => (Invalid, Ack),
        // Invalidations.
        (Modified, Inv | Recall) => (Invalid, AckDirtyData),
        (Exclusive, Inv | Recall) => (Invalid, AckData),
        (Shared, Inv | Recall) => (Invalid, Ack),
        (Invalid, Inv | Recall) => (Invalid, Ack),
        // Discovery probes. A hidden copy is usually E/M, but a silently
        // dropped single-sharer entry leaves a hidden *Shared* copy, which
        // must report presence too — otherwise the home would grant an
        // Exclusive copy while a stale S copy survives.
        (Modified, Discovery(DiscoveryIntent::Share)) => (Shared, AckDirtyData),
        (Exclusive, Discovery(DiscoveryIntent::Share)) => (Shared, AckData),
        (Shared, Discovery(DiscoveryIntent::Share)) => (Shared, AckData),
        (Modified, Discovery(DiscoveryIntent::Invalidate)) => (Invalid, AckDirtyData),
        (Exclusive, Discovery(DiscoveryIntent::Invalidate)) => (Invalid, AckData),
        // A hidden S copy is clean; invalidating it needs no data.
        (Shared, Discovery(DiscoveryIntent::Invalidate)) => (Invalid, Ack),
        (Invalid, Discovery(_)) => (Invalid, NotPresent),
    };
    ProbeEffect { next, reply }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_hit_in_any_valid_state() {
        for s in [PrivState::Modified, PrivState::Exclusive, PrivState::Shared] {
            assert_eq!(local_access(s, MemOpKind::Read), AccessOutcome::Hit(s));
        }
    }

    #[test]
    fn writes_hit_only_with_ownership() {
        assert_eq!(
            local_access(PrivState::Modified, MemOpKind::Write),
            AccessOutcome::Hit(PrivState::Modified)
        );
        assert_eq!(
            local_access(PrivState::Exclusive, MemOpKind::Write),
            AccessOutcome::Hit(PrivState::Modified)
        );
        assert!(matches!(
            local_access(PrivState::Shared, MemOpKind::Write),
            AccessOutcome::Miss(Request::Upgrade)
        ));
        assert!(matches!(
            local_access(PrivState::Invalid, MemOpKind::Write),
            AccessOutcome::Miss(Request::GetM)
        ));
    }

    #[test]
    fn invalid_reads_need_gets() {
        assert_eq!(
            local_access(PrivState::Invalid, MemOpKind::Read),
            AccessOutcome::Miss(Request::GetS)
        );
    }

    #[test]
    fn invalidating_probes_always_leave_invalid() {
        for s in PrivState::ALL {
            for p in [Probe::FwdGetM, Probe::Inv, Probe::Recall] {
                // Shared + FwdGetM is a race case but still invalidates.
                assert_eq!(probe(s, p).next, PrivState::Invalid, "{s} {p}");
            }
        }
    }

    #[test]
    fn dirty_owners_always_surrender_data() {
        for p in Probe::ALL {
            let eff = probe(PrivState::Modified, p);
            assert_eq!(eff.reply, ProbeReply::AckDirtyData, "{p}");
        }
    }

    #[test]
    fn clean_owners_supply_clean_data() {
        for p in [Probe::FwdGetS, Probe::FwdGetM, Probe::Inv, Probe::Recall] {
            assert_eq!(probe(PrivState::Exclusive, p).reply, ProbeReply::AckData);
        }
    }

    #[test]
    fn fwdgets_downgrades_owner_to_shared() {
        assert_eq!(
            probe(PrivState::Modified, Probe::FwdGetS).next,
            PrivState::Shared
        );
        assert_eq!(
            probe(PrivState::Exclusive, Probe::FwdGetS).next,
            PrivState::Shared
        );
    }

    #[test]
    fn probes_to_absent_blocks_are_tolerated() {
        for p in [Probe::FwdGetS, Probe::FwdGetM, Probe::Inv, Probe::Recall] {
            let eff = probe(PrivState::Invalid, p);
            assert_eq!(eff.next, PrivState::Invalid);
            assert_eq!(eff.reply, ProbeReply::Ack, "{p}: race ack carries no data");
        }
    }

    #[test]
    fn discovery_share_keeps_a_readable_copy_at_the_owner() {
        let eff = probe(
            PrivState::Modified,
            Probe::Discovery(DiscoveryIntent::Share),
        );
        assert_eq!(eff.next, PrivState::Shared);
        assert!(eff.reply.has_data());
    }

    #[test]
    fn discovery_invalidate_purges_the_owner() {
        for s in [PrivState::Modified, PrivState::Exclusive] {
            let eff = probe(s, Probe::Discovery(DiscoveryIntent::Invalidate));
            assert_eq!(eff.next, PrivState::Invalid);
            assert!(eff.reply.has_data());
        }
    }

    #[test]
    fn discovery_miss_only_on_truly_absent() {
        for intent in [DiscoveryIntent::Share, DiscoveryIntent::Invalidate] {
            let eff = probe(PrivState::Invalid, Probe::Discovery(intent));
            assert_eq!(eff.reply, ProbeReply::NotPresent);
            assert!(!eff.reply.has_data());
        }
    }

    #[test]
    fn hidden_shared_copy_reports_presence() {
        // A silently dropped single-sharer entry leaves a hidden S copy;
        // a Share-intent discovery must re-learn it (clean data reply).
        let eff = probe(PrivState::Shared, Probe::Discovery(DiscoveryIntent::Share));
        assert_eq!(eff.next, PrivState::Shared);
        assert_eq!(eff.reply, ProbeReply::AckData);
    }

    #[test]
    fn discovery_invalidate_also_clears_hidden_shared() {
        // An Invalidate-intent round (GetM or LLC eviction) purges a
        // hidden S copy; no data is needed because S copies are clean.
        let eff = probe(
            PrivState::Shared,
            Probe::Discovery(DiscoveryIntent::Invalidate),
        );
        assert_eq!(eff.next, PrivState::Invalid);
        assert_eq!(eff.reply, ProbeReply::Ack);
    }

    #[test]
    fn probe_table_is_total() {
        for s in PrivState::ALL {
            for p in Probe::ALL {
                let eff = probe(s, p);
                // No probe may ever *upgrade* a copy.
                let rank = |st: PrivState| match st {
                    PrivState::Modified => 3,
                    PrivState::Exclusive => 2,
                    PrivState::Shared => 1,
                    PrivState::Invalid => 0,
                };
                assert!(
                    rank(eff.next) <= rank(s),
                    "{s} {p} upgraded to {}",
                    eff.next
                );
            }
        }
    }

    #[test]
    fn expected_state_maps_grants() {
        assert_eq!(expected_state(Grant::Shared), PrivState::Shared);
        assert_eq!(expected_state(Grant::Exclusive), PrivState::Exclusive);
        assert_eq!(expected_state(Grant::Modified), PrivState::Modified);
    }

    #[test]
    fn state_predicates() {
        assert!(PrivState::Modified.can_write() && PrivState::Modified.is_dirty());
        assert!(PrivState::Exclusive.can_write() && !PrivState::Exclusive.is_dirty());
        assert!(PrivState::Shared.can_read() && !PrivState::Shared.can_write());
        assert!(!PrivState::Invalid.can_read());
        assert!(PrivState::Exclusive.is_exclusive() && !PrivState::Shared.is_exclusive());
    }

    #[test]
    fn displays_are_single_letters() {
        assert_eq!(PrivState::Modified.to_string(), "M");
        assert_eq!(MemOpKind::Write.to_string(), "W");
    }
}
