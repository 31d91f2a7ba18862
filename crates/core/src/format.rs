//! Sharer-set storage formats.
//!
//! A directory entry must represent "which cores hold this block". The
//! paper's design (and this crate's default) stores a **full-map** bit
//! vector: one bit per core, precise but `N` bits per entry. The classic
//! area-saving alternative is **limited pointers**: store up to `k`
//! explicit core ids (`k·log2 N` bits) and degrade to a conservative
//! *overflow* representation ("could be anyone") when a block gains a
//! `k+1`-th sharer — at which point exclusive requests must broadcast
//! invalidations.
//!
//! This module implements the *semantic* effect of the format — the
//! precision loss — so the simulator measures the broadcast cost, and
//! the bit accounting for experiment E15. It composes freely with the
//! stash mechanism: an overflowed entry is never private, so it is never
//! silently dropped.

use crate::cost::CostParams;
use stashdir_common::{CoreId, SharerSet};
use stashdir_protocol::DirView;
use std::fmt;

/// How a directory entry encodes its sharers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SharerFormat {
    /// One presence bit per core: precise, `N` bits.
    #[default]
    FullMap,
    /// Up to `k` explicit pointers, `k·ceil(log2 N)` bits; more sharers
    /// degrade the entry to "all cores".
    LimitedPtr {
        /// Number of pointers stored per entry.
        k: usize,
    },
}

impl SharerFormat {
    /// Applies the format's precision loss to a view about to be stored.
    ///
    /// Full-map stores everything exactly. Limited pointers keep
    /// exclusive owners and up to `k` sharers exactly; beyond that the
    /// stored view becomes *every* core (so later invalidation rounds
    /// broadcast, which is precisely the cost the format trades for
    /// area).
    pub fn degrade(&self, view: DirView) -> DirView {
        match (self, &view) {
            (SharerFormat::FullMap, _) => view,
            (SharerFormat::LimitedPtr { k }, DirView::Shared(set)) if set.len() > *k => {
                let mut all = SharerSet::new(set.capacity());
                for c in 0..set.capacity() {
                    all.insert(CoreId::new(c));
                }
                DirView::Shared(all)
            }
            _ => view,
        }
    }

    /// Sharer-encoding bits per entry for `cores` trackable cores.
    pub fn sharer_bits(&self, cores: u16) -> u64 {
        match self {
            SharerFormat::FullMap => cores as u64,
            SharerFormat::LimitedPtr { k } => {
                let ptr_bits = (cores.max(2) as u64 - 1).ilog2() as u64 + 1;
                // +1 for the overflow flag.
                *k as u64 * ptr_bits + 1
            }
        }
    }

    /// Bits per directory entry under this format: tag + state + sharers.
    pub fn entry_bits(&self, params: &CostParams) -> u64 {
        params.tag_bits as u64 + CostParams::STATE_BITS + self.sharer_bits(params.cores)
    }
}

impl fmt::Display for SharerFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharerFormat::FullMap => f.write_str("fullmap-vector"),
            SharerFormat::LimitedPtr { k } => write!(f, "ptr{k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(capacity: u16, cores: &[u16]) -> DirView {
        let mut s = SharerSet::new(capacity);
        s.extend(cores.iter().map(|&c| CoreId::new(c)));
        DirView::Shared(s)
    }

    #[test]
    fn fullmap_is_lossless() {
        let v = shared(16, &[1, 5, 9]);
        assert_eq!(SharerFormat::FullMap.degrade(v.clone()), v);
    }

    #[test]
    fn limited_ptr_keeps_small_sets_exact() {
        let fmt = SharerFormat::LimitedPtr { k: 2 };
        let v = shared(16, &[3, 7]);
        assert_eq!(fmt.degrade(v.clone()), v);
        let excl = DirView::Exclusive(CoreId::new(4));
        assert_eq!(fmt.degrade(excl.clone()), excl);
    }

    #[test]
    fn overflow_degrades_to_everyone() {
        let fmt = SharerFormat::LimitedPtr { k: 2 };
        match fmt.degrade(shared(8, &[0, 3, 5])) {
            DirView::Shared(set) => assert_eq!(set.len(), 8, "all cores"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overflowed_views_are_never_private() {
        let fmt = SharerFormat::LimitedPtr { k: 1 };
        let degraded = fmt.degrade(shared(16, &[2, 9]));
        assert!(
            !degraded.is_private(),
            "stash must not hide overflow entries"
        );
    }

    #[test]
    fn sharer_bit_accounting() {
        assert_eq!(SharerFormat::FullMap.sharer_bits(64), 64);
        // 64 cores: 6-bit pointers; 4 pointers + overflow flag = 25.
        assert_eq!(SharerFormat::LimitedPtr { k: 4 }.sharer_bits(64), 25);
        assert_eq!(SharerFormat::LimitedPtr { k: 1 }.sharer_bits(16), 5);
        assert_eq!(SharerFormat::LimitedPtr { k: 1 }.sharer_bits(2), 2);
    }

    #[test]
    fn entry_bits_compose() {
        let params = CostParams {
            tag_bits: 30,
            cores: 64,
            llc_lines: 0,
        };
        assert_eq!(SharerFormat::FullMap.entry_bits(&params), 30 + 2 + 64);
        assert_eq!(
            SharerFormat::LimitedPtr { k: 2 }.entry_bits(&params),
            30 + 2 + 13
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(SharerFormat::FullMap.to_string(), "fullmap-vector");
        assert_eq!(SharerFormat::LimitedPtr { k: 4 }.to_string(), "ptr4");
    }
}
