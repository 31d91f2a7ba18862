//! First-order directory storage cost model.
//!
//! The paper's headline claim is about **storage**: a stash directory with
//! 1/8 the entries of a conventional sparse directory matches its
//! performance. This module counts the bits so experiment E10 can report
//! the comparison. Dynamic energy is approximated elsewhere by event
//! counts (directory accesses, probes, broadcasts).

/// Inputs to the bit-counting model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostParams {
    /// Address tag bits stored per entry.
    pub tag_bits: u32,
    /// Cores tracked by the full-map sharer vector.
    pub cores: u16,
    /// LLC lines chip-wide (for per-line costs: stash bits, in-LLC
    /// full-map entries).
    pub llc_lines: u64,
}

impl CostParams {
    /// Directory state bits per entry (encodes exclusive/shared plus
    /// bookkeeping).
    pub const STATE_BITS: u64 = 2;

    /// Bits per set-associative directory entry: tag + state + full-map
    /// sharer vector.
    pub fn bits_per_entry(&self) -> u64 {
        self.tag_bits as u64 + Self::STATE_BITS + self.cores as u64
    }

    /// Total bits for a tagged (sparse/stash/cuckoo) organization with
    /// `entries` entries, excluding per-LLC-line extras.
    pub fn set_assoc_bits(&self, entries: usize) -> u64 {
        entries as u64 * self.bits_per_entry()
    }

    /// Reasonable tag width for a directory slice: physical block-address
    /// bits minus the slice's set-index bits.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two.
    pub fn tag_bits_for(phys_addr_bits: u32, block_bytes: u64, sets: usize) -> u32 {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        let block_bits = block_bytes.trailing_zeros();
        let index_bits = sets.trailing_zeros();
        phys_addr_bits
            .saturating_sub(block_bits)
            .saturating_sub(index_bits)
    }
}

impl Default for CostParams {
    /// 48-bit physical addresses with 64-byte blocks and a 16 MiB LLC:
    /// 42-bit block addresses, 16 cores, 256 Ki LLC lines.
    fn default() -> Self {
        CostParams {
            tag_bits: 30,
            cores: 16,
            llc_lines: 256 * 1024,
        }
    }
}

/// A first-order dynamic-energy model: each event class gets a fixed
/// energy weight (picojoules, loosely calibrated to 32 nm-era CACTI-class
/// numbers), and a run's dynamic energy is the weighted event sum. The
/// point is *relative* comparison between directory organizations on the
/// same run, not absolute joules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Directory slice lookup or update.
    pub dir_access_pj: f64,
    /// LLC bank data access.
    pub llc_access_pj: f64,
    /// DRAM access (read or write).
    pub dram_access_pj: f64,
    /// One flit traversing one link (router + channel).
    pub flit_hop_pj: f64,
    /// Private-cache probe handling (tag check + possible state write).
    pub probe_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            dir_access_pj: 5.0,
            llc_access_pj: 50.0,
            dram_access_pj: 2_000.0,
            flit_hop_pj: 2.5,
            probe_pj: 8.0,
        }
    }
}

/// Event counts feeding [`EnergyModel::dynamic_pj`], extracted from a
/// simulation report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyCounts {
    /// Directory lookups + installs.
    pub dir_accesses: u64,
    /// LLC hits + misses + writebacks.
    pub llc_accesses: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// NoC flit-hops.
    pub flit_hops: u64,
    /// Probes delivered to private caches (forwards, invalidations,
    /// recalls, discovery probes).
    pub probes: u64,
}

impl EnergyModel {
    /// Total dynamic energy of a run, in picojoules.
    pub fn dynamic_pj(&self, counts: &EnergyCounts) -> f64 {
        counts.dir_accesses as f64 * self.dir_access_pj
            + counts.llc_accesses as f64 * self.llc_access_pj
            + counts.dram_accesses as f64 * self.dram_access_pj
            + counts.flit_hops as f64 * self.flit_hop_pj
            + counts.probes as f64 * self.probe_pj
    }

    /// Static-leakage proxy: storage bits are the dominant directory
    /// leakage term, so leakage compares as `storage_bits` does.
    pub fn leakage_proxy_bits(&self, storage_bits: u64) -> f64 {
        storage_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirConfig;

    #[test]
    fn bits_per_entry_composition() {
        let p = CostParams {
            tag_bits: 30,
            cores: 16,
            llc_lines: 0,
        };
        assert_eq!(p.bits_per_entry(), 30 + 2 + 16);
        assert_eq!(p.set_assoc_bits(100), 4800);
    }

    #[test]
    fn tag_bits_shrink_with_more_sets() {
        assert_eq!(CostParams::tag_bits_for(48, 64, 1024), 48 - 6 - 10);
        assert_eq!(CostParams::tag_bits_for(48, 64, 1), 42);
    }

    #[test]
    fn stash_pays_one_bit_per_llc_line_over_sparse() {
        let p = CostParams {
            tag_bits: 30,
            cores: 16,
            llc_lines: 4096,
        };
        let sparse = DirConfig::sparse(64, 8).build(0);
        let stash = DirConfig::stash(64, 8).build(0);
        assert_eq!(stash.storage_bits(&p), sparse.storage_bits(&p) + 4096);
    }

    #[test]
    fn eighth_size_stash_is_far_smaller_despite_stash_bits() {
        // The headline arithmetic: a 1/8-entries stash directory costs
        // much less than the full-size sparse directory even after adding
        // one stash bit per LLC line.
        let p = CostParams::default();
        let sparse_full = DirConfig::sparse(2048, 8).build(0); // 16K entries
        let stash_eighth = DirConfig::stash(256, 8).build(0); // 2K entries
        let sparse_bits = sparse_full.storage_bits(&p);
        let stash_bits = stash_eighth.storage_bits(&p);
        assert!(
            (stash_bits as f64) < 0.5 * sparse_bits as f64,
            "stash {stash_bits} vs sparse {sparse_bits}"
        );
    }

    #[test]
    fn fullmap_cost_scales_with_llc() {
        let p = CostParams {
            tag_bits: 30,
            cores: 64,
            llc_lines: 1000,
        };
        let fm = DirConfig::full_map().build(0);
        assert_eq!(fm.storage_bits(&p), 1000 * 66);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn tag_bits_rejects_bad_sets() {
        CostParams::tag_bits_for(48, 64, 3);
    }

    #[test]
    fn energy_is_weighted_sum() {
        let m = EnergyModel {
            dir_access_pj: 1.0,
            llc_access_pj: 10.0,
            dram_access_pj: 100.0,
            flit_hop_pj: 0.5,
            probe_pj: 2.0,
        };
        let counts = EnergyCounts {
            dir_accesses: 3,
            llc_accesses: 2,
            dram_accesses: 1,
            flit_hops: 4,
            probes: 5,
        };
        assert!((m.dynamic_pj(&counts) - (3.0 + 20.0 + 100.0 + 2.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn default_energy_ranks_dram_highest() {
        let m = EnergyModel::default();
        assert!(m.dram_access_pj > m.llc_access_pj);
        assert!(m.llc_access_pj > m.dir_access_pj);
        assert_eq!(m.leakage_proxy_bits(1234), 1234.0);
    }

    #[test]
    fn zero_counts_zero_energy() {
        assert_eq!(
            EnergyModel::default().dynamic_pj(&EnergyCounts::default()),
            0.0
        );
    }
}
