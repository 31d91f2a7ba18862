//! Workload characterization — the inputs to the paper's "Table 2".
//!
//! For a multi-core trace, computes the properties that determine how a
//! coherence directory behaves: read/write mix, footprint, **sharing
//! degree** (how many cores touch each block) and, crucially, the
//! **private-block fraction** — the share of blocks touched by exactly
//! one core, which is the opportunity the stash directory exploits.

use stashdir_common::MemOp;
use std::collections::HashMap;

/// Summary statistics of one multi-core trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// Total operations.
    pub ops: u64,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Distinct blocks touched.
    pub footprint_blocks: u64,
    /// Mean number of distinct cores touching each block.
    pub mean_sharing_degree: f64,
    /// Fraction of blocks touched by exactly one core.
    pub private_block_fraction: f64,
    /// Fraction of blocks written by at least two cores.
    pub write_shared_fraction: f64,
}

impl Characterization {
    /// Computes the characterization of `traces`.
    pub fn of(traces: &[Vec<MemOp>]) -> Self {
        type CoreSet = std::collections::HashSet<usize>;
        let mut ops = 0u64;
        let mut reads = 0u64;
        // block -> (cores touching it, cores writing it)
        let mut toucher_sets: HashMap<u64, (CoreSet, CoreSet)> = HashMap::new();
        for (core, trace) in traces.iter().enumerate() {
            for op in trace {
                ops += 1;
                if !op.is_write() {
                    reads += 1;
                }
                let entry = toucher_sets.entry(op.block.get()).or_default();
                entry.0.insert(core);
                if op.is_write() {
                    entry.1.insert(core);
                }
            }
        }

        let footprint = toucher_sets.len() as u64;
        let (mut degree_sum, mut private, mut write_shared) = (0usize, 0u64, 0u64);
        for (readers, writers) in toucher_sets.values() {
            degree_sum += readers.len();
            if readers.len() == 1 {
                private += 1;
            }
            if writers.len() >= 2 {
                write_shared += 1;
            }
        }
        Characterization {
            ops,
            read_fraction: if ops == 0 {
                0.0
            } else {
                reads as f64 / ops as f64
            },
            footprint_blocks: footprint,
            mean_sharing_degree: if footprint == 0 {
                0.0
            } else {
                degree_sum as f64 / footprint as f64
            },
            private_block_fraction: if footprint == 0 {
                0.0
            } else {
                private as f64 / footprint as f64
            },
            write_shared_fraction: if footprint == 0 {
                0.0
            } else {
                write_shared as f64 / footprint as f64
            },
        }
    }

    /// Renders the characterization as table cells (for E2).
    pub fn row(&self) -> Vec<String> {
        vec![
            self.ops.to_string(),
            format!("{:.2}", self.read_fraction),
            self.footprint_blocks.to_string(),
            format!("{:.2}", self.mean_sharing_degree),
            format!("{:.2}", self.private_block_fraction),
            format!("{:.2}", self.write_shared_fraction),
        ]
    }

    /// Column headers matching [`row`](Characterization::row).
    pub fn headers() -> Vec<&'static str> {
        vec![
            "ops",
            "read_frac",
            "footprint",
            "sharing_degree",
            "private_frac",
            "write_shared_frac",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use stashdir_common::BlockAddr;

    #[test]
    fn empty_trace_is_all_zero() {
        let c = Characterization::of(&[]);
        assert_eq!(c.ops, 0);
        assert_eq!(c.footprint_blocks, 0);
        assert_eq!(c.private_block_fraction, 0.0);
    }

    #[test]
    fn hand_built_example() {
        // Core 0 reads A, writes B. Core 1 reads A. A shared(2), B private.
        let traces = vec![
            vec![
                MemOp::read(BlockAddr::new(1)),
                MemOp::write(BlockAddr::new(2)),
            ],
            vec![MemOp::read(BlockAddr::new(1))],
        ];
        let c = Characterization::of(&traces);
        assert_eq!(c.ops, 3);
        assert!((c.read_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.footprint_blocks, 2);
        assert_eq!(c.mean_sharing_degree, 1.5);
        assert_eq!(c.private_block_fraction, 0.5);
        assert_eq!(c.write_shared_fraction, 0.0);
    }

    #[test]
    fn data_parallel_is_dominantly_private() {
        let traces = Workload::DataParallel.generate(8, 2000, 1);
        let c = Characterization::of(&traces);
        assert!(c.private_block_fraction > 0.9, "{c:?}");
        assert!(c.mean_sharing_degree < 1.5);
    }

    #[test]
    fn read_mostly_shares_widely() {
        let traces = Workload::ReadMostly.generate(8, 4000, 1);
        let c = Characterization::of(&traces);
        assert!(
            c.mean_sharing_degree > 1.5,
            "hot table should be shared: {c:?}"
        );
        assert!(c.read_fraction > 0.9);
    }

    #[test]
    fn migratory_blocks_are_write_shared() {
        let traces = Workload::Migratory.generate(8, 4000, 1);
        let c = Characterization::of(&traces);
        assert!(c.write_shared_fraction > 0.1, "{c:?}");
    }

    #[test]
    fn rows_and_headers_align() {
        let c = Characterization::of(&Workload::Uniform.generate(2, 100, 0));
        assert_eq!(c.row().len(), Characterization::headers().len());
    }
}
