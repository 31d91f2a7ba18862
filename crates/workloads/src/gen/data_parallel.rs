//! `data_parallel` — a blackscholes-like embarrassingly parallel kernel.
//!
//! Each core streams over its own array of work items (four private block
//! accesses per item: three reads, one write) and occasionally consults a
//! small shared read-only parameter table. Almost every block is private;
//! this is the workload class where a conventional sparse directory
//! wastes the most invalidations and the stash directory saves them all.

use super::{private_region, shared_region};
use stashdir_common::{DetRng, MemOp};

/// Per-core working set in blocks (~a quarter of the default 4096-block
/// private L2, re-streamed many times).
const WORKING_SET: u64 = 3072;
/// Shared read-only parameter table.
const PARAMS: u64 = 32;

/// Generates the traces.
pub fn generate(cores: u16, ops_per_core: usize, seed: u64) -> Vec<Vec<MemOp>> {
    let params = shared_region(0, PARAMS);
    let mut root = DetRng::seed_from(seed);
    (0..cores as usize)
        .map(|c| {
            let mut rng = root.fork();
            let mine = private_region(c, WORKING_SET);
            let mut ops = Vec::with_capacity(ops_per_core);
            let mut item = 0u64;
            while ops.len() < ops_per_core {
                // One work item: read input blocks, write the result.
                ops.push(MemOp::read(mine.block(item)).with_think(4));
                ops.push(MemOp::read(mine.block(item + 1)).with_think(2));
                if rng.chance(0.05) {
                    ops.push(MemOp::read(params.block(rng.below(PARAMS))).with_think(1));
                }
                ops.push(MemOp::write(mine.block(item)).with_think(6));
                item += 2;
            }
            ops.truncate(ops_per_core);
            ops
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir_common::MemOpKind;

    #[test]
    fn shape_and_determinism() {
        let a = generate(4, 500, 9);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.len() == 500));
        assert_eq!(a, generate(4, 500, 9));
    }

    #[test]
    fn mostly_private_blocks() {
        let traces = generate(4, 2000, 1);
        let mut holders: std::collections::BTreeMap<u64, std::collections::BTreeSet<usize>> =
            Default::default();
        for (c, t) in traces.iter().enumerate() {
            for op in t {
                holders.entry(op.block.get()).or_default().insert(c);
            }
        }
        let private = holders.values().filter(|h| h.len() == 1).count();
        let frac = private as f64 / holders.len() as f64;
        assert!(
            frac > 0.9,
            "data-parallel should be >90% private, got {frac}"
        );
    }

    #[test]
    fn has_reads_and_writes() {
        let traces = generate(2, 400, 2);
        let writes = traces[0]
            .iter()
            .filter(|o| o.kind == MemOpKind::Write)
            .count();
        assert!(writes > 50, "roughly one write per item, got {writes}");
        assert!(writes < 250);
    }
}
