//! `canneal` — a canneal-like pointer-chasing annealer.
//!
//! Cores wander a huge shared netlist with essentially no locality,
//! occasionally swapping two elements (paired writes). Reuse distances
//! are enormous and sharing is incidental (any core may touch any
//! block). That makes it a hard case for silent eviction, not an ideal
//! one: a block hidden under a stash bit is often touched next by
//! another core, which pays a broadcast discovery to find the copy. On
//! 16 cores E3 puts stash@1/8 at 1.090 of full-map and sparse@1/8 at
//! 1.055.

use super::shared_region;
use stashdir_common::{DetRng, MemOp};

/// Shared netlist size in blocks (much larger than the chip's caches).
const NETLIST: u64 = 1 << 18;
/// Probability an element visit performs a swap (two writes).
const SWAP_PROB: f64 = 0.1;

/// Generates the traces.
pub fn generate(cores: u16, ops_per_core: usize, seed: u64) -> Vec<Vec<MemOp>> {
    let netlist = shared_region(0, NETLIST);
    let mut root = DetRng::seed_from(seed);
    (0..cores as usize)
        .map(|_| {
            let mut rng = root.fork();
            let mut ops = Vec::with_capacity(ops_per_core);
            while ops.len() < ops_per_core {
                // Chase a few random pointers.
                let a = rng.below(NETLIST);
                let b = rng.below(NETLIST);
                ops.push(MemOp::read(netlist.block(a)).with_think(2));
                ops.push(MemOp::read(netlist.block(b)).with_think(2));
                if rng.chance(SWAP_PROB) {
                    ops.push(MemOp::write(netlist.block(a)).with_think(3));
                    ops.push(MemOp::write(netlist.block(b)).with_think(3));
                }
            }
            ops.truncate(ops_per_core);
            ops
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let a = generate(4, 800, 3);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.len() == 800));
        assert_eq!(a, generate(4, 800, 3));
        assert_ne!(a, generate(4, 800, 4), "different seeds wander differently");
    }

    #[test]
    fn poor_locality() {
        let traces = generate(1, 5000, 1);
        let distinct: std::collections::BTreeSet<u64> =
            traces[0].iter().map(|o| o.block.get()).collect();
        assert!(
            distinct.len() > 4000,
            "pointer chasing should rarely repeat, got {} distinct",
            distinct.len()
        );
    }

    #[test]
    fn swaps_write_in_pairs() {
        let traces = generate(1, 10_000, 2);
        let writes = traces[0].iter().filter(|o| o.is_write()).count();
        // ~10% of visits swap; each visit is ~2 reads (+2 writes when
        // swapping), so writes ≈ ops * 2*0.1/2.2 ≈ 9%.
        let frac = writes as f64 / traces[0].len() as f64;
        assert!((0.04..0.2).contains(&frac), "write fraction {frac}");
    }
}
