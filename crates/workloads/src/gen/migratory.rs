//! `migratory` — objects that hop core to core under read-modify-write.
//!
//! A pool of multi-block objects is visited by cores in staggered
//! rotation: each visit reads and then writes every block of the object.
//! Ownership migrates with the visitor — exactly one writer at a time,
//! heavy use of owner-to-owner (FwdGetM) transfers, near-zero stable
//! sharing.

use super::{private_region, shared_region};
use stashdir_common::{DetRng, MemOp};

/// Objects in the pool.
const OBJECTS: u64 = 64;
/// Blocks per object.
const OBJ_BLOCKS: u64 = 4;

/// Generates the traces.
pub fn generate(cores: u16, ops_per_core: usize, seed: u64) -> Vec<Vec<MemOp>> {
    let pool = shared_region(0, OBJECTS * OBJ_BLOCKS);
    let mut root = DetRng::seed_from(seed);
    (0..cores as usize)
        .map(|c| {
            let mut rng = root.fork();
            let scratch = private_region(c, 256);
            let mut ops = Vec::with_capacity(ops_per_core);
            // Stagger: each core starts its rotation at a different object.
            let mut visit = (c as u64 * OBJECTS) / cores as u64;
            while ops.len() < ops_per_core {
                let obj = visit % OBJECTS;
                for k in 0..OBJ_BLOCKS {
                    if ops.len() >= ops_per_core {
                        break;
                    }
                    let b = pool.block(obj * OBJ_BLOCKS + k);
                    ops.push(MemOp::read(b).with_think(2));
                    ops.push(MemOp::write(b).with_think(3));
                }
                // Local work between visits keeps migration visible.
                for _ in 0..4 {
                    if ops.len() >= ops_per_core {
                        break;
                    }
                    ops.push(MemOp::read(scratch.block(rng.below(256))).with_think(5));
                }
                visit += 1;
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
        let a = generate(4, 700, 8);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.len() == 700));
        assert_eq!(a, generate(4, 700, 8));
    }

    #[test]
    fn objects_are_written_by_multiple_cores() {
        let traces = generate(4, 4000, 1);
        let mut writers: std::collections::BTreeMap<u64, std::collections::BTreeSet<usize>> =
            Default::default();
        for (c, t) in traces.iter().enumerate() {
            for op in t
                .iter()
                .filter(|o| o.is_write() && o.block.get() >= (1 << 30))
            {
                writers.entry(op.block.get()).or_default().insert(c);
            }
        }
        let migrating = writers.values().filter(|w| w.len() >= 3).count();
        assert!(
            migrating > OBJECTS as usize,
            "most object blocks migrate across >=3 cores, got {migrating}"
        );
    }

    #[test]
    fn visits_do_rmw() {
        let traces = generate(1, 1000, 1);
        // Consecutive read-then-write of the same shared block.
        let rmw = traces[0]
            .windows(2)
            .filter(|w| !w[0].is_write() && w[1].is_write() && w[0].block == w[1].block)
            .count();
        assert!(rmw > 100, "visits are read-modify-writes, got {rmw}");
    }
}
