//! `tree` — a barnes-hut-like shared-tree traversal.
//!
//! All cores repeatedly walk a shared binary tree from the root: upper
//! levels are read by everyone (wide, stable sharing — exactly the
//! entries a stash directory must *not* hide), leaf-adjacent levels are
//! effectively private to whoever's particles land there, and each core
//! read-modify-writes its own particle array between walks. One core
//! periodically rebuilds a small part of the tree (rare writes that
//! invalidate wide reader sets).

use super::{private_region, shared_region};
use stashdir_common::{DetRng, MemOp};

/// Tree depth (node count = 2^DEPTH - 1 blocks).
const DEPTH: u32 = 12;
/// Particles per core (blocks).
const PARTICLES: u64 = 1024;
/// Probability a traversal is followed by a (root-ward) tree update.
const REBUILD_PROB: f64 = 0.002;

fn node_count() -> u64 {
    (1 << DEPTH) - 1
}

/// Generates the traces.
pub fn generate(cores: u16, ops_per_core: usize, seed: u64) -> Vec<Vec<MemOp>> {
    let tree = shared_region(0, node_count());
    let mut root_rng = DetRng::seed_from(seed);
    (0..cores as usize)
        .map(|c| {
            let mut rng = root_rng.fork();
            let particles = private_region(c, PARTICLES);
            let mut ops = Vec::with_capacity(ops_per_core);
            let mut p = 0u64;
            while ops.len() < ops_per_core {
                // Walk root to a leaf, branching pseudo-randomly per
                // particle (deterministic from the RNG stream).
                let mut node = 0u64;
                for _level in 0..DEPTH {
                    if ops.len() >= ops_per_core {
                        break;
                    }
                    ops.push(MemOp::read(tree.block(node)).with_think(1));
                    node = 2 * node + 1 + rng.below(2);
                    if node >= node_count() {
                        break;
                    }
                }
                // Update the particle with the forces found.
                let mine = particles.block(p % PARTICLES);
                ops.push(MemOp::read(mine).with_think(3));
                ops.push(MemOp::write(mine).with_think(3));
                p += 1;
                // Occasional tree rebuild near the top.
                if rng.chance(REBUILD_PROB) {
                    let victim = rng.below(31); // top 5 levels
                    ops.push(MemOp::write(tree.block(victim)).with_think(4));
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
        let a = generate(4, 600, 5);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.len() == 600));
        assert_eq!(a, generate(4, 600, 5));
    }

    #[test]
    fn everyone_reads_the_root() {
        let traces = generate(4, 1000, 1);
        let root = super::super::shared_region(0, node_count()).block(0).get();
        for (c, t) in traces.iter().enumerate() {
            assert!(
                t.iter().any(|o| !o.is_write() && o.block.get() == root),
                "core {c} never read the root"
            );
        }
    }

    #[test]
    fn walks_descend_levels() {
        let traces = generate(1, 200, 2);
        // Consecutive tree reads within a walk go to strictly deeper
        // nodes: child index > parent index.
        let base = super::super::shared_region(0, node_count()).block(0).get();
        let tree_reads: Vec<u64> = traces[0]
            .iter()
            .filter(|o| !o.is_write() && o.block.get() >= base)
            .map(|o| o.block.get() - base)
            .collect();
        let descending_pairs = tree_reads
            .windows(2)
            .filter(|w| w[1] == 2 * w[0] + 1 || w[1] == 2 * w[0] + 2)
            .count();
        assert!(
            descending_pairs > tree_reads.len() / 2,
            "most consecutive reads follow child edges"
        );
    }

    #[test]
    fn rebuild_writes_hit_the_top_levels() {
        let traces = generate(8, 20_000, 3);
        let base = super::super::shared_region(0, node_count()).block(0).get();
        let tree_writes: Vec<u64> = traces
            .iter()
            .flatten()
            .filter(|o| o.is_write() && o.block.get() >= base)
            .map(|o| o.block.get() - base)
            .collect();
        assert!(!tree_writes.is_empty(), "rebuilds happen");
        assert!(
            tree_writes.iter().all(|&n| n < 31),
            "rebuilds stay near the root"
        );
    }

    #[test]
    fn particles_stay_private() {
        let traces = generate(4, 3000, 4);
        let mut writers: std::collections::BTreeMap<u64, std::collections::BTreeSet<usize>> =
            Default::default();
        for (c, t) in traces.iter().enumerate() {
            for op in t
                .iter()
                .filter(|o| o.is_write() && o.block.get() < (1 << 30))
            {
                writers.entry(op.block.get()).or_default().insert(c);
            }
        }
        assert!(writers.values().all(|w| w.len() == 1));
    }
}
