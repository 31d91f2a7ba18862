//! `lock` — contended lock acquisition with private critical sections.
//!
//! Cores spin over a small set of hot lock words: read the lock, write it
//! (acquire), run a short private critical section, write it again
//! (release). Lock blocks ping-pong violently between cores; the
//! protected data stays private. This is the stress case for exclusive
//! ownership transfers and for directory entries that are *always*
//! private-but-hot (stash must not pay for hiding them wrongly).

use super::{private_region, shared_region};
use stashdir_common::{DetRng, MemOp};

/// Number of distinct locks.
const LOCKS: u64 = 8;
/// Private blocks touched inside each critical section.
const CRIT_BLOCKS: u64 = 6;

/// Generates the traces.
pub fn generate(cores: u16, ops_per_core: usize, seed: u64) -> Vec<Vec<MemOp>> {
    let locks = shared_region(0, LOCKS);
    let mut root = DetRng::seed_from(seed);
    (0..cores as usize)
        .map(|c| {
            let mut rng = root.fork();
            let data = private_region(c, 512);
            let mut ops = Vec::with_capacity(ops_per_core);
            let mut i = 0u64;
            while ops.len() < ops_per_core {
                let lock = locks.block(rng.below(LOCKS));
                // Acquire: test then test-and-set.
                ops.push(MemOp::read(lock).with_think(1));
                ops.push(MemOp::write(lock).with_think(1));
                // Critical section on private data.
                for k in 0..CRIT_BLOCKS {
                    if ops.len() >= ops_per_core {
                        break;
                    }
                    let b = data.block(i + k);
                    ops.push(MemOp::read(b).with_think(2));
                    ops.push(MemOp::write(b).with_think(2));
                }
                i += CRIT_BLOCKS;
                // Release.
                ops.push(MemOp::write(lock).with_think(1));
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
        let a = generate(4, 650, 21);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.len() == 650));
        assert_eq!(a, generate(4, 650, 21));
    }

    #[test]
    fn locks_are_written_by_every_core() {
        let traces = generate(4, 2000, 1);
        let lock0 = super::super::shared_region(0, LOCKS).block(0).get();
        for (c, t) in traces.iter().enumerate() {
            assert!(
                t.iter()
                    .any(|o| o.is_write() && (lock0..lock0 + LOCKS).contains(&o.block.get())),
                "core {c} never acquired a lock"
            );
        }
    }

    #[test]
    fn critical_sections_are_private() {
        let traces = generate(4, 3000, 2);
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
        assert!(
            writers.values().all(|w| w.len() == 1),
            "critical-section data has one writer each"
        );
    }
}
