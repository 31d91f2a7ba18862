//! `producer_consumer` — pipelined ring buffers between core pairs.
//!
//! Core `2k` produces into a ring buffer that core `2k+1` consumes,
//! trailing a few slots behind. Every buffer block ping-pongs between
//! exactly two cores: written Modified by the producer, then forwarded
//! Shared to the consumer — the canonical two-party sharing pattern.

use super::{private_region, shared_region};
use stashdir_common::MemOp;

/// Ring buffer size in blocks per pair.
const RING: u64 = 256;
/// How far the consumer trails the producer (slots).
const LAG: u64 = 16;

/// Generates the traces.
pub fn generate(cores: u16, ops_per_core: usize, _seed: u64) -> Vec<Vec<MemOp>> {
    (0..cores as usize)
        .map(|c| {
            let pair = c / 2;
            let ring = shared_region(pair, RING);
            let scratch = private_region(c, 512);
            let producer = c % 2 == 0;
            let mut ops = Vec::with_capacity(ops_per_core);
            let mut slot = 0u64;
            while ops.len() < ops_per_core {
                if producer {
                    // Compute into scratch, publish to the ring.
                    ops.push(MemOp::read(scratch.block(slot)).with_think(4));
                    ops.push(MemOp::write(ring.block(slot)).with_think(2));
                } else {
                    // Consume a trailing slot, accumulate privately.
                    let behind = slot.wrapping_sub(LAG);
                    ops.push(MemOp::read(ring.block(behind)).with_think(2));
                    ops.push(MemOp::write(scratch.block(behind % 512)).with_think(4));
                }
                slot += 1;
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
        let a = generate(4, 600, 0);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.len() == 600));
        assert_eq!(a, generate(4, 600, 1));
    }

    #[test]
    fn pairs_share_a_ring() {
        let traces = generate(4, 1000, 0);
        let ring0: std::collections::BTreeSet<u64> = traces[0]
            .iter()
            .filter(|o| o.is_write())
            .map(|o| o.block.get())
            .collect();
        let consumed0: std::collections::BTreeSet<u64> = traces[1]
            .iter()
            .filter(|o| !o.is_write())
            .map(|o| o.block.get())
            .filter(|b| *b >= (1 << 30))
            .collect();
        assert!(
            ring0.intersection(&consumed0).count() > 0,
            "consumer must read producer-written slots"
        );
    }

    #[test]
    fn different_pairs_use_different_rings() {
        let traces = generate(4, 1000, 0);
        let ring_of = |t: &Vec<MemOp>| -> std::collections::BTreeSet<u64> {
            t.iter()
                .map(|o| o.block.get())
                .filter(|b| *b >= (1 << 30))
                .collect()
        };
        let r0 = ring_of(&traces[0]);
        let r2 = ring_of(&traces[2]);
        assert_eq!(r0.intersection(&r2).count(), 0, "pairs are independent");
    }
}
