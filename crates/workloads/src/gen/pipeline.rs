//! `pipeline` — a dedup/ferret-like pipeline-parallel kernel.
//!
//! Cores form a ring of stages; work items flow stage to stage through
//! per-edge queues. Unlike [`producer_consumer`](super::producer_consumer)
//! (isolated pairs), every core is simultaneously a consumer of its
//! predecessor and a producer for its successor, so queue blocks chain
//! ownership transfers across the whole chip, and each stage keeps a
//! private working area (hash tables, buffers).

use super::{private_region, shared_region};
use stashdir_common::{DetRng, MemOp};

/// Queue capacity in blocks per pipeline edge.
const QUEUE: u64 = 128;
/// Consumer lag behind the producer (slots).
const LAG: u64 = 8;
/// Private working-area size per stage.
const SCRATCH: u64 = 1024;

/// Generates the traces.
pub fn generate(cores: u16, ops_per_core: usize, seed: u64) -> Vec<Vec<MemOp>> {
    let mut root = DetRng::seed_from(seed);
    (0..cores as usize)
        .map(|c| {
            let mut rng = root.fork();
            // Edge i connects stage i -> stage (i+1) % cores.
            let inbound = shared_region((c + cores as usize - 1) % cores as usize, QUEUE);
            let outbound = shared_region(c, QUEUE);
            let scratch = private_region(c, SCRATCH);
            let mut ops = Vec::with_capacity(ops_per_core);
            let mut slot = 0u64;
            while ops.len() < ops_per_core {
                // Take an item from the inbound queue (trailing the
                // upstream producer).
                ops.push(MemOp::read(inbound.block(slot.wrapping_sub(LAG))).with_think(2));
                // Stage work: hash-table style scatter into the private
                // working area.
                for _ in 0..3 {
                    if ops.len() >= ops_per_core {
                        break;
                    }
                    let b = scratch.block(rng.below(SCRATCH));
                    ops.push(MemOp::read(b).with_think(2));
                    ops.push(MemOp::write(b).with_think(2));
                }
                // Emit to the outbound queue.
                ops.push(MemOp::write(outbound.block(slot)).with_think(2));
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
        let a = generate(4, 500, 3);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.len() == 500));
        assert_eq!(a, generate(4, 500, 3));
    }

    #[test]
    fn stages_chain_through_queues() {
        let traces = generate(4, 2000, 1);
        // Stage 1 reads what stage 0 writes (queue region 0).
        let stage0_writes: std::collections::BTreeSet<u64> = traces[0]
            .iter()
            .filter(|o| o.is_write() && o.block.get() >= (1 << 30))
            .map(|o| o.block.get())
            .collect();
        let stage1_reads: std::collections::BTreeSet<u64> = traces[1]
            .iter()
            .filter(|o| !o.is_write() && o.block.get() >= (1 << 30))
            .map(|o| o.block.get())
            .collect();
        assert!(
            stage0_writes.intersection(&stage1_reads).count() > 0,
            "stage 1 consumes stage 0's queue"
        );
    }

    #[test]
    fn ring_wraps_around() {
        let traces = generate(4, 2000, 1);
        // Stage 0 reads stage 3's outbound queue (region 3).
        let region3 = super::super::shared_region(3, QUEUE).block(0).get();
        assert!(
            traces[0]
                .iter()
                .any(|o| !o.is_write() && (region3..region3 + QUEUE).contains(&o.block.get())),
            "the pipeline is a ring"
        );
    }

    #[test]
    fn scratch_stays_private() {
        let traces = generate(4, 2000, 2);
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
