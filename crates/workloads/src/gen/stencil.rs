//! `stencil` — an ocean/fluidanimate-like iterative grid solver.
//!
//! The grid's rows are block-partitioned across cores. Each sweep reads
//! the core's own rows plus the boundary rows of its two neighbors, then
//! writes its own rows. Sharing is pairwise between neighbors: blocks are
//! mostly private with a thin read-shared halo that gets re-written by
//! its owner every sweep (producer→consumer between neighbors).

use super::shared_region;
use stashdir_common::MemOp;

/// Rows (in blocks) owned by each core.
const ROWS_PER_CORE: u64 = 512;

/// Generates the traces.
pub fn generate(cores: u16, ops_per_core: usize, _seed: u64) -> Vec<Vec<MemOp>> {
    // The whole grid lives in one shared region, but partitioning makes
    // interior blocks effectively private.
    let grid = shared_region(0, ROWS_PER_CORE * cores as u64);
    (0..cores as usize)
        .map(|c| {
            let my_base = c as u64 * ROWS_PER_CORE;
            let up_boundary = ((c as u64 + cores as u64 - 1) % cores as u64) * ROWS_PER_CORE
                + (ROWS_PER_CORE - 1);
            let down_boundary = ((c as u64 + 1) % cores as u64) * ROWS_PER_CORE;
            let mut ops = Vec::with_capacity(ops_per_core);
            let mut row = 0u64;
            while ops.len() < ops_per_core {
                let mine = grid.block(my_base + row);
                // 5-point stencil: self, up, down (left/right share the
                // block at 64-byte granularity).
                ops.push(MemOp::read(mine).with_think(2));
                let up = if row == 0 {
                    grid.block(up_boundary)
                } else {
                    grid.block(my_base + row - 1)
                };
                let down = if row == ROWS_PER_CORE - 1 {
                    grid.block(down_boundary)
                } else {
                    grid.block(my_base + row + 1)
                };
                ops.push(MemOp::read(up).with_think(1));
                ops.push(MemOp::read(down).with_think(1));
                ops.push(MemOp::write(mine).with_think(5));
                row = (row + 1) % ROWS_PER_CORE;
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
        let a = generate(4, 300, 0);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.len() == 300));
        assert_eq!(a, generate(4, 300, 99), "stencil ignores the seed");
    }

    #[test]
    fn neighbors_share_boundary_rows() {
        let traces = generate(4, 4 * ROWS_PER_CORE as usize, 0);
        // Core 1 must read core 0's last row and core 2's first row.
        let core1_blocks: std::collections::BTreeSet<u64> =
            traces[1].iter().map(|o| o.block.get()).collect();
        let core0_last = traces[0]
            .iter()
            .filter(|o| o.is_write())
            .map(|o| o.block.get())
            .max()
            .unwrap();
        assert!(
            core1_blocks.contains(&core0_last),
            "core 1 reads core 0's boundary row"
        );
    }

    #[test]
    fn writes_stay_in_own_partition() {
        let traces = generate(4, 2000, 0);
        let base = super::super::shared_region(0, ROWS_PER_CORE * 4)
            .block(0)
            .get();
        for (c, t) in traces.iter().enumerate() {
            for op in t.iter().filter(|o| o.is_write()) {
                let row = op.block.get() - base;
                let owner = row / ROWS_PER_CORE;
                assert_eq!(owner as usize, c, "cores write only their own rows");
            }
        }
    }
}
