//! Data-value correctness tracking.
//!
//! Every simulated block carries a *version*: a monotonically increasing
//! stamp assigned to each completed write. Data-bearing protocol messages
//! carry versions, caches store them, and this tracker checks the memory
//! consistency facts that any correct invalidation protocol guarantees:
//!
//! * **Per-location coherence**: each core observes non-decreasing
//!   versions of each block.
//! * **Write serialization**: a core that obtains an exclusive
//!   (E/M-granted) copy observes the globally latest version.
//!
//! A protocol bug that loses a writeback or serves stale data (e.g. the
//! refetch-overtakes-writeback race) trips these checks immediately.
//!
//! The tracker is built from the traces it will check, in program order.
//! Each core's distinct blocks get dense *slots* in first-touch order,
//! and every trace op knows its block's slot, so a core's last observed
//! version of a block is one array entry. Callers name the observing op
//! by its index in its core's trace, which is all the per-core lookup
//! needs: an op names exactly one block. Only the global `latest` map is
//! keyed by block. The tracker reads no cache state, so it stays an
//! independent oracle for the caches it checks.

#![expect(
    clippy::indexing_slicing,
    reason = "core and op indices come from the traces the tracker was built \
              from, and each op's slot indexes its core's `seen`, which has \
              one entry per slot by construction"
)]

use stashdir_common::{BlockAddr, CoreId, FxHashMap, MemOp};

/// One core's observations: the slot of each trace op's block, and the
/// newest version the core has observed per slot.
#[derive(Debug)]
struct Observations {
    op_slot: Vec<u32>,
    seen: Vec<u64>,
}

/// Tracks per-block write versions and checks reader observations.
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, CoreId, MemOp};
/// use stashdir_sim::values::ValueTracker;
///
/// let b = BlockAddr::new(9);
/// let traces = vec![vec![MemOp::write(b)], vec![MemOp::read(b); 2]];
/// let mut vt = ValueTracker::new(&traces);
/// let v1 = vt.on_write(CoreId::new(0), 0, b);
/// vt.on_read(CoreId::new(1), 0, b, v1);   // fine: reads the new version
/// vt.on_read(CoreId::new(1), 1, b, 0);    // regression: older than before
/// assert_eq!(vt.violations().len(), 1);
/// ```
#[derive(Debug)]
pub struct ValueTracker {
    latest: FxHashMap<BlockAddr, u64>,
    cores: Vec<Observations>,
    next_version: u64,
    violations: Vec<String>,
}

impl ValueTracker {
    /// Creates a tracker for one trace per core; version stamps start at
    /// 1 (0 = "never written").
    pub fn new(traces: &[Vec<MemOp>]) -> Self {
        let mut slots: FxHashMap<BlockAddr, u32> = FxHashMap::default();
        let cores = traces
            .iter()
            .map(|trace| {
                slots.clear();
                let op_slot = trace
                    .iter()
                    .map(|op| {
                        let next = slots.len() as u32;
                        *slots.entry(op.block).or_insert(next)
                    })
                    .collect();
                Observations {
                    op_slot,
                    seen: vec![0; slots.len()],
                }
            })
            .collect();
        ValueTracker {
            latest: FxHashMap::default(),
            cores,
            next_version: 1,
            violations: Vec::new(),
        }
    }

    /// `core`'s last observed version of the block its op `op` names.
    fn seen_mut(cores: &mut [Observations], core: CoreId, op: usize) -> &mut u64 {
        let obs = &mut cores[core.index()];
        &mut obs.seen[obs.op_slot[op] as usize]
    }

    /// Records a completed write of `block` by op `op` of `core`'s trace,
    /// returning the new version the written copy must carry.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `op` lies outside the traces the tracker was
    /// built from. `block` must be the block that op names.
    pub fn on_write(&mut self, core: CoreId, op: usize, block: BlockAddr) -> u64 {
        let v = self.next_version;
        self.next_version += 1;
        self.latest.insert(block, v);
        *Self::seen_mut(&mut self.cores, core, op) = v;
        v
    }

    /// Records that op `op` of `core`'s trace read `block` and observed
    /// `version`.
    ///
    /// # Panics
    ///
    /// As [`ValueTracker::on_write`].
    pub fn on_read(&mut self, core: CoreId, op: usize, block: BlockAddr, version: u64) {
        let seen = Self::seen_mut(&mut self.cores, core, op);
        if version < *seen {
            self.violations.push(format!(
                "{core} read {block} at version {version} after observing {seen}"
            ));
        } else {
            *seen = version;
        }
    }

    /// Records that op `op` of `core`'s trace was granted an exclusive
    /// copy of `block` carrying `version`; it must be the globally
    /// latest.
    ///
    /// # Panics
    ///
    /// As [`ValueTracker::on_write`].
    pub fn on_exclusive_grant(&mut self, core: CoreId, op: usize, block: BlockAddr, version: u64) {
        let latest = self.latest(block);
        if version != latest {
            self.violations.push(format!(
                "{core} granted exclusive {block} at version {version}, latest is {latest}"
            ));
        }
        *Self::seen_mut(&mut self.cores, core, op) = version;
    }

    /// The latest written version of `block` (0 when never written).
    pub fn latest(&self, block: BlockAddr) -> u64 {
        self.latest.get(&block).copied().unwrap_or(0)
    }

    /// Blocks that have ever been written, in address order.
    pub fn written_blocks(&self) -> Vec<(BlockAddr, u64)> {
        let mut v: Vec<_> = self.latest.iter().map(|(b, v)| (*b, *v)).collect();
        v.sort_by_key(|(b, _)| *b);
        v
    }

    /// Blocks that have ever been written with their latest versions, in
    /// no particular order.
    pub(crate) fn written(&self) -> impl Iterator<Item = (BlockAddr, u64)> + '_ {
        // Order contract: FxHashMap order, fixed for a given insert sequence
        // but not sorted. The caller fixes the order (the checker sorts it)
        // before anything reaches an artifact.
        self.latest.iter().map(|(b, v)| (*b, *v))
    }

    /// Consistency violations observed so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Records an externally detected violation.
    pub fn report(&mut self, message: String) {
        self.violations.push(message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn core(i: u16) -> CoreId {
        CoreId::new(i)
    }

    /// A tracker for cores that each touch the listed blocks in order.
    fn tracker(traces: &[&[u64]]) -> ValueTracker {
        let traces: Vec<Vec<MemOp>> = traces
            .iter()
            .map(|t| t.iter().map(|&b| MemOp::read(BlockAddr::new(b))).collect())
            .collect();
        ValueTracker::new(&traces)
    }

    #[test]
    fn versions_increase_globally() {
        let mut vt = tracker(&[&[1], &[2]]);
        let a = vt.on_write(core(0), 0, BlockAddr::new(1));
        let b = vt.on_write(core(1), 0, BlockAddr::new(2));
        assert!(b > a);
        assert_eq!(vt.latest(BlockAddr::new(1)), a);
        assert_eq!(vt.latest(BlockAddr::new(2)), b);
        assert_eq!(vt.latest(BlockAddr::new(3)), 0);
    }

    #[test]
    fn monotonic_reads_pass() {
        let mut vt = tracker(&[&[5, 5, 5], &[5]]);
        let b = BlockAddr::new(5);
        vt.on_read(core(0), 0, b, 0);
        let v = vt.on_write(core(1), 0, b);
        vt.on_read(core(0), 1, b, v);
        vt.on_read(core(0), 2, b, v);
        assert!(vt.violations().is_empty());
    }

    #[test]
    fn regressing_read_is_flagged() {
        let mut vt = tracker(&[&[5], &[5, 5]]);
        let b = BlockAddr::new(5);
        let v = vt.on_write(core(0), 0, b);
        vt.on_read(core(1), 0, b, v);
        vt.on_read(core(1), 1, b, v - 1);
        assert_eq!(vt.violations().len(), 1);
        assert!(vt.violations()[0].contains("after observing"));
    }

    #[test]
    fn observations_follow_the_block_not_the_op() {
        // Core 0 reads block 5, moves to block 6, then comes back to 5:
        // the third op shares the first op's slot.
        let mut vt = tracker(&[&[5, 6, 5], &[5]]);
        let b = BlockAddr::new(5);
        let v = vt.on_write(core(1), 0, b);
        vt.on_read(core(0), 0, b, v);
        vt.on_read(core(0), 1, BlockAddr::new(6), 0);
        vt.on_read(core(0), 2, b, 0);
        assert_eq!(
            vt.violations(),
            &["core0 read B0x5 at version 0 after observing 1".to_string()]
        );
    }

    #[test]
    fn exclusive_grant_must_be_latest() {
        let mut vt = tracker(&[&[7], &[7], &[7]]);
        let b = BlockAddr::new(7);
        let v = vt.on_write(core(0), 0, b);
        vt.on_exclusive_grant(core(1), 0, b, v);
        assert!(vt.violations().is_empty());
        vt.on_exclusive_grant(core(2), 0, b, v - 1);
        assert_eq!(vt.violations().len(), 1);
    }

    #[test]
    fn unwritten_blocks_grant_version_zero() {
        let mut vt = tracker(&[&[9]]);
        vt.on_exclusive_grant(core(0), 0, BlockAddr::new(9), 0);
        assert!(vt.violations().is_empty());
    }

    #[test]
    fn written_blocks_enumerates() {
        let mut vt = tracker(&[&[1, 2]]);
        vt.on_write(core(0), 0, BlockAddr::new(1));
        vt.on_write(core(0), 1, BlockAddr::new(2));
        assert_eq!(vt.written_blocks().len(), 2);
    }

    #[test]
    fn external_reports_accumulate() {
        let mut vt = tracker(&[]);
        vt.report("custom".into());
        assert_eq!(vt.violations(), &["custom".to_string()]);
    }

    /// The tracker the per-op slots replaced, verbatim: one hash map entry
    /// per `(core, block)` pair. Kept as the reference model for the
    /// differential property below.
    mod reference {
        use stashdir_common::{BlockAddr, CoreId, FxHashMap};

        #[derive(Debug, Default)]
        pub struct ValueTracker {
            latest: FxHashMap<BlockAddr, u64>,
            last_seen: FxHashMap<(CoreId, BlockAddr), u64>,
            next_version: u64,
            violations: Vec<String>,
        }

        impl ValueTracker {
            /// Creates a tracker; version stamps start at 1 (0 = "never written").
            pub fn new() -> Self {
                ValueTracker {
                    next_version: 1,
                    ..ValueTracker::default()
                }
            }

            /// Records a completed write by `core`, returning the new version the
            /// written copy must carry.
            pub fn on_write(&mut self, core: CoreId, block: BlockAddr) -> u64 {
                let v = self.next_version;
                self.next_version += 1;
                self.latest.insert(block, v);
                self.last_seen.insert((core, block), v);
                v
            }

            /// Records that `core` read `block` and observed `version`.
            pub fn on_read(&mut self, core: CoreId, block: BlockAddr, version: u64) {
                let seen = self.last_seen.entry((core, block)).or_insert(0);
                if version < *seen {
                    self.violations.push(format!(
                        "{core} read {block} at version {version} after observing {seen}"
                    ));
                } else {
                    *seen = version;
                }
            }

            /// Records that `core` was granted an exclusive copy of `block`
            /// carrying `version`; it must be the globally latest.
            pub fn on_exclusive_grant(&mut self, core: CoreId, block: BlockAddr, version: u64) {
                let latest = self.latest.get(&block).copied().unwrap_or(0);
                if version != latest {
                    self.violations.push(format!(
                        "{core} granted exclusive {block} at version {version}, latest is {latest}"
                    ));
                }
                self.last_seen.insert((core, block), version);
            }

            /// The latest written version of `block` (0 when never written).
            pub fn latest(&self, block: BlockAddr) -> u64 {
                self.latest.get(&block).copied().unwrap_or(0)
            }

            /// Blocks that have ever been written, in address order.
            pub fn written_blocks(&self) -> Vec<(BlockAddr, u64)> {
                let mut v: Vec<_> = self.latest.iter().map(|(b, v)| (*b, *v)).collect();
                v.sort_by_key(|(b, _)| *b);
                v
            }

            /// Consistency violations observed so far.
            pub fn violations(&self) -> &[String] {
                &self.violations
            }
        }
    }

    /// Blocks the random traces draw from: few enough that cores revisit
    /// blocks and share them.
    const BLOCKS: u64 = 12;

    proptest! {
        /// Under any interleaving of the cores' ops in program order, with
        /// any observed versions — current, stale, regressing or never
        /// written — the slot tracker reports exactly the reference's
        /// violations, in the same order, and agrees on every block's
        /// latest version and on the written blocks.
        #[test]
        fn slot_tracker_matches_the_hash_map_reference(
            blocks in prop::collection::vec(
                prop::collection::vec(0u64..BLOCKS, 0..40),
                1..5,
            ),
            steps in prop::collection::vec(
                (any::<u16>(), 0u8..5, any::<u64>()),
                0..240,
            ),
        ) {
            let traces: Vec<Vec<MemOp>> = blocks
                .iter()
                .map(|t| t.iter().map(|&b| MemOp::write(BlockAddr::new(b))).collect())
                .collect();
            let mut slots = ValueTracker::new(&traces);
            let mut naive = reference::ValueTracker::new();
            let mut next_op = vec![0usize; traces.len()];
            for (pick, action, draw) in steps {
                let c = pick as usize % traces.len();
                let Some(op) = traces[c].get(next_op[c]) else {
                    continue;
                };
                let (i, block, core) = (next_op[c], op.block, CoreId::new(c as u16));
                next_op[c] += 1;
                // An observed version relative to the block's latest: the
                // latest itself, a stale one, any one up to a version not
                // yet written, or the never-written 0.
                let latest = naive.latest(block);
                let version = match draw % 4 {
                    0 => latest,
                    1 => latest.saturating_sub(1 + (draw >> 2) % 3),
                    2 => (draw >> 2) % (latest + 2),
                    _ => 0,
                };
                match action {
                    0 => {
                        slots.on_read(core, i, block, version);
                        naive.on_read(core, block, version);
                    }
                    1 => {
                        let v = slots.on_write(core, i, block);
                        prop_assert_eq!(v, naive.on_write(core, block));
                    }
                    2 => {
                        slots.on_exclusive_grant(core, i, block, version);
                        naive.on_exclusive_grant(core, block, version);
                    }
                    // A miss completing with an exclusive grant, as the
                    // machine records one: grant, then the read or write.
                    _ => {
                        slots.on_exclusive_grant(core, i, block, version);
                        naive.on_exclusive_grant(core, block, version);
                        if action == 3 {
                            slots.on_read(core, i, block, version);
                            naive.on_read(core, block, version);
                        } else {
                            let v = slots.on_write(core, i, block);
                            prop_assert_eq!(v, naive.on_write(core, block));
                        }
                    }
                }
                prop_assert_eq!(slots.violations(), naive.violations());
            }
            for b in 0..BLOCKS {
                let block = BlockAddr::new(b);
                prop_assert_eq!(slots.latest(block), naive.latest(block));
            }
            prop_assert_eq!(slots.written_blocks(), naive.written_blocks());
        }
    }
}
