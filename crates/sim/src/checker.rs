//! Machine-wide coherence and consistency invariants.
//!
//! The checker runs over a quiesced machine snapshot — which, under the
//! simulator's program-order discipline, is *every* point between event
//! handlers — and verifies the invariants DESIGN.md commits to:
//!
//! * **I1/I2 (directory coverage)**: every valid private copy is named by
//!   its home directory entry, or (stash directory only) hidden under a
//!   set stash bit.
//! * **I3 (single writer)**: at most one E/M copy of a block exists, and
//!   it excludes all other valid copies.
//! * **I4 (LLC inclusion)**: every valid private copy is LLC-resident at
//!   its home.
//! * **I5 (value correctness)**: every valid private copy holds the
//!   latest written version, and the latest version is reachable (some
//!   copy, parked writeback, LLC line or DRAM holds it).
//! * **I6 (liveness, final only)**: every core retired its whole trace
//!   and no writebacks are left parked.
//! * **I7 (L1 inclusion)**: each core's L1 content is a subset of its L2
//!   content.
//! * **Stash discipline**: a set stash bit implies the block is untracked
//!   at its home.
//!
//! The per-block checks walk the machine one batch of home banks at a
//! time, so the private copies gathered for them never span the whole
//! machine: see [`check`].

use crate::machine::Machine;
use stashdir_common::{BlockAddr, CoreId, FxHashMap};
use stashdir_protocol::{DirView, PrivState};

/// One valid private copy: `(block, core, state, version)`.
type PrivCopy = (BlockAddr, CoreId, PrivState, u64);

/// The number of batches a check walks the machine in, when the
/// geometry has at least as many residues (see [`check`]).
const BATCHES: usize = 16;

/// Runs every invariant over `machine`, returning human-readable
/// violation descriptions (empty = clean). `final_check` additionally
/// verifies liveness (I6).
///
/// The walk visits resident state only, bank-major: private copies and
/// written blocks are ordered by home bank, then bank-local block, so
/// each bank's LLC and directory are read in set order. Messages are
/// reported in address order within each check, whatever the walk's
/// order, so failure reports do not depend on cache layout.
///
/// The per-block checks run in batches. A block's home bank is its low
/// `log2(banks)` bits and its L2 set its low `log2(l2 sets)` bits, so
/// with `m = min(banks, l2 sets)` both are fixed by the block's residue
/// modulo `m`. A batch is a range of `max(m / 16, 1)` residues: it
/// covers the banks and the L2 sets with those residues. For each batch
/// the check gathers every core's copies from those L2 sets into one
/// reused scratch vector, sorts it, and walks it together with the
/// batch's written blocks, `banks / m` runs of the sorted written list.
/// So the check's scratch holds at most one batch's copies plus the
/// sorted written list, and it reads each L2 set of each core once per
/// check.
pub fn check(machine: &Machine, final_check: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let uses_stash = machine.config().dir.uses_stash();
    let key = |block| machine.bank_major(block);

    // I7: L1 ⊆ L2. L2 stores no Invalid line, so Invalid means absent.
    for hier in &machine.privs {
        for l1_block in hier.l1_blocks() {
            if hier.state_of(l1_block) == PrivState::Invalid {
                problems.push(format!(
                    "I7: {} holds {l1_block} in L1 but not L2",
                    hier.core()
                ));
            }
        }
    }

    let mut written: Vec<(BlockAddr, u64)> = machine.values.written().collect();
    written.sort_unstable_by_key(|&(block, _)| key(block));
    let mut wb_versions: FxHashMap<BlockAddr, u64> = FxHashMap::default();
    for hier in &machine.privs {
        for (block, entry) in hier.parked() {
            let best = wb_versions.entry(block).or_insert(0);
            *best = (*best).max(entry.version);
        }
    }

    let mut walk = Walk {
        machine,
        uses_stash,
        wb_versions,
        per_block: Vec::new(),
        lost: Vec::new(),
    };
    let banks = machine.banks.len();
    let modulus = banks.min(machine.config().l2.num_sets());
    let width = (modulus / BATCHES).max(1);
    let mut copies: Vec<PrivCopy> = Vec::new();
    for first in (0..modulus).step_by(width) {
        let residues = first..first + width;
        copies.clear();
        for hier in &machine.privs {
            let core = hier.core();
            copies.extend(
                hier.l2_entries_in(residues.clone(), modulus)
                    .map(|(block, line)| (block, core, line.state, line.version)),
            );
        }
        // A core holds a block once, so `(block, core)` is unique: the
        // unstable sort keeps each block's copies in core order without
        // the stable sort's scratch buffer.
        copies.sort_unstable_by_key(|&(block, core, _, _)| (key(block), core));
        // The written list is sorted by home bank first, so the batch's
        // banks in each group of `modulus` are one run of it.
        let runs = (0..banks).step_by(modulus).flat_map(|base| {
            let bank_run = |bank| written.partition_point(|&(b, _)| machine.home(b).index() < bank);
            let run = bank_run(base + residues.start)..bank_run(base + residues.end);
            written.get(run).unwrap_or_default()
        });
        walk.batch(&copies, runs);
    }
    let Walk {
        mut per_block,
        mut lost,
        ..
    } = walk;
    // Stable sorts: a block's messages stay in the order they were found.
    per_block.sort_by_key(|&(block, _)| block);
    lost.sort_by_key(|&(block, _)| block);
    problems.extend(per_block.into_iter().map(|(_, message)| message));

    // Stash discipline and directory-side inclusion, scanned in place
    // from the banks.
    for bank in &machine.banks {
        for (block, line) in bank.llc_lines() {
            if line.stash {
                if !uses_stash {
                    problems.push(format!(
                        "stash: {block} has a stash bit under a non-stash directory"
                    ));
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`dir_bank_of()` returns an in-range BankId"
                )]
                if machine.banks[machine.dir_bank_of(block).index()]
                    .dir_lookup(block)
                    .is_some()
                {
                    problems.push(format!(
                        "stash: {block} is tracked yet keeps its stash bit set"
                    ));
                }
            }
        }
        // Directory entries must point at resident LLC lines (inclusion
        // seen from the home side — an opaque shard tracks blocks homed at
        // *other* banks, so residence is checked at each block's home).
        for (block, _) in bank.dir_tracked() {
            #[expect(
                clippy::indexing_slicing,
                reason = "`home()` returns an in-range BankId"
            )]
            if machine.banks[machine.home(block).index()]
                .llc_peek(block)
                .is_none()
            {
                problems.push(format!(
                    "I4: {} tracks {block} without an LLC line",
                    bank.id()
                ));
            }
        }
    }
    problems.extend(lost.into_iter().map(|(_, message)| message));

    // I6: liveness (final only).
    if final_check {
        let cores = &machine.cores;
        for (i, (((pc, trace), pending), finish)) in cores
            .pc
            .iter()
            .zip(&cores.trace)
            .zip(&cores.pending)
            .zip(&cores.finish)
            .enumerate()
        {
            if *pc < trace.len() || pending.is_some() || finish.is_none() {
                problems.push(format!(
                    "I6: core{i} did not retire its trace (pc {}/{}, pending={})",
                    pc,
                    trace.len(),
                    pending.is_some()
                ));
            }
        }
        for hier in &machine.privs {
            if hier.has_parked_writebacks() {
                problems.push(format!(
                    "I6: {} still has parked writebacks at end of run",
                    hier.core()
                ));
            }
        }
    }

    problems
}

/// The per-block checks over the batches of one [`check`], with the
/// messages they found.
struct Walk<'m> {
    machine: &'m Machine,
    uses_stash: bool,
    /// Per block, the newest version a parked writeback holds.
    wb_versions: FxHashMap<BlockAddr, u64>,
    /// Per-block messages (I3, I4, I1/I2, I5 stale copies), each with its
    /// block, to be put back in address order.
    per_block: Vec<(BlockAddr, String)>,
    /// Lost writes (I5 reachability), each with its block.
    lost: Vec<(BlockAddr, String)>,
}

impl Walk<'_> {
    /// One walk over the union of a batch's held and written blocks:
    /// `copies` and `written` are both in bank-major order and hold
    /// blocks of the same banks.
    fn batch<'w>(
        &mut self,
        copies: &[PrivCopy],
        written: impl Iterator<Item = &'w (BlockAddr, u64)>,
    ) {
        let machine = self.machine;
        let key = |block| machine.bank_major(block);
        let untracked = DirView::Untracked;
        let mut written = written.peekable();
        let mut c = 0;
        loop {
            let block = match (copies.get(c), written.peek()) {
                (Some(copy), Some(&&(wrote, _))) if key(wrote) < key(copy.0) => wrote,
                (Some(copy), _) => copy.0,
                (None, Some(&&(wrote, _))) => wrote,
                (None, None) => break,
            };
            let rest = copies.get(c..).unwrap_or_default();
            let held = rest.iter().take_while(|copy| copy.0 == block).count();
            let holders = rest.get(..held).unwrap_or_default();
            c += held;
            let written_latest = written
                .next_if(|&&(wrote, _)| wrote == block)
                .map(|&(_, latest)| latest);
            let latest = written_latest.unwrap_or(0);
            let home = machine.home(block);
            #[expect(
                clippy::indexing_slicing,
                reason = "`home()` returns an in-range BankId"
            )]
            let llc = machine.banks[home.index()].llc_peek(block);

            if !holders.is_empty() {
                // The entry may live away from the home (opaque sharding).
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`dir_bank_of()` returns an in-range BankId"
                )]
                let view = machine.banks[machine.dir_bank_of(block).index()]
                    .dir_lookup(block)
                    .unwrap_or(&untracked);
                let stash = llc.is_some_and(|l| l.stash);
                let mut report = |message| self.per_block.push((block, message));

                // I3: single writer.
                let exclusive = || {
                    holders
                        .iter()
                        .filter(|(_, _, s, _)| s.is_exclusive())
                        .map(|&(_, c, _, _)| c)
                };
                if exclusive().nth(1).is_some() {
                    let exclusive_holders: Vec<CoreId> = exclusive().collect();
                    report(format!(
                        "I3: {block} has multiple exclusive holders: {exclusive_holders:?}"
                    ));
                }
                if let Some(first) = exclusive().next() {
                    if holders.len() > 1 {
                        report(format!(
                            "I3: {block} has an exclusive copy at {first} alongside {} other copies",
                            holders.len() - 1
                        ));
                    }
                }

                // I4: LLC inclusion.
                if llc.is_none() {
                    report(format!(
                        "I4: {block} cached privately but not resident in {home}'s LLC"
                    ));
                }

                // I1/I2: directory coverage per holder, plus state agreement.
                for &(_, core, state, _) in holders {
                    let covered = match view {
                        DirView::Untracked => false,
                        DirView::Exclusive(owner) => *owner == core,
                        DirView::Shared(set) => set.contains(core),
                    };
                    let hidden = self.uses_stash && stash;
                    if !covered && !hidden {
                        report(format!(
                            "I1/I2: {core} holds {block} ({state}) but {home} tracks {view} with stash={stash}"
                        ));
                    }
                    if covered && state.is_exclusive() && !matches!(view, DirView::Exclusive(_)) {
                        report(format!(
                            "I1: {core} holds {block} in {state} but {home} tracks it as {view}"
                        ));
                    }
                }

                // I5: every valid copy holds the latest version.
                for &(_, core, state, version) in holders {
                    if version != latest {
                        report(format!(
                            "I5: {core} holds {block} ({state}) at version {version}, latest is {latest}"
                        ));
                    }
                }
            }

            // I5 reachability: the latest version of a written block exists
            // somewhere. DRAM is asked last, only when nothing else holds it.
            if let Some(latest) = written_latest {
                let reachable = holders.iter().any(|copy| copy.3 == latest)
                    || self.wb_versions.get(&block).copied().unwrap_or(0) == latest
                    || llc.is_some_and(|l| l.version == latest)
                    || machine.dram_store.get(&block).copied().unwrap_or(0) == latest;
                if !reachable {
                    self.lost.push((
                        block,
                        format!(
                            "I5: latest version {latest} of {block} is unreachable (lost write)"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::LlcLine;
    use crate::config::{CoverageRatio, DirSpec, SystemConfig};
    use crate::machine::Machine;
    use crate::values::ValueTracker;
    use proptest::prelude::*;
    use stashdir_common::{BlockAddr, MemOp};
    use stashdir_protocol::Grant;

    /// A fresh, empty machine whose state the tests corrupt by hand:
    /// four cores and four banks over a 4-set L2.
    fn machine(dir: DirSpec) -> Machine {
        machine_with(dir, L2_GEOMETRIES[0])
    }

    /// [`machine`] with an L2 of `(bytes, ways)`.
    fn machine_with(dir: DirSpec, (bytes, ways): (u64, usize)) -> Machine {
        use stashdir_mem::CacheConfig;
        let cfg = SystemConfig {
            cores: 4,
            l1: CacheConfig::new(256, 2, 64, 1),
            l2: CacheConfig::new(bytes, ways, 64, 4),
            llc_bank: CacheConfig::new(1024, 2, 64, 8),
            dir,
            ..SystemConfig::default()
        };
        Machine::new(cfg)
    }

    /// L2 `(bytes, ways)` against the four banks: as many sets as banks
    /// (4), fewer (2, as on E20) and more (16, as on E9), so a check
    /// batch covers one bank and one set, two banks, or one bank and
    /// four sets.
    const L2_GEOMETRIES: [(u64, usize); 3] = [(512, 2), (512, 4), (2048, 2)];

    fn stash_machine() -> Machine {
        machine(DirSpec::stash(CoverageRatio::new(1, 8)))
    }

    /// Gives `m` a value tracker over traces that make each listed
    /// `(core, block)` write the next op of its core, so the tests can
    /// record those writes by op index.
    fn track_writes(m: &mut Machine, writes: &[(u16, BlockAddr)]) {
        let mut traces = vec![Vec::new(); m.config().cores as usize];
        for &(core, block) in writes {
            traces[core as usize].push(MemOp::write(block));
        }
        m.values = ValueTracker::new(&traces);
    }

    /// Installs a fully consistent single-owner block: LLC line, directory
    /// entry and private copy all agree.
    fn install_consistent(m: &mut Machine, block: BlockAddr, core: u16) {
        let home = m.home(block);
        m.banks[home.index()].llc_insert(
            block,
            LlcLine {
                version: 0,
                dirty: false,
                stash: false,
            },
        );
        m.banks[home.index()].dir_install(block, DirView::Exclusive(CoreId::new(core)));
        m.privs[core as usize].fill(block, Grant::Exclusive, 0);
    }

    #[test]
    fn clean_machine_passes() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        install_consistent(&mut m, BlockAddr::new(1), 1);
        assert!(check(&m, false).is_empty());
    }

    #[test]
    fn detects_untracked_private_copy() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].dir_remove(BlockAddr::new(0));
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.starts_with("I1/I2")),
            "{problems:?}"
        );
    }

    #[test]
    fn stash_bit_excuses_untracked_copy() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].dir_remove(BlockAddr::new(0));
        m.banks[home.index()].set_stash_bit(BlockAddr::new(0), true);
        assert!(check(&m, false).is_empty(), "hidden copies are legal");
    }

    #[test]
    fn stash_bit_does_not_excuse_under_sparse() {
        let mut m = machine(DirSpec::sparse(CoverageRatio::new(1, 8)));
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].dir_remove(BlockAddr::new(0));
        m.banks[home.index()].set_stash_bit(BlockAddr::new(0), true);
        let problems = check(&m, false);
        assert!(problems.iter().any(|p| p.starts_with("I1/I2")));
        assert!(
            problems.iter().any(|p| p.contains("non-stash")),
            "a sparse machine must not carry stash bits: {problems:?}"
        );
    }

    #[test]
    fn detects_double_exclusive_owners() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        // A second core conjures an exclusive copy out of thin air.
        m.privs[1].fill(BlockAddr::new(0), Grant::Modified, 0);
        let problems = check(&m, false);
        assert!(problems.iter().any(|p| p.starts_with("I3")), "{problems:?}");
    }

    #[test]
    fn detects_missing_llc_line() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].llc_remove(BlockAddr::new(0));
        let problems = check(&m, false);
        assert!(problems.iter().any(|p| p.starts_with("I4")), "{problems:?}");
    }

    #[test]
    fn detects_stale_copy_version() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        // The tracker believes a newer write exists somewhere.
        track_writes(&mut m, &[(1, BlockAddr::new(0))]);
        let v = m.values.on_write(CoreId::new(1), 0, BlockAddr::new(0));
        assert!(v > 0);
        let problems = check(&m, false);
        assert!(problems.iter().any(|p| p.starts_with("I5")), "{problems:?}");
    }

    #[test]
    fn detects_lost_latest_write() {
        let mut m = stash_machine();
        // A write happened but no location holds its version.
        track_writes(&mut m, &[(0, BlockAddr::new(7))]);
        m.values.on_write(CoreId::new(0), 0, BlockAddr::new(7));
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.contains("lost write")),
            "{problems:?}"
        );
    }

    #[test]
    fn latest_in_dram_is_reachable() {
        let mut m = stash_machine();
        track_writes(&mut m, &[(0, BlockAddr::new(7))]);
        let v = m.values.on_write(CoreId::new(0), 0, BlockAddr::new(7));
        m.dram_store.insert(BlockAddr::new(7), v);
        assert!(check(&m, false).is_empty());
    }

    #[test]
    fn detects_tracked_block_with_stash_bit() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].set_stash_bit(BlockAddr::new(0), true);
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.contains("keeps its stash bit")),
            "{problems:?}"
        );
    }

    #[test]
    fn detects_directory_entry_without_llc_line() {
        let mut m = stash_machine();
        let block = BlockAddr::new(0);
        let home = m.home(block);
        m.banks[home.index()].dir_install(block, DirView::Exclusive(CoreId::new(0)));
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.contains("without an LLC line")),
            "{problems:?}"
        );
    }

    /// One sparse machine corrupted across four cores and four banks so
    /// that every check fires at once. The exact messages and their order
    /// are pinned: failure reports and stall snapshots quote them.
    #[test]
    fn every_check_reports_in_a_fixed_order() {
        let mut m = machine(DirSpec::sparse(CoverageRatio::new(1, 8)));
        let blk = BlockAddr::new;
        track_writes(&mut m, &[(3, blk(2)), (0, blk(7))]);
        // Block 0: two exclusive copies, core1's untracked (I3 twice, I1/I2).
        install_consistent(&mut m, blk(0), 0);
        m.privs[1].fill(blk(0), Grant::Modified, 0);
        // Block 1: a tracked copy whose LLC line is gone (I4 twice).
        install_consistent(&mut m, blk(1), 1);
        m.banks[1].llc_remove(blk(1));
        // Block 2: a stale copy and a lost write (I5 twice).
        install_consistent(&mut m, blk(2), 2);
        m.values.on_write(CoreId::new(3), 0, blk(2));
        // Block 3: a tracked block with a stash bit under sparse (stash twice).
        install_consistent(&mut m, blk(3), 3);
        m.banks[3].set_stash_bit(blk(3), true);
        // Block 5: an exclusive copy tracked as shared (I1).
        install_consistent(&mut m, blk(5), 1);
        let mut sharers = stashdir_common::SharerSet::new(4);
        sharers.extend([CoreId::new(1), CoreId::new(2)]);
        m.banks[1].dir_install(blk(5), DirView::Shared(sharers));
        // Block 6: core2 keeps an L1 copy without its L2 line (I7).
        install_consistent(&mut m, blk(6), 2);
        m.privs[2].drop_l2_line(blk(6));
        // Block 7: a write whose version no location holds (I5 lost write).
        m.values.on_write(CoreId::new(0), 0, blk(7));

        let expected = [
            "I7: core2 holds B0x6 in L1 but not L2",
            "I3: B0x0 has multiple exclusive holders: [CoreId(0), CoreId(1)]",
            "I3: B0x0 has an exclusive copy at core0 alongside 1 other copies",
            "I1/I2: core1 holds B0x0 (M) but bank0 tracks Excl(core0) with stash=false",
            "I4: B0x1 cached privately but not resident in bank1's LLC",
            "I5: core2 holds B0x2 (E) at version 0, latest is 1",
            "I1: core1 holds B0x5 in E but bank1 tracks it as Shared{1,2}",
            "I4: bank1 tracks B0x1 without an LLC line",
            "stash: B0x3 has a stash bit under a non-stash directory",
            "stash: B0x3 is tracked yet keeps its stash bit set",
            "I5: latest version 1 of B0x2 is unreachable (lost write)",
            "I5: latest version 2 of B0x7 is unreachable (lost write)",
        ];
        assert_eq!(check(&m, true), expected);
    }

    #[test]
    fn detects_exclusive_copy_tracked_as_shared() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        let mut sharers = stashdir_common::SharerSet::new(4);
        sharers.insert(CoreId::new(0));
        sharers.insert(CoreId::new(1));
        m.banks[home.index()].dir_install(BlockAddr::new(0), DirView::Shared(sharers));
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.contains("tracks it as")),
            "{problems:?}"
        );
    }

    /// The check as it was before it walked resident state bank-major:
    /// copies in address order, LLC and directory read through cloning
    /// snapshots. Kept verbatim as the reference model for the
    /// differential property below, less its indexing lint directives,
    /// which test code does not need.
    mod reference {
        use crate::machine::Machine;
        use stashdir_common::{BlockAddr, CoreId, FxHashMap};
        use stashdir_protocol::{DirView, PrivState};

        /// One valid private copy: `(block, core, state, version)`.
        type PrivCopy = (BlockAddr, CoreId, PrivState, u64);

        pub fn check(machine: &Machine, final_check: bool) -> Vec<String> {
            let mut problems = Vec::new();
            let uses_stash = machine.config().dir.uses_stash();

            // Gather every valid private copy into one flat vector, core by core.
            let total: usize = machine.privs.iter().map(|h| h.l2_entries().count()).sum();
            let mut copies: Vec<PrivCopy> = Vec::with_capacity(total);
            for hier in &machine.privs {
                let core = hier.core();
                // I7: L1 ⊆ L2. L2 stores no Invalid line, so Invalid means absent.
                for l1_block in hier.l1_blocks() {
                    if hier.state_of(l1_block) == PrivState::Invalid {
                        problems.push(format!("I7: {core} holds {l1_block} in L1 but not L2"));
                    }
                }
                copies.extend(
                    hier.l2_entries()
                        .map(|(block, line)| (block, core, line.state, line.version)),
                );
            }
            // Block order, so violation messages do not depend on cache layout —
            // checker output feeds failure reports. A core holds a block once,
            // so `(block, core)` is unique: the unstable sort keeps each block's
            // copies in core order, as a stable sort by block would, without
            // the stable sort's scratch buffer.
            copies.sort_unstable_by_key(|&(block, core, _, _)| (block, core));

            for holders in copies.chunk_by(|a, b| a.0 == b.0) {
                let Some(&(block, ..)) = holders.first() else {
                    continue;
                };
                let home = machine.home(block);
                let bank = &machine.banks[home.index()];
                // The entry may live away from the home (opaque sharding).
                let view = machine.banks[machine.dir_bank_of(block).index()].dir_view(block);
                let stash = bank.stash_bit(block);
                let llc_resident = bank.llc_peek(block).is_some();

                // I3: single writer.
                let exclusive = || {
                    holders
                        .iter()
                        .filter(|(_, _, s, _)| s.is_exclusive())
                        .map(|&(_, c, _, _)| c)
                };
                if exclusive().nth(1).is_some() {
                    let exclusive_holders: Vec<CoreId> = exclusive().collect();
                    problems.push(format!(
                        "I3: {block} has multiple exclusive holders: {exclusive_holders:?}"
                    ));
                }
                if let Some(first) = exclusive().next() {
                    if holders.len() > 1 {
                        problems.push(format!(
                            "I3: {block} has an exclusive copy at {first} alongside {} other copies",
                            holders.len() - 1
                        ));
                    }
                }

                // I4: LLC inclusion.
                if !llc_resident {
                    problems.push(format!(
                        "I4: {block} cached privately but not resident in {home}'s LLC"
                    ));
                }

                // I1/I2: directory coverage per holder, plus state agreement.
                for &(_, core, state, _) in holders {
                    let covered = match &view {
                        DirView::Untracked => false,
                        DirView::Exclusive(owner) => *owner == core,
                        DirView::Shared(set) => set.contains(core),
                    };
                    let hidden = uses_stash && stash;
                    if !covered && !hidden {
                        problems.push(format!(
                            "I1/I2: {core} holds {block} ({state}) but {home} tracks {view} with stash={stash}"
                        ));
                    }
                    if covered && state.is_exclusive() && !matches!(view, DirView::Exclusive(_)) {
                        problems.push(format!(
                            "I1: {core} holds {block} in {state} but {home} tracks it as {view}"
                        ));
                    }
                }

                // I5: every valid copy holds the latest version.
                let latest = machine.values.latest(block);
                for &(_, core, state, version) in holders {
                    if version != latest {
                        problems.push(format!(
                            "I5: {core} holds {block} ({state}) at version {version}, latest is {latest}"
                        ));
                    }
                }
            }

            // Stash discipline + I5 reachability, scanned from the banks.
            for bank in &machine.banks {
                for (block, line) in bank.llc_entries() {
                    if line.stash {
                        if !uses_stash {
                            problems.push(format!(
                                "stash: {block} has a stash bit under a non-stash directory"
                            ));
                        }
                        if machine.banks[machine.dir_bank_of(block).index()].dir_view(block)
                            != DirView::Untracked
                        {
                            problems.push(format!(
                                "stash: {block} is tracked yet keeps its stash bit set"
                            ));
                        }
                    }
                }
                // Directory entries must point at resident LLC lines (inclusion
                // seen from the home side — an opaque shard tracks blocks homed at
                // *other* banks, so residence is checked at each block's home).
                for (block, _) in bank.dir_entries() {
                    if machine.banks[machine.home(block).index()]
                        .llc_peek(block)
                        .is_none()
                    {
                        problems.push(format!(
                            "I4: {} tracks {block} without an LLC line",
                            bank.id()
                        ));
                    }
                }
            }

            // I5 reachability: the latest version of every written block exists
            // somewhere.
            let mut wb_versions: FxHashMap<BlockAddr, u64> = FxHashMap::default();
            for hier in &machine.privs {
                for (block, entry) in hier.wb_entries() {
                    let best = wb_versions.entry(block).or_insert(0);
                    *best = (*best).max(entry.version);
                }
            }
            for (block, latest) in machine.values.written_blocks() {
                let in_copies = copies
                    .iter()
                    .skip(copies.partition_point(|c| c.0 < block))
                    .take_while(|c| c.0 == block)
                    .any(|c| c.3 == latest);
                let in_wb = wb_versions.get(&block).copied().unwrap_or(0) == latest;
                let in_llc = machine.banks[machine.home(block).index()]
                    .llc_peek(block)
                    .is_some_and(|l| l.version == latest);
                let in_dram = machine.dram_store.get(&block).copied().unwrap_or(0) == latest;
                if !(in_copies || in_wb || in_llc || in_dram) {
                    problems.push(format!(
                        "I5: latest version {latest} of {block} is unreachable (lost write)"
                    ));
                }
            }

            // I6: liveness (final only).
            if final_check {
                let cores = &machine.cores;
                for (i, (((pc, trace), pending), finish)) in cores
                    .pc
                    .iter()
                    .zip(&cores.trace)
                    .zip(&cores.pending)
                    .zip(&cores.finish)
                    .enumerate()
                {
                    if *pc < trace.len() || pending.is_some() || finish.is_none() {
                        problems.push(format!(
                            "I6: core{i} did not retire its trace (pc {}/{}, pending={})",
                            pc,
                            trace.len(),
                            pending.is_some()
                        ));
                    }
                }
                for hier in &machine.privs {
                    if hier.has_parked_writebacks() {
                        problems.push(format!(
                            "I6: {} still has parked writebacks at end of run",
                            hier.core()
                        ));
                    }
                }
            }

            problems
        }
    }

    /// Every registered backend, bounded ones under coverage pressure
    /// (the list `tests/checker_props.rs` keeps complete).
    fn every_backend() -> Vec<DirSpec> {
        vec![
            DirSpec::FullMap,
            DirSpec::sparse(CoverageRatio::new(1, 2)),
            DirSpec::stash(CoverageRatio::new(1, 8)),
            DirSpec::Cuckoo {
                coverage: CoverageRatio::new(1, 2),
            },
            DirSpec::limited_ptr(CoverageRatio::new(1, 2), 1),
            DirSpec::Dls,
            DirSpec::opaque(CoverageRatio::new(1, 2)),
        ]
    }

    /// One way to damage a machine; the `usize` picks the target among
    /// the candidates, modulo their number.
    #[derive(Debug, Clone, Copy)]
    enum Corruption {
        DropLlcLine(usize),
        FlipSharer(usize, u16),
        SpuriousStash(usize),
        StaleVersion(usize),
        L1WithoutL2(usize),
        LostWrite(u16, usize),
        /// A core conjures a Modified copy of an LLC-resident block.
        ExtraOwner(u16, usize),
    }

    fn corruption() -> impl Strategy<Value = Corruption> {
        let pick = || 0usize..1 << 16;
        prop_oneof![
            pick().prop_map(Corruption::DropLlcLine),
            (pick(), 0u16..4).prop_map(|(i, c)| Corruption::FlipSharer(i, c)),
            pick().prop_map(Corruption::SpuriousStash),
            pick().prop_map(Corruption::StaleVersion),
            pick().prop_map(Corruption::L1WithoutL2),
            (0u16..4, pick()).prop_map(|(c, i)| Corruption::LostWrite(c, i)),
            (0u16..4, pick()).prop_map(|(c, i)| Corruption::ExtraOwner(c, i)),
        ]
    }

    /// The `i`-th of `items`, modulo their number.
    fn nth<T: Copy>(items: &[T], i: usize) -> Option<T> {
        (!items.is_empty()).then(|| items[i % items.len()])
    }

    /// Applies `damage` to `m`; a corruption with no candidate does
    /// nothing.
    fn corrupt(m: &mut Machine, damage: Corruption) {
        let llc_lines: Vec<BlockAddr> = m
            .banks
            .iter()
            .flat_map(|b| b.llc_lines().map(|(block, _)| block))
            .collect();
        match damage {
            Corruption::DropLlcLine(i) => {
                if let Some(block) = nth(&llc_lines, i) {
                    let home = m.home(block);
                    m.banks[home.index()].llc_remove(block);
                }
            }
            Corruption::SpuriousStash(i) => {
                if let Some(block) = nth(&llc_lines, i) {
                    let home = m.home(block);
                    m.banks[home.index()].set_stash_bit(block, true);
                }
            }
            Corruption::FlipSharer(i, core) => {
                let entries: Vec<(usize, BlockAddr)> = (0..m.banks.len())
                    .flat_map(|b| {
                        m.banks[b]
                            .dir_tracked()
                            .map(move |(block, _)| (b, block))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                let Some((b, block)) = nth(&entries, i) else {
                    return;
                };
                let core = CoreId::new(core);
                let bank = &mut m.banks[b];
                let mut sharers = match bank.dir_view(block) {
                    DirView::Untracked => return,
                    DirView::Exclusive(owner) => {
                        let mut set = stashdir_common::SharerSet::new(4);
                        set.insert(owner);
                        set
                    }
                    DirView::Shared(set) => set,
                };
                if sharers.contains(core) {
                    sharers.remove(core);
                } else {
                    sharers.insert(core);
                }
                if sharers.is_empty() {
                    bank.dir_remove(block);
                } else {
                    let _ = bank.dir_install(block, DirView::Shared(sharers));
                }
            }
            Corruption::StaleVersion(i) => {
                let copies: Vec<(usize, BlockAddr)> = (0..m.privs.len())
                    .flat_map(|c| {
                        m.privs[c]
                            .l2_entries()
                            .map(move |(block, _)| (c, block))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                if let Some((c, block)) = nth(&copies, i) {
                    if let Some(line) = m.privs[c].l2_line_mut(block) {
                        line.version ^= 1;
                    }
                }
            }
            Corruption::L1WithoutL2(i) => {
                let l1: Vec<(usize, BlockAddr)> = (0..m.privs.len())
                    .flat_map(|c| {
                        m.privs[c]
                            .l1_blocks()
                            .map(move |block| (c, block))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                if let Some((c, block)) = nth(&l1, i) {
                    m.privs[c].drop_l2_line(block);
                }
            }
            Corruption::ExtraOwner(core, i) => {
                let hier = &mut m.privs[core as usize];
                if let Some(block) = nth(&llc_lines, i) {
                    if hier.state_of(block) == PrivState::Invalid {
                        let _ = hier.fill(block, Grant::Modified, 0);
                    }
                }
            }
            Corruption::LostWrite(core, i) => {
                let trace = &m.cores.trace[core as usize];
                if let Some(op) = nth(&(0..trace.len()).collect::<Vec<_>>(), i) {
                    let block = trace[op].block;
                    m.values.on_write(CoreId::new(core), op, block);
                }
            }
        }
    }

    /// One core's trace over 24 blocks, three times the 8-block L2s, so
    /// replacements, discovery and directory evictions all happen.
    fn trace() -> impl Strategy<Value = Vec<MemOp>> {
        prop::collection::vec(
            (0u64..24, prop::bool::ANY).prop_map(|(b, w)| {
                if w {
                    MemOp::write(BlockAddr::new(b))
                } else {
                    MemOp::read(BlockAddr::new(b))
                }
            }),
            0..48,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On every backend and L2 geometry, stopped anywhere in a
        /// random run and damaged in any of seven ways, the machine gets
        /// exactly the reference's messages, in the reference's order,
        /// with and without the liveness checks.
        #[test]
        fn bank_major_check_matches_the_reference(
            traces in prop::collection::vec(trace(), 4),
            events in 0usize..600,
            damage in prop::collection::vec(corruption(), 0..4),
        ) {
            for l2 in L2_GEOMETRIES {
                for dir in every_backend() {
                    let mut m = machine_with(dir, l2);
                    m.run_events(traces.clone(), events);
                    for &d in &damage {
                        corrupt(&mut m, d);
                    }
                    for final_check in [false, true] {
                        prop_assert_eq!(
                            check(&m, final_check),
                            reference::check(&m, final_check),
                            "{} with L2 {:?} after {} events, {:?}, final={}",
                            dir, l2, events, damage, final_check
                        );
                    }
                }
            }
        }
    }
}
