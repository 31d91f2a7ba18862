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

use crate::machine::Machine;
use stashdir_common::{BlockAddr, CoreId, FxHashMap};
use stashdir_protocol::{DirView, PrivState};

/// One valid private copy: `(block, core, state, version)`.
type PrivCopy = (BlockAddr, CoreId, PrivState, u64);

/// Runs every invariant over `machine`, returning human-readable
/// violation descriptions (empty = clean). `final_check` additionally
/// verifies liveness (I6).
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
        // lint: allow(indexing) — `home()`/`dir_bank_of()` return in-range BankIds.
        let bank = &machine.banks[home.index()];
        // The entry may live away from the home (opaque sharding).
        // lint: allow(indexing) — `dir_bank_of()` returns an in-range BankId.
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
                // lint: allow(indexing) — `dir_bank_of()` returns an in-range BankId.
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
            // lint: allow(indexing) — `home()` returns an in-range BankId.
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
        // lint: allow(indexing) — `home()` returns an in-range BankId.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::LlcLine;
    use crate::config::{CoverageRatio, DirSpec, SystemConfig};
    use crate::machine::Machine;
    use crate::values::ValueTracker;
    use stashdir_common::{BlockAddr, MemOp};
    use stashdir_protocol::Grant;

    /// A fresh, empty machine whose state the tests corrupt by hand.
    fn machine(dir: DirSpec) -> Machine {
        use stashdir_mem::{CacheConfig, ReplKind};
        let cfg = SystemConfig {
            cores: 4,
            l1: CacheConfig::new(256, 2, 64, 1, ReplKind::Lru),
            l2: CacheConfig::new(512, 2, 64, 4, ReplKind::Lru),
            llc_bank: CacheConfig::new(1024, 2, 64, 8, ReplKind::Lru),
            dir,
            ..SystemConfig::default()
        };
        Machine::new(cfg)
    }

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
}
