//! The home node's protocol handlers: puts, demands (with stash
//! discovery and the DLS remote-access path), LLC residency and
//! eviction, and the enactment of directory evictions. Every probe the
//! home sends goes through `Machine::exchange`.

// lint: allow-file(indexing) — banks/bank_free/privs/cores are
// fixed-size vectors indexed by CoreId/BankId produced by the
// config-bounded topology, so the bounds hold by construction.

use super::{BankMsg, Machine};
use crate::bank::LlcLine;
use crate::fault::FaultClass;
use crate::private::ProbeAnswer;
use stashdir_common::{BankId, BlockAddr, CoreId, Cycle, MemOpKind, SharerSet};
use stashdir_core::EvictionAction;
use stashdir_protocol::{
    decide, decide_put, discovery_intent, discovery_targets, needs_discovery, DirView,
    DiscoveryIntent, Grant, PrivState, Probe, ProbeReply, PutOutcome, Request, CONTROL_FLITS,
    DATA_FLITS,
};

impl Machine {
    /// One probe round trip: sends `probe` from `bank` to `target`,
    /// applies it there and sends the reply back. Returns the answer
    /// with the probe's and the reply's arrival times.
    fn exchange(
        &mut self,
        bank: BankId,
        target: CoreId,
        block: BlockAddr,
        probe: Probe,
        t: Cycle,
    ) -> (ProbeAnswer, Cycle, Cycle) {
        let probe_arr = self.deliver(bank.node(), target.node(), probe.flits(), probe.class(), t);
        let ans = self.probe_with_witness(target, block, probe);
        let rep_arr = self.deliver(
            target.node(),
            bank.node(),
            ans.reply.flits(),
            ans.reply.class(),
            probe_arr,
        );
        (ans, probe_arr, rep_arr)
    }

    /// Invalidates every holder in `view` from `bank`: a Recall to an
    /// exclusive owner, an Inv to each sharer. Dirty replies are written
    /// through to the block's home LLC line. Returns when the last reply
    /// is back (`t` when nobody holds a copy) and how many holders were
    /// probed.
    fn invalidate_holders(
        &mut self,
        bank: BankId,
        block: BlockAddr,
        view: &DirView,
        t: Cycle,
    ) -> (Cycle, u64) {
        let probe = match view {
            DirView::Exclusive(_) => Probe::Recall,
            _ => Probe::Inv,
        };
        let holders = view.holders();
        let home = self.home(block);
        let mut done = t;
        for &holder in &holders {
            let (ans, _, rep_arr) = self.exchange(bank, holder, block, probe, t);
            done = done.max(rep_arr);
            if ans.reply == ProbeReply::AckDirtyData {
                self.banks[home.index()].write_through(block, ans.version);
            }
        }
        (done, holders.len() as u64)
    }

    /// Charges the home↔directory-bank indirection when `block`'s entry
    /// lives away from its home (opaque sharding only): a control round
    /// trip with directory-bank serialization. Returns when the reply is
    /// back at the home — exactly `t` for home-placed entries, so every
    /// other organization is untouched.
    fn consult_dir_bank(&mut self, bank_id: BankId, dir_bank: BankId, t: Cycle) -> Cycle {
        if dir_bank == bank_id {
            if self.cfg.dir.is_opaque() {
                self.banks[dir_bank.index()]
                    .backend
                    .dir_bank_accesses
                    .incr();
            }
            return t;
        }
        let req_arr = self.deliver(bank_id.node(), dir_bank.node(), CONTROL_FLITS, "dir", t);
        let free = &mut self.bank_free[dir_bank.index()];
        let start = req_arr.max(*free);
        *free = start + self.cfg.bank_occupancy;
        self.banks[dir_bank.index()]
            .backend
            .dir_bank_accesses
            .incr();
        let rep_arr = self.deliver(
            dir_bank.node(),
            bank_id.node(),
            CONTROL_FLITS,
            "dir",
            start + self.cfg.dir_latency,
        );
        self.banks[bank_id.index()].backend.indirection_hops.add(2);
        rep_arr
    }

    pub(super) fn process_put(&mut self, msg: BankMsg, now: Cycle) {
        let bank_id = self.home(msg.block);
        let free = self.bank_free[bank_id.index()];
        let mut t = now.max(free).max(self.block_busy_until(msg.block)) + self.cfg.dir_latency;
        self.bank_free[bank_id.index()] = t.max(free) + self.cfg.bank_occupancy;
        self.hold_block(msg.block, t);

        let dir_bank = self.dir_bank_of(msg.block);
        t = self.consult_dir_bank(bank_id, dir_bank, t);
        let view = self.banks[dir_bank.index()].dir_view(msg.block);
        let wb = self.privs[msg.from.index()].wb_take(msg.block);
        self.witness_home(msg.req, &view);
        match decide_put(msg.req, msg.from, &view) {
            PutOutcome::Accept {
                new_view,
                writeback,
            } => {
                if writeback {
                    self.banks[bank_id.index()].write_through(msg.block, msg.version);
                }
                let bank = &mut self.banks[dir_bank.index()];
                match new_view {
                    DirView::Untracked => bank.dir_remove(msg.block),
                    v => {
                        let action = bank.dir_install(msg.block, v);
                        debug_assert!(action.is_none(), "shrinking update never evicts");
                    }
                }
            }
            PutOutcome::Stale => {
                let bank = &mut self.banks[bank_id.index()];
                let unclaimed = wb.is_some_and(|e| !e.claimed);
                if view == DirView::Untracked && bank.stash_bit(msg.block) && unclaimed {
                    // The hidden owner's own eviction: nothing intervened
                    // since the entry was stashed (the parked data was
                    // never claimed), so the put is authoritative. Accept
                    // the data and clear the stash bit — the hidden copy
                    // is gone.
                    if msg.req == Request::PutM {
                        bank.write_through(msg.block, msg.version);
                        bank.stats.hidden_writebacks.incr();
                    }
                    bank.set_stash_bit(msg.block, false);
                } else {
                    bank.stats.stale_puts.incr();
                }
            }
        }
        // Put acknowledgement (traffic accounting; the parked entry was
        // already released in program order above).
        let bank_node = bank_id.node();
        self.deliver(bank_node, msg.from.node(), CONTROL_FLITS, "ack", t);
    }

    pub(super) fn process_demand(&mut self, msg: BankMsg, now: Cycle) {
        let bank_id = self.home(msg.block);
        let requester = msg.from;
        let block = msg.block;

        // I8 (runtime, faulty runs): every demand must match a pending
        // operation at its requester. A duplicated or spurious message
        // fails this; detect and quiesce instead of corrupting state or
        // panicking mid-handler.
        if self.faults.is_some() {
            let matches_pending =
                self.cores.pending[requester.index()].is_some_and(|op| op.block == block);
            if !matches_pending {
                self.values.report(format!(
                    "I8: {requester} has no pending op for {block} yet its {:?} reached the home (duplicated or spurious message)",
                    msg.req
                ));
                self.detect_invariant(now, "spurious_demand");
                return;
            }
        }

        // StuckTransient: the per-block busy window sticks far in the
        // future, so this transaction cannot serialize in bounded time —
        // the requester's completion lands past the watchdog bound.
        if self.roll_fault(FaultClass::StuckTransient, now) {
            let stuck = self.faults.as_ref().map_or(0, |p| p.config().stuck_cycles);
            self.hold_block(block, now + stuck);
            if let Some(plan) = self.faults.as_mut() {
                plan.record_injection(FaultClass::StuckTransient);
            }
        }

        // Serialize: per-block window plus bank pipeline occupancy.
        let free = self.bank_free[bank_id.index()];
        let start = now.max(free).max(self.block_busy_until(block));
        self.bank_free[bank_id.index()] = start + self.cfg.bank_occupancy;
        let mut t = start + self.cfg.dir_latency;

        // DLS keeps no directory entries; its demand path is different
        // enough (remote shared accesses, forever-shared reclassification)
        // to live apart.
        if self.cfg.dir.is_dls() {
            self.process_demand_dls(msg, t);
            return;
        }

        // Opaque sharding: the entry lives at the opaque bank, an
        // indirection hop away from the home for most blocks.
        let dir_bank = self.dir_bank_of(block);
        t = self.consult_dir_bank(bank_id, dir_bank, t);
        let mut view = self.banks[dir_bank.index()].dir_view(block);

        // Stash discovery: directory miss + stash bit set.
        if self.cfg.dir.uses_stash()
            && needs_discovery(&view, self.banks[bank_id.index()].stash_bit(block))
        {
            let intent = discovery_intent(msg.req);
            // GetS/GetM requesters cannot be the hidden owner (they hold
            // nothing), but an Upgrade requester holds an S copy that may
            // itself be the hidden one (a silently dropped single-sharer
            // entry) — it must be probed too, so the write invalidates it
            // and refetches cleanly.
            let exclude = (msg.req != Request::Upgrade).then_some(requester);
            let (hit, t_done) = self.run_discovery(bank_id, block, intent, exclude, t);
            self.discovery_latency.record(t_done - t);
            t = t_done;
            let bank = &mut self.banks[bank_id.index()];
            bank.set_stash_bit(block, false);
            bank.stats.discoveries.incr();
            match hit {
                Some((owner, found)) => {
                    bank.stats.discoveries_found.incr();
                    if found.reply == ProbeReply::AckDirtyData {
                        bank.write_through(block, found.version);
                    }
                    if intent == DiscoveryIntent::Share && found.retained {
                        // Re-learned: the hidden holder keeps a Shared copy.
                        view = DirView::Shared(SharerSet::singleton(self.cfg.cores, owner));
                    }
                }
                None => bank.stats.discoveries_stale.incr(),
            }
        }

        self.witness_home(msg.req, &view);
        let mut outcome = decide(msg.req, requester, &view, self.cfg.cores);
        // An overflowed limited-pointer set claims *every* core, so the
        // home cannot see that this upgrader's copy was invalidated while
        // its request sat behind other transactions on the block (precise
        // formats prune the requester from the set, and `decide` takes
        // the needs-data path). Real limited-pointer protocols catch the
        // crossed Inv at the requester and reissue the upgrade as a full
        // GetM; model the outcome of that retry by shipping data with
        // the grant.
        if msg.req == Request::Upgrade
            && !outcome.needs_data
            && self.privs[requester.index()].state_of(block) == PrivState::Invalid
        {
            outcome.needs_data = true;
        }

        // Probe phase: forwards and invalidations.
        let mut t_acks = t;
        let mut data_at_req: Option<(Cycle, u64)> = None;
        let mut owner_retained = false;
        let mut had_fwdgets = false;
        if !outcome.probes.is_empty() {
            self.inv_round_size.record(outcome.probes.len() as u64);
        }
        for &(target, probe) in &outcome.probes {
            let (ans, probe_arr, rep_arr) = self.exchange(bank_id, target, block, probe, t);
            t_acks = t_acks.max(rep_arr);
            if ans.reply.has_data() {
                if ans.reply == ProbeReply::AckDirtyData {
                    // Owner's dirty data is written through to the LLC.
                    self.banks[bank_id.index()].write_through(block, ans.version);
                }
                // Three-hop: data goes straight to the requester too.
                let data_arr = self.deliver(
                    target.node(),
                    requester.node(),
                    DATA_FLITS,
                    "data",
                    probe_arr,
                );
                data_at_req = Some((data_arr, ans.version));
            }
            if matches!(probe, Probe::FwdGetS) {
                had_fwdgets = true;
                owner_retained = ans.retained;
            }
        }

        // Data phase: LLC (or DRAM) when no owner supplied data.
        if outcome.needs_data && data_at_req.is_none() {
            let (ready, t_protocol, version) = self.llc_read(bank_id, block, t);
            t_acks = t_acks.max(t_protocol);
            let arr = self.deliver(
                bank_id.node(),
                requester.node(),
                DATA_FLITS,
                "data",
                ready.max(t_acks),
            );
            data_at_req = Some((arr, version));
        } else if self.banks[bank_id.index()].llc_peek(block).is_some() {
            // Owner-supplied data or data-less upgrade: the LLC line is
            // touched (writeback / tag check) but supplies nothing.
            self.banks[bank_id.index()].llc_access(block);
            self.banks[bank_id.index()].llc_stats.hits.incr();
        }

        // Directory update, reconciled against what the probes learned.
        let final_view =
            reconcile_view(outcome.new_view, requester, had_fwdgets && !owner_retained);
        let t_evict = match final_view {
            DirView::Untracked => {
                self.banks[dir_bank.index()].dir_remove(block);
                t
            }
            v => {
                let action = self.banks[dir_bank.index()].dir_install(block, v);
                self.enact_dir_eviction(dir_bank, action, t)
            }
        };
        t_acks = t_acks.max(t_evict);
        debug_assert!(
            !self.banks[bank_id.index()].stash_bit(block),
            "tracked blocks never keep a stash bit"
        );

        // Completion at the requester.
        let (grant_arrival, data_version) = match data_at_req {
            Some((arr, v)) => (arr.max(t_acks), v),
            None => {
                // Data-less upgrade: a control grant once acks collected.
                let arr = self.deliver(
                    bank_id.node(),
                    requester.node(),
                    CONTROL_FLITS,
                    "ack",
                    t_acks,
                );
                (arr, 0)
            }
        };
        let fill_done = grant_arrival + self.cfg.l2.latency;
        // DropGrant: the grant/fill vanishes in flight after the home
        // finished its side; the requester keeps its pending operation
        // forever (I6 at final check, or the watchdog on long runs).
        if self.roll_fault(FaultClass::DropGrant, fill_done) {
            if let Some(plan) = self.faults.as_mut() {
                plan.record_injection(FaultClass::DropGrant);
            }
            self.hold_block(block, fill_done);
            return;
        }
        self.complete_demand(
            requester,
            msg.req,
            outcome.grant,
            outcome.needs_data,
            data_version,
            fill_done,
        );
        self.retire_miss(requester, block, fill_done);
    }

    /// DLS demand handling (directoryless). The first toucher of a block
    /// owns it (an unbounded owner-map entry, zero directory SRAM) and
    /// fills its private cache; the moment a *second* core touches the
    /// block, the owner's copy is recalled and the block is reclassified
    /// shared **forever** — every later access is served at the home LLC
    /// with no private fill. That remote-access stream is the cost DLS
    /// trades its directory storage for, and what E18 measures.
    ///
    /// `t` already includes the home-bank serialization and the
    /// classification lookup (page-table metadata, charged like a
    /// directory access).
    fn process_demand_dls(&mut self, msg: BankMsg, t: Cycle) {
        let bank_id = self.home(msg.block);
        let requester = msg.from;
        let block = msg.block;
        let mut t = t;

        // Second-core touch on a private block: recall the owner's copy,
        // then fall through to the shared (remote) path.
        if !self.dls_shared.contains(&block) {
            let view = self.banks[bank_id.index()].dir_view(block);
            if matches!(view, DirView::Exclusive(owner) if owner != requester) {
                (t, _) = self.invalidate_holders(bank_id, block, &view, t);
                let bank = &mut self.banks[bank_id.index()];
                bank.dir_remove(block);
                bank.backend.dls_reclassifications.incr();
                self.dls_shared.insert(block);
            }
        }

        let (ready, _t_protocol, version) = self.llc_read(bank_id, block, t);

        if self.dls_shared.contains(&block) {
            // Remote access: the op completes at the home LLC. Reads ship
            // the data back; writes update the line in place and return a
            // control ack.
            self.banks[bank_id.index()]
                .backend
                .remote_llc_accesses
                .incr();
            let op = self.cores.pending[requester.index()]
                .take()
                // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
                .expect("demand completion matches a pending op");
            debug_assert_eq!(op.block, block);
            let done = match op.kind {
                MemOpKind::Read => {
                    self.values.on_read(requester, block, version);
                    self.deliver(bank_id.node(), requester.node(), DATA_FLITS, "data", ready)
                }
                MemOpKind::Write => {
                    let v = self.values.on_write(requester, block);
                    self.banks[bank_id.index()].write_through(block, v);
                    self.deliver(
                        bank_id.node(),
                        requester.node(),
                        CONTROL_FLITS,
                        "ack",
                        ready,
                    )
                }
            };
            self.cores.ops_done[requester.index()] += 1;
            self.retire_miss(requester, block, done);
            return;
        }

        // Private path (first toucher, or the owner refetching after its
        // own eviction): grant the whole block exclusively.
        let action = self.banks[bank_id.index()].dir_install(block, DirView::Exclusive(requester));
        debug_assert!(action.is_none(), "the DLS owner map never evicts");
        let grant = if msg.req == Request::GetS {
            Grant::Exclusive
        } else {
            Grant::Modified
        };
        let arr = self.deliver(bank_id.node(), requester.node(), DATA_FLITS, "data", ready);
        let fill_done = arr + self.cfg.l2.latency;
        self.complete_demand(requester, msg.req, grant, true, version, fill_done);
        self.retire_miss(requester, block, fill_done);
    }

    /// Reads `block` at `bank_id`'s LLC, first fetching it from DRAM
    /// (evicting an LLC victim, with its protocol side effects) when it
    /// is not resident. Returns `(data_ready, protocol_done, version)`.
    fn llc_read(&mut self, bank_id: BankId, block: BlockAddr, t: Cycle) -> (Cycle, Cycle, u64) {
        let (ready, t_protocol) = if self.banks[bank_id.index()].llc_peek(block).is_some() {
            self.banks[bank_id.index()].llc_stats.hits.incr();
            (t + self.cfg.llc_bank.latency, t)
        } else {
            self.banks[bank_id.index()].llc_stats.misses.incr();
            let mut t_protocol = t;
            // Make room first: the victim's eviction is a protocol action.
            if let Some(victim) = self.banks[bank_id.index()].llc_victim_for(block) {
                t_protocol = self.evict_llc_line(bank_id, victim, t);
            }
            // Fetch.
            let ready = self.dram.access(block, t + self.cfg.llc_bank.latency);
            let version = self.dram_store.get(&block).copied().unwrap_or(0);
            self.banks[bank_id.index()].llc_insert(
                block,
                LlcLine {
                    version,
                    dirty: false,
                    stash: false,
                },
            );
            (ready.max(t_protocol), t_protocol)
        };
        let version = self.banks[bank_id.index()]
            .llc_access(block)
            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
            .expect("just made resident")
            .version;
        (ready, t_protocol, version)
    }

    /// Evicts `victim` from the LLC, recalling or discovering any cached
    /// copies (inclusion), writing dirty data back to DRAM. Returns when
    /// the protocol actions complete.
    fn evict_llc_line(&mut self, bank_id: BankId, victim: BlockAddr, t: Cycle) -> Cycle {
        // The victim's entry may live at an opaque bank; consult (and
        // later clear) it there.
        let dir_bank = self.dir_bank_of(victim);
        let t = self.consult_dir_bank(bank_id, dir_bank, t);
        let view = self.banks[dir_bank.index()].dir_view(victim);
        let mut t_done = t;
        match &view {
            DirView::Untracked if self.banks[bank_id.index()].stash_bit(victim) => {
                // A hidden copy may exist: discovery-invalidate round.
                let (hit, done) =
                    self.run_discovery(bank_id, victim, DiscoveryIntent::Invalidate, None, t);
                t_done = done;
                let bank = &mut self.banks[bank_id.index()];
                bank.stats.evict_discoveries.incr();
                if let Some((_, found)) = hit {
                    if found.reply == ProbeReply::AckDirtyData {
                        bank.write_through(victim, found.version);
                    }
                    bank.stats.inclusion_invalidations.incr();
                }
            }
            DirView::Untracked => {}
            tracked => {
                // Recall every copy (inclusion requires it).
                let probed;
                (t_done, probed) = self.invalidate_holders(bank_id, victim, tracked, t);
                self.banks[dir_bank.index()].dir_remove(victim);
                let bank = &mut self.banks[bank_id.index()];
                bank.stats.llc_recalls.incr();
                bank.stats.inclusion_invalidations.add(probed);
            }
        }
        let bank = &mut self.banks[bank_id.index()];
        let line = bank
            .llc_remove(victim)
            // lint: allow(expect) — protocol invariant; a miss here is a coherence bug the checker must surface, not a recoverable state.
            .expect("victim is resident");
        bank.llc_stats.evictions.incr();
        if line.dirty {
            bank.llc_stats.writebacks.incr();
            self.dram_store.insert(victim, line.version);
            // Posted write: occupies a DRAM channel but nothing waits.
            self.dram.access(victim, t_done);
        }
        t_done
    }

    /// Enacts a directory-eviction action returned by an install: sets the
    /// stash bit for silent victims, invalidates the holders of
    /// conventional victims. Returns when the action's probes complete.
    ///
    /// `bank_id` is the bank whose slice evicted — the victim's home for
    /// every organization except opaque, whose shards evict blocks homed
    /// at *other* banks; the victim's stash bit and LLC data always live
    /// at `home(victim)`.
    fn enact_dir_eviction(&mut self, bank_id: BankId, action: EvictionAction, t: Cycle) -> Cycle {
        match action {
            EvictionAction::None => t,
            EvictionAction::Silent { block, .. } => {
                // The stash mechanism: remember a hidden copy may exist.
                let home = self.home(block);
                self.banks[home.index()].set_stash_bit(block, true);
                t
            }
            EvictionAction::Invalidate { block, view } => {
                let (t_done, probed) = self.invalidate_holders(bank_id, block, &view, t);
                self.banks[bank_id.index()]
                    .stats
                    .dir_eviction_probes
                    .add(probed);
                t_done
            }
        }
    }

    /// Runs a discovery broadcast for `block`, probing every core except
    /// `exclude`. Returns the hit, the hidden holder with its answer (at
    /// most one core holds a hidden copy), and the *conclusive* time: since a hidden copy is unique, the home
    /// proceeds as soon as the positive reply arrives, letting the
    /// trailing not-present replies drain off the critical path. Only a
    /// fully negative round (stale stash bit) must wait for every reply.
    fn run_discovery(
        &mut self,
        bank_id: BankId,
        block: BlockAddr,
        intent: DiscoveryIntent,
        exclude: Option<CoreId>,
        t: Cycle,
    ) -> (Option<(CoreId, ProbeAnswer)>, Cycle) {
        let probe = Probe::Discovery(intent);
        let mut t_all = t;
        let mut t_positive = None;
        let mut hit = None;
        for target in discovery_targets(self.cfg.cores, exclude) {
            let (ans, _, rep_arr) = self.exchange(bank_id, target, block, probe, t);
            t_all = t_all.max(rep_arr);
            if ans.reply != ProbeReply::NotPresent {
                debug_assert!(hit.is_none(), "at most one hidden copy of {block}");
                t_positive = Some(rep_arr);
                hit = Some((target, ans));
            }
        }
        (hit, t_positive.unwrap_or(t_all))
    }
}

/// Adjusts the decide()-planned view against what probes actually found:
/// a forwarded-to owner that had concurrently evicted does not become a
/// sharer. `owner_gone` is true only when a `FwdGetS` was sent and its
/// target reported no retained copy.
fn reconcile_view(planned: DirView, requester: CoreId, owner_gone: bool) -> DirView {
    match planned {
        DirView::Shared(set) if owner_gone => {
            DirView::Shared(SharerSet::singleton(set.capacity(), requester))
        }
        v => v,
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{CoverageRatio, DirSpec};
    use crate::machine::tests::{no_ops, run, tiny};
    use stashdir_common::{BlockAddr, MemOp};
    use stashdir_core::DirReplPolicy;

    #[test]
    fn sparse_conflicts_invalidate_but_stash_conflicts_do_not() {
        // Working set far beyond a 1-set directory slice: every core
        // streams over its own private blocks, thrashing the directory.
        let mk_traces = || {
            let mut traces = no_ops(4);
            for (c, trace) in traces.iter_mut().enumerate() {
                for round in 0..4 {
                    for i in 0..32u64 {
                        let block = BlockAddr::new(1000 + c as u64 * 512 + i * 4);
                        let _ = round;
                        trace.push(MemOp::read(block));
                    }
                }
            }
            traces
        };
        let tiny_dir = |spec| tiny(spec);
        let sparse = run(
            tiny_dir(DirSpec::Sparse {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::Lru,
            }),
            mk_traces(),
        );
        let stash = run(
            tiny_dir(DirSpec::Stash {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::PrivateFirstLru,
            }),
            mk_traces(),
        );
        assert!(
            sparse.stat("dir.copies_invalidated") > 0.0,
            "sparse under-provisioning must force invalidations"
        );
        assert_eq!(
            stash.stat("dir.copies_invalidated"),
            0.0,
            "all-private workload: stash evicts silently"
        );
        assert!(stash.stat("dir.silent_evictions") > 0.0);
    }

    #[test]
    fn hidden_blocks_are_rediscovered() {
        // Core 0 loads private blocks that overflow a 1-entry-per-set
        // stash directory (hiding most of them); then core 1 reads the
        // same blocks, which must trigger discovery, not stale data.
        let blocks: Vec<BlockAddr> = (0..16).map(|i| BlockAddr::new(100 + i * 4)).collect();
        let mut traces = no_ops(4);
        for &b in &blocks {
            traces[0].push(MemOp::write(b));
        }
        for &b in &blocks {
            traces[1].push(MemOp::read(b).with_think(5000));
        }
        let report = run(
            tiny(DirSpec::Stash {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::PrivateFirstLru,
            }),
            traces,
        );
        assert!(
            report.stat("bank.discoveries") > 0.0,
            "hidden dirty blocks must be discovered"
        );
        assert!(report.stat("bank.discoveries_found") > 0.0);
    }

    #[test]
    fn llc_eviction_recalls_private_copies() {
        // Three cores each pin one block of LLC bank 0's set 0 (2 ways)
        // in their L2s; the third fill must evict a line that is still
        // privately cached, forcing an inclusion recall.
        let mut traces = no_ops(4);
        for (c, trace) in traces.iter_mut().enumerate().take(3) {
            // Bank 0 blocks (multiple of 4) in the same LLC set:
            // local = block >> 2 in {0, 8, 16} ≡ 0 (mod 8 sets).
            let block = BlockAddr::new(c as u64 * 32);
            trace.push(MemOp::read(block).with_think(500 * c as u32));
            // Keep the core busy so its copy stays resident.
            trace.push(MemOp::read(block).with_think(5000));
        }
        let report = run(tiny(DirSpec::FullMap), traces);
        assert!(report.stat("llc.evictions") > 0.0);
        assert!(
            report.stat("bank.llc_recalls") > 0.0,
            "LLC inclusion must recall tracked copies"
        );
        assert!(report.stat("bank.inclusion_invalidations") > 0.0);
    }

    #[test]
    fn llc_eviction_of_stashed_line_runs_discovery() {
        // Hide blocks (stash dir with tiny slices), then stream enough
        // unrelated blocks through one bank to evict the stashed lines.
        let mut traces = no_ops(4);
        for i in 0..8u64 {
            traces[0].push(MemOp::write(BlockAddr::new(i * 4))); // bank 0
        }
        for i in 0..64u64 {
            traces[1].push(MemOp::read(BlockAddr::new(1024 + i * 4)).with_think(100));
            // bank 0
        }
        let report = run(
            tiny(DirSpec::Stash {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
                repl: DirReplPolicy::PrivateFirstLru,
            }),
            traces,
        );
        assert!(
            report.stat("bank.evict_discoveries") > 0.0,
            "evicting a stashed LLC line requires discovery"
        );
    }

    #[test]
    fn stash_keeps_performance_with_tiny_directory() {
        // Private streaming: stash at 1/8 must stay close to fullmap,
        // sparse at 1/8 must be slower.
        let mk_traces = || {
            let mut traces = no_ops(4);
            for (c, trace) in traces.iter_mut().enumerate() {
                for _round in 0..6 {
                    for i in 0..24u64 {
                        let block = BlockAddr::new(c as u64 * 4096 + i * 4);
                        trace.push(MemOp::read(block).with_think(2));
                    }
                }
            }
            traces
        };
        let full = run(tiny(DirSpec::FullMap), mk_traces());
        let stash = run(tiny(DirSpec::stash(CoverageRatio::new(1, 8))), mk_traces());
        let sparse = run(tiny(DirSpec::sparse(CoverageRatio::new(1, 8))), mk_traces());
        assert!(
            stash.cycles < sparse.cycles,
            "stash {} should beat sparse {}",
            stash.cycles,
            sparse.cycles
        );
        let stash_slowdown = stash.cycles as f64 / full.cycles as f64;
        assert!(
            stash_slowdown < 1.15,
            "stash within 15% of fullmap, got {stash_slowdown:.3}"
        );
    }

    #[test]
    fn dls_private_blocks_cache_normally() {
        let mut traces = no_ops(4);
        traces[0] = vec![MemOp::read(BlockAddr::new(0)); 10];
        let report = run(tiny(DirSpec::Dls), traces);
        assert_eq!(report.completed_ops, 10);
        assert_eq!(report.stat("l1.hits"), 9.0, "single-toucher blocks fill");
        assert_eq!(report.stat("backend.remote_llc_accesses"), 0.0);
        assert_eq!(report.stat("dir.storage_bits"), 0.0, "DLS has no SRAM");
    }

    #[test]
    fn dls_reclassifies_shared_blocks_to_remote_access() {
        let b = BlockAddr::new(5);
        let mut traces = no_ops(4);
        for _ in 0..20 {
            traces[0].push(MemOp::write(b).with_think(7));
            traces[1].push(MemOp::read(b).with_think(5));
        }
        let report = run(tiny(DirSpec::Dls), traces);
        assert_eq!(report.completed_ops, 40);
        assert_eq!(
            report.stat("backend.dls_reclassifications"),
            1.0,
            "the block crosses private→shared exactly once"
        );
        assert!(
            report.stat("backend.remote_llc_accesses") >= 30.0,
            "once shared, every touch is remote: {}",
            report.stat("backend.remote_llc_accesses")
        );
        assert_eq!(
            report.stat("noc.messages.fwd"),
            0.0,
            "no owner forwards: shared data lives at the LLC"
        );
    }

    #[test]
    fn opaque_demands_take_indirection_hops() {
        // Private streaming across all four cores: most blocks' opaque
        // bank differs from their home, so demands pay indirection.
        let mut traces = no_ops(4);
        for (c, trace) in traces.iter_mut().enumerate() {
            for i in 0..32u64 {
                trace.push(MemOp::read(BlockAddr::new(1000 + c as u64 * 512 + i * 4)));
            }
        }
        let report = run(
            tiny(DirSpec::Opaque {
                coverage: CoverageRatio::new(1, 8),
                assoc: 2,
            }),
            traces,
        );
        assert!(report.stat("backend.indirection_hops") > 0.0);
        assert!(report.stat("backend.dir_bank_accesses") > 0.0);
        assert!(
            report.stat("backend.dir_bank_imbalance") >= 1.0,
            "imbalance is max/mean"
        );
        assert!(
            report.stat("noc.messages.dir") > 0.0,
            "indirection legs ride the dir message class"
        );
    }

    #[test]
    fn opaque_shares_and_invalidates_coherently() {
        // Producer/consumer sharing plus enough private streaming to force
        // opaque-shard conflict evictions of blocks homed at other banks.
        let hot = BlockAddr::new(5);
        let mut traces = no_ops(4);
        for i in 0..40u64 {
            traces[0].push(MemOp::write(hot).with_think(7));
            traces[1].push(MemOp::read(hot).with_think(5));
            traces[2].push(MemOp::read(BlockAddr::new(2000 + i * 4)).with_think(3));
            traces[3].push(MemOp::read(BlockAddr::new(4000 + i * 4)).with_think(3));
        }
        let report = run(
            tiny(DirSpec::Opaque {
                coverage: CoverageRatio::new(1, 16),
                assoc: 2,
            }),
            traces,
        );
        assert_eq!(report.completed_ops, 160);
        assert!(
            report.stat("dir.copies_invalidated") > 0.0,
            "opaque shards invalidate on conflict like sparse"
        );
    }
}
