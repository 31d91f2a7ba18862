//! The chaos layer's machine side: state-corruption injection, the
//! liveness watchdog, graceful quiesce, and the diagnostic snapshot
//! rendered from the recent-event ring.

#![expect(
    clippy::indexing_slicing,
    reason = "`banks`, `privs` and the per-core vectors are indexed by \
              config-bounded ids or by their own ranges, and the event ring \
              by its head, always below its length"
)]

use super::{Event, Machine};
use crate::fault::{Detector, FaultClass};
use stashdir_common::json::Value;
use stashdir_common::Cycle;
use stashdir_protocol::{DirView, PrivState};

/// Ring-buffer depth of the event trail kept for diagnostic snapshots
/// (maintained only while fault injection is threaded).
const RECENT_EVENTS: usize = 32;

/// Fixed-capacity ring of the most recent `(Cycle, Event)` pairs.
///
/// The hot loop stores plain `Copy` values here; nothing is formatted
/// until [`Machine::diag_snapshot`] renders the trail at quiesce time,
/// so a healthy faulty-mode run never allocates for diagnostics. The
/// backing `Vec` is allocated once at `RECENT_EVENTS` capacity and
/// never grows.
#[derive(Debug)]
pub(super) struct EventRing {
    slots: Vec<(Cycle, Event)>,
    /// Index of the oldest entry once the ring is full (and the next
    /// overwrite target); always 0 while still filling.
    head: usize,
}

impl EventRing {
    pub(super) fn new() -> Self {
        EventRing {
            slots: Vec::with_capacity(RECENT_EVENTS),
            head: 0,
        }
    }

    pub(super) fn push(&mut self, at: Cycle, event: Event) {
        if self.slots.len() < RECENT_EVENTS {
            self.slots.push((at, event));
        } else {
            self.slots[self.head] = (at, event);
            self.head = (self.head + 1) % RECENT_EVENTS;
        }
    }

    /// Entries oldest→newest.
    fn iter(&self) -> impl Iterator<Item = &(Cycle, Event)> {
        let (tail, front) = self.slots.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

impl Machine {
    /// `true` when the armed watchdog finds an unfinished core that has
    /// retired nothing within the bound; records the structured stall
    /// diagnosis and quiesces.
    pub(super) fn watchdog_tripped(&mut self, now: Cycle) -> bool {
        let Some(bound) = self.faults.as_ref().and_then(|p| p.watchdog_bound()) else {
            return false;
        };
        // Fast path: `retire_floor` is a lower bound on every unfinished
        // core's last-retire cycle, so while `now` is within the bound
        // of the floor no core can possibly trip — skip the O(cores)
        // scan entirely (the common case on healthy ticks).
        if now.saturating_since(self.retire_floor) <= bound {
            return false;
        }
        let mut stalled = None;
        let mut floor = Cycle::MAX;
        for i in 0..self.cores.len() {
            if self.cores.finish[i].is_none() {
                let retired = self.cores.last_retire[i];
                let gap = now.saturating_since(retired);
                if gap > bound {
                    stalled = Some((i, gap));
                    break;
                }
                floor = floor.min(retired);
            }
        }
        let Some((core, gap)) = stalled else {
            // Full scan found nothing: the exact floor (Cycle::MAX when
            // every core finished) re-arms the fast path.
            self.retire_floor = floor;
            return false;
        };
        self.values.report(format!(
            "Stall: core{core} retired nothing for {gap} cycles (watchdog bound {bound}) at {now}"
        ));
        if let Some(plan) = self.faults.as_mut() {
            plan.record_detection(Detector::Watchdog);
        }
        self.quiesce(now, "watchdog_stall");
        true
    }

    /// Rolls the injection dice for `class` under the threaded plan,
    /// arming through any burst window hot at `now`.
    pub(super) fn roll_fault(&mut self, class: FaultClass, now: Cycle) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|p| p.roll_at(class, now.get()))
    }

    /// Records an invariant-checker detection and quiesces (faulty runs
    /// only).
    pub(super) fn detect_invariant(&mut self, now: Cycle, reason: &str) {
        if let Some(plan) = self.faults.as_mut() {
            plan.record_detection(Detector::Invariant);
        }
        self.quiesce(now, reason);
    }

    /// Stops the run gracefully: marks the summary, renders the
    /// diagnostic snapshot, and drains the event queue so the run loop
    /// exits instead of panicking mid-handler or spinning forever.
    fn quiesce(&mut self, now: Cycle, reason: &str) {
        if self.quiesced {
            return;
        }
        self.quiesced = true;
        if let Some(plan) = self.faults.as_mut() {
            plan.summary.quiesced = 1;
        }
        self.snapshot = Some(self.diag_snapshot(now, reason).render());
        self.queue.clear();
    }

    /// Attempts state-corruption injections (sharer flip, stash clear,
    /// spurious stash), one roll per armed class in taxonomy order.
    /// Returns `true` when any damage was applied — targeted corruptions
    /// may find no victim this transaction, in which case nothing is
    /// recorded and nothing changed.
    pub(super) fn inject_state_fault(&mut self, now: Cycle) -> bool {
        const CORRUPTIONS: [FaultClass; 3] = [
            FaultClass::SharerFlip,
            FaultClass::StashClear,
            FaultClass::StashSpurious,
        ];
        let Some(plan) = self.faults.as_ref() else {
            return false;
        };
        // Roll only armed classes, so single-class runs consume exactly
        // the RNG draws they historically did.
        let armed: Vec<FaultClass> = CORRUPTIONS
            .into_iter()
            .filter(|&c| plan.armed_at(c, now.get()))
            .collect();
        let mut any = false;
        for class in armed {
            if !self.roll_fault(class, now) {
                continue;
            }
            let applied = match class {
                FaultClass::SharerFlip => self.corrupt_sharer(),
                FaultClass::StashClear => self.corrupt_stash_clear(),
                FaultClass::StashSpurious => self.corrupt_stash_spurious(),
                _ => false,
            };
            if applied {
                if let Some(plan) = self.faults.as_mut() {
                    plan.record_injection(class);
                }
                any = true;
            }
        }
        any
    }

    /// Drops a live holder from a directory view: an exclusive owner's
    /// entry vanishes, or a sharer bit flips off. Targets only holders
    /// that really hold a valid copy, so the damage is always
    /// detectable.
    fn corrupt_sharer(&mut self) -> bool {
        for b in 0..self.banks.len() {
            for (block, view) in self.banks[b].dir_entries() {
                for victim in view.holders() {
                    if self.privs[victim.index()].state_of(block) == PrivState::Invalid {
                        continue;
                    }
                    match &view {
                        DirView::Untracked => continue,
                        DirView::Exclusive(_) => self.banks[b].dir_remove(block),
                        DirView::Shared(set) => {
                            let mut survivors = set.clone();
                            survivors.remove(victim);
                            if survivors.is_empty() {
                                self.banks[b].dir_remove(block);
                            } else {
                                let _ =
                                    self.banks[b].dir_install(block, DirView::Shared(survivors));
                            }
                        }
                    }
                    return true;
                }
            }
        }
        false
    }

    /// Clears a stash bit that covers a real hidden copy, making the
    /// copy invisible to discovery (an I1/I2 coverage violation).
    fn corrupt_stash_clear(&mut self) -> bool {
        for b in 0..self.banks.len() {
            for (block, line) in self.banks[b].llc_entries() {
                if !line.stash || self.banks[b].dir_view(block) != DirView::Untracked {
                    continue;
                }
                let hidden_copy_exists = self
                    .privs
                    .iter()
                    .any(|p| p.state_of(block) != PrivState::Invalid);
                if hidden_copy_exists {
                    self.clear_stash_bit(block);
                    return true;
                }
            }
        }
        false
    }

    /// Sets a stash bit on a line the directory still tracks (a stash
    /// discipline violation).
    fn corrupt_stash_spurious(&mut self) -> bool {
        for b in 0..self.banks.len() {
            for (block, line) in self.banks[b].llc_entries() {
                if line.stash || self.banks[b].dir_view(block) == DirView::Untracked {
                    continue;
                }
                self.banks[b].set_stash_bit(block, true);
                return true;
            }
        }
        false
    }

    /// Renders the quiesce-time diagnostic snapshot: per-core pipeline
    /// and cache state, per-bank directory view, in-flight messages and
    /// the recent event trail.
    pub(super) fn diag_snapshot(&self, now: Cycle, reason: &str) -> Value {
        let cores = (0..self.cores.len())
            .map(|i| {
                let hier = &self.privs[i];
                let l2 = hier
                    .l2_entries()
                    .map(|(block, line)| {
                        Value::object(vec![
                            ("block".into(), block.get().into()),
                            ("state".into(), format!("{:?}", line.state).into()),
                            ("version".into(), line.version.into()),
                        ])
                    })
                    .collect();
                let l1 = hier.l1_blocks().map(|b| b.get().into()).collect();
                let wbs = hier
                    .wb_entries()
                    .into_iter()
                    .map(|(block, entry)| {
                        Value::object(vec![
                            ("block".into(), block.get().into()),
                            ("version".into(), entry.version.into()),
                        ])
                    })
                    .collect();
                Value::object(vec![
                    ("core".into(), i.into()),
                    ("pc".into(), self.cores.pc[i].into()),
                    ("trace_len".into(), self.cores.trace[i].len().into()),
                    (
                        "pending".into(),
                        self.cores.pending[i].map_or(Value::Null, |op| format!("{op:?}").into()),
                    ),
                    ("ops_done".into(), self.cores.ops_done[i].into()),
                    (
                        "last_retire".into(),
                        self.cores
                            .last_retire
                            .get(i)
                            .copied()
                            .unwrap_or(Cycle::ZERO)
                            .get()
                            .into(),
                    ),
                    ("finished".into(), self.cores.finish[i].is_some().into()),
                    ("l1_blocks".into(), Value::array(l1)),
                    ("l2".into(), Value::array(l2)),
                    ("writebacks".into(), Value::array(wbs)),
                ])
            })
            .collect();
        let banks = self
            .banks
            .iter()
            .map(|bank| {
                let dir = bank
                    .dir_entries()
                    .into_iter()
                    .map(|(block, view)| {
                        Value::object(vec![
                            ("block".into(), block.get().into()),
                            ("view".into(), format!("{view:?}").into()),
                        ])
                    })
                    .collect();
                let stash: Vec<Value> = bank
                    .llc_entries()
                    .into_iter()
                    .filter(|(_, line)| line.stash)
                    .map(|(block, _)| block.get().into())
                    .collect();
                Value::object(vec![
                    ("bank".into(), bank.id().index().into()),
                    ("dir".into(), Value::array(dir)),
                    ("stash_bits".into(), Value::array(stash)),
                    ("llc_lines".into(), bank.llc_entries().len().into()),
                ])
            })
            .collect();
        let in_flight = self
            .queue
            .pending()
            .into_iter()
            .map(|(t, event)| {
                Value::object(vec![
                    ("at".into(), t.get().into()),
                    ("event".into(), format!("{event:?}").into()),
                ])
            })
            .collect();
        // The trail is stored as raw values; format the exact same
        // "{cycle}: {event:?}" lines the snapshot schema always carried,
        // but only here — never on the hot path.
        let recent = self
            .recent_events
            .iter()
            .map(|(at, event)| Value::String(format!("{at}: {event:?}")))
            .collect();
        let mut fields = vec![
            ("schema".into(), "stashdir/diag-snapshot/v1".into()),
            ("reason".into(), reason.into()),
            ("cycle".into(), now.get().into()),
            ("transactions".into(), self.transactions.into()),
            ("cores".into(), Value::array(cores)),
            ("banks".into(), Value::array(banks)),
            ("in_flight".into(), Value::array(in_flight)),
            ("recent_events".into(), Value::array(recent)),
        ];
        // The active fault schedule: which classes were enabled and
        // where each burst window stood at snapshot time, so a
        // multi-fault stall is attributable without a rerun.
        if let Some(plan) = self.faults.as_ref() {
            let cfg = plan.config();
            let classes = cfg
                .enabled_classes()
                .into_iter()
                .map(|c| Value::String(c.label().to_string()))
                .collect();
            let bursts = cfg
                .bursts
                .iter()
                .map(|b| {
                    Value::object(vec![
                        ("class".into(), b.class.label().into()),
                        ("onset".into(), b.onset.into()),
                        ("len".into(), b.len.into()),
                        ("gap".into(), b.gap.into()),
                        ("rate".into(), u64::from(b.rate_per_mille).into()),
                        ("phase".into(), b.phase_at(now.get()).into()),
                    ])
                })
                .collect();
            fields.push((
                "fault".into(),
                Value::object(vec![
                    ("classes".into(), Value::array(classes)),
                    ("bursts".into(), Value::array(bursts)),
                    ("injected".into(), plan.summary.injected_total().into()),
                ]),
            ));
        }
        Value::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoverageRatio, DirSpec};
    use crate::fault::{validate_snapshot, FaultBurst, FaultConfig};
    use crate::machine::tests::{no_ops, tiny};
    use stashdir_common::{BlockAddr, CoreId, MemOp};
    use stashdir_core::DirReplPolicy;

    #[test]
    fn event_ring_is_preallocated_and_never_grows() {
        let mut ring = EventRing::new();
        assert_eq!(ring.capacity(), RECENT_EVENTS, "allocated up front");
        for i in 0..(3 * RECENT_EVENTS as u64) {
            ring.push(Cycle::new(i), Event::Issue(CoreId::new(0)));
        }
        assert_eq!(
            ring.capacity(),
            RECENT_EVENTS,
            "hot-path pushes must not reallocate"
        );
        let cycles: Vec<u64> = ring.iter().map(|(at, _)| at.get()).collect();
        let newest = 3 * RECENT_EVENTS as u64 - 1;
        let oldest = newest + 1 - RECENT_EVENTS as u64;
        assert_eq!(
            cycles,
            (oldest..=newest).collect::<Vec<_>>(),
            "iterates oldest to newest over the last RECENT_EVENTS entries"
        );
    }

    /// Shared-traffic traces: every core reads and writes a small shared
    /// set, so directory entries, sharer sets and exclusive owners all
    /// exist for the corruptors to target.
    fn sharing_traces() -> Vec<Vec<MemOp>> {
        let mut traces = no_ops(4);
        for (c, trace) in traces.iter_mut().enumerate() {
            for round in 0..20u64 {
                let b = BlockAddr::new(round % 5);
                trace.push(MemOp::read(b).with_think(c as u32));
                if c == 0 {
                    trace.push(MemOp::write(b).with_think(3));
                }
            }
        }
        traces
    }

    /// Directory-thrashing traces: each core reads a private working set
    /// that fits its L2 (distinct sets) but vastly exceeds the tiny stash
    /// directory's reach, so entries are silently evicted with stash bits
    /// while the copies stay live — the StashClear target.
    fn thrashing_traces() -> Vec<Vec<MemOp>> {
        let mut traces = no_ops(4);
        for (c, trace) in traces.iter_mut().enumerate() {
            for i in 0..8u64 {
                trace.push(MemOp::read(BlockAddr::new(100 + c as u64 * 16 + i)));
            }
        }
        traces
    }

    fn chaos_with(dir: DirSpec, class: FaultClass, traces: Vec<Vec<MemOp>>) -> crate::SimReport {
        Machine::new(tiny(dir))
            .with_faults(FaultConfig::for_class(class, 11))
            .run(traces)
    }

    fn chaos(class: FaultClass, traces: Vec<Vec<MemOp>>) -> crate::SimReport {
        chaos_with(DirSpec::stash(CoverageRatio::new(1, 8)), class, traces)
    }

    /// A 2-way stash directory: per-bank capacity 2, so the thrashing
    /// traces force silent (stash-bit) evictions of entries whose copies
    /// are still L2-resident.
    fn tight_stash() -> DirSpec {
        DirSpec::Stash {
            coverage: CoverageRatio::new(1, 8),
            assoc: 2,
            repl: DirReplPolicy::PrivateFirstLru,
        }
    }

    #[test]
    fn sharer_flip_is_detected_by_the_checker() {
        let report = chaos(FaultClass::SharerFlip, sharing_traces());
        assert_eq!(report.fault.injected_sharer_flip, 1);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
        assert!(!report.violations.is_empty());
        assert!(report.snapshot.is_some());
    }

    #[test]
    fn stash_clear_is_detected_by_the_checker() {
        let report = chaos_with(tight_stash(), FaultClass::StashClear, thrashing_traces());
        assert_eq!(report.fault.injected_stash_clear, 1, "{:?}", report.fault);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
    }

    #[test]
    fn stash_spurious_is_detected_by_the_checker() {
        let report = chaos(FaultClass::StashSpurious, sharing_traces());
        assert_eq!(report.fault.injected_stash_spurious, 1);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
    }

    #[test]
    fn drop_grant_is_detected_at_final_check() {
        let report = chaos(FaultClass::DropGrant, sharing_traces());
        assert_eq!(report.fault.injected_drop_grant, 1);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert!(
            report.violations.iter().any(|v| v.starts_with("I6")),
            "{:?}",
            report.violations
        );
        assert!(report.snapshot.is_some());
    }

    #[test]
    fn noc_delay_trips_the_watchdog() {
        let report = chaos(FaultClass::NocDelay, sharing_traces());
        assert_eq!(report.fault.injected_noc_delay, 1);
        assert!(report.fault.detected_watchdog >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
        assert!(
            report.violations.iter().any(|v| v.starts_with("Stall")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn noc_duplicate_is_detected_as_a_spurious_demand() {
        let report = chaos(FaultClass::NocDuplicate, sharing_traces());
        assert_eq!(report.fault.injected_noc_duplicate, 1);
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert!(
            report.violations.iter().any(|v| v.starts_with("I8")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn stuck_transient_trips_the_watchdog() {
        let report = chaos(FaultClass::StuckTransient, sharing_traces());
        assert_eq!(report.fault.injected_stuck_transient, 1);
        assert!(report.fault.detected_watchdog >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
    }

    #[test]
    fn every_fault_class_is_caught_by_its_expected_detector() {
        use crate::fault::expected_detector;
        for &class in FaultClass::ALL {
            let report = if class == FaultClass::StashClear {
                chaos_with(tight_stash(), class, thrashing_traces())
            } else {
                chaos(class, sharing_traces())
            };
            assert!(
                report.fault.injected_total() >= 1,
                "{class:?}: nothing injected"
            );
            let caught = match expected_detector(class) {
                Detector::Invariant => report.fault.detected_invariant,
                Detector::Watchdog => report.fault.detected_watchdog,
            };
            assert!(
                caught >= 1,
                "{class:?} escaped its expected detector: {:?}",
                report.fault
            );
            // The snapshot is rendered mid-run, so its injection count
            // must already include every injection the report carries.
            let text = report.snapshot.as_deref().expect("caught runs dump one");
            let snapshot = Value::parse(text).expect("snapshot is valid JSON");
            let injected = snapshot
                .get("fault")
                .and_then(|f| f.get("injected"))
                .and_then(Value::as_u64);
            assert_eq!(
                injected,
                Some(report.fault.injected_total()),
                "{class:?}: snapshot and report disagree on injections"
            );
        }
    }

    #[test]
    fn snapshot_matches_the_published_schema() {
        let report = chaos(FaultClass::SharerFlip, sharing_traces());
        let text = report.snapshot.expect("faulty run dumps a snapshot");
        let value = Value::parse(&text).expect("snapshot is valid JSON");
        validate_snapshot(&value).expect("snapshot matches schema");
        assert_eq!(
            value.get("reason").and_then(Value::as_str),
            Some("invariant_violation")
        );
    }

    #[test]
    fn disabled_fault_layer_changes_nothing() {
        let plain =
            Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8)))).run(sharing_traces());
        let threaded = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(FaultConfig::disabled())
            .run(sharing_traces());
        plain.assert_clean();
        threaded.assert_clean();
        assert_eq!(plain.cycles, threaded.cycles);
        assert_eq!(plain.completed_ops, threaded.completed_ops);
        assert_eq!(plain.sink, threaded.sink);
        assert_eq!(plain.fault, threaded.fault);
        assert_eq!(threaded.fault, Default::default());
        assert_eq!(threaded.snapshot, None);
    }

    #[test]
    fn armed_watchdog_stays_quiet_on_a_healthy_run() {
        let cfg = FaultConfig {
            watchdog_bound: 1_000_000,
            ..FaultConfig::disabled()
        };
        let report = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(cfg)
            .run(sharing_traces());
        report.assert_clean();
        assert_eq!(report.fault.detected_watchdog, 0);
        assert_eq!(report.fault.quiesced, 0);
    }

    /// A two-burst campaign-style plan: a sharer flip composed with
    /// duplicated demands, both steady from cycle zero.
    fn composed_plan(seed: u64) -> FaultConfig {
        FaultConfig::for_campaign(seed)
            .with_burst(FaultBurst {
                class: FaultClass::SharerFlip,
                onset: 0,
                len: 0,
                gap: 0,
                rate_per_mille: 1000,
            })
            .with_burst(FaultBurst {
                class: FaultClass::NocDuplicate,
                onset: 0,
                len: 0,
                gap: 0,
                rate_per_mille: 1000,
            })
    }

    #[test]
    fn composed_bursts_inject_both_classes_and_are_detected() {
        let report = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(composed_plan(11))
            .run(sharing_traces());
        assert!(report.fault.injected_sharer_flip >= 1, "{:?}", report.fault);
        assert!(
            report.fault.injected_noc_duplicate >= 1,
            "{:?}",
            report.fault
        );
        assert!(report.fault.detected_invariant >= 1, "{:?}", report.fault);
        assert_eq!(report.fault.quiesced, 1);
    }

    #[test]
    fn burst_onset_gates_injection() {
        // The same schedule pushed past the run's horizon injects
        // nothing: the windows never open.
        let mut plan = composed_plan(11);
        for b in &mut plan.bursts {
            b.onset = 1 << 40;
        }
        let report = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(plan)
            .run(sharing_traces());
        report.assert_clean();
        assert_eq!(report.fault.injected_total(), 0);
        assert_eq!(report.fault.quiesced, 0);
    }

    #[test]
    fn composed_snapshot_embeds_the_active_schedule() {
        let report = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(composed_plan(11))
            .run(sharing_traces());
        let text = report.snapshot.expect("composed faulty run quiesces");
        let value = Value::parse(&text).expect("snapshot is valid JSON");
        validate_snapshot(&value).expect("snapshot matches schema");
        let fault = value.get("fault").expect("faulty snapshot embeds schedule");
        let classes: Vec<&str> = fault
            .get("classes")
            .and_then(Value::as_array)
            .expect("class set present")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(classes, ["noc_duplicate", "sharer_flip"]);
        let bursts = fault
            .get("bursts")
            .and_then(Value::as_array)
            .expect("burst schedule present");
        assert_eq!(bursts.len(), 2);
        for b in bursts {
            // Steady bursts are in their hot window at quiesce time.
            assert_eq!(b.get("phase").and_then(Value::as_str), Some("burst"));
        }
    }

    #[test]
    fn composed_bursts_are_deterministic() {
        let run = || {
            Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
                .with_faults(composed_plan(11))
                .run(sharing_traces())
        };
        let a = run();
        let b = run();
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.snapshot, b.snapshot);
        // A different seed is free to diverge (same schedule, different
        // dice) without changing what is detected.
        let c = Machine::new(tiny(DirSpec::stash(CoverageRatio::new(1, 8))))
            .with_faults(composed_plan(12))
            .run(sharing_traces());
        assert!(c.fault.detected_invariant >= 1);
    }
}
