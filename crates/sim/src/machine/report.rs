//! End of run: the timeline sampler, the final invariant check, and the
//! fold of every component's typed stats into the report.

use super::Machine;
use crate::bank::{BackendStats, BankStats};
use crate::fault::{expected_detector, FaultClass, FaultSummary};
use crate::report::{SimReport, TimelineSample, TransitionHits};
use stashdir_common::{Cycle, StatSink};
use stashdir_core::DirStats;
use stashdir_mem::CacheStats;

impl Machine {
    /// Records one point of the run's time series.
    pub(super) fn record_sample(&mut self, now: Cycle) {
        let mut dir_occupancy = 0u64;
        let mut silent = 0u64;
        let mut inval = 0u64;
        let mut discoveries = 0u64;
        for bank in &self.banks {
            dir_occupancy += bank.dir().occupancy() as u64;
            silent += bank.dir().stats().silent_evictions.get();
            inval += bank.dir().stats().invalidating_evictions.get();
            discoveries += bank.stats.discoveries.get() + bank.stats.evict_discoveries.get();
        }
        self.timeline.push(TimelineSample {
            cycle: now.get(),
            dir_occupancy,
            ops: self.cores.ops_done.iter().sum(),
            silent_evictions: silent,
            invalidating_evictions: inval,
            discoveries,
        });
    }

    pub(super) fn final_check(&mut self) -> Vec<String> {
        let mut problems = crate::checker::check(self, true);
        problems.extend(self.values.violations().iter().cloned());
        problems
    }

    pub(super) fn build_report(self, violations: Vec<String>) -> SimReport {
        let mut sink = StatSink::new();
        let cycles = self
            .cores
            .finish
            .iter()
            .map(|f| f.unwrap_or(Cycle::ZERO).get())
            .max()
            .unwrap_or(0);
        let completed_ops: u64 = self.cores.ops_done.iter().sum();

        // Each component keeps typed counters; fold them per kind and
        // export each total once (exports derive the miss rates).
        let (mut l1, mut l2) = (CacheStats::default(), CacheStats::default());
        for p in &self.privs {
            l1.merge(&p.l1_stats);
            l2.merge(&p.l2_stats);
        }
        l1.export("l1", &mut sink);
        l2.export("l2", &mut sink);

        let mut llc = CacheStats::default();
        let mut dir = DirStats::default();
        let mut bank = BankStats::default();
        let mut backend = BackendStats::default();
        let mut dir_occupancy = 0usize;
        for b in &self.banks {
            llc.merge(&b.llc_stats);
            dir.merge(b.dir().stats());
            bank.merge(&b.stats);
            backend.merge(&b.backend);
            dir_occupancy += b.dir().occupancy();
        }
        llc.export("llc", &mut sink);
        dir.export("dir", &mut sink);
        bank.export("bank", &mut sink);
        // Backend counters exist only for configs that can move them
        // (`has_backend_stats` is a pure function of the config), so every
        // legacy organization's report keeps its exact historical key set.
        let backend_stats = self.cfg.dir.has_backend_stats();
        if backend_stats {
            backend.export("backend", &mut sink);
        }
        if backend_stats && self.cfg.dir.is_opaque() {
            // Opaque-map load spread: max/mean of per-bank directory-shard
            // accesses (1.0 = perfectly balanced, 0.0 = no accesses).
            let per_bank: Vec<u64> = self
                .banks
                .iter()
                .map(|b| b.backend.dir_bank_accesses.get())
                .collect();
            let max = per_bank.iter().copied().max().unwrap_or(0) as f64;
            let mean = per_bank.iter().sum::<u64>() as f64 / per_bank.len().max(1) as f64;
            sink.put(
                "backend.dir_bank_imbalance",
                if mean > 0.0 { max / mean } else { 0.0 },
            );
        }

        sink.put("dir.occupancy_final", dir_occupancy as f64);
        sink.put(
            "dir.storage_bits",
            self.banks
                .iter()
                .map(|b| b.dir().storage_bits(&self.cfg.cost_params()))
                .sum::<u64>() as f64,
        );

        self.net.export("noc", &mut sink);
        self.dram.export("dram", &mut sink);

        if let Some(mean) = self.miss_latency.mean() {
            sink.put("core.mean_miss_latency", mean);
        }
        if let Some(p95) = self.miss_latency.quantile(0.95) {
            sink.put("core.p95_miss_latency", p95 as f64);
        }
        sink.put("core.misses", self.miss_latency.count() as f64);
        if let Some(mean) = self.discovery_latency.mean() {
            sink.put("bank.mean_discovery_latency", mean);
        }
        if let Some(mean) = self.inv_round_size.mean() {
            sink.put("bank.mean_inv_round_size", mean);
        }
        sink.put("machine.cycles", cycles as f64);
        sink.put("machine.ops", completed_ops as f64);

        let (fault, snapshot) = match self.faults {
            Some(plan) => (plan.summary, self.snapshot),
            None => (FaultSummary::default(), None),
        };

        // Witnessed transitions, sorted by (section, row, col) — the
        // three protocol matrices from the witness maps, plus a
        // fault_response row per class whose injections were caught by
        // its expected detector (the labels the protocol-model artifact
        // uses: `Debug` CamelCase).
        let mut coverage = Vec::new();
        if let Some(witness) = self.witness {
            witness.export(&mut coverage);
            for &class in FaultClass::ALL {
                let injected = fault.injected_for(class);
                let detector = expected_detector(class);
                if injected > 0 && fault.detected_for(detector) > 0 {
                    coverage.push(TransitionHits {
                        section: "fault_response".to_string(),
                        row: format!("{class:?}"),
                        col: format!("{detector:?}"),
                        hits: injected,
                    });
                }
            }
        }

        SimReport {
            cycles,
            completed_ops,
            violations,
            sink,
            timeline: self.timeline,
            fault,
            snapshot,
            coverage,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{CoverageRatio, DirSpec};
    use crate::machine::tests::{no_ops, run, tiny};
    use crate::Machine;
    use stashdir_common::{BlockAddr, MemOp};

    #[test]
    fn legacy_backends_report_no_backend_keys() {
        let mut traces = no_ops(4);
        traces[0].push(MemOp::read(BlockAddr::new(1)));
        for spec in [
            DirSpec::FullMap,
            DirSpec::stash(CoverageRatio::new(1, 8)),
            DirSpec::sparse(CoverageRatio::new(1, 8)),
        ] {
            let report = run(tiny(spec), traces.clone());
            assert_eq!(report.completed_ops, 1, "{spec}: the read retired");
            assert!(
                report.sink.iter().all(|(k, _)| !k.starts_with("backend.")),
                "{spec}: legacy reports must keep their exact key set"
            );
        }
    }

    #[test]
    fn timeline_samples_accumulate_monotonically() {
        let mut traces = no_ops(4);
        for i in 0..500u64 {
            traces[0].push(MemOp::write(BlockAddr::new(i % 64)).with_think(10));
        }
        let cfg = tiny(DirSpec::stash(CoverageRatio::new(1, 8))).with_timeline(1_000);
        let report = Machine::new(cfg).run(traces);
        report.assert_clean();
        assert!(report.timeline.len() > 5, "expected several samples");
        for w in report.timeline.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
            assert!(w[1].ops >= w[0].ops, "cumulative ops are monotone");
            assert!(w[1].silent_evictions >= w[0].silent_evictions);
            assert!(w[1].discoveries >= w[0].discoveries);
        }
    }

    #[test]
    fn timeline_off_by_default() {
        let mut traces = no_ops(4);
        traces[0].push(MemOp::read(BlockAddr::new(1)));
        let report = run(tiny(DirSpec::FullMap), traces);
        assert!(report.timeline.is_empty());
    }

    #[test]
    fn report_exports_core_keys() {
        let mut traces = no_ops(4);
        traces[0].push(MemOp::write(BlockAddr::new(1)));
        let report = run(tiny(DirSpec::stash(CoverageRatio::FULL)), traces);
        for key in [
            "machine.cycles",
            "machine.ops",
            "l1.hits",
            "l2.misses",
            "llc.misses",
            "dir.allocations",
            "noc.flit_hops",
            "dram.accesses",
            "dir.storage_bits",
        ] {
            assert!(report.sink.get(key).is_some(), "missing {key}");
        }
    }
}
