//! Simulation results.

use crate::fault::FaultSummary;
use stashdir_common::StatSink;

/// One point of the run's time series (enabled with
/// [`SystemConfig::with_timeline`]).
///
/// [`SystemConfig::with_timeline`]: crate::SystemConfig::with_timeline
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSample {
    /// Sample timestamp (cycles).
    pub cycle: u64,
    /// Directory entries in use chip-wide at the sample point.
    pub dir_occupancy: u64,
    /// Cumulative retired operations.
    pub ops: u64,
    /// Cumulative silent (stash) evictions.
    pub silent_evictions: u64,
    /// Cumulative invalidating directory evictions.
    pub invalidating_evictions: u64,
    /// Cumulative discovery rounds (demand + LLC-eviction).
    pub discoveries: u64,
}

/// One witnessed (row × column) protocol transition and how often it
/// fired, recorded only when the fault layer runs with transition
/// witnessing enabled ([`FaultConfig::witness`]). Row/column labels
/// match the lint protocol-model artifact so campaign coverage can be
/// diffed directly against the reachable set.
///
/// [`FaultConfig::witness`]: crate::fault::FaultConfig
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionHits {
    /// Matrix section: `private_probe`, `local_access`, `home` or
    /// `fault_response`.
    pub section: String,
    /// Row label (private state, or fault class for `fault_response`).
    pub row: String,
    /// Column label (probe, op, directory view or detector).
    pub col: String,
    /// Times the transition fired during the run.
    pub hits: u64,
}

/// The output of one simulation run: the execution time, completion
/// accounting, any invariant/consistency violations detected, and the
/// full statistics sink (caches, directory, NoC, DRAM, discovery).
///
/// # Examples
///
/// ```
/// use stashdir_common::{BlockAddr, MemOp};
/// use stashdir_sim::{Machine, SystemConfig};
///
/// let cfg = SystemConfig::default().with_cores(16);
/// let mut traces = vec![Vec::new(); 16];
/// traces[0].push(MemOp::read(BlockAddr::new(1)));
/// let report = Machine::new(cfg).run(traces);
/// report.assert_clean();
/// assert_eq!(report.completed_ops, 1);
/// assert!(report.stat("l2.misses") >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Execution time: the cycle at which the last core retired its last
    /// operation.
    pub cycles: u64,
    /// Operations retired across all cores.
    pub completed_ops: u64,
    /// Coherence/consistency violations detected by the checker and the
    /// value tracker. Empty on a correct run.
    pub violations: Vec<String>,
    /// Every exported counter and derived statistic.
    pub sink: StatSink,
    /// Periodic samples of the run (empty unless the configuration set a
    /// timeline interval).
    pub timeline: Vec<TimelineSample>,
    /// Fault-injection and detection accounting (all zeros unless the
    /// run was built with [`Machine::with_faults`]).
    ///
    /// [`Machine::with_faults`]: crate::Machine::with_faults
    pub fault: FaultSummary,
    /// Diagnostic snapshot (canonical JSON) dumped when a faulty run
    /// quiesced on a violation or stall; `None` on normal runs.
    pub snapshot: Option<String>,
    /// Per-transition hit counts, sorted by (section, row, col); empty
    /// unless the run witnessed transitions (campaign mode).
    pub coverage: Vec<TransitionHits>,
}

impl SimReport {
    /// A statistic by key, `0.0` when absent.
    pub fn stat(&self, key: &str) -> f64 {
        self.sink.get_or_zero(key)
    }

    /// Directory-eviction-induced invalidations (conventional sparse
    /// cost) plus LLC-inclusion invalidations, per 1000 retired
    /// operations — the metric of experiment E4.
    pub fn invalidations_per_kop(&self) -> f64 {
        if self.completed_ops == 0 {
            return 0.0;
        }
        (self.stat("dir.copies_invalidated") + self.stat("bank.inclusion_invalidations")) * 1000.0
            / self.completed_ops as f64
    }

    /// Discovery rounds per 1000 retired operations (stash overhead,
    /// experiment E6).
    pub fn discoveries_per_kop(&self) -> f64 {
        if self.completed_ops == 0 {
            return 0.0;
        }
        (self.stat("bank.discoveries") + self.stat("bank.evict_discoveries")) * 1000.0
            / self.completed_ops as f64
    }

    /// Fraction of directory evictions handled silently.
    pub fn silent_eviction_fraction(&self) -> f64 {
        let silent = self.stat("dir.silent_evictions");
        let total = silent + self.stat("dir.invalidating_evictions");
        if total == 0.0 {
            1.0
        } else {
            silent / total
        }
    }

    /// NoC flit-hops (traffic metric of experiment E7).
    pub fn flit_hops(&self) -> f64 {
        self.stat("noc.flit_hops")
    }

    /// Panics with the violation list if the run was not clean.
    ///
    /// # Panics
    ///
    /// Panics when any coherence or consistency violation was recorded.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "run had {} violations:\n{}",
            self.violations.len(),
            self.violations.join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, f64)], ops: u64) -> SimReport {
        let mut sink = StatSink::new();
        for (k, v) in pairs {
            sink.put(*k, *v);
        }
        SimReport {
            cycles: 1000,
            completed_ops: ops,
            violations: Vec::new(),
            sink,
            timeline: Vec::new(),
            fault: FaultSummary::default(),
            snapshot: None,
            coverage: Vec::new(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report(
            &[
                ("dir.copies_invalidated", 30.0),
                ("bank.inclusion_invalidations", 10.0),
                ("bank.discoveries", 5.0),
                ("bank.evict_discoveries", 5.0),
                ("dir.silent_evictions", 90.0),
                ("dir.invalidating_evictions", 10.0),
                ("noc.flit_hops", 1234.0),
            ],
            2000,
        );
        assert_eq!(r.invalidations_per_kop(), 20.0);
        assert_eq!(r.discoveries_per_kop(), 5.0);
        assert_eq!(r.silent_eviction_fraction(), 0.9);
        assert_eq!(r.flit_hops(), 1234.0);
    }

    #[test]
    fn zero_ops_yield_zero_rates() {
        let r = report(&[("dir.copies_invalidated", 5.0)], 0);
        assert_eq!(r.invalidations_per_kop(), 0.0);
        assert_eq!(r.discoveries_per_kop(), 0.0);
    }

    #[test]
    fn no_evictions_is_vacuously_silent() {
        assert_eq!(report(&[], 1).silent_eviction_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "1 violations")]
    fn assert_clean_panics_on_violation() {
        let mut r = report(&[], 1);
        r.violations.push("boom".into());
        r.assert_clean();
    }
}
