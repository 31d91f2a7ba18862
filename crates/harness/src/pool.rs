//! The parallel case executor: a worker pool on `std::thread` with
//! per-case panic isolation and fail-fast cancellation.
//!
//! Workers claim the next case index from one shared atomic cursor, so
//! long-running cases (big core counts, slow workloads) don't strand
//! idle workers behind a static partition. Each case runs once: the
//! simulator is deterministic, so a second attempt would only repeat the
//! first. A case that panics — a coherence violation tripping
//! `assert_clean`, a bug in a directory model — is caught on the worker,
//! recorded as a [`CaseStatus::Failed`] outcome, and the rest of the
//! sweep continues (or is cancelled, with `fail_fast`).

use crate::plan::CaseSpec;
use crate::progress::Progress;
use stashdir::{Machine, SimReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Once;
use std::time::{Duration, Instant};

/// Thread-name prefix for pool workers; the installed panic hook mutes
/// default panic output for these threads (their panics are captured and
/// reported as case failures instead).
const WORKER_NAME_PREFIX: &str = "stashdir-worker-";

/// Options controlling one pool invocation.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads; `0` = available parallelism.
    pub jobs: usize,
    /// Cancel remaining cases after the first failure.
    pub fail_fast: bool,
    /// Per-case wall-clock budget. When set, each case runs on its own
    /// thread; a case that outlives the budget is recorded
    /// [`CaseStatus::TimedOut`] and abandoned (the worker moves on).
    pub timeout: Option<Duration>,
    /// Test hook: panic inside any case whose id contains this substring
    /// (exercises the panic-isolation path end to end).
    pub inject_panic: Option<String>,
    /// Test hook: hang forever inside any case whose id contains this
    /// substring (exercises the timeout watchdog end to end; only
    /// meaningful with `timeout` set).
    pub inject_hang: Option<String>,
    /// Print a live progress line to stderr.
    pub progress: bool,
}

impl RunOptions {
    /// The worker count this invocation will actually use.
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Terminal state of one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseStatus {
    /// Ran to completion with a clean report.
    Completed,
    /// Panicked (coherence violation, model bug, injected fault).
    Failed,
    /// Outlived the per-case wall-clock budget and was abandoned.
    TimedOut,
    /// Not run: cancelled by fail-fast, or satisfied by a resume artifact.
    Skipped,
}

impl CaseStatus {
    /// The manifest string for this status.
    pub fn as_str(self) -> &'static str {
        match self {
            CaseStatus::Completed => "completed",
            CaseStatus::Failed => "failed",
            CaseStatus::TimedOut => "timed_out",
            CaseStatus::Skipped => "skipped",
        }
    }

    /// Parses a manifest status string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "completed" => Some(CaseStatus::Completed),
            "failed" => Some(CaseStatus::Failed),
            "timed_out" => Some(CaseStatus::TimedOut),
            "skipped" => Some(CaseStatus::Skipped),
            _ => None,
        }
    }
}

/// The result of running one case.
#[derive(Debug)]
pub struct CaseOutcome {
    /// The case that ran.
    pub spec: CaseSpec,
    /// Terminal status.
    pub status: CaseStatus,
    /// Wall-clock time spent simulating (zero for skipped cases).
    pub duration: Duration,
    /// The report, when completed.
    pub report: Option<SimReport>,
    /// The captured panic message, when failed.
    pub error: Option<String>,
}

/// Installs (once, process-wide) a panic hook that stays silent for pool
/// worker threads — their panics are captured and surfaced as case
/// failures — and defers to the previous hook for everyone else.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_NAME_PREFIX));
            if !on_worker {
                previous(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Fault hooks threaded into each case (test-only behaviors).
#[derive(Debug, Clone, Default)]
struct Hooks {
    panic: Option<String>,
    hang: Option<String>,
}

impl Hooks {
    fn from_options(opts: &RunOptions) -> Hooks {
        Hooks {
            panic: opts.inject_panic.clone(),
            hang: opts.inject_hang.clone(),
        }
    }

    fn matches(needle: &Option<String>, id: &str) -> bool {
        needle.as_deref().is_some_and(|n| id.contains(n))
    }
}

/// Runs one case, catching panics.
fn simulate(spec: &CaseSpec, hooks: &Hooks) -> (CaseStatus, Option<SimReport>, Option<String>) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let id = spec.id();
        if Hooks::matches(&hooks.panic, &id) {
            panic!("injected fault for case {id}");
        }
        if Hooks::matches(&hooks.hang, &id) {
            // Never returns; the timeout watchdog abandons this thread.
            loop {
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        let traces = spec
            .workload
            .generate(spec.config.cores, spec.ops, spec.seed);
        let mut machine = Machine::new(spec.config.clone());
        if let Some(fault) = spec.fault.clone() {
            machine = machine.with_faults(fault);
        }
        let report = machine.run(traces);
        if spec.fault.is_none() {
            report.assert_clean();
        }
        report
    }));
    match result {
        Ok(report) => (CaseStatus::Completed, Some(report), None),
        Err(payload) => (CaseStatus::Failed, None, Some(panic_message(payload))),
    }
}

/// One case's resolution at the worker, including the two ways a case
/// ends without a verdict from the simulator itself.
enum CaseEnd {
    Done(CaseStatus, Option<Box<SimReport>>, Option<String>),
    /// Fail-fast fired before or while the case ran; a running case
    /// thread is abandoned and the case recorded as skipped.
    Cancelled,
}

/// Runs one case, optionally under the wall-clock watchdog.
///
/// Without a timeout the case runs inline on the worker. With one,
/// the case runs on a dedicated (detached) thread while the worker polls
/// for the result in short slices, so it can both enforce the deadline
/// and notice a fail-fast cancellation promptly; on either, the case
/// thread is abandoned — it holds only clones and its late result goes
/// to a closed channel.
fn run_one(
    spec: &CaseSpec,
    hooks: &Hooks,
    timeout: Option<Duration>,
    cancel: &AtomicBool,
    fail_fast: bool,
) -> CaseEnd {
    let Some(budget) = timeout else {
        let (s, r, e) = simulate(spec, hooks);
        return CaseEnd::Done(s, r.map(Box::new), e);
    };
    let (tx, rx) = mpsc::channel();
    let spec_owned = spec.clone();
    let hooks_owned = hooks.clone();
    std::thread::Builder::new()
        .name(format!("{WORKER_NAME_PREFIX}case"))
        .spawn(move || {
            let _ = tx.send(simulate(&spec_owned, &hooks_owned));
        })
        .expect("spawn case thread");
    let deadline = Instant::now() + budget;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let slice = remaining.min(Duration::from_millis(25));
        match rx.recv_timeout(slice.max(Duration::from_millis(1))) {
            Ok((s, r, e)) => return CaseEnd::Done(s, r.map(Box::new), e),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if fail_fast && cancel.load(Ordering::Relaxed) {
                    return CaseEnd::Cancelled;
                }
                if Instant::now() >= deadline {
                    return CaseEnd::Done(
                        CaseStatus::TimedOut,
                        None,
                        Some(format!("timed out after {budget:?}")),
                    );
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The case thread died without sending (should be
                // impossible: simulate() catches panics). Treat as failed.
                return CaseEnd::Done(
                    CaseStatus::Failed,
                    None,
                    Some("case thread died without a result".into()),
                );
            }
        }
    }
}

/// Runs `specs` on the pool, returning one outcome per spec in input
/// order.
///
/// Guarantees:
///
/// * Every spec gets exactly one outcome; a panicking case yields
///   [`CaseStatus::Failed`] with the captured message, never a dead pool.
/// * With `fail_fast`, cases not yet started when the first failure lands
///   come back as [`CaseStatus::Skipped`].
/// * Outcomes carry the same reports a serial loop would produce — the
///   simulator is deterministic and cases share nothing.
pub fn run_cases(specs: &[CaseSpec], opts: &RunOptions) -> Vec<CaseOutcome> {
    install_quiet_hook();
    let jobs = opts.resolved_jobs().min(specs.len()).max(1);
    let cancel = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, CaseOutcome)>();

    let mut progress = opts.progress.then(|| Progress::new(specs.len(), jobs));
    let mut outcomes: Vec<(usize, CaseOutcome)> = Vec::with_capacity(specs.len());

    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let tx = tx.clone();
            let (cancel, cursor) = (&cancel, &cursor);
            let hooks = Hooks::from_options(opts);
            let fail_fast = opts.fail_fast;
            let timeout = opts.timeout;
            std::thread::Builder::new()
                .name(format!("{WORKER_NAME_PREFIX}{worker}"))
                .spawn_scoped(scope, move || loop {
                    // Relaxed suffices: the cursor publishes no data
                    // (`specs` is shared read-only), and `fetch_add` hands
                    // each index to exactly one worker.
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(index) else { break };
                    let start = Instant::now();
                    let end = if cancel.load(Ordering::Relaxed) {
                        CaseEnd::Cancelled
                    } else {
                        run_one(spec, &hooks, timeout, cancel, fail_fast)
                    };
                    let (status, report, error) = match end {
                        CaseEnd::Cancelled => (
                            CaseStatus::Skipped,
                            None,
                            Some("cancelled by fail-fast".into()),
                        ),
                        CaseEnd::Done(status, report, error) => (status, report.map(|r| *r), error),
                    };
                    if fail_fast && matches!(status, CaseStatus::Failed | CaseStatus::TimedOut) {
                        cancel.store(true, Ordering::Relaxed);
                    }
                    let outcome = CaseOutcome {
                        spec: spec.clone(),
                        status,
                        duration: start.elapsed(),
                        report,
                        error,
                    };
                    let _ = tx.send((index, outcome));
                })
                .expect("spawn worker");
        }
        drop(tx);
        for (index, outcome) in rx {
            if let Some(p) = progress.as_mut() {
                p.case_done(&outcome.spec.id(), outcome.status, outcome.duration);
            }
            outcomes.push((index, outcome));
        }
    });
    if let Some(p) = progress.as_mut() {
        p.finish();
    }
    outcomes.sort_unstable_by_key(|&(index, _)| index);
    outcomes.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir::{CoverageRatio, DirSpec, SystemConfig, Workload};

    fn small_specs(n: usize) -> Vec<CaseSpec> {
        (0..n)
            .map(|i| {
                CaseSpec::new(
                    SystemConfig::default()
                        .with_dir(DirSpec::stash(CoverageRatio::new(1, 8)))
                        .with_cores(4),
                    Workload::Uniform,
                    50,
                    i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn outcomes_come_back_in_input_order() {
        let specs = small_specs(5);
        let outcomes = run_cases(
            &specs,
            &RunOptions {
                jobs: 3,
                ..Default::default()
            },
        );
        assert_eq!(outcomes.len(), 5);
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            assert_eq!(spec.id(), outcome.spec.id());
            assert_eq!(outcome.status, CaseStatus::Completed);
            assert!(outcome.report.is_some());
        }
    }

    #[test]
    fn injected_panic_is_isolated() {
        let specs = small_specs(4);
        let needle = specs[2].id();
        let outcomes = run_cases(
            &specs,
            &RunOptions {
                jobs: 2,
                inject_panic: Some(needle),
                ..Default::default()
            },
        );
        assert_eq!(outcomes[2].status, CaseStatus::Failed);
        assert!(outcomes[2]
            .error
            .as_deref()
            .unwrap()
            .contains("injected fault"));
        for (i, o) in outcomes.iter().enumerate() {
            if i != 2 {
                assert_eq!(o.status, CaseStatus::Completed, "case {i} must survive");
            }
        }
    }

    #[test]
    fn fail_fast_skips_unstarted_cases() {
        let specs = small_specs(30);
        let needle = specs[0].id();
        let outcomes = run_cases(
            &specs,
            &RunOptions {
                jobs: 1,
                fail_fast: true,
                inject_panic: Some(needle),
                ..Default::default()
            },
        );
        assert_eq!(outcomes[0].status, CaseStatus::Failed);
        let skipped = outcomes
            .iter()
            .filter(|o| o.status == CaseStatus::Skipped)
            .count();
        assert_eq!(skipped, 29, "single worker cancels everything after case 0");
    }

    #[test]
    fn status_strings_round_trip() {
        for s in [
            CaseStatus::Completed,
            CaseStatus::Failed,
            CaseStatus::TimedOut,
            CaseStatus::Skipped,
        ] {
            assert_eq!(CaseStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(CaseStatus::parse("bogus"), None);
    }

    #[test]
    fn timed_out_case_does_not_strand_its_worker() {
        let specs = small_specs(4);
        let needle = specs[1].id();
        // A single worker must record the hung case as timed out and
        // still finish every other case afterwards.
        let outcomes = run_cases(
            &specs,
            &RunOptions {
                jobs: 1,
                timeout: Some(Duration::from_millis(300)),
                inject_hang: Some(needle),
                ..Default::default()
            },
        );
        assert_eq!(outcomes[1].status, CaseStatus::TimedOut);
        assert!(outcomes[1].error.as_deref().unwrap().contains("timed out"));
        for (i, o) in outcomes.iter().enumerate() {
            if i != 1 {
                assert_eq!(o.status, CaseStatus::Completed, "case {i} must still run");
            }
        }
    }

    #[test]
    fn fail_fast_cancels_promptly_despite_hung_sibling() {
        let specs = small_specs(6);
        let hang = specs[0].id();
        let boom = specs[1].id();
        // Worker A hangs on case 0 under a generous timeout; worker B
        // fails case 1 and trips fail-fast. The pool must come back well
        // before case 0's budget expires, with the hung case abandoned.
        let start = Instant::now();
        let outcomes = run_cases(
            &specs,
            &RunOptions {
                jobs: 2,
                fail_fast: true,
                timeout: Some(Duration::from_secs(30)),
                inject_hang: Some(hang),
                inject_panic: Some(boom),
                ..Default::default()
            },
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "fail-fast must not wait out the hung case's timeout"
        );
        assert_eq!(outcomes[1].status, CaseStatus::Failed);
        assert_eq!(outcomes[0].status, CaseStatus::Skipped);
        assert!(outcomes[0]
            .error
            .as_deref()
            .unwrap()
            .contains("cancelled by fail-fast"));
    }

    #[test]
    fn timeout_leaves_healthy_cases_untouched() {
        let specs = small_specs(3);
        let with_timeout = run_cases(
            &specs,
            &RunOptions {
                jobs: 2,
                timeout: Some(Duration::from_secs(60)),
                ..Default::default()
            },
        );
        let plain = run_cases(
            &specs,
            &RunOptions {
                jobs: 2,
                ..Default::default()
            },
        );
        for (a, b) in with_timeout.iter().zip(&plain) {
            assert_eq!(a.status, CaseStatus::Completed);
            let (ra, rb) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
            assert_eq!(ra.cycles, rb.cycles);
            assert_eq!(ra.sink, rb.sink);
        }
    }
}
