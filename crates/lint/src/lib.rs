//! `stashdir-lint`: repo-specific static analysis for the stash-directory
//! reproduction.
//!
//! Two analysis passes, both over the decision tables read by calling
//! the compiled protocol functions ([`decisions`]). The lint reads no
//! source files.
//!
//! 1. **Transition coverage** ([`coverage`]): the
//!    `(state × incoming-message)` keys the decision functions handle,
//!    diffed against the reachable-transition set recorded by the
//!    model-check explorer (`stashdir_protocol::reachability`).
//!    Uncovered reachable transitions and dead handled keys both fail the
//!    lint; pairs that only arise through in-flight races live on a
//!    documented allowlist.
//! 2. **Waits-for liveness** ([`waitsfor`]): which request each
//!    transient state blocks on and which probes each home decision
//!    emits, as a waits-for graph whose every blocking edge is
//!    cross-checked against the model — waits no reachable peer can
//!    satisfy and probe cycles with no escape edge are hard findings.
//!
//! Three repo checks are the compiler's, not passes here. Panic hygiene in
//! the hot crates (`core`, `protocol`, `sim`, `mem`, `noc`) is a `deny`
//! of clippy's `unwrap_used`, `expect_used` and `indexing_slicing` in
//! each crate root, with justified sites under `#[expect(…, reason)]`.
//! Stat registration is exhaustive destructuring: every stats merge and
//! serializer binds each field of its struct without `..`, so a new
//! field fails `cargo build`. Artifact determinism is clippy's too:
//! `crates/clippy.toml` bans std `HashMap`/`HashSet` and the wall-clock
//! `Instant::now`/`SystemTime::now`, and the crates that build artifacts
//! deny `clippy::iter_over_hash_type` in their roots.
//!
//! The `lint` binary runs both passes, prints findings and per-pass
//! timings, writes the v3 protocol-model JSON artifact, and exits
//! non-zero on any finding — `ci.sh` runs it as a hard gate between
//! clippy and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod coverage;
pub mod decisions;
pub mod waitsfor;

use stashdir_common::json::Value;
use std::time::Instant;

/// Rule name: reachable transition the decision function rejects.
pub const RULE_COVERAGE_UNCOVERED: &str = "transition-uncovered";
/// Rule name: handled transition that is neither reachable nor
/// race-allowlisted.
pub const RULE_COVERAGE_DEAD: &str = "transition-dead";
/// Rule name: a blocking wait no reachable peer can satisfy.
pub const RULE_WAITSFOR_UNSATISFIABLE: &str = "waitsfor-unsatisfiable";
/// Rule name: a probe wait with no escape edge — a deadlockable cycle.
pub const RULE_WAITSFOR_CYCLE: &str = "waitsfor-cycle";

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (one of the `RULE_*` constants).
    pub rule: String,
    /// Repo-relative file of the decision function the finding is about.
    pub file: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
    }
}

/// Wall-clock duration of one pass, for the CI timing readout.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// Pass name as printed by the binary.
    pub name: String,
    /// Elapsed milliseconds.
    pub millis: f64,
}

/// The result of running every pass.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All findings, sorted by file, rule, then message.
    pub findings: Vec<Finding>,
    /// The v3 protocol-model artifact: the transition-matrix sections,
    /// the waits-for graph and the findings.
    pub model: Value,
    /// Per-pass wall-clock timings, in run order.
    pub timings: Vec<PassTiming>,
}

#[expect(
    clippy::disallowed_methods,
    reason = "pass timings are printed, never written to an artifact"
)]
fn lap(timings: &mut Vec<PassTiming>, clock: &mut Instant, name: &str) {
    timings.push(PassTiming {
        name: name.to_string(),
        millis: clock.elapsed().as_secs_f64() * 1e3,
    });
    *clock = Instant::now();
}

/// Runs both passes over the compiled protocol.
#[expect(
    clippy::disallowed_methods,
    reason = "pass timings are printed, never written to an artifact"
)]
pub fn run() -> LintReport {
    let mut findings = Vec::new();
    let mut timings = Vec::new();
    let mut clock = Instant::now();

    let model = stashdir_protocol::reachability::reachable_transitions();
    let reachable = coverage::ReachablePairs::from_model(&model);
    lap(&mut timings, &mut clock, "model-check");

    let decisions = decisions::Decisions::tabulate();
    let (sections, cov_findings) = coverage::analyze(&decisions, &reachable);
    findings.extend(cov_findings);
    lap(&mut timings, &mut clock, "coverage");

    let (waits, wf_findings) = waitsfor::analyze(&decisions, &reachable, &model);
    findings.extend(wf_findings);
    lap(&mut timings, &mut clock, "waitsfor");

    findings.sort_by(|a, b| (&a.file, &a.rule, &a.message).cmp(&(&b.file, &b.rule, &b.message)));
    let model_artifact = artifact::model_json(&sections, &waits, &findings);
    LintReport {
        findings,
        model: model_artifact,
        timings,
    }
}
