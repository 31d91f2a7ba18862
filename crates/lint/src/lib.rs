//! `stashdir-lint`: repo-specific static analysis for the stash-directory
//! reproduction.
//!
//! Three analysis passes. The two protocol passes read the decision
//! tables by calling the compiled protocol functions ([`decisions`]); the
//! third scans the repo's sources with a hand-rolled lexer (no `syn`, no
//! network — consistent with the offline `stubs/` policy):
//!
//! 1. **Transition coverage** ([`coverage`]): the
//!    `(state × incoming-message)` keys the decision functions handle,
//!    diffed against the reachable-transition set recorded by the
//!    model-check explorer (`stashdir_protocol::reachability`).
//!    Uncovered reachable transitions and dead handled keys both fail the
//!    lint; pairs that only arise through in-flight races live on a
//!    documented allowlist. A fourth section records the chaos layer's
//!    `(FaultClass × Detector)` map, `expected_detector`.
//! 2. **Waits-for liveness** ([`waitsfor`]): which request each
//!    transient state blocks on and which probes each home decision
//!    emits, as a waits-for graph whose every blocking edge is
//!    cross-checked against the model — waits no reachable peer can
//!    satisfy and probe cycles with no escape edge are hard findings.
//! 3. **Artifact determinism** ([`determinism`]): taint-tracks from the
//!    CSV/JSON export functions and flags unordered-map iteration and
//!    wall-clock reads that can scramble artifact bytes across runs.
//!
//! `// lint: allow(determinism)` directives are tracked centrally
//! ([`directives`]): one that suppresses nothing is itself a finding.
//!
//! Two repo checks are the compiler's, not passes here. Panic hygiene in
//! the hot crates (`core`, `protocol`, `sim`, `mem`, `noc`) is a `deny`
//! of clippy's `unwrap_used`, `expect_used` and `indexing_slicing` in
//! each crate root, with justified sites under `#[expect(…, reason)]`.
//! Stat registration is exhaustive destructuring: every stats merge and
//! serializer binds each field of its struct without `..`, so a new
//! field fails `cargo build`.
//!
//! The `lint` binary runs all passes over a repo root, prints findings
//! and per-pass timings, writes the v3 protocol-model JSON artifact,
//! and exits non-zero on any finding —
//! `ci.sh` runs it as a hard gate between clippy and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod coverage;
pub mod decisions;
pub mod determinism;
pub mod directives;
pub mod files;
pub mod lexer;
pub mod waitsfor;

use stashdir_common::json::Value;
use std::io;
use std::path::Path;
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
/// Rule name: nondeterminism on an artifact-export path.
pub const RULE_DETERMINISM: &str = "determinism";
/// Rule name: malformed or unknown `// lint:` directive.
pub const RULE_DIRECTIVE: &str = "lint-directive";
/// Rule name: an allow directive that suppresses nothing.
pub const RULE_ALLOW_UNUSED: &str = "lint-allow-unused";

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (one of the `RULE_*` constants).
    pub rule: String,
    /// Repo-relative file the finding points at.
    pub file: String,
    /// 1-based line, or 0 when the finding is file- or model-level.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
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
    /// All findings, sorted by file, line, then rule.
    pub findings: Vec<Finding>,
    /// The v3 protocol-model artifact: the transition-matrix sections,
    /// the waits-for graph and the findings.
    pub model: Value,
    /// Per-pass wall-clock timings, in run order.
    pub timings: Vec<PassTiming>,
}

fn lap(timings: &mut Vec<PassTiming>, clock: &mut Instant, name: &str) {
    timings.push(PassTiming {
        name: name.to_string(),
        millis: clock.elapsed().as_secs_f64() * 1e3,
    });
    *clock = Instant::now();
}

/// Runs all passes over the repo at `root`. The protocol passes read
/// the compiled protocol, not `root`, so the `sections` and `model` of
/// the artifact are the same for every tree.
pub fn run(root: &Path) -> io::Result<LintReport> {
    let mut findings = Vec::new();
    let mut timings = Vec::new();
    let mut clock = Instant::now();

    let loaded = files::load(root, files::SCANNED_CRATES)?;
    let mut directives = directives::DirectiveIndex::collect(&loaded);
    lap(&mut timings, &mut clock, "load");

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

    findings.extend(determinism::analyze(&loaded, &mut directives));
    lap(&mut timings, &mut clock, "determinism");

    findings.extend(directives.finish());
    lap(&mut timings, &mut clock, "directives");

    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    let model_artifact = artifact::model_json(&sections, &waits, &findings);
    Ok(LintReport {
        findings,
        model: model_artifact,
        timings,
    })
}
