//! `stashdir-lint`: repo-specific static analysis for the stash-directory
//! reproduction.
//!
//! Five passes, all built on a hand-rolled lexer (no `syn`, no network —
//! consistent with the offline `stubs/` policy):
//!
//! 1. **Transition coverage** ([`coverage`]): extracts the
//!    `(state × incoming-message)` transition matrix from the protocol
//!    crate's `match` arms and diffs it against the reachable-transition
//!    set recorded by the model-check explorer
//!    (`stashdir_protocol::reachability`). Uncovered reachable
//!    transitions and dead handler arms both fail the lint; pairs that
//!    only arise through in-flight races live on a documented allowlist.
//!    A fourth section diffs the chaos layer's `expected_detector` arms
//!    against the compiled `(FaultClass × Detector)` taxonomy the same
//!    way.
//! 2. **Waits-for liveness** ([`waitsfor`]): extracts which messages
//!    each transient state blocks on and which each home arm emits,
//!    builds the waits-for graph, and cross-checks every blocking edge
//!    against the model — waits no reachable peer can satisfy and probe
//!    cycles with no escape edge are hard findings.
//! 3. **Hot-path panics** ([`panics`]): no `unwrap()` / `expect()` /
//!    panicking indexing in the hot crates (`core`, `protocol`, `sim`,
//!    `mem`) outside an explicit `// lint: allow(...)` directive.
//! 4. **Artifact determinism** ([`determinism`]): taint-tracks from the
//!    CSV/JSON export functions and flags unordered-map iteration and
//!    wall-clock reads that can scramble artifact bytes across runs.
//! 5. **Stat registration** ([`statreg`]): every stat field of
//!    `SimReport` / `TimelineSample` / `FaultSummary` / `BackendStats` /
//!    `Histogram` must appear in its merge/serialization path, so
//!    counters cannot be silently dropped from sweep artifacts.
//!
//! `// lint: allow(...)` directives are tracked centrally
//! ([`directives`]): one that suppresses nothing is itself a finding.
//!
//! The `lint` binary runs all passes over a repo root, prints findings
//! and per-pass timings, writes the v2 protocol-model JSON artifact,
//! and exits non-zero on any finding —
//! `ci.sh` runs it as a hard gate between clippy and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arms;
pub mod artifact;
pub mod coverage;
pub mod determinism;
pub mod directives;
pub mod files;
pub mod lexer;
pub mod panics;
pub mod statreg;
pub mod waitsfor;

use stashdir_common::json::Value;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Rule name: reachable transition with no handling arm.
pub const RULE_COVERAGE_UNCOVERED: &str = "transition-uncovered";
/// Rule name: handled transition that is neither reachable nor
/// race-allowlisted.
pub const RULE_COVERAGE_DEAD: &str = "transition-dead";
/// Rule name: the coverage extractor could not parse what it expected.
pub const RULE_COVERAGE_PARSE: &str = "coverage-parse";
/// Rule name: a blocking wait no reachable peer can satisfy.
pub const RULE_WAITSFOR_UNSATISFIABLE: &str = "waitsfor-unsatisfiable";
/// Rule name: a probe wait with no escape edge — a deadlockable cycle.
pub const RULE_WAITSFOR_CYCLE: &str = "waitsfor-cycle";
/// Rule name: disallowed `.unwrap()`.
pub const RULE_UNWRAP: &str = "unwrap";
/// Rule name: disallowed `.expect()`.
pub const RULE_EXPECT: &str = "expect";
/// Rule name: disallowed panicking index expression.
pub const RULE_INDEXING: &str = "indexing";
/// Rule name: nondeterminism on an artifact-export path.
pub const RULE_DETERMINISM: &str = "determinism";
/// Rule name: malformed or unknown `// lint:` directive.
pub const RULE_DIRECTIVE: &str = "lint-directive";
/// Rule name: an allow directive that suppresses nothing.
pub const RULE_ALLOW_UNUSED: &str = "lint-allow-unused";
/// Rule name: stat field missing from a merge/serialization path.
pub const RULE_STAT_UNREGISTERED: &str = "stat-unregistered";

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
    /// The v2 protocol-model artifact: the transition-matrix sections,
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

/// Runs all passes over the repo at `root`.
pub fn run(root: &Path) -> io::Result<LintReport> {
    let mut findings = Vec::new();
    let mut timings = Vec::new();
    let mut clock = Instant::now();

    let sources = coverage::CoverageSources::load(root)?;
    let loaded = files::load(root, files::SCANNED_CRATES)?;
    let mut directives = directives::DirectiveIndex::collect(&loaded);
    lap(&mut timings, &mut clock, "load");

    let model = stashdir_protocol::reachability::reachable_transitions();
    let reachable = coverage::ReachablePairs::from_model(&model);
    lap(&mut timings, &mut clock, "model-check");

    let (sections, cov_findings) = coverage::analyze(&sources, &reachable);
    findings.extend(cov_findings);
    lap(&mut timings, &mut clock, "coverage");

    let (waits, wf_findings) = waitsfor::analyze(&sources, &reachable, &model);
    findings.extend(wf_findings);
    lap(&mut timings, &mut clock, "waitsfor");

    findings.extend(panics::scan_files(&loaded, &mut directives));
    lap(&mut timings, &mut clock, "panics");

    findings.extend(determinism::analyze(&loaded, &mut directives));
    lap(&mut timings, &mut clock, "determinism");

    findings.extend(statreg::check_repo(root)?);
    lap(&mut timings, &mut clock, "statreg");

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
