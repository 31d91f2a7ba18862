//! End-to-end self-tests for `stashdir-lint`.
//!
//! Three directions: the lint must be **clean on this repository** (the
//! CI gate); it must **fire on the seeded fixture tree** under
//! `tests/fixtures/seeded/`, which plants one violation per source-scanning
//! rule (an unordered-map CSV export, a stale allow directive, and a
//! comment directive naming a retired panic rule); and each protocol rule
//! must fire on a
//! **mutation of the decision data** it reads: two uncovered reachable
//! probe transitions, an unsatisfiable waits-for edge (a `Nudge` probe no
//! state handles), a waits-for cycle (`Recall` with its escape edge
//! removed), and a dead handled transition. The protocol passes call the
//! compiled protocol, so the fixture tree carries no protocol sources:
//! a `match` with a missing arm would not compile (E0004).

use std::path::{Path, PathBuf};
use std::process::Command;

use stashdir_common::json::Value;
use stashdir_lint::coverage::{self, ReachablePairs};
use stashdir_lint::decisions::Decisions;
use stashdir_lint::{
    artifact, waitsfor, Finding, RULE_ALLOW_UNUSED, RULE_COVERAGE_DEAD, RULE_COVERAGE_UNCOVERED,
    RULE_DETERMINISM, RULE_DIRECTIVE, RULE_WAITSFOR_CYCLE, RULE_WAITSFOR_UNSATISFIABLE,
};
use stashdir_protocol::reachability::reachable_transitions;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seeded")
}

/// 1-based line of the first occurrence of `marker` in a fixture file.
fn marker_line(rel: &str, marker: &str) -> u32 {
    let path = fixture_root().join(rel);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    for (i, line) in src.lines().enumerate() {
        if line.contains(marker) {
            return (i + 1) as u32;
        }
    }
    panic!("marker `{marker}` not found in {rel}");
}

fn render_findings(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

fn pair(a: &str, b: &str) -> (String, String) {
    (a.to_string(), b.to_string())
}

/// Runs both protocol passes over (possibly mutated) decision data and
/// reachable pairs, returning the sections, the waits-for graph and
/// every finding.
fn protocol_passes(
    d: &Decisions,
    reachable: &ReachablePairs,
) -> (
    Vec<coverage::Section>,
    waitsfor::WaitsForModel,
    Vec<Finding>,
) {
    let (sections, mut findings) = coverage::analyze(d, reachable);
    let (waits, wf) = waitsfor::analyze(d, reachable, &reachable_transitions());
    findings.extend(wf);
    (sections, waits, findings)
}

fn real_reachable() -> ReachablePairs {
    ReachablePairs::from_model(&reachable_transitions())
}

fn fires(findings: &[Finding], rule: &str, frag: &str) -> bool {
    findings
        .iter()
        .any(|f| f.rule == rule && f.message.contains(frag))
}

/// The CI gate in test form: zero findings on the repository itself.
#[test]
fn repo_is_clean() {
    let report = stashdir_lint::run(&repo_root()).expect("repo sources readable");
    assert!(
        report.findings.is_empty(),
        "lint findings on the repo:\n{}",
        render_findings(&report.findings)
    );
}

/// Every seeded fixture violation fires, and nothing else does.
#[test]
fn seeded_fixture_fires_each_rule() {
    let report = stashdir_lint::run(&fixture_root()).expect("fixture sources readable");
    let has_at = |rule: &str, file: &str, line: u32| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.line == line)
    };
    assert!(
        has_at(
            RULE_DETERMINISM,
            "crates/harness/src/table.rs",
            marker_line("crates/harness/src/table.rs", "self.rows.iter()"),
        ),
        "missing determinism finding at the unordered export:\n{}",
        render_findings(&report.findings)
    );
    assert!(
        has_at(
            RULE_ALLOW_UNUSED,
            "crates/sim/src/bad.rs",
            marker_line("crates/sim/src/bad.rs", "// lint: allow(determinism)"),
        ),
        "missing unused-directive finding:\n{}",
        render_findings(&report.findings)
    );
    assert!(
        has_at(
            RULE_DIRECTIVE,
            "crates/sim/src/bad.rs",
            marker_line("crates/sim/src/bad.rs", "// lint: allow(unwrap)"),
        ),
        "missing unknown-rule finding for the retired `unwrap` directive:\n{}",
        render_findings(&report.findings)
    );
    assert_eq!(
        report.findings.len(),
        3,
        "exactly the three seeded violations:\n{}",
        render_findings(&report.findings)
    );
}

/// Panic hygiene in the hot crates is clippy's: each crate root denies
/// the three panic lints, so dropping the line cannot go unnoticed.
#[test]
fn hot_crates_deny_panics() {
    const DENY: &str =
        "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]";
    for krate in ["core", "protocol", "sim", "mem", "noc"] {
        let path = repo_root().join("crates").join(krate).join("src/lib.rs");
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(
            src.lines().any(|l| l.trim() == DENY),
            "crates/{krate}/src/lib.rs lost its panic-hygiene `{DENY}`"
        );
    }
}

/// The decision functions handle exactly the model's reachable set plus
/// the documented race allowlist — no more, no less.
#[test]
fn repo_matrix_matches_model_reachable_set() {
    let (sections, findings) = coverage::analyze(&Decisions::tabulate(), &real_reachable());
    assert!(
        findings.is_empty(),
        "coverage findings:\n{}",
        render_findings(&findings)
    );
    assert_eq!(
        sections.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["private_probe", "local_access", "home", "fault_response"]
    );
    for s in &sections {
        assert!(
            s.reachable.is_subset(&s.source),
            "[{}] reachable pairs the decision function rejects",
            s.name
        );
        for pair in &s.source {
            assert!(
                s.reachable.contains(pair) || s.race_allowed.contains_key(pair),
                "[{}] source {pair:?} neither reachable nor race-allowed",
                s.name
            );
        }
        assert!(!s.rows.is_empty() && !s.cols.is_empty());
    }
}

/// The repo's waits-for graph is live: every probe has an escape edge and
/// every blocking edge has a reachable satisfier.
#[test]
fn repo_waits_for_graph_is_live() {
    let (_, waits, findings) = protocol_passes(&Decisions::tabulate(), &real_reachable());
    assert!(
        findings.is_empty(),
        "protocol findings:\n{}",
        render_findings(&findings)
    );
    assert!(
        waits.requesters.iter().any(|r| r.blocks_on.is_some()),
        "no misses tabulated"
    );
    assert!(!waits.home.is_empty(), "no home decisions tabulated");
    for p in &waits.probes {
        assert!(
            p.escape,
            "probe {} has no escape edge in the real protocol",
            p.probe
        );
    }
    // The blocking structure the paper's protocol relies on: demand
    // requests to an Exclusive view forward to the owner, and write
    // requests to a Shared view invalidate the sharers.
    let emits_of = |req: &str, view: &str| -> Vec<String> {
        waits
            .home
            .iter()
            .find(|h| h.request == req && h.view == view)
            .map(|h| h.emits.clone())
            .unwrap_or_default()
    };
    assert_eq!(emits_of("GetS", "Exclusive"), ["FwdGetS"]);
    assert_eq!(emits_of("GetM", "Exclusive"), ["FwdGetM"]);
    assert_eq!(emits_of("GetM", "Shared"), ["Inv"]);
}

/// A probe table that rejects two reachable transitions fires
/// `transition-uncovered` for each, and the artifact records both in
/// the section's `uncovered` set.
#[test]
fn artifact_records_the_seeded_holes() {
    let mut d = Decisions::tabulate();
    for hole in [pair("Modified", "FwdGetS"), pair("Invalid", "Recall")] {
        assert!(d.probe.remove(&hole), "{hole:?} is handled before mutation");
    }
    let (sections, waits, findings) = protocol_passes(&d, &real_reachable());
    assert!(
        fires(&findings, RULE_COVERAGE_UNCOVERED, "(Modified, FwdGetS)")
            && fires(&findings, RULE_COVERAGE_UNCOVERED, "(Invalid, Recall)"),
        "missing uncovered-transition findings:\n{}",
        render_findings(&findings)
    );
    assert_eq!(findings.len(), 2, "{}", render_findings(&findings));

    let parsed = Value::parse(&artifact::model_json(&sections, &waits, &findings).render())
        .expect("artifact renders valid JSON");
    let probe = parsed
        .get("sections")
        .and_then(Value::as_array)
        .and_then(|s| s.first())
        .expect("private_probe section");
    assert_eq!(
        probe.get("name").and_then(Value::as_str),
        Some("private_probe")
    );
    let as_pair = |v: &Value| -> Option<(String, String)> {
        let a = v.as_array()?;
        Some(pair(a.first()?.as_str()?, a.get(1)?.as_str()?))
    };
    let uncovered = probe
        .get("uncovered")
        .and_then(Value::as_array)
        .expect("uncovered array");
    assert_eq!(
        uncovered.iter().filter_map(as_pair).collect::<Vec<_>>(),
        [pair("Invalid", "Recall"), pair("Modified", "FwdGetS")]
    );
}

/// A home decision that emits a probe no state handles blocks on a
/// reply that can never come.
#[test]
fn unsatisfiable_emission_seed_fires() {
    let mut d = Decisions::tabulate();
    let gets_owned = d
        .home
        .get_mut(&pair("GetS", "Exclusive"))
        .expect("GetS/Exclusive is handled");
    gets_owned.probes.insert("Nudge".to_string());
    let (_, _, findings) = protocol_passes(&d, &real_reachable());
    assert!(
        fires(
            &findings,
            RULE_WAITSFOR_UNSATISFIABLE,
            "(GetS, Exclusive) emits Nudge"
        ),
        "missing waitsfor-unsatisfiable finding:\n{}",
        render_findings(&findings)
    );
    assert_eq!(findings.len(), 1, "{}", render_findings(&findings));
}

/// A transient request whose home decision emits `Recall`, with
/// `probe(Invalid, Recall)` rejected, can wait on itself.
#[test]
fn recall_cycle_seed_fires() {
    let mut d = Decisions::tabulate();
    d.home
        .get_mut(&pair("GetM", "Exclusive"))
        .expect("GetM/Exclusive is handled")
        .probes
        .insert("Recall".to_string());
    assert!(d.probe.remove(&pair("Invalid", "Recall")));
    let (_, waits, findings) = protocol_passes(&d, &real_reachable());
    assert!(
        fires(
            &findings,
            RULE_WAITSFOR_CYCLE,
            "(GetM, Exclusive) emits Recall"
        ),
        "missing waitsfor-cycle finding:\n{}",
        render_findings(&findings)
    );
    let recall = waits.probes.iter().find(|p| p.probe == "Recall").unwrap();
    assert!(!recall.escape, "Recall lost its escape edge");
}

/// A handled transition the model stops reaching, with no race
/// allowlist entry, is dead.
#[test]
fn dead_pair_seed_fires() {
    let mut reachable = real_reachable();
    assert!(reachable.probe.remove(&pair("Shared", "Inv")));
    let (_, _, findings) = protocol_passes(&Decisions::tabulate(), &reachable);
    assert!(
        fires(&findings, RULE_COVERAGE_DEAD, "(Shared, Inv)"),
        "missing transition-dead finding:\n{}",
        render_findings(&findings)
    );
    assert_eq!(findings.len(), 1, "{}", render_findings(&findings));
}

/// The protocol model comes from the compiled protocol, not the scanned
/// tree: the fixture and the repo give the same `sections` and `model`,
/// and neither records a source line.
#[test]
fn model_does_not_depend_on_the_scanned_tree() {
    fn has_line_member(v: &Value) -> bool {
        match v {
            Value::Object(fields) => fields
                .iter()
                .any(|(k, v)| k == "line" || has_line_member(v)),
            Value::Array(items) => items.iter().any(has_line_member),
            _ => false,
        }
    }
    let repo = stashdir_lint::run(&repo_root()).expect("repo sources readable");
    let fixture = stashdir_lint::run(&fixture_root()).expect("fixture sources readable");
    for key in ["sections", "model"] {
        let a = repo.model.get(key).expect("repo artifact member");
        let b = fixture.model.get(key).expect("fixture artifact member");
        assert_eq!(a, b, "`{key}` differs between the repo and the fixture");
        assert!(!has_line_member(a), "`{key}` records a source line");
    }
}

/// The v3 protocol-model artifact carries the waits-for graph and
/// parses under the campaign's model reader, and the findings artifact
/// is well-formed.
#[test]
fn v3_model_artifact_is_well_formed() {
    let report = stashdir_lint::run(&repo_root()).expect("repo sources readable");
    let model = Value::parse(&report.model.render()).expect("model renders valid JSON");
    assert_eq!(
        model.get("schema").and_then(Value::as_str),
        Some("stashdir/protocol-model/v3")
    );
    stashdir_protocol::model::ReachableModel::parse(&model.render())
        .expect("v3 model readable by the campaign reader");

    let graph = model.get("model").expect("model object");
    for key in ["requesters", "home", "probes"] {
        assert!(
            graph
                .get(key)
                .and_then(Value::as_array)
                .is_some_and(|a| !a.is_empty()),
            "model.{key} missing or empty"
        );
    }
    // Every probe row of the real protocol records an escape edge.
    for row in graph.get("probes").and_then(Value::as_array).unwrap() {
        assert_eq!(row.get("escape").and_then(Value::as_bool), Some(true));
    }

    let fixture = stashdir_lint::run(&fixture_root()).expect("fixture sources readable");
    let findings = artifact::findings_json(&fixture.findings);
    assert_eq!(
        findings.get("schema").and_then(Value::as_str),
        Some("stashdir-lint/findings/v1")
    );
    let rows = findings
        .get("findings")
        .and_then(Value::as_array)
        .expect("findings array");
    assert_eq!(rows.len(), 3);
    for row in rows {
        let pass = row.get("pass").and_then(Value::as_str).expect("pass");
        assert_ne!(pass, "unknown");
        assert!(row.get("severity").and_then(Value::as_str).is_some());
        assert!(row.get("suppressible").and_then(Value::as_bool).is_some());
    }
}

/// The `lint` binary's exit codes and artifact plumbing: 0 on the clean
/// repo, 1 on the seeded fixture, with the model and findings written.
#[test]
fn binary_exit_codes_gate_ci() {
    let clean = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root"])
        .arg(repo_root())
        .arg("--no-artifact")
        .arg("--quiet")
        .output()
        .expect("run lint binary");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(
        clean.stderr.is_empty(),
        "rejected keys print nothing:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let tmp = std::env::temp_dir().join(format!("stashdir_lint_selftest_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let model = tmp.join("model.json");
    let findings = tmp.join("findings.json");
    let seeded = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root"])
        .arg(fixture_root())
        .arg("--model")
        .arg(&model)
        .arg("--json")
        .arg(&findings)
        .output()
        .expect("run lint binary");
    assert_eq!(seeded.status.code(), Some(1));
    let out = String::from_utf8_lossy(&seeded.stdout);
    assert!(out.contains("3 finding(s)"), "stdout:\n{out}");
    assert!(out.contains("lint: passes:"), "stdout:\n{out}");
    for path in [&model, &findings] {
        let text = std::fs::read_to_string(path).expect("artifact written");
        assert!(Value::parse(&text).is_ok(), "artifact is valid JSON");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
