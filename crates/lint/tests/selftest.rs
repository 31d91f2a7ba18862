//! End-to-end self-tests for `stashdir-lint`.
//!
//! Two directions: the lint must be **clean on this repository** (the CI
//! gate), and it must **fire on the seeded fixture tree** under
//! `tests/fixtures/seeded/`, which plants one violation per rule family:
//! two uncovered reachable probe transitions, an uncovered
//! fault-response transition, an unsatisfiable waits-for edge (the
//! `Nudge` probe no arm handles), a waits-for cycle (`Recall` with its
//! escape edge removed), a disallowed `unwrap()` / `expect()` /
//! panicking index, an unordered-map CSV export, a stale allow
//! directive, and an unregistered stat field — each caught at its exact
//! `file:line`.

use std::path::{Path, PathBuf};
use std::process::Command;

use stashdir_common::json::Value;
use stashdir_lint::{
    artifact, coverage, RULE_ALLOW_UNUSED, RULE_COVERAGE_PARSE, RULE_COVERAGE_UNCOVERED,
    RULE_DETERMINISM, RULE_EXPECT, RULE_INDEXING, RULE_STAT_UNREGISTERED, RULE_UNWRAP,
    RULE_WAITSFOR_CYCLE, RULE_WAITSFOR_UNSATISFIABLE,
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

fn render_findings(findings: &[stashdir_lint::Finding]) -> String {
    findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
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
    let has = |rule: &str, frag: &str| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && (f.message.contains(frag) || f.file.contains(frag)))
    };
    let has_at = |rule: &str, file: &str, line: u32| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.line == line)
    };
    assert!(
        has(RULE_COVERAGE_UNCOVERED, "(Modified, FwdGetS)"),
        "missing uncovered-transition finding:\n{}",
        render_findings(&report.findings)
    );
    assert!(
        has(RULE_COVERAGE_UNCOVERED, "(Invalid, Recall)"),
        "missing second uncovered-transition finding:\n{}",
        render_findings(&report.findings)
    );
    assert!(
        has(RULE_COVERAGE_UNCOVERED, "(StuckTransient, Watchdog)"),
        "missing uncovered fault-response finding:\n{}",
        render_findings(&report.findings)
    );
    assert!(has(RULE_UNWRAP, "bad.rs"), "missing unwrap finding");
    assert!(has(RULE_EXPECT, "bad.rs"), "missing expect finding");
    assert!(has(RULE_INDEXING, "bad.rs"), "missing indexing finding");
    assert!(
        has(RULE_STAT_UNREGISTERED, "SimReport.lost_counter"),
        "missing stat-registration finding:\n{}",
        render_findings(&report.findings)
    );
    assert!(
        has(RULE_STAT_UNREGISTERED, "BackendStats.indirection_hops"),
        "missing backend-stats registration finding:\n{}",
        render_findings(&report.findings)
    );

    // The four new-pass seeds, each at its exact file:line.
    assert!(
        has_at(
            RULE_WAITSFOR_UNSATISFIABLE,
            "crates/protocol/src/home.rs",
            marker_line("crates/protocol/src/home.rs", "Probe::Nudge"),
        ),
        "missing waitsfor-unsatisfiable finding at the Nudge emit site:\n{}",
        render_findings(&report.findings)
    );
    assert!(
        has_at(
            RULE_WAITSFOR_CYCLE,
            "crates/protocol/src/home.rs",
            marker_line("crates/protocol/src/home.rs", "Probe::Recall"),
        ),
        "missing waitsfor-cycle finding at the Recall emit site:\n{}",
        render_findings(&report.findings)
    );
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
            marker_line("crates/sim/src/bad.rs", "// lint: allow(unwrap)"),
        ),
        "missing unused-directive finding:\n{}",
        render_findings(&report.findings)
    );

    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == RULE_COVERAGE_PARSE),
        "fixture must parse cleanly:\n{}",
        render_findings(&report.findings)
    );
    assert_eq!(
        report.findings.len(),
        12,
        "exactly the twelve seeded violations:\n{}",
        render_findings(&report.findings)
    );
}

/// The repo's match arms cover exactly the model's reachable set plus the
/// documented race allowlist — no more, no less.
#[test]
fn repo_matrix_matches_model_reachable_set() {
    let src = coverage::CoverageSources::load(&repo_root()).expect("protocol sources readable");
    let reachable = coverage::ReachablePairs::from_model(&reachable_transitions());
    let (sections, findings) = coverage::analyze(&src, &reachable);
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
        for pair in &s.reachable {
            assert!(
                s.source.contains_key(pair),
                "[{}] reachable {pair:?} not in source",
                s.name
            );
        }
        for pair in s.source.keys() {
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
    let src = coverage::CoverageSources::load(&repo_root()).expect("protocol sources readable");
    let model = reachable_transitions();
    let reachable = coverage::ReachablePairs::from_model(&model);
    let (waits, findings) = stashdir_lint::waitsfor::analyze(&src, &reachable, &model);
    assert!(
        findings.is_empty(),
        "waits-for findings:\n{}",
        render_findings(&findings)
    );
    assert!(
        waits.requesters.iter().any(|r| r.request.is_some()),
        "no miss arms extracted"
    );
    assert!(!waits.home.is_empty(), "no home arms extracted");
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
            .map(|h| h.emits.iter().map(|(p, _)| p.clone()).collect())
            .unwrap_or_default()
    };
    assert!(emits_of("GetS", "Exclusive").contains(&"FwdGetS".to_string()));
    assert!(emits_of("GetM", "Exclusive").contains(&"FwdGetM".to_string()));
    assert!(emits_of("GetM", "Shared").contains(&"Inv".to_string()));
}

/// The protocol-model artifact parses back and records the seeded
/// coverage holes in the fixture's `uncovered` set.
#[test]
fn artifact_records_the_seeded_holes() {
    let report = stashdir_lint::run(&fixture_root()).expect("fixture sources readable");
    let parsed = Value::parse(&report.model.render()).expect("artifact renders valid JSON");
    assert_eq!(
        parsed.get("schema").and_then(Value::as_str),
        Some("stashdir/protocol-model/v2")
    );
    let sections = parsed
        .get("sections")
        .and_then(Value::as_array)
        .expect("sections array");
    let probe = sections
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some("private_probe"))
        .expect("private_probe section");
    let uncovered = probe
        .get("uncovered")
        .and_then(Value::as_array)
        .expect("uncovered array");
    let as_pair = |v: &Value| -> Option<(String, String)> {
        let a = v.as_array()?;
        Some((
            a.first()?.as_str()?.to_string(),
            a.get(1)?.as_str()?.to_string(),
        ))
    };
    assert_eq!(
        uncovered.iter().filter_map(as_pair).collect::<Vec<_>>(),
        [
            ("Invalid".to_string(), "Recall".to_string()),
            ("Modified".to_string(), "FwdGetS".to_string()),
        ]
    );
    assert!(!parsed
        .get("findings")
        .and_then(Value::as_array)
        .expect("findings array")
        .is_empty());
}

/// The v2 protocol-model artifact carries the waits-for graph and
/// parses under the campaign's model reader, and the findings artifact
/// is well-formed.
#[test]
fn v2_model_artifact_is_well_formed() {
    let report = stashdir_lint::run(&repo_root()).expect("repo sources readable");
    let model = Value::parse(&report.model.render()).expect("model renders valid JSON");
    assert_eq!(
        model.get("schema").and_then(Value::as_str),
        Some("stashdir/protocol-model/v2")
    );
    stashdir_protocol::model::ReachableModel::parse(&model.render())
        .expect("v2 model readable by the campaign reader");

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
    assert_eq!(rows.len(), 12);
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
    assert!(out.contains("12 finding(s)"), "stdout:\n{out}");
    assert!(out.contains("lint: passes:"), "stdout:\n{out}");
    for path in [&model, &findings] {
        let text = std::fs::read_to_string(path).expect("artifact written");
        assert!(Value::parse(&text).is_ok(), "artifact is valid JSON");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
