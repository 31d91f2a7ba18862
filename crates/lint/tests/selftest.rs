//! End-to-end self-tests for `stashdir-lint`.
//!
//! Three directions: the lint must be **clean on this repository** (the
//! CI gate); each protocol rule must fire on a **mutation of the
//! decision data** it reads: two uncovered reachable probe transitions,
//! an unsatisfiable waits-for edge (a `Nudge` probe no state handles), a
//! waits-for cycle (`Recall` with its escape edge removed), and a dead
//! handled transition; and the checks that are clippy's, not the lint's
//! (panic hygiene and artifact determinism), must stay **switched on**
//! in the crate roots and in `crates/clippy.toml`. The passes call the
//! compiled protocol, so a mutation is made on the tabulated data: a
//! `match` with a missing arm would not compile (E0004).

use std::path::{Path, PathBuf};
use std::process::Command;

use stashdir_common::json::Value;
use stashdir_lint::coverage::{self, ReachablePairs};
use stashdir_lint::decisions::Decisions;
use stashdir_lint::{
    artifact, waitsfor, Finding, RULE_COVERAGE_DEAD, RULE_COVERAGE_UNCOVERED, RULE_WAITSFOR_CYCLE,
    RULE_WAITSFOR_UNSATISFIABLE,
};
use stashdir_protocol::reachability::reachable_transitions;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
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
    let report = stashdir_lint::run();
    assert!(
        report.findings.is_empty(),
        "lint findings on the repo:\n{}",
        render_findings(&report.findings)
    );
}

/// Fails unless each of `krates` carries `attr` as a line of its root.
fn assert_roots_carry(krates: &[&str], attr: &str) {
    for krate in krates {
        let path = repo_root().join("crates").join(krate).join("src/lib.rs");
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(
            src.lines().any(|l| l.trim() == attr),
            "crates/{krate}/src/lib.rs lost its `{attr}`"
        );
    }
}

/// Panic hygiene in the hot crates is clippy's: each crate root denies
/// the three panic lints, so dropping the line cannot go unnoticed.
#[test]
fn hot_crates_deny_panics() {
    assert_roots_carry(
        &["core", "protocol", "sim", "mem", "noc"],
        "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]",
    );
}

/// Artifact determinism is clippy's: `crates/clippy.toml` bans the std
/// hash types and the wall-clock reads, and each crate that builds
/// artifacts denies `for` loops over a hash map in its root.
#[test]
fn artifact_crates_deny_nondeterminism() {
    let path = repo_root().join("crates/clippy.toml");
    let config =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    for banned in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ] {
        assert!(
            config.contains(&format!("path = \"{banned}\"")),
            "crates/clippy.toml no longer disallows `{banned}`"
        );
    }
    assert_roots_carry(
        &["common", "core", "harness", "mem", "noc", "protocol", "sim"],
        "#![deny(clippy::iter_over_hash_type)]",
    );
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
        ["private_probe", "local_access", "home"]
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

/// The v3 protocol-model artifact carries the waits-for graph, records
/// no source line, and parses under the campaign's model reader; the
/// findings artifact is well-formed.
#[test]
fn v3_model_artifact_is_well_formed() {
    fn has_line_member(v: &Value) -> bool {
        match v {
            Value::Object(fields) => fields
                .iter()
                .any(|(k, v)| k == "line" || has_line_member(v)),
            Value::Array(items) => items.iter().any(has_line_member),
            _ => false,
        }
    }
    let report = stashdir_lint::run();
    let model = Value::parse(&report.model.render()).expect("model renders valid JSON");
    assert_eq!(
        model.get("schema").and_then(Value::as_str),
        Some("stashdir/protocol-model/v3")
    );
    stashdir_protocol::model::ReachableModel::parse(&model.render())
        .expect("v3 model readable by the campaign reader");
    for key in ["sections", "model"] {
        let member = model.get(key).expect("artifact member");
        assert!(!has_line_member(member), "`{key}` records a source line");
    }

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

    // One finding of each pass, from mutated decision data.
    let mut d = Decisions::tabulate();
    assert!(d.probe.remove(&pair("Modified", "FwdGetS")));
    d.home
        .get_mut(&pair("GetS", "Exclusive"))
        .expect("GetS/Exclusive is handled")
        .probes
        .insert("Nudge".to_string());
    let (_, _, mutated) = protocol_passes(&d, &real_reachable());
    let findings = artifact::findings_json(&mutated);
    assert_eq!(
        findings.get("schema").and_then(Value::as_str),
        Some("stashdir-lint/findings/v2")
    );
    let rows = findings
        .get("findings")
        .and_then(Value::as_array)
        .expect("findings array");
    assert_eq!(rows.len(), 2, "{}", render_findings(&mutated));
    let mut passes: Vec<&str> = rows
        .iter()
        .map(|row| row.get("pass").and_then(Value::as_str).expect("pass"))
        .collect();
    passes.sort_unstable();
    assert_eq!(passes, ["coverage", "waitsfor"]);
    for row in rows {
        let keys: Vec<&str> = row
            .as_object()
            .expect("finding object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["pass", "rule", "file", "message"]);
    }
}

/// The `lint` binary's exit codes and artifact plumbing: 0 on the clean
/// repo, with the model and findings written; 1 on a malformed coverage
/// artifact under `--verify-coverage`.
#[test]
fn binary_exit_codes_gate_ci() {
    let tmp = std::env::temp_dir().join(format!("stashdir_lint_selftest_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let model = tmp.join("model.json");
    let findings = tmp.join("findings.json");
    let clean = Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg("--model")
        .arg(&model)
        .arg("--json")
        .arg(&findings)
        .output()
        .expect("run lint binary");
    let out = String::from_utf8_lossy(&clean.stdout);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "stdout:\n{out}\nstderr:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(
        clean.stderr.is_empty(),
        "rejected keys print nothing:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(out.contains("lint: passes:"), "stdout:\n{out}");
    assert!(out.contains("lint: clean (0 findings)"), "stdout:\n{out}");
    for path in [&model, &findings] {
        let text = std::fs::read_to_string(path).expect("artifact written");
        assert!(Value::parse(&text).is_ok(), "artifact is valid JSON");
    }

    let malformed = tmp.join("coverage.json");
    std::fs::write(&malformed, r#"{"schema": "stashdir/chaos-coverage/v0"}"#)
        .expect("write malformed artifact");
    let rejected = Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg("--verify-coverage")
        .arg(&malformed)
        .output()
        .expect("run lint binary");
    assert_eq!(rejected.status.code(), Some(1));
    let err = String::from_utf8_lossy(&rejected.stderr);
    assert!(err.contains("unknown schema"), "stderr:\n{err}");
    let _ = std::fs::remove_dir_all(&tmp);
}
