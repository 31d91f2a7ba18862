//! JSON artifact emission, via `stashdir-common::json` (no external
//! serializers):
//!
//! * [`model_json`] — the `stashdir/protocol-model/v3` artifact
//!   ([`MODEL_SCHEMA_V3`]): transition-matrix `sections` and `findings`
//!   plus a `model` object carrying the waits-for graph. It holds labels
//!   only, no source positions, so it changes only when the protocol
//!   does.
//! * [`findings_json`] — the machine-readable findings list for
//!   `lint --json`.
//! * [`verify_chaos_coverage`] — checks the shape of the harness
//!   campaign's coverage artifact.

use crate::coverage::Section;
use crate::waitsfor::WaitsForModel;
use crate::Finding;
use stashdir_common::json::Value;
use stashdir_protocol::model::MODEL_SCHEMA_V3;

/// Schema identifier of the findings artifact.
pub const SCHEMA_FINDINGS: &str = "stashdir-lint/findings/v2";
/// Schema identifier of the chaos-campaign coverage artifact (written
/// by the harness `campaign` binary, verified here so `ci.sh` can gate
/// on its shape the same way it gates on the protocol model).
pub const SCHEMA_CHAOS: &str = "stashdir/chaos-coverage/v1";

fn pair_array(pairs: impl Iterator<Item = (String, String)>) -> Value {
    Value::array(
        pairs
            .map(|(a, b)| Value::array(vec![Value::String(a), Value::String(b)]))
            .collect(),
    )
}

fn label_array(labels: &[String]) -> Value {
    Value::array(labels.iter().cloned().map(Value::String).collect())
}

/// Renders one matrix section, including the computed diff sets.
fn section_json(s: &Section) -> Value {
    let uncovered = s.reachable.difference(&s.source).cloned();
    let dead = s
        .source
        .difference(&s.reachable)
        .filter(|p| !s.race_allowed.contains_key(*p))
        .cloned();
    Value::object(vec![
        ("name".to_string(), Value::String(s.name.to_string())),
        ("rows".to_string(), label_array(&s.rows)),
        ("cols".to_string(), label_array(&s.cols)),
        ("source".to_string(), pair_array(s.source.iter().cloned())),
        (
            "reachable".to_string(),
            pair_array(s.reachable.iter().cloned()),
        ),
        (
            "race_allowed".to_string(),
            Value::array(
                s.race_allowed
                    .iter()
                    .map(|((a, b), why)| {
                        Value::array(vec![
                            Value::String(a.clone()),
                            Value::String(b.clone()),
                            Value::String(why.to_string()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("uncovered".to_string(), pair_array(uncovered)),
        ("dead".to_string(), pair_array(dead)),
    ])
}

fn finding_json(f: &Finding) -> Value {
    Value::object(vec![
        ("rule".to_string(), Value::String(f.rule.clone())),
        ("file".to_string(), Value::String(f.file.clone())),
        ("message".to_string(), Value::String(f.message.clone())),
    ])
}

fn findings_array(findings: &[Finding]) -> Value {
    Value::array(findings.iter().map(finding_json).collect())
}

fn waits_json(waits: &WaitsForModel) -> Value {
    let requesters = waits
        .requesters
        .iter()
        .map(|r| {
            Value::object(vec![
                ("state".to_string(), Value::String(r.state.clone())),
                ("op".to_string(), Value::String(r.op.clone())),
                (
                    "blocks_on".to_string(),
                    match &r.blocks_on {
                        Some(req) => Value::String(req.clone()),
                        None => Value::Null,
                    },
                ),
            ])
        })
        .collect();
    let home = waits
        .home
        .iter()
        .map(|h| {
            Value::object(vec![
                ("request".to_string(), Value::String(h.request.clone())),
                ("view".to_string(), Value::String(h.view.clone())),
                ("emits".to_string(), label_array(&h.emits)),
                ("grants".to_string(), label_array(&h.grants)),
                ("model_emits".to_string(), label_array(&h.model_emits)),
                ("model_grants".to_string(), label_array(&h.model_grants)),
                ("reachable".to_string(), Value::Bool(h.reachable)),
            ])
        })
        .collect();
    let probes = waits
        .probes
        .iter()
        .map(|p| {
            Value::object(vec![
                ("probe".to_string(), Value::String(p.probe.clone())),
                ("handled_states".to_string(), label_array(&p.handled_states)),
                ("escape".to_string(), Value::Bool(p.escape)),
            ])
        })
        .collect();
    Value::object(vec![
        ("requesters".to_string(), Value::array(requesters)),
        ("home".to_string(), Value::array(home)),
        ("probes".to_string(), Value::array(probes)),
    ])
}

/// Renders the v3 protocol-model artifact: the transition-matrix
/// sections and findings, plus the waits-for graph under `model`.
pub fn model_json(sections: &[Section], waits: &WaitsForModel, findings: &[Finding]) -> Value {
    Value::object(vec![
        (
            "schema".to_string(),
            Value::String(MODEL_SCHEMA_V3.to_string()),
        ),
        (
            "sections".to_string(),
            Value::array(sections.iter().map(section_json).collect()),
        ),
        ("model".to_string(), waits_json(waits)),
        ("findings".to_string(), findings_array(findings)),
    ])
}

/// Renders the machine-readable findings artifact for `lint --json`.
pub fn findings_json(findings: &[Finding]) -> Value {
    Value::object(vec![
        (
            "schema".to_string(),
            Value::String(SCHEMA_FINDINGS.to_string()),
        ),
        (
            "findings".to_string(),
            Value::array(
                findings
                    .iter()
                    .map(|f| {
                        Value::object(vec![
                            (
                                "pass".to_string(),
                                Value::String(pass_of(&f.rule).to_string()),
                            ),
                            ("rule".to_string(), Value::String(f.rule.clone())),
                            ("file".to_string(), Value::String(f.file.clone())),
                            ("message".to_string(), Value::String(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The pass a rule belongs to, as surfaced in the findings artifact.
pub fn pass_of(rule: &str) -> &'static str {
    match rule {
        crate::RULE_COVERAGE_UNCOVERED | crate::RULE_COVERAGE_DEAD => "coverage",
        crate::RULE_WAITSFOR_UNSATISFIABLE | crate::RULE_WAITSFOR_CYCLE => "waitsfor",
        _ => "unknown",
    }
}

/// Checks that `artifact` is a well-formed chaos-coverage artifact
/// (`stashdir/chaos-coverage/v1`): the schema string, the round ledger,
/// per-section hit counts whose `[row, col, n]` triples are consistent
/// with the section's `witnessed` total, and the campaign-level
/// `pairwise`/`total` gates.
///
/// # Errors
///
/// Returns the first shape violation found, phrased for the lint
/// binary's `--verify-coverage` diagnostics.
pub fn verify_chaos_coverage(artifact: &Value) -> Result<(), String> {
    let obj = artifact.as_object().ok_or("artifact is not an object")?;
    let get = |key: &str| -> Result<&Value, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key `{key}`"))
    };
    let schema = get("schema")?.as_str().ok_or("`schema` is not a string")?;
    if schema != SCHEMA_CHAOS {
        return Err(format!("unknown schema `{schema}`"));
    }
    get("model")?.as_str().ok_or("`model` is not a string")?;
    for key in ["seed", "ops"] {
        get(key)?
            .as_u64()
            .ok_or_else(|| format!("`{key}` is not an integer"))?;
    }
    let rounds = get("rounds")?
        .as_array()
        .ok_or("`rounds` is not an array")?;
    if rounds.is_empty() {
        return Err("`rounds` is empty".to_string());
    }
    for (i, r) in rounds.iter().enumerate() {
        r.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("round {i} missing string `name`"))?;
        for key in ["cases", "new_pairs", "witnessed"] {
            r.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("round {i} missing integer `{key}`"))?;
        }
    }
    let sections = get("sections")?
        .as_array()
        .ok_or("`sections` is not an array")?;
    let mut hit_pairs = 0u64;
    for (i, s) in sections.iter().enumerate() {
        s.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("section {i} missing string `name`"))?;
        let reachable = s
            .get("reachable")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("section {i} missing integer `reachable`"))?;
        let witnessed = s
            .get("witnessed")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("section {i} missing integer `witnessed`"))?;
        if witnessed > reachable {
            return Err(format!(
                "section {i} witnessed {witnessed} exceeds reachable {reachable}"
            ));
        }
        let hits = s
            .get("hits")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("section {i} missing array `hits`"))?;
        for (j, h) in hits.iter().enumerate() {
            let triple = h
                .as_array()
                .ok_or_else(|| format!("section {i} hit {j} is not an array"))?;
            if triple.len() != 3
                || triple[0].as_str().is_none()
                || triple[1].as_str().is_none()
                || triple[2].as_u64().is_none_or(|n| n == 0)
            {
                return Err(format!(
                    "section {i} hit {j} is not a [row, col, count>0] triple"
                ));
            }
        }
        if hits.len() as u64 != witnessed {
            return Err(format!(
                "section {i} has {} hits but claims {witnessed} witnessed",
                hits.len()
            ));
        }
        hit_pairs += witnessed;
        for key in ["unwitnessed", "unexpected"] {
            s.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("section {i} missing array `{key}`"))?;
        }
    }
    let pairwise = get("pairwise")?;
    let caught = pairwise
        .get("caught")
        .and_then(Value::as_u64)
        .ok_or("`pairwise` missing integer `caught`")?;
    let classes = pairwise
        .get("total")
        .and_then(Value::as_u64)
        .ok_or("`pairwise` missing integer `total`")?;
    if caught > classes {
        return Err(format!(
            "pairwise caught {caught} exceeds class total {classes}"
        ));
    }
    let total = get("total")?;
    let witnessed = total
        .get("witnessed")
        .and_then(Value::as_u64)
        .ok_or("`total` missing integer `witnessed`")?;
    let reachable = total
        .get("reachable")
        .and_then(Value::as_u64)
        .ok_or("`total` missing integer `reachable`")?;
    total
        .get("baseline_witnessed")
        .and_then(Value::as_u64)
        .ok_or("`total` missing integer `baseline_witnessed`")?;
    if witnessed > reachable {
        return Err(format!(
            "total witnessed {witnessed} exceeds reachable {reachable}"
        ));
    }
    if hit_pairs != witnessed {
        return Err(format!(
            "sections witness {hit_pairs} pairs but `total` claims {witnessed}"
        ));
    }
    get("cases")?.as_array().ok_or("`cases` is not an array")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "schema": "stashdir/chaos-coverage/v1",
      "model": "builtin",
      "seed": 7,
      "ops": 400,
      "rounds": [{"name": "baseline", "cases": 7, "new_pairs": 15, "witnessed": 15}],
      "sections": [{
        "name": "fault_response",
        "reachable": 7,
        "witnessed": 1,
        "hits": [["SharerFlip", "Invariant", 9]],
        "unwitnessed": [],
        "unexpected": []
      }],
      "pairwise": {"caught": 7, "total": 7},
      "total": {"reachable": 48, "witnessed": 1, "baseline_witnessed": 1},
      "cases": []
    }"#;

    #[test]
    fn well_formed_coverage_artifact_verifies() {
        let value = Value::parse(SAMPLE).unwrap();
        verify_chaos_coverage(&value).expect("sample verifies");
    }

    #[test]
    fn coverage_check_rejects_shape_violations() {
        let mangle = |from: &str, to: &str, want: &str| {
            let text = SAMPLE.replace(from, to);
            assert_ne!(text, SAMPLE, "pattern {from:?} must match the sample");
            let err = verify_chaos_coverage(&Value::parse(&text).unwrap())
                .expect_err("mangled artifact must fail");
            assert!(err.contains(want), "{err:?} should mention {want:?}");
        };
        // Wrong schema id.
        mangle("chaos-coverage/v1", "chaos-coverage/v0", "unknown schema");
        // Hit count inconsistent with the section's witnessed total.
        mangle(
            "\"witnessed\": 1,\n        \"hits\"",
            "\"witnessed\": 2,\n        \"hits\"",
            "claims 2 witnessed",
        );
        // Witnessed beyond reachable.
        mangle("\"reachable\": 7", "\"reachable\": 0", "exceeds reachable");
        // A zero hit count is not a witness.
        mangle("\"Invariant\", 9", "\"Invariant\", 0", "count>0");
        // Section totals must agree with the campaign total.
        mangle(
            "\"witnessed\": 1, \"baseline",
            "\"witnessed\": 5, \"baseline",
            "claims 5",
        );
        // The round ledger cannot be empty.
        mangle(
            "[{\"name\": \"baseline\", \"cases\": 7, \"new_pairs\": 15, \"witnessed\": 15}]",
            "[]",
            "`rounds` is empty",
        );
    }
}
