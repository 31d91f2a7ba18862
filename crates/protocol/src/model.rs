//! Reader for the lint protocol-model artifact
//! (`stashdir/protocol-model/v3`): the per-section reachable
//! (row × column) transition sets the chaos-campaign driver diffs its
//! witnessed coverage against.
//!
//! A campaign run from a scratch checkout may not have the artifact on
//! disk yet; [`ReachableModel::builtin`] rebuilds the three protocol
//! sections from the in-crate model checker
//! ([`reachability::reachable_transitions`]) so the loop degrades to
//! the same reachable sets the lint would have emitted.

use crate::reachability;
use stashdir_common::json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Schema id of the v3 protocol-model artifact this reader targets.
/// v3 is v2 without the source line numbers of the decision functions'
/// arms, so it changes only when the protocol does.
pub const MODEL_SCHEMA_V3: &str = "stashdir/protocol-model/v3";

/// Per-section reachable transition sets, keyed by section name
/// (`private_probe`, `local_access`, `home`, `fault_response`).
/// `BTreeMap`/`BTreeSet` keep iteration deterministic — coverage
/// artifacts are rendered straight from these sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReachableModel {
    /// Section name → reachable (row, col) pairs.
    pub sections: BTreeMap<String, BTreeSet<(String, String)>>,
}

impl ReachableModel {
    /// Parses a protocol-model artifact.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: malformed
    /// JSON, an unknown schema id, or a section whose `reachable` list
    /// is not an array of `[row, col]` string pairs.
    pub fn parse(text: &str) -> Result<ReachableModel, String> {
        let value = Value::parse(text).map_err(|e| format!("malformed JSON: {e:?}"))?;
        let schema = value
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing `schema` string")?;
        if schema != MODEL_SCHEMA_V3 {
            return Err(format!("unknown schema `{schema}`"));
        }
        let sections = value
            .get("sections")
            .and_then(Value::as_array)
            .ok_or("missing `sections` array")?;
        let mut model = ReachableModel::default();
        for (i, s) in sections.iter().enumerate() {
            let name = s
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("section {i} has no `name`"))?;
            let reachable = s
                .get("reachable")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("section `{name}` has no `reachable` array"))?;
            let mut pairs = BTreeSet::new();
            for (j, pair) in reachable.iter().enumerate() {
                let fields = pair
                    .as_array()
                    .ok_or_else(|| format!("`{name}`.reachable[{j}] is not an array"))?;
                let (Some(row), Some(col), None) = (
                    fields.first().and_then(Value::as_str),
                    fields.get(1).and_then(Value::as_str),
                    fields.get(2),
                ) else {
                    return Err(format!(
                        "`{name}`.reachable[{j}] is not a [row, col] string pair"
                    ));
                };
                pairs.insert((row.to_string(), col.to_string()));
            }
            model.sections.insert(name.to_string(), pairs);
        }
        Ok(model)
    }

    /// The three protocol sections rebuilt from the in-crate model
    /// checker — the scratch-checkout fallback when no artifact exists.
    /// (The `fault_response` section describes the fault taxonomy, which
    /// lives above this crate; callers that need it add it themselves.)
    pub fn builtin() -> ReachableModel {
        let set = reachability::reachable_transitions();
        let mut model = ReachableModel::default();
        let own = |it: &mut dyn Iterator<Item = (&'static str, &'static str)>| {
            it.map(|(r, c)| (r.to_string(), c.to_string()))
                .collect::<BTreeSet<_>>()
        };
        model
            .sections
            .insert("private_probe".to_string(), own(&mut set.probe_pairs()));
        model
            .sections
            .insert("local_access".to_string(), own(&mut set.local_pairs()));
        model
            .sections
            .insert("home".to_string(), own(&mut set.home_pairs()));
        model
    }

    /// The reachable set of one section, empty when absent.
    pub fn section(&self, name: &str) -> BTreeSet<(String, String)> {
        self.sections.get(name).cloned().unwrap_or_default()
    }

    /// Total reachable pairs across all sections.
    pub fn total_reachable(&self) -> usize {
        self.sections.values().map(BTreeSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_matches_the_model_checker_counts() {
        let m = ReachableModel::builtin();
        assert_eq!(m.section("private_probe").len(), 19);
        assert_eq!(m.section("local_access").len(), 8);
        assert_eq!(m.section("home").len(), 14);
        assert_eq!(m.total_reachable(), 41);
    }

    #[test]
    fn parses_a_minimal_v3_artifact() {
        let text = r#"{
            "schema": "stashdir/protocol-model/v3",
            "sections": [
                {"name": "home", "reachable": [["GetS", "Untracked"], ["GetM", "Shared"]]}
            ]
        }"#;
        let m = ReachableModel::parse(text).expect("parse");
        assert_eq!(m.section("home").len(), 2);
        assert!(m
            .section("home")
            .contains(&("GetS".to_string(), "Untracked".to_string())));
        assert!(m.section("private_probe").is_empty());
    }

    #[test]
    fn rejects_unknown_schemas_and_malformed_pairs() {
        assert!(ReachableModel::parse("{").is_err());
        assert!(ReachableModel::parse(r#"{"schema": "bogus/v9", "sections": []}"#).is_err());
        // The retired v1 transition-matrix and v2 line-pinned schemas are
        // no longer accepted.
        for old in [
            "stashdir-lint/transition-matrix/v1",
            "stashdir/protocol-model/v2",
        ] {
            let text = format!(r#"{{"schema": "{old}", "sections": []}}"#);
            assert_eq!(
                ReachableModel::parse(&text),
                Err(format!("unknown schema `{old}`"))
            );
        }
        let bad_pair = r#"{
            "schema": "stashdir/protocol-model/v3",
            "sections": [{"name": "home", "reachable": [["GetS"]]}]
        }"#;
        assert!(ReachableModel::parse(bad_pair).is_err());
    }
}
