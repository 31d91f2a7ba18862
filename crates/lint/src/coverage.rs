//! Protocol transition-coverage analysis.
//!
//! Diffs the keys the decision functions handle ([`Decisions`]) against
//! the reachable transition set recorded by the model-check explorer
//! ([`stashdir_protocol::reachability`]). A reachable transition the
//! function rejects is an **uncovered** finding; a handled pair that is
//! neither reachable nor on the documented race allowlist is a **dead**
//! finding. The race allowlist holds the pairs that only arise with
//! in-flight messages — the atomic-transaction model cannot reach them,
//! but the timed simulator can, so the handling is load-bearing.
//!
//! A fourth section records the chaos layer's fault-response matrix:
//! every fault class mapped through `expected_detector`, which is both
//! what is handled and what the chaos campaign must witness.

use crate::decisions::{self, Decisions, Pair};
use crate::{Finding, RULE_COVERAGE_DEAD, RULE_COVERAGE_UNCOVERED};
use std::collections::{BTreeMap, BTreeSet};

/// `(state, probe)` pairs handled in `probe()` that are reachable only
/// through in-flight races, with their justification. The atomic model
/// cannot produce them; deleting the arm would still break the simulator.
pub const RACE_ALLOWED_PROBE: &[(&str, &str, &str)] = &[
    (
        "Shared",
        "FwdGetS",
        "eviction race: the old owner degraded to S while the forward was in flight",
    ),
    (
        "Shared",
        "FwdGetM",
        "eviction race: the old owner degraded to S while the forward was in flight",
    ),
    (
        "Modified",
        "Inv",
        "Inv crossing an in-flight ownership grant: the sharer already promoted",
    ),
    (
        "Exclusive",
        "Inv",
        "Inv crossing an in-flight ownership grant: the sharer already promoted",
    ),
    (
        "Shared",
        "Recall",
        "Recall vs FwdGetS race: the tracked owner already degraded to S",
    ),
];

/// `(request, view-kind)` pairs handled at the home that only arise with
/// in-flight messages.
pub const RACE_ALLOWED_HOME: &[(&str, &str, &str)] = &[
    (
        "Upgrade",
        "Exclusive",
        "Upgrade racing a GetM: the view moved to Exclusive while the Upgrade was in flight",
    ),
    (
        "PutS",
        "Exclusive",
        "stale PutS: ownership moved before the eviction notice arrived",
    ),
    (
        "PutE",
        "Shared",
        "stale PutE: the E-put lost a FwdGetS race",
    ),
    (
        "PutM",
        "Shared",
        "stale PutM: the M-put lost a FwdGetS race",
    ),
];

/// No local-access pairs are race-only: all eight are atomically
/// reachable.
pub const RACE_ALLOWED_LOCAL: &[(&str, &str, &str)] = &[];

/// No fault-response pairs are exceptional: `expected_detector` is the
/// complete truth about which detector owns which fault class.
pub const RACE_ALLOWED_FAULT: &[(&str, &str, &str)] = &[];

/// One transition-matrix section plus its diff against the model.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section name (`private_probe`, `local_access`, `home`,
    /// `fault_response`).
    pub name: &'static str,
    /// Repo-relative file of the decision function, for findings.
    pub file: &'static str,
    /// Row labels (first axis).
    pub rows: Vec<String>,
    /// Column labels (second axis).
    pub cols: Vec<String>,
    /// Pairs the decision function handles.
    pub source: BTreeSet<Pair>,
    /// Pairs the model-check explorer reaches.
    pub reachable: BTreeSet<Pair>,
    /// Race-only pairs: allowed in source despite being model-unreachable.
    pub race_allowed: BTreeMap<Pair, &'static str>,
}

impl Section {
    /// Diffs source coverage against reachability, appending findings.
    pub fn diff(&self, findings: &mut Vec<Finding>) {
        let mut push = |rule: &str, what: String| {
            findings.push(Finding {
                rule: rule.to_string(),
                file: self.file.to_string(),
                line: 0,
                message: format!("[{}] {what}", self.name),
            });
        };
        for (a, b) in self.reachable.difference(&self.source) {
            push(
                RULE_COVERAGE_UNCOVERED,
                format!("transition ({a}, {b}) is reachable in the model but the decision function rejects it"),
            );
        }
        for pair @ (a, b) in self.source.difference(&self.reachable) {
            if !self.race_allowed.contains_key(pair) {
                push(
                    RULE_COVERAGE_DEAD,
                    format!("handled transition ({a}, {b}) is neither model-reachable nor on the race allowlist (dead handling?)"),
                );
            }
        }
        for pair @ (a, b) in self.race_allowed.keys() {
            if self.reachable.contains(pair) {
                push(
                    RULE_COVERAGE_DEAD,
                    format!("race-allowlist entry ({a}, {b}) is now model-reachable; remove it from the allowlist"),
                );
            }
            if !self.source.contains(pair) {
                push(
                    RULE_COVERAGE_UNCOVERED,
                    format!(
                        "race-allowlist transition ({a}, {b}) is rejected by the decision function"
                    ),
                );
            }
        }
    }
}

/// The reachable pairs the protocol sections are diffed against, as
/// label pairs.
#[derive(Debug, Clone, Default)]
pub struct ReachablePairs {
    /// `(PrivState, Probe)` pairs.
    pub probe: BTreeSet<Pair>,
    /// `(PrivState, MemOpKind)` pairs.
    pub local: BTreeSet<Pair>,
    /// `(Request, DirView-kind)` pairs.
    pub home: BTreeSet<Pair>,
}

impl ReachablePairs {
    /// Converts the protocol crate's recorded transition set.
    pub fn from_model(set: &stashdir_protocol::reachability::TransitionSet) -> ReachablePairs {
        let own = |it: &mut dyn Iterator<Item = (&'static str, &'static str)>| {
            it.map(|(a, b)| (a.to_string(), b.to_string())).collect()
        };
        ReachablePairs {
            probe: own(&mut set.probe_pairs()),
            local: own(&mut set.local_pairs()),
            home: own(&mut set.home_pairs()),
        }
    }
}

fn allowlist(entries: &'static [(&str, &str, &str)]) -> BTreeMap<Pair, &'static str> {
    entries
        .iter()
        .map(|&(a, b, why)| ((a.to_string(), b.to_string()), why))
        .collect()
}

/// Builds the four matrix sections from the decision data and diffs
/// each against the model.
pub fn analyze(d: &Decisions, reachable: &ReachablePairs) -> (Vec<Section>, Vec<Finding>) {
    let private = "crates/protocol/src/private.rs";
    let sections = vec![
        Section {
            name: "private_probe",
            file: private,
            rows: decisions::states(),
            cols: decisions::probes(),
            source: d.probe.clone(),
            reachable: reachable.probe.clone(),
            race_allowed: allowlist(RACE_ALLOWED_PROBE),
        },
        Section {
            name: "local_access",
            file: private,
            rows: decisions::states(),
            cols: decisions::ops(),
            source: d
                .local
                .iter()
                .map(|a| (a.state.clone(), a.op.clone()))
                .collect(),
            reachable: reachable.local.clone(),
            race_allowed: allowlist(RACE_ALLOWED_LOCAL),
        },
        Section {
            name: "home",
            file: "crates/protocol/src/home.rs",
            rows: decisions::requests(),
            cols: decisions::views(),
            source: d.home.keys().cloned().collect(),
            reachable: reachable.home.clone(),
            race_allowed: allowlist(RACE_ALLOWED_HOME),
        },
        Section {
            name: "fault_response",
            file: "crates/sim/src/fault.rs",
            rows: decisions::fault_classes(),
            cols: decisions::detectors(),
            source: d.fault.clone(),
            reachable: d.fault.clone(),
            race_allowed: allowlist(RACE_ALLOWED_FAULT),
        },
    ];
    let mut findings = Vec::new();
    for s in &sections {
        s.diff(&mut findings);
    }
    (sections, findings)
}
