//! Waits-for liveness analysis over the protocol decision layer.
//!
//! Every coherence transaction *blocks* on messages: a requester that
//! misses blocks on a grant, a home that probes blocks on the probe
//! replies. The protocol stays live only because every blocking edge has
//! a sender that can still emit the awaited message, and every potential
//! cycle has an *escape edge* — a peer in `Invalid` that answers a probe
//! even while its own request is in flight.
//!
//! This pass builds the waits-for graph from the decision data
//! ([`Decisions`]):
//!
//! * the request each `local_access` miss **blocks on** (the grant for
//!   `GetS`/`GetM`/`Upgrade` — the requester's transient states),
//! * the probes each home decision key **emits** (and therefore blocks
//!   on the replies to), and the grants it issues,
//! * the states that handle each probe kind, with `probe(Invalid, P)`
//!   not being rejected counting as probe `P`'s escape edge,
//!
//! then cross-checks each blocking edge against the BFS model
//! ([`stashdir_protocol::reachability`]):
//!
//! * **`waitsfor-unsatisfiable`** — a wait on a message no peer can
//!   send or receive: a miss request no home decision (or no reachable
//!   home transition) consumes, or an emitted probe no state (or no
//!   reachable peer transition) handles.
//! * **`waitsfor-cycle`** — an emitted probe with no escape edge whose
//!   emitting key serves an in-flight (transient) request: the probed
//!   core may itself be that requester, waiting on the very transaction
//!   that is waiting on it.

use crate::coverage::ReachablePairs;
use crate::decisions::{self, Access, Decisions};
use crate::{Finding, RULE_WAITSFOR_CYCLE, RULE_WAITSFOR_UNSATISFIABLE};
use stashdir_protocol::reachability::TransitionSet;
use std::collections::{BTreeMap, BTreeSet};

const PRIVATE_FILE: &str = "crates/protocol/src/private.rs";
const HOME_FILE: &str = "crates/protocol/src/home.rs";

/// One home decision key: the messages a `(request, view)` pair emits
/// (and thus blocks on the replies to), from the decision function and
/// in the model.
#[derive(Debug, Clone)]
pub struct HomeArm {
    /// Request label.
    pub request: String,
    /// Directory-view kind label.
    pub view: String,
    /// Probe kinds the decision emits.
    pub emits: Vec<String>,
    /// Grants the decision issues.
    pub grants: Vec<String>,
    /// Probes the model emitted for this pair (empty when unreachable).
    pub model_emits: Vec<String>,
    /// Grants the model issued for this pair.
    pub model_grants: Vec<String>,
    /// Whether the model reaches this pair at all.
    pub reachable: bool,
}

/// One probe's receive side: which states handle it, and whether it has
/// an escape edge.
#[derive(Debug, Clone)]
pub struct ProbeRow {
    /// Probe kind label (base, payload ignored).
    pub probe: String,
    /// States that handle the probe.
    pub handled_states: Vec<String>,
    /// `true` when `(Invalid, probe)` is handled: a transient peer can
    /// still answer.
    pub escape: bool,
}

/// The waits-for graph, embedded in the v3 protocol-model artifact.
#[derive(Debug, Clone, Default)]
pub struct WaitsForModel {
    /// `local_access` keys.
    pub requesters: Vec<Access>,
    /// Home decision keys (demand and put).
    pub home: Vec<HomeArm>,
    /// Probe receive rows.
    pub probes: Vec<ProbeRow>,
}

/// Base name of a possibly payload-expanded label (`Discovery(Share)` →
/// `Discovery`).
fn base_of(label: &str) -> &str {
    label.split('(').next().unwrap_or(label)
}

/// Builds the waits-for graph from the decision data and diffs its
/// blocking edges against the model.
pub fn analyze(
    d: &Decisions,
    reachable: &ReachablePairs,
    model: &TransitionSet,
) -> (WaitsForModel, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut handled: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (state, p) in &d.probe {
        handled.entry(base_of(p)).or_default().insert(state.clone());
    }
    let probes = decisions::probe_kinds()
        .into_iter()
        .map(|probe| {
            let states = handled.remove(probe.as_str()).unwrap_or_default();
            ProbeRow {
                escape: states.contains("Invalid"),
                handled_states: states.into_iter().collect(),
                probe,
            }
        })
        .collect();

    let home = d
        .home
        .iter()
        .map(|(key @ (request, view), e)| {
            let model_emission = model
                .home_emissions()
                .find(|&((r, v), _)| (r, v) == (request.as_str(), view.as_str()))
                .map(|(_, m)| m);
            HomeArm {
                request: request.clone(),
                view: view.clone(),
                emits: e.probes.iter().cloned().collect(),
                grants: e.grants.iter().cloned().collect(),
                model_emits: model_emission
                    .map(|m| m.probes().map(str::to_string).collect())
                    .unwrap_or_default(),
                model_grants: model_emission
                    .map(|m| m.grants().map(str::to_string).collect())
                    .unwrap_or_default(),
                reachable: reachable.home.contains(key),
            }
        })
        .collect();
    let out = WaitsForModel {
        requesters: d.local.clone(),
        home,
        probes,
    };

    // The transient requests: what an in-flight requester blocks on.
    let transient: BTreeSet<&str> = out
        .requesters
        .iter()
        .filter_map(|r| r.blocks_on.as_deref())
        .collect();

    // Check 1: every miss request must have a consumer, in the decision
    // functions and in the model.
    let mut flagged_requests: BTreeSet<&str> = BTreeSet::new();
    for r in &out.requesters {
        let Some(req) = r.blocks_on.as_deref() else {
            continue;
        };
        if !flagged_requests.insert(req) {
            continue;
        }
        let why = if !out.home.iter().any(|h| h.request == req) {
            "no home decision handles"
        } else if !reachable.home.iter().any(|(hr, _)| hr == req) {
            "the model reaches no home transition for"
        } else {
            continue;
        };
        findings.push(Finding {
            rule: RULE_WAITSFOR_UNSATISFIABLE.to_string(),
            file: PRIVATE_FILE.to_string(),
            line: 0,
            message: format!(
                "requester transient ({}, {}) blocks on a grant for {req}, but {why} {req}",
                r.state, r.op
            ),
        });
    }

    // Checks 2–3, per emitted probe: the receive side must exist in the
    // probe table and in the model; inescapable probes serving transient
    // requests form waits-for cycles.
    let model_receives = |p: &str| reachable.probe.iter().any(|(_, col)| base_of(col) == p);
    for h in &out.home {
        for p in &h.emits {
            let row = out.probes.iter().find(|row| &row.probe == p);
            let finding = if row.is_none_or(|r| r.handled_states.is_empty()) {
                Some((
                    RULE_WAITSFOR_UNSATISFIABLE,
                    format!(
                        "home decision ({}, {}) emits {p} and blocks on its reply, but no \
                         private-cache state handles {p} — the wait can never be satisfied",
                        h.request, h.view
                    ),
                ))
            } else if !model_receives(p) {
                Some((
                    RULE_WAITSFOR_UNSATISFIABLE,
                    format!(
                        "home decision ({}, {}) emits {p}, but no reachable peer transition \
                         receives {p} in the model — the wait cannot be satisfied",
                        h.request, h.view
                    ),
                ))
            } else if !row.is_some_and(|r| r.escape) && transient.contains(h.request.as_str()) {
                Some((
                    RULE_WAITSFOR_CYCLE,
                    format!(
                        "waits-for cycle: ({}, {}) emits {p} while a {} requester is in \
                         flight, and {p} has no escape edge (probe(Invalid, {p}) is rejected) \
                         — the probed core can itself be the blocked requester",
                        h.request, h.view, h.request
                    ),
                ))
            } else {
                None
            };
            if let Some((rule, message)) = finding {
                findings.push(Finding {
                    rule: rule.to_string(),
                    file: HOME_FILE.to_string(),
                    line: 0,
                    message,
                });
            }
        }
    }

    (out, findings)
}
