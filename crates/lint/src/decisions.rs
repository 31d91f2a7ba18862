//! The protocol's decision tables, read by calling the compiled decision
//! functions — `probe`, `local_access`, `decide` and `decide_put` — once
//! per key of their finite domains.
//!
//! A call that panics marks its key as *rejected*: the function's
//! `panic!`/`unreachable!` arm says the key is outside what it handles
//! (`decide` rejects the puts, `decide_put` the demand requests). Every
//! other key is *handled*, and its outcome is recorded as labels from
//! [`stashdir_protocol::reachability`], the same labels the model checker
//! records. The coverage and waits-for passes read only this data, so
//! the protocol model depends on what the functions decide, not on where
//! their arms sit in the source.

use stashdir_common::CoreId;
use stashdir_protocol::reachability::{
    grant_label, op_label, probe_base_label, probe_label, request_label, state_label, view_label,
};
use stashdir_protocol::{
    decide, decide_put, local_access, probe, AccessOutcome, DirView, MemOpKind, PrivState, Probe,
    Request,
};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// A `(row, column)` label pair of one section.
pub type Pair = (String, String);

/// The core whose request the home decides.
const REQUESTER: CoreId = CoreId::new(0);
/// The core a view names when the requester holds nothing.
const OTHER: CoreId = CoreId::new(1);
/// Sharer-set capacity of the views: the two cores above.
const CAPACITY: u16 = 2;

/// One handled `local_access` key.
#[derive(Debug, Clone)]
pub struct Access {
    /// Private-cache state label.
    pub state: String,
    /// Memory operation label.
    pub op: String,
    /// The request a miss sends and then blocks on the grant for;
    /// `None` for a hit.
    pub blocks_on: Option<String>,
}

/// What the home emits for one handled `(request, view-kind)` key,
/// unioned over the requester holding the block and not holding it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Emission {
    /// Probe kinds sent, as base labels (payload dropped).
    pub probes: BTreeSet<String>,
    /// Grants issued.
    pub grants: BTreeSet<String>,
}

/// The outcomes of every decision function over its domain.
#[derive(Debug, Clone, Default)]
pub struct Decisions {
    /// Handled `(state, probe)` keys of `probe`.
    pub probe: BTreeSet<Pair>,
    /// Handled `local_access` keys, state-major in declaration order.
    pub local: Vec<Access>,
    /// Handled `(request, view-kind)` keys of `decide` and `decide_put`.
    pub home: BTreeMap<Pair, Emission>,
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, returning `None` if it panics. The panic message is not
/// printed: a rejected key is an expected outcome, not an error.
fn handled<T>(f: impl FnOnce() -> T) -> Option<T> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                previous(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f)).ok();
    QUIET.with(|q| q.set(false));
    out
}

fn pair(row: &str, col: &str) -> Pair {
    (row.to_string(), col.to_string())
}

/// Labels of `items`, in the order given.
fn labels<T: Copy>(items: &[T], label: impl Fn(T) -> &'static str) -> Vec<String> {
    items.iter().map(|&x| label(x).to_string()).collect()
}

/// Private-cache state labels in declaration order.
pub(crate) fn states() -> Vec<String> {
    labels(&PrivState::ALL, state_label)
}

/// Probe labels in declaration order, discovery intents expanded.
pub(crate) fn probes() -> Vec<String> {
    labels(&Probe::ALL, probe_label)
}

/// Probe kinds (discovery intents merged) in declaration order.
pub(crate) fn probe_kinds() -> Vec<String> {
    let mut kinds = labels(&Probe::ALL, probe_base_label);
    kinds.dedup();
    kinds
}

/// Memory-operation labels in declaration order.
pub(crate) fn ops() -> Vec<String> {
    labels(&MemOpKind::ALL, op_label)
}

/// Request labels in declaration order.
pub(crate) fn requests() -> Vec<String> {
    labels(&Request::ALL, request_label)
}

/// Directory-view kind labels in declaration order.
pub(crate) fn views() -> Vec<String> {
    DirView::each_kind(REQUESTER, CAPACITY)
        .iter()
        .map(|v| view_label(v).to_string())
        .collect()
}

impl Decisions {
    /// Calls each decision function once per key of its domain. `decide`
    /// and `decide_put` see every request × view kind twice: once with
    /// the requester as the view's only holder, once with another core
    /// as the only holder (an `Untracked` view names nobody either way).
    pub fn tabulate() -> Decisions {
        let mut d = Decisions::default();
        for state in PrivState::ALL {
            for p in Probe::ALL {
                if handled(|| probe(state, p)).is_some() {
                    d.probe.insert(pair(state_label(state), probe_label(p)));
                }
            }
            for op in MemOpKind::ALL {
                if let Some(outcome) = handled(|| local_access(state, op)) {
                    d.local.push(Access {
                        state: state_label(state).to_string(),
                        op: op_label(op).to_string(),
                        blocks_on: match outcome {
                            AccessOutcome::Hit(_) => None,
                            AccessOutcome::Miss(req) => Some(request_label(req).to_string()),
                        },
                    });
                }
            }
        }
        for req in Request::ALL {
            for holder in [REQUESTER, OTHER] {
                for view in DirView::each_kind(holder, CAPACITY) {
                    let demand = handled(|| decide(req, REQUESTER, &view, CAPACITY))
                        .map(|out| (out.probes, Some(out.grant)));
                    let put =
                        handled(|| decide_put(req, REQUESTER, &view)).map(|_| (Vec::new(), None));
                    for (sent, grant) in demand.into_iter().chain(put) {
                        let e = d
                            .home
                            .entry(pair(request_label(req), view_label(&view)))
                            .or_default();
                        e.probes
                            .extend(sent.iter().map(|&(_, p)| probe_base_label(p).to_string()));
                        e.grants.extend(grant.map(|g| grant_label(g).to_string()));
                    }
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_call_is_rejected_quietly() {
        assert_eq!(handled(|| 7), Some(7));
        assert_eq!(handled(|| -> u32 { panic!("rejected key") }), None);
    }

    #[test]
    fn the_home_tables_split_at_the_rejection_arms() {
        let d = Decisions::tabulate();
        assert_eq!(d.probe.len(), 24, "probe handles every key");
        assert_eq!(d.local.len(), 8, "local_access handles every key");
        assert_eq!(d.home.len(), 18, "demands via decide, puts via decide_put");
        let puts = d.home.iter().filter(|((r, _), _)| r.starts_with("Put"));
        for (key, e) in puts {
            assert_eq!(e, &Emission::default(), "{key:?}: puts emit nothing");
        }
        let gets_owned = &d.home[&pair("GetS", "Exclusive")];
        assert_eq!(
            gets_owned.grants,
            BTreeSet::from(["Exclusive".to_string(), "Shared".to_string()]),
            "the owner re-asking is re-granted E; anyone else is forwarded to S"
        );
        assert_eq!(
            probe_kinds(),
            ["FwdGetS", "FwdGetM", "Inv", "Recall", "Discovery"]
        );
    }
}
