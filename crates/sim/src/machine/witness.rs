//! Transition witnessing for campaign coverage: the interned label
//! tables and the (row × column) hit counters a witnessing run bumps at
//! each private probe, core-local access and home decision.

// lint: allow-file(indexing) — witness cells are indexed by
// `row * cols + col` from the `*_idx` functions, each below its domain
// size, and `privs` by a config-bounded `CoreId`.

use super::Machine;
use crate::private::ProbeAnswer;
use crate::report::TransitionHits;
use stashdir_common::{BlockAddr, CoreId, MemOp, MemOpKind};
use stashdir_protocol::{DirView, DiscoveryIntent, PrivState, Probe, Request};

/// Transition-label domain sizes for the interned witness counters.
const N_STATES: usize = 4;
const N_PROBES: usize = 6;
const N_OPS: usize = 2;
const N_REQUESTS: usize = 6;
const N_VIEWS: usize = 3;

/// Interned row/column index of each label domain. Every `*_idx`
/// function is the inverse of the matching `*_LABELS` table, and the
/// tables carry exactly the canonical labels of
/// `stashdir_protocol::reachability` (asserted in tests), so campaign
/// coverage still diffs against the lint protocol-model artifact with
/// no label translation.
fn state_idx(s: PrivState) -> usize {
    match s {
        PrivState::Invalid => 0,
        PrivState::Shared => 1,
        PrivState::Exclusive => 2,
        PrivState::Modified => 3,
    }
}
const STATE_LABELS: [&str; N_STATES] = ["Invalid", "Shared", "Exclusive", "Modified"];

fn probe_idx(p: Probe) -> usize {
    match p {
        Probe::FwdGetS => 0,
        Probe::FwdGetM => 1,
        Probe::Inv => 2,
        Probe::Recall => 3,
        Probe::Discovery(DiscoveryIntent::Share) => 4,
        Probe::Discovery(DiscoveryIntent::Invalidate) => 5,
    }
}
const PROBE_LABELS: [&str; N_PROBES] = [
    "FwdGetS",
    "FwdGetM",
    "Inv",
    "Recall",
    "Discovery(Share)",
    "Discovery(Invalidate)",
];

fn op_idx(k: MemOpKind) -> usize {
    match k {
        MemOpKind::Read => 0,
        MemOpKind::Write => 1,
    }
}
const OP_LABELS: [&str; N_OPS] = ["Read", "Write"];

fn request_idx(r: Request) -> usize {
    match r {
        Request::GetS => 0,
        Request::GetM => 1,
        Request::Upgrade => 2,
        Request::PutS => 3,
        Request::PutE => 4,
        Request::PutM => 5,
    }
}
const REQUEST_LABELS: [&str; N_REQUESTS] = ["GetS", "GetM", "Upgrade", "PutS", "PutE", "PutM"];

fn view_idx(v: &DirView) -> usize {
    match v {
        DirView::Untracked => 0,
        DirView::Exclusive(_) => 1,
        DirView::Shared(_) => 2,
    }
}
const VIEW_LABELS: [&str; N_VIEWS] = ["Untracked", "Exclusive", "Shared"];

/// Per-(row × column) transition hit counters over the small,
/// statically known label spaces above, stored as flat arrays indexed
/// by interned transition id (`row * cols + col`) — the hot-path bump
/// is one array add, no tree walk. Export recovers the canonical
/// labels and sorts them lexicographically, reproducing the ordered
/// `(row, col)` iteration the former `BTreeMap` keys gave the artifact
/// schema (the determinism lint forbids hash-order iteration into
/// artifacts; a sorted flat array is order-deterministic by
/// construction).
///
/// Allocated only when the fault config asked for witnessing
/// ([`FaultConfig::witness`](crate::fault::FaultConfig::witness)); plain and plain-chaos runs never touch
/// it.
#[derive(Debug)]
pub(super) struct WitnessSet {
    /// Private-cache probe handling: (private state, probe).
    probe: [u64; N_STATES * N_PROBES],
    /// Core-local accesses: (private state, Read/Write).
    local: [u64; N_STATES * N_OPS],
    /// Home decisions: (request, directory view).
    home: [u64; N_REQUESTS * N_VIEWS],
}

impl Default for WitnessSet {
    fn default() -> Self {
        WitnessSet {
            probe: [0; N_STATES * N_PROBES],
            local: [0; N_STATES * N_OPS],
            home: [0; N_REQUESTS * N_VIEWS],
        }
    }
}

impl WitnessSet {
    pub(super) fn export(&self, coverage: &mut Vec<TransitionHits>) {
        type Section<'a> = (&'a str, &'a [u64], &'a [&'static str], &'a [&'static str]);
        let sections: [Section; 3] = [
            ("private_probe", &self.probe, &STATE_LABELS, &PROBE_LABELS),
            ("local_access", &self.local, &STATE_LABELS, &OP_LABELS),
            ("home", &self.home, &REQUEST_LABELS, &VIEW_LABELS),
        ];
        for (name, cells, rows, cols) in sections {
            let mut hit: Vec<(&'static str, &'static str, u64)> = cells
                .iter()
                .enumerate()
                .filter(|&(_, &hits)| hits > 0)
                .map(|(id, &hits)| (rows[id / cols.len()], cols[id % cols.len()], hits))
                .collect();
            hit.sort_unstable();
            for (row, col, hits) in hit {
                coverage.push(TransitionHits {
                    section: name.to_string(),
                    row: row.to_string(),
                    col: col.to_string(),
                    hits,
                });
            }
        }
    }
}

impl Machine {
    /// Applies `probe` at `target`, first recording the
    /// (private state × probe) transition when witnessing is on. The
    /// state is read *before* the probe lands — the row label the
    /// protocol model's private-probe matrix uses.
    pub(super) fn probe_with_witness(
        &mut self,
        target: CoreId,
        block: BlockAddr,
        probe: Probe,
    ) -> ProbeAnswer {
        if self.witness.is_some() {
            let state = self.privs[target.index()].state_of(block);
            if let Some(w) = self.witness.as_mut() {
                w.probe[state_idx(state) * N_PROBES + probe_idx(probe)] += 1;
            }
        }
        self.privs[target.index()].apply_probe(block, probe)
    }

    /// Records a core-local (private state × Read/Write) access.
    pub(super) fn witness_local(&mut self, core: CoreId, op: MemOp) {
        if self.witness.is_some() {
            let state = self.privs[core.index()].state_of(op.block);
            if let Some(w) = self.witness.as_mut() {
                w.local[state_idx(state) * N_OPS + op_idx(op.kind)] += 1;
            }
        }
    }

    /// Records a home-side (request × directory view) decision.
    pub(super) fn witness_home(&mut self, req: Request, view: &DirView) {
        if let Some(w) = self.witness.as_mut() {
            w.home[request_idx(req) * N_VIEWS + view_idx(view)] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The interned witness tables must carry exactly the canonical
    /// labels of `stashdir_protocol::reachability`, at exactly the
    /// index each `*_idx` function assigns — otherwise campaign
    /// coverage would diff garbage against the protocol-model artifact.
    #[test]
    fn witness_label_tables_match_reachability_and_idx_functions() {
        use stashdir_protocol::reachability as reach;
        for s in [
            PrivState::Invalid,
            PrivState::Shared,
            PrivState::Exclusive,
            PrivState::Modified,
        ] {
            assert_eq!(STATE_LABELS[state_idx(s)], reach::state_label(s));
        }
        for p in [
            Probe::FwdGetS,
            Probe::FwdGetM,
            Probe::Inv,
            Probe::Recall,
            Probe::Discovery(DiscoveryIntent::Share),
            Probe::Discovery(DiscoveryIntent::Invalidate),
        ] {
            assert_eq!(PROBE_LABELS[probe_idx(p)], reach::probe_label(p));
        }
        for k in [MemOpKind::Read, MemOpKind::Write] {
            assert_eq!(OP_LABELS[op_idx(k)], reach::op_label(k));
        }
        for r in [
            Request::GetS,
            Request::GetM,
            Request::Upgrade,
            Request::PutS,
            Request::PutE,
            Request::PutM,
        ] {
            assert_eq!(REQUEST_LABELS[request_idx(r)], reach::request_label(r));
        }
        for v in [
            DirView::Untracked,
            DirView::Exclusive(CoreId::new(0)),
            DirView::Shared(stashdir_common::SharerSet::new(1)),
        ] {
            assert_eq!(VIEW_LABELS[view_idx(&v)], reach::view_label(&v));
        }
    }
}
