//! Transition witnessing for campaign coverage: the interned label
//! tables and the (row × column) hit counters a witnessing run bumps at
//! each private probe, core-local access and home decision.

#![expect(
    clippy::indexing_slicing,
    reason = "witness cells are indexed by `row * cols + col` from the \
              `*_idx` functions, each below its domain size, and `privs` by \
              a config-bounded `CoreId`"
)]

use super::Machine;
use crate::private::ProbeAnswer;
use crate::report::TransitionHits;
use stashdir_common::{BlockAddr, CoreId, MemOp, MemOpKind};
use stashdir_protocol::reachability as reach;
use stashdir_protocol::{DirView, DiscoveryIntent, PrivState, Probe, Request};

/// Transition-label domain sizes for the interned witness counters.
const N_STATES: usize = PrivState::ALL.len();
const N_PROBES: usize = Probe::ALL.len();
const N_OPS: usize = MemOpKind::ALL.len();
const N_REQUESTS: usize = Request::ALL.len();
const N_VIEWS: usize = 3;

/// Interned row/column index of each label domain: the position in the
/// protocol's declaration-order list (`PrivState::ALL`, `Probe::ALL`,
/// `MemOpKind::ALL`, `Request::ALL`, `DirView::each_kind`), asserted in
/// tests. Export labels each index through
/// `stashdir_protocol::reachability`, so campaign coverage diffs
/// against the lint protocol-model artifact with no label translation.
fn state_idx(s: PrivState) -> usize {
    match s {
        PrivState::Modified => 0,
        PrivState::Exclusive => 1,
        PrivState::Shared => 2,
        PrivState::Invalid => 3,
    }
}

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

fn op_idx(k: MemOpKind) -> usize {
    match k {
        MemOpKind::Read => 0,
        MemOpKind::Write => 1,
    }
}

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

fn view_idx(v: &DirView) -> usize {
    match v {
        DirView::Untracked => 0,
        DirView::Exclusive(_) => 1,
        DirView::Shared(_) => 2,
    }
}

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
        let states = PrivState::ALL.map(reach::state_label);
        let probes = Probe::ALL.map(reach::probe_label);
        let ops = MemOpKind::ALL.map(reach::op_label);
        let requests = Request::ALL.map(reach::request_label);
        let views = DirView::each_kind(CoreId::new(0), 1).map(|v| reach::view_label(&v));
        type Section<'a> = (&'a str, &'a [u64], &'a [&'static str], &'a [&'static str]);
        let sections: [Section; 3] = [
            ("private_probe", &self.probe, &states, &probes),
            ("local_access", &self.local, &states, &ops),
            ("home", &self.home, &requests, &views),
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

    /// Each `*_idx` function inverts the declaration-order list it
    /// indexes, and that list is as long as its counter domain —
    /// otherwise export would label a hit with another transition's
    /// name and campaign coverage would diff garbage against the
    /// protocol-model artifact.
    #[test]
    fn each_idx_inverts_the_list_it_indexes() {
        for (i, s) in PrivState::ALL.into_iter().enumerate() {
            assert_eq!(state_idx(s), i, "{s:?}");
        }
        for (i, p) in Probe::ALL.into_iter().enumerate() {
            assert_eq!(probe_idx(p), i, "{p:?}");
        }
        for (i, k) in MemOpKind::ALL.into_iter().enumerate() {
            assert_eq!(op_idx(k), i, "{k:?}");
        }
        for (i, r) in Request::ALL.into_iter().enumerate() {
            assert_eq!(request_idx(r), i, "{r:?}");
        }
        let views = DirView::each_kind(CoreId::new(0), 1);
        assert_eq!(views.len(), N_VIEWS);
        for (i, v) in views.iter().enumerate() {
            assert_eq!(view_idx(v), i, "{v:?}");
        }
    }
}
