//! Fixture backend-stats struct. `BackendStats.indirection_hops` is
//! deliberately missing from `BackendStats::merge`, seeding a
//! stat-registration violation (`export` mentions every field, so the
//! merge registry is the one that fires). `BankStats` registers every
//! field in both and stays clean.

pub struct BankStats {
    pub discoveries: u64,
}

impl BankStats {
    pub fn export(&self, sink: &mut Vec<(String, u64)>) {
        sink.push(("bank.discoveries".into(), self.discoveries));
    }

    pub fn merge(&mut self, other: &BankStats) {
        self.discoveries += other.discoveries;
    }
}

pub struct BackendStats {
    pub remote_llc_accesses: u64,
    pub indirection_hops: u64,
}

impl BackendStats {
    pub fn export(&self, sink: &mut Vec<(String, u64)>) {
        sink.push(("backend.remote".into(), self.remote_llc_accesses));
        sink.push(("backend.hops".into(), self.indirection_hops));
    }

    pub fn merge(&mut self, other: &BackendStats) {
        self.remote_llc_accesses += other.remote_llc_accesses;
    }
}
