//! Fixture directory stats whose fields are all registered in both
//! `export` and `merge` — this file stays clean.

pub struct DirStats {
    pub lookups: u64,
    pub silent_evictions: u64,
}

impl DirStats {
    pub fn export(&self, sink: &mut Vec<(String, u64)>) {
        sink.push(("dir.lookups".into(), self.lookups));
        sink.push(("dir.silent".into(), self.silent_evictions));
    }

    pub fn merge(&mut self, other: &DirStats) {
        self.lookups += other.lookups;
        self.silent_evictions += other.silent_evictions;
    }
}
