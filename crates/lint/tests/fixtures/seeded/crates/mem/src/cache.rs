//! Fixture cache stats whose fields are all registered in both `export`
//! and `merge` — this file stays clean.

pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    pub fn export(&self, sink: &mut Vec<(String, u64)>) {
        sink.push(("cache.hits".into(), self.hits));
        sink.push(("cache.misses".into(), self.misses));
    }

    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}
