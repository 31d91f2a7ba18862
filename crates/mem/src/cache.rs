//! Cache geometry configuration and hit/miss accounting.

use stashdir_common::{Counter, StatSink};
use std::fmt;

/// Geometry and timing of one cache level. Every cache replaces its
/// least-recently-used block.
///
/// # Examples
///
/// ```
/// use stashdir_mem::CacheConfig;
/// let l1 = CacheConfig::new(32 * 1024, 4, 64, 1);
/// assert_eq!(l1.num_sets(), 128);
/// assert_eq!(l1.num_blocks(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    size_bytes: u64,
    assoc: usize,
    block_bytes: u64,
    /// Access latency in cycles (tag + data).
    pub latency: u64,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent: sizes not powers of two,
    /// zero associativity, or a size that does not divide into whole sets.
    pub fn new(size_bytes: u64, assoc: usize, block_bytes: u64, latency: u64) -> Self {
        assert!(assoc > 0, "associativity must be positive");
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(
            size_bytes.is_multiple_of(block_bytes * assoc as u64),
            "size {size_bytes} does not divide into sets of {assoc} x {block_bytes}B"
        );
        let cfg = CacheConfig {
            size_bytes,
            assoc,
            block_bytes,
            latency,
        };
        assert!(
            (cfg.num_sets() as u64).is_power_of_two(),
            "number of sets ({}) must be a power of two",
            cfg.num_sets()
        );
        cfg
    }

    /// Total capacity in bytes.
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (ways per set).
    pub const fn assoc(&self) -> usize {
        self.assoc
    }

    /// Block size in bytes.
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Number of sets.
    pub const fn num_sets(&self) -> usize {
        (self.size_bytes / (self.block_bytes * self.assoc as u64)) as usize
    }

    /// Total capacity in blocks.
    pub const fn num_blocks(&self) -> usize {
        (self.size_bytes / self.block_bytes) as usize
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KiB {}-way {}B-block {}cyc lru",
            self.size_bytes / 1024,
            self.assoc,
            self.block_bytes,
            self.latency,
        )
    }
}

/// Hit/miss/eviction accounting for one cache.
///
/// `export` and `merge` destructure every field, with no `..`, so a new
/// counter does not compile until both handle it.
///
/// # Examples
///
/// ```
/// use stashdir_mem::CacheStats;
/// let mut s = CacheStats::default();
/// s.hits.incr();
/// s.misses.incr();
/// assert_eq!(s.accesses(), 2);
/// assert_eq!(s.miss_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: Counter,
    /// Demand accesses that missed.
    pub misses: Counter,
    /// Capacity/conflict evictions of valid blocks.
    pub evictions: Counter,
    /// Evictions of dirty blocks (writebacks).
    pub writebacks: Counter,
    /// Blocks invalidated by coherence actions (directory evictions,
    /// exclusive requests by other cores, LLC recalls).
    pub coherence_invalidations: Counter,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Fraction of accesses that missed (0 when there were no accesses).
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses.get() as f64 / total as f64
        }
    }

    /// Exports the counters under `prefix.` into `sink`.
    pub fn export(&self, prefix: &str, sink: &mut StatSink) {
        let CacheStats {
            hits,
            misses,
            evictions,
            writebacks,
            coherence_invalidations,
        } = *self;
        sink.put_counter(format!("{prefix}.hits"), hits);
        sink.put_counter(format!("{prefix}.misses"), misses);
        sink.put_counter(format!("{prefix}.evictions"), evictions);
        sink.put_counter(format!("{prefix}.writebacks"), writebacks);
        sink.put_counter(
            format!("{prefix}.coherence_invalidations"),
            coherence_invalidations,
        );
        sink.put(format!("{prefix}.miss_rate"), self.miss_rate());
    }

    /// Adds another stats block into this one (for aggregating per-core
    /// caches into a machine total).
    pub fn merge(&mut self, other: &CacheStats) {
        let CacheStats {
            hits,
            misses,
            evictions,
            writebacks,
            coherence_invalidations,
        } = other;
        self.hits.add(hits.get());
        self.misses.add(misses.get());
        self.evictions.add(evictions.get());
        self.writebacks.add(writebacks.get());
        self.coherence_invalidations
            .add(coherence_invalidations.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivations() {
        let c = CacheConfig::new(256 * 1024, 8, 64, 8);
        assert_eq!(c.num_sets(), 512);
        assert_eq!(c.num_blocks(), 4096);
        assert_eq!(c.size_bytes(), 256 * 1024);
        assert_eq!(c.assoc(), 8);
        assert_eq!(c.block_bytes(), 64);
    }

    #[test]
    fn display_is_compact() {
        let c = CacheConfig::new(32 * 1024, 4, 64, 1);
        assert_eq!(c.to_string(), "32KiB 4-way 64B-block 1cyc lru");
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn bad_geometry_panics() {
        let _ = CacheConfig::new(100, 3, 64, 1);
    }

    #[test]
    fn miss_rate_zero_when_untouched() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CacheStats::default();
        a.hits.add(2);
        a.writebacks.add(1);
        let mut b = CacheStats::default();
        b.hits.add(3);
        b.misses.add(5);
        a.merge(&b);
        assert_eq!(a.hits.get(), 5);
        assert_eq!(a.misses.get(), 5);
        assert_eq!(a.writebacks.get(), 1);
    }

    #[test]
    fn export_writes_all_keys() {
        let mut sink = StatSink::new();
        let mut s = CacheStats::default();
        s.hits.add(9);
        s.misses.add(1);
        s.export("l1", &mut sink);
        assert_eq!(sink.get("l1.hits"), Some(9.0));
        assert_eq!(sink.get("l1.miss_rate"), Some(0.1));
        assert_eq!(sink.get("l1.coherence_invalidations"), Some(0.0));
    }
}
