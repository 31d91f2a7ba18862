//! Lightweight simulation statistics.
//!
//! Components own [`Counter`]s and [`Histogram`]s directly (no global
//! registry, no locks) and export them into a [`StatSink`] at the end of a
//! run, which the experiment harness serializes as rows.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use stashdir_common::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples in `[2^(i-1), 2^i)`, except bucket 0 which
/// holds exactly the value 0. Tracks count, sum, min and max exactly.
///
/// # Examples
///
/// ```
/// use stashdir_common::Histogram;
/// let mut h = Histogram::new();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Some(100));
/// assert!((h.mean().unwrap() - 26.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or `None` if no samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket populations; bucket `i` covers `[2^(i-1), 2^i)` (bucket 0 is
    /// the literal value 0).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// power-of-two bucket containing the `q`-th sample, so the true
    /// quantile is at most the returned value and at least half of it.
    /// `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { (1u64 << i) - 1 });
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// An ordered name→value table of exported statistics.
///
/// Keys use dotted paths (`"llc.0.discoveries"`). Values are `f64` so
/// counters and derived ratios live in the same table. Components write
/// into a sink once, at end of run; iteration and CSV export follow
/// sorted key order.
///
/// # Examples
///
/// ```
/// use stashdir_common::StatSink;
/// let mut sink = StatSink::new();
/// sink.put("dir.evictions", 10.0);
/// sink.put("dir.silent", 9.0);
/// assert_eq!(sink.get("dir.silent"), Some(9.0));
/// assert_eq!(sink.to_csv().lines().count(), 3); // header + 2 rows
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatSink {
    values: BTreeMap<String, f64>,
}

impl StatSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        StatSink::default()
    }

    /// Stores a value, replacing any previous value under `key`.
    pub fn put(&mut self, key: impl Into<String>, value: f64) {
        self.values.insert(key.into(), value);
    }

    /// Stores a counter under `key`.
    pub fn put_counter(&mut self, key: impl Into<String>, counter: Counter) {
        self.put(key, counter.get() as f64);
    }

    /// Fetches a value.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Fetches a value, defaulting to zero when absent.
    pub fn get_or_zero(&self, key: &str) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Iterates `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing has been exported yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Renders `key,value` CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("stat,value\n");
        for (k, v) in self.iter() {
            out.push_str(k);
            out.push(',');
            out.push_str(&format_stat(v));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for StatSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<48} {}", format_stat(v))?;
        }
        Ok(())
    }
}

impl Extend<(String, f64)> for StatSink {
    fn extend<T: IntoIterator<Item = (String, f64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.put(k, v);
        }
    }
}

impl FromIterator<(String, f64)> for StatSink {
    fn from_iter<T: IntoIterator<Item = (String, f64)>>(iter: T) -> Self {
        let mut sink = StatSink::new();
        sink.extend(iter);
        sink
    }
}

fn format_stat(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(4); // bucket 3
        assert_eq!(h.buckets(), &[1, 1, 2, 1]);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        for v in [5, 10, 15] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 30);
        assert_eq!(h.mean(), Some(10.0));
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(15));
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((500..=1023).contains(&p50), "p50 bucket bound, got {p50}");
        assert!((990..=1023).contains(&p99), "p99 bucket bound, got {p99}");
        assert!(p99 >= p50);
        assert_eq!(h.quantile(0.0), Some(1), "first bucket upper bound");
        assert_eq!(h.quantile(1.0), Some(1023));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn quantile_of_zeros() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_bad_q() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(1000));
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(7);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn sink_roundtrip_and_csv() {
        let mut sink = StatSink::new();
        sink.put("b", 2.5);
        sink.put("a", 1.0);
        assert_eq!(sink.get("a"), Some(1.0));
        assert_eq!(sink.get_or_zero("zzz"), 0.0);
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        assert!(StatSink::new().is_empty());
        let csv = sink.to_csv();
        assert_eq!(csv, "stat,value\na,1\nb,2.500000\n");
    }

    #[test]
    fn export_order_is_key_sorted_not_insertion_order() {
        let mut sink = StatSink::new();
        sink.put("z.last", 0.0);
        sink.put("a.first", 0.0);
        sink.put("m.middle", 1.0);
        let keys: Vec<&str> = sink.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a.first", "m.middle", "z.last"]);
        assert_eq!(
            sink.to_csv(),
            "stat,value\na.first,0\nm.middle,1\nz.last,0\n"
        );
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = StatSink::new();
        a.put("x", 1.0);
        a.put("y", 2.0);
        let mut b = StatSink::new();
        b.put("y", 2.0);
        b.put("x", 1.0);
        assert_eq!(a, b);
        b.put("x", 9.0);
        assert_ne!(a, b);
    }
}
