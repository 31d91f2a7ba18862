//! Offline mini-implementation of [criterion](https://crates.io/crates/criterion).
//!
//! Implements only the API surface the workspace's benches use —
//! `criterion_group!` / `criterion_main!`, `Criterion::benchmark_group`,
//! `BenchmarkGroup::{sample_size, throughput, bench_function,
//! bench_with_input, finish}`, `BenchmarkId`, `Throughput`, and
//! `Bencher::iter` — so `cargo bench` runs without network access.
//!
//! Measurement is intentionally simple: a short warm-up and calibration,
//! then timed batches until a small time budget is spent, reporting mean
//! median ns/iter (and element throughput when declared) to stdout. It
//! is a smoke-run harness, not a statistics engine; swap back to real
//! criterion for publishable numbers.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// Measurement budget per benchmark.
const TIME_BUDGET: Duration = Duration::from_millis(200);

/// Target wall-clock per timed batch: long enough to amortize the
/// `Instant::now()` overhead for nanosecond-scale bodies, short enough
/// to leave hundreds of samples in the budget for a stable median.
const BATCH_TARGET_NS: f64 = 100_000.0;

/// Declared throughput of one benchmark iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier (`group/id` in output).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Id from a function name plus a parameter.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Id from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Timing driver handed to each benchmark closure.
#[derive(Default)]
pub struct Bencher {
    iters: u64,
    /// ns/iter of each timed batch (the median source).
    samples: Vec<f64>,
}

impl Bencher {
    /// Times `f` in calibrated batches until the budget is spent.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up doubles as calibration: size batches so one batch
        // costs roughly `BATCH_TARGET_NS` and `Instant::now()` noise
        // stays out of the per-iteration signal.
        let warmup = Instant::now();
        for _ in 0..3 {
            std::hint::black_box(f());
        }
        let est_ns = (warmup.elapsed().as_nanos() as f64 / 3.0).max(1.0);
        let batch = (BATCH_TARGET_NS / est_ns).clamp(1.0, 1_000_000.0) as u64;
        let budget_start = Instant::now();
        while budget_start.elapsed() < TIME_BUDGET {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let spent = start.elapsed();
            self.iters += batch;
            self.samples.push(spent.as_nanos() as f64 / batch as f64);
        }
    }
}

/// Median of `samples` (mean of the middle pair for even lengths).
fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the stub sizes runs by time budget.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Declares per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&self.name, &id.into().id, self.throughput, |b| f(b));
        self
    }

    /// Runs one benchmark over a borrowed input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&self.name, &id.id, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// The top-level bench context.
#[derive(Default)]
pub struct Criterion;

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _criterion: PhantomData,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one("", name, None, |b| f(b));
        self
    }
}

fn run_one(group: &str, id: &str, throughput: Option<Throughput>, mut f: impl FnMut(&mut Bencher)) {
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    let mut bencher = Bencher::default();
    f(&mut bencher);
    if bencher.iters == 0 {
        println!("bench {label:<40} (no iterations recorded)");
        return;
    }
    let median_ns = median(&mut bencher.samples);
    match throughput {
        Some(Throughput::Elements(n)) => {
            let per_sec = n as f64 * 1e9 / median_ns;
            println!(
                "bench {label:<40} {median_ns:>12.1} ns/iter (median)  {per_sec:>14.0} elem/s  ({} iters)",
                bencher.iters
            );
        }
        Some(Throughput::Bytes(n)) => {
            let per_sec = n as f64 * 1e9 / median_ns;
            println!(
                "bench {label:<40} {median_ns:>12.1} ns/iter (median)  {per_sec:>14.0} B/s  ({} iters)",
                bencher.iters
            );
        }
        None => {
            println!(
                "bench {label:<40} {median_ns:>12.1} ns/iter (median)  ({} iters)",
                bencher.iters
            );
        }
    }
}

/// Declares a bench group function invoking each target with a fresh
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the given bench groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_iterations() {
        let mut b = Bencher::default();
        b.iter(|| std::hint::black_box(2u64 + 2));
        assert!(b.iters > 0);
        assert!(!b.samples.is_empty());
        assert!(median(&mut b.samples) > 0.0);
    }

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }
}
