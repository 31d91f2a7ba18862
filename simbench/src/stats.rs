//! Order statistics. Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so spreads computed here and by
//! external tooling agree.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (v[0], v[0])
        } else {
            (quartile(&v, 1), quartile(&v, 3))
        };
        Some(Summary { median, q1, q3, n })
    }

    /// Interquartile distance as a share of the median.
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The `i`-th quartile of sorted `v` (`v.len() >= 2`), exclusive method.
fn quartile(v: &[f64], i: usize) -> f64 {
    let m = v.len() + 1;
    let j = (i * m / 4).clamp(1, v.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(values: &[f64], median: f64, q1: f64, q3: f64) {
        let s = Summary::of(values).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (median, q1, q3, values.len()));
    }

    #[test]
    fn matches_python_statistics() {
        // statistics.median / statistics.quantiles(v, n=4) on each vector.
        check(
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            5.5,
            2.75,
            8.25,
        );
        check(&[3.0, 1.0, 2.0], 2.0, 1.0, 3.0);
        check(&[1.0, 2.0], 1.5, 0.75, 2.25);
        check(&[5.0, 1.0, 4.0, 2.0, 3.0], 3.0, 1.5, 4.5);
        check(&[10.0, 20.0, 30.0, 40.0], 25.0, 12.5, 37.5);
        check(&[7.0], 7.0, 7.0, 7.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn relative_spread() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(s.rel_spread(), 1.0);
    }
}
