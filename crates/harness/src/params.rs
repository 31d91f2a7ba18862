//! Shared run parameters and small helpers the experiments share.

use stashdir::{DirSpec, SystemConfig};

/// Shared run parameters, overridable from the environment
/// (`STASHDIR_OPS`, `STASHDIR_SEED`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Operations per core per run.
    pub ops: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            ops: env_parse("STASHDIR_OPS", 10_000),
            seed: env_parse("STASHDIR_SEED", 7),
        }
    }
}

/// Parses an environment variable, falling back to `default` when unset
/// or malformed. Used for both `usize` and `u64` knobs so seeds keep
/// their full 64-bit range on 32-bit hosts.
fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Convenience: the default 16-core machine with `dir`.
pub fn machine_with(dir: DirSpec) -> SystemConfig {
    SystemConfig::default().with_dir(dir)
}

/// Geometric mean of positive values (how the paper aggregates
/// normalized execution times).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_uniform_is_identity() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn seed_parses_as_full_u64() {
        // 2^63 + 1 does not fit a usize-then-cast path on 32-bit hosts and
        // must still round-trip through the parser used for seeds.
        let big = "9223372036854775809";
        assert_eq!(big.parse::<u64>().unwrap(), (1u64 << 63) + 1);
    }

    #[test]
    fn env_parse_falls_back_on_garbage() {
        // Unset variable.
        assert_eq!(env_parse("STASHDIR_SURELY_UNSET_VAR", 42u64), 42);
    }
}
