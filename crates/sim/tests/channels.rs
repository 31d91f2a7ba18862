//! The per-channel FIFO clamp is kept only where it can bind: on
//! tile-local channels, on a contention-free NoC, and under a threaded
//! fault plan. On a contended NoC, link reservation already orders every
//! remote channel, so a plain machine delivers raw arrivals there.
//!
//! A machine with a threaded but disabled fault plan injects nothing and
//! keeps the full per-pair clamp. Its runs must equal plain runs for
//! every backend, contention on and off, which pins that skipping the
//! clamp changes no arrival.

use proptest::prelude::*;
use stashdir_common::{BlockAddr, MemOp};
use stashdir_mem::CacheConfig;
use stashdir_sim::{DirSpec, FaultConfig, Machine, SystemConfig};

const CORES: usize = 16;
/// Distinct blocks the traces touch: enough to overflow the tiny private
/// caches and the 1/8-coverage directories below.
const BLOCKS: u64 = 96;

/// A small configuration of each registered backend, at 1/8 coverage
/// where it takes one.
fn spec(name: &str) -> DirSpec {
    let text = match name {
        "fullmap" | "dls" => name.to_string(),
        "cuckoo" => "cuckoo@1/8".to_string(),
        "limited-ptr" => "limited-ptr2@1/8x4w".to_string(),
        _ => format!("{name}@1/8x4w"),
    };
    let spec: DirSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(spec.name(), name, "{text} builds another backend");
    spec
}

/// A 16-core 4×4 machine with tiny private caches and LLC banks, so
/// short traces still write back, forward, invalidate and discover.
fn config(dir: DirSpec, contention: bool) -> SystemConfig {
    let mut cfg = SystemConfig {
        cores: CORES as u16,
        l1: CacheConfig::new(256, 2, 64, 1),
        l2: CacheConfig::new(512, 2, 64, 4),
        llc_bank: CacheConfig::new(1024, 2, 64, 8),
        dir,
        ..SystemConfig::default()
    };
    cfg.noc.model_contention = contention;
    cfg
}

fn traces() -> impl Strategy<Value = Vec<Vec<MemOp>>> {
    let op = (0u64..BLOCKS, prop::bool::ANY, 0u32..4).prop_map(|(b, write, think)| {
        let block = BlockAddr::new(b);
        let op = if write {
            MemOp::write(block)
        } else {
            MemOp::read(block)
        };
        op.with_think(think)
    });
    prop::collection::vec(prop::collection::vec(op, 0..40), CORES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every registered backend, contention on and off, a plain run
    /// and a run with a disabled fault plan threaded in report the same
    /// bytes.
    #[test]
    fn skipping_the_remote_clamp_changes_no_run(traces in traces()) {
        for &name in stashdir_core::backends() {
            for contention in [true, false] {
                let cfg = config(spec(name), contention);
                let plain = Machine::new(cfg.clone()).run(traces.clone());
                let threaded = Machine::new(cfg)
                    .with_faults(FaultConfig::disabled())
                    .run(traces.clone());
                prop_assert!(plain.violations.is_empty(), "{}: {:?}", name, plain.violations);
                prop_assert_eq!(
                    format!("{plain:?}"),
                    format!("{threaded:?}"),
                    "{} contention={}", name, contention
                );
            }
        }
    }
}
