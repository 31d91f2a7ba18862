//! A microscope on the stash mechanism itself: drive a tiny machine so
//! that directory entries are silently dropped, then watch the hidden
//! copies get re-discovered.
//!
//! ```sh
//! cargo run --release --example hidden_blocks
//! ```

use stashdir::mem::CacheConfig;
use stashdir::{BlockAddr, CoverageRatio, DirReplPolicy, DirSpec, Machine, MemOp, SystemConfig};

fn main() {
    // A 4-core machine with a deliberately starved stash directory so
    // hiding happens constantly.
    let config = SystemConfig {
        cores: 4,
        l1: CacheConfig::new(4 * 1024, 2, 64, 1),
        l2: CacheConfig::new(16 * 1024, 4, 64, 4),
        llc_bank: CacheConfig::new(64 * 1024, 8, 64, 12),
        dir: DirSpec::Stash {
            coverage: CoverageRatio::new(1, 16),
            assoc: 2,
            repl: DirReplPolicy::PrivateFirstLru,
        },
        ..SystemConfig::default()
    };

    // Phase 1: core 0 dirties a pile of private blocks (directory
    // entries will be hidden). Phase 2: core 1 reads them back —
    // every read of a hidden dirty block needs a discovery round.
    let blocks: Vec<BlockAddr> = (0..64).map(|i| BlockAddr::new(i * 4)).collect();
    let mut traces = vec![Vec::new(); 4];
    for &b in &blocks {
        traces[0].push(MemOp::write(b).with_think(2));
    }
    for &b in &blocks {
        traces[1].push(MemOp::read(b).with_think(20_000));
    }

    let report = Machine::new(config).run(traces);
    report.assert_clean();

    println!("stash mechanism event log (aggregated):\n");
    for (label, key) in [
        ("directory allocations", "dir.allocations"),
        ("silent (stash) evictions", "dir.silent_evictions"),
        ("invalidating evictions", "dir.invalidating_evictions"),
        ("copies invalidated", "dir.copies_invalidated"),
        ("demand discoveries", "bank.discoveries"),
        ("  ... that found the hidden copy", "bank.discoveries_found"),
        (
            "  ... that found nobody (stale bit)",
            "bank.discoveries_stale",
        ),
        ("LLC-eviction discoveries", "bank.evict_discoveries"),
        ("hidden writebacks accepted", "bank.hidden_writebacks"),
        ("discovery probe messages", "noc.messages.discovery"),
    ] {
        println!("{label:<38} {:>8}", report.stat(key));
    }
    println!(
        "\nEvery dirty block core 1 touched was untracked at the directory, \
         yet its data arrived intact: the run passed full value checking \
         ({} ops, {} cycles).",
        report.completed_ops, report.cycles
    );
}
