//! The simulator's own memory. Most of a large run's heap is cache and
//! directory slots, so the slot payloads are kept packed and a run's
//! peak is bounded: a widened field or a per-set structure that stops
//! growing with use fails here instead of quietly costing the 1024-core
//! runs tens of MiB.

use stashdir_common::SharerSet;
use stashdir_protocol::DirView;
use stashdir_sim::bank::LlcLine;
use stashdir_sim::private::L2Line;
use stashdir_sim::{CoverageRatio, DirSpec, Machine, SystemConfig};
use stashdir_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

/// The system allocator, counting per thread the bytes live now and the
/// most live at once, so the test harness's own threads do not disturb
/// the count. Bytes freed on another thread than their allocation's
/// read as negative there.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size() as isize);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most bytes live at once on this thread while `f` ran, above
/// those live when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> usize {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    drop(f());
    (PEAK.with(Cell::get) - start) as usize
}

#[test]
fn slot_payloads_carry_no_padding() {
    assert_eq!(size_of::<Option<L2Line>>(), 9, "state and version");
    assert_eq!(size_of::<Option<LlcLine>>(), 10, "version, dirty, stash");
    assert_eq!(size_of::<SharerSet>(), 16, "one word and its capacity");
    assert_eq!(size_of::<Option<DirView>>(), 16, "a sharer set's size");
}

/// Cores of the guarded run: past 64, so sharer sets take their boxed
/// path, as on the E20 meshes.
const CORES: u16 = 128;

/// Peak heap bound for the run below, in bytes: 7.5 MiB. With the
/// final check gathering one batch of home banks' private copies at a
/// time it measured 7 464 800 bytes (7.1 MiB); with one machine-wide
/// copy vector it measured 8 010 800 bytes (7.6 MiB), so a return to
/// that vector fails here. Packed slots, 16-byte directory views and
/// LRU stacks that grow with their sets had measured 8 075 312 bytes
/// (7.7 MiB); padded 16- and 32-byte slots with LRU stacks of every way
/// 11 130 288 bytes (10.6 MiB).
const PEAK_BOUND: usize = 15 << 19;

/// A data-parallel run at 1/8 stash coverage, traces, machine and
/// report together, stays under [`PEAK_BOUND`].
#[test]
fn a_128_core_stash_run_stays_under_its_peak() {
    let peak = peak_bytes(|| {
        let traces = Workload::DataParallel.generate(CORES, 300, 7);
        let dir = DirSpec::stash(CoverageRatio::new(1, 8));
        let config = SystemConfig::default().with_cores(CORES).with_dir(dir);
        Machine::new(config).run(traces)
    });
    let mib = peak as f64 / f64::from(1 << 20);
    assert!(
        peak < PEAK_BOUND,
        "a {CORES}-core run peaked at {mib:.1} MiB ({peak} bytes)"
    );
}
