//! `SetAssoc` storage is flat: building an array costs a constant number
//! of heap allocations, whatever its number of sets. A per-set heap
//! layout (a `Vec` of ways or a boxed policy per set) fails this test.

use stashdir_mem::{ReplKind, SetAssoc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per thread so the test
/// harness's own threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(value);
    after - before
}

/// Allocations `SetAssoc::new` may make: the tag vector, the line
/// vector and the replacement-state vector.
const MAX_ALLOCATIONS: usize = 3;

#[test]
fn construction_allocates_a_constant_number_of_times() {
    for repl in [
        ReplKind::Lru,
        ReplKind::Fifo,
        ReplKind::Random,
        ReplKind::Nru,
        ReplKind::Srrip,
        ReplKind::TreePlru,
    ] {
        let one = allocations(|| SetAssoc::<u64>::new(1, 16, repl, 7));
        let many = allocations(|| SetAssoc::<u64>::new(1024, 16, repl, 7));
        assert!(
            many <= MAX_ALLOCATIONS,
            "{repl}: SetAssoc::new(1024, 16) made {many} allocations"
        );
        assert_eq!(one, many, "{repl}: allocations grow with the set count");
    }
}
