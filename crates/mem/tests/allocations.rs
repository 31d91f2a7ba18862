//! Building a `SetAssoc` costs a constant number of heap allocations,
//! whatever its number of sets, and requests next to no bytes: storage
//! is allocated per chunk of sets on first insert. A chunk then stores
//! only as many ways per set as its fullest set has needed, so sets
//! holding one block each request one way each. A per-set heap layout
//! (a `Vec` of ways or an LRU stack per set), an eagerly allocated one,
//! or chunks that store every way from their first insert fail these
//! tests.

use stashdir_common::BlockAddr;
use stashdir_mem::SetAssoc;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and the bytes they
/// request per thread so the test harness's own threads do not disturb
/// the count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size()));
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

/// What `counter` counted on this thread while `f` ran.
fn counted<T>(
    counter: &'static std::thread::LocalKey<Cell<usize>>,
    f: impl FnOnce() -> T,
) -> usize {
    let before = counter.with(Cell::get);
    let value = f();
    let after = counter.with(Cell::get);
    drop(value);
    after - before
}

/// Allocations made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    counted(&ALLOCATIONS, f)
}

/// Bytes requested by `f`'s allocations on this thread.
fn requested_bytes<T>(f: impl FnOnce() -> T) -> usize {
    counted(&BYTES, f)
}

/// Allocations `SetAssoc::new` may make. It makes one, the chunk index;
/// the flat layout it replaced made three.
const MAX_ALLOCATIONS: usize = 3;

#[test]
fn construction_allocates_a_constant_number_of_times() {
    let one = allocations(|| SetAssoc::<u64>::new(1, 16));
    let many = allocations(|| SetAssoc::<u64>::new(1024, 16));
    assert!(
        many <= MAX_ALLOCATIONS,
        "SetAssoc::new(1024, 16) made {many} allocations"
    );
    assert_eq!(one, many, "allocations grow with the set count");
}

/// A 16 K-line array of 16-byte payloads: the flat layout requested
/// 528 KiB of tags, lines and LRU stacks up front.
#[test]
fn construction_requests_only_the_chunk_index() {
    let bytes = requested_bytes(|| SetAssoc::<[u64; 2]>::new(1024, 16));
    assert!(
        bytes < 4096,
        "SetAssoc::new(1024, 16) requested {bytes} bytes"
    );
}

/// One block in each set of a 16 K-line array of 16-byte payloads: 64
/// chunks of one way per set request 36.5 KiB, tags, lines, one-byte LRU
/// stacks and the index together. LRU stacks of all 16 ways made it
/// 51.5 KiB, and chunks storing all 16 ways of every set requested
/// 531 KiB.
#[test]
fn one_block_per_set_requests_one_way_per_set() {
    let bytes = requested_bytes(|| {
        let mut array = SetAssoc::<[u64; 2]>::new(1024, 16);
        for set in 0..1024 {
            array.insert(BlockAddr::new(set), [set; 2]);
        }
        array
    });
    assert!(
        bytes <= 37 * 1024,
        "one block in each of 1024 16-way sets requested {bytes} bytes"
    );
}
