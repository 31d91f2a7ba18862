//! The set-associative directories keep their entries in a `SetAssoc`
//! with inline sharer words. Building one costs a constant number of
//! heap allocations whatever its set count. A set's storage is allocated
//! on its first fill, in a fixed number of steps, and once its ways are
//! stored no install, lookup, in-place update or eviction at 64 cores
//! touches the heap. A per-set `Vec`, a per-insert allocation, a heap
//! sharer vector or a cloning lookup fails these tests.

use stashdir_common::{BlockAddr, CoreId, SharerSet};
use stashdir_core::{DirConfig, DirectoryModel, EvictionAction};
use stashdir_protocol::DirView;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

/// Allocations building a directory may make. It makes one, the chunk
/// index of its array; the flat storage it replaced made three.
const MAX_ALLOCATIONS: usize = 3;

/// Allocations filling an empty set of eight ways: its chunk's tags,
/// views and LRU stacks, then all three again as the chunk grows from
/// one slot per set to two, four and eight.
const FIRST_FILL_ALLOCATIONS: usize = 3 + 3 * 3;

/// A directory as the machine builds one, boxed behind the trait.
type Build = fn(usize) -> Box<dyn DirectoryModel>;

const BUILDERS: [(&str, Build); 2] = [
    ("stash", |sets| DirConfig::stash(sets, 8).build(7)),
    ("sparse", |sets| DirConfig::sparse(sets, 8).build(7)),
];

fn two_sharers(a: u16, b: u16) -> DirView {
    let mut set = SharerSet::new(64);
    set.extend([CoreId::new(a), CoreId::new(b)]);
    DirView::Shared(set)
}

/// Stores all eight ways of set 0 of `dir`, installing blocks 100
/// onwards with `views`; none of them evicts.
fn fill(dir: &mut dyn DirectoryModel, views: Vec<DirView>) {
    for (i, view) in (100..).zip(views) {
        let action = dir.install(BlockAddr::new(i * 64), view);
        assert_eq!(action, EvictionAction::None, "the set had room");
    }
}

#[test]
fn a_first_fill_allocates_its_chunk_and_each_growth() {
    for (name, build) in BUILDERS {
        let mut dir = build(64);
        let views = vec![DirView::Exclusive(CoreId::new(1)); 8];
        let made = allocations(|| fill(&mut *dir, views));
        assert_eq!(made, FIRST_FILL_ALLOCATIONS, "{name}: first fill");
    }
}

#[test]
fn construction_allocates_a_constant_number_of_times() {
    for (name, build) in BUILDERS {
        // The box itself is one more allocation on both sides.
        let one = allocations(|| build(1));
        let many = allocations(|| build(1024));
        assert!(
            many <= MAX_ALLOCATIONS + 1,
            "{name}: building 1024 sets made {many} allocations"
        );
        assert_eq!(one, many, "{name}: allocations grow with the set count");
    }
}

#[test]
fn operations_at_64_cores_allocate_nothing() {
    for (name, build) in BUILDERS {
        // One set of eight ways, all stored and full: every new block
        // evicts.
        let mut dir = build(1);
        fill(
            &mut *dir,
            (0..8).map(|i| two_sharers(50 + i, 51 + i)).collect(),
        );
        let views: Vec<DirView> = (0..32u16)
            .map(|i| {
                if i % 2 == 0 {
                    two_sharers(i, i + 1)
                } else {
                    DirView::Exclusive(CoreId::new(i))
                }
            })
            .collect();
        let mut invalidating = 0;
        let made = allocations(|| {
            for (i, view) in views.into_iter().enumerate() {
                let block = BlockAddr::new(i as u64);
                match dir.install(block, view) {
                    EvictionAction::None => {}
                    EvictionAction::Silent { .. } => {
                        panic!("{name}: shared victims are never silent")
                    }
                    EvictionAction::Invalidate { view, .. } => {
                        assert_eq!(view.holder_count(), 2, "{name}: victims share");
                        invalidating += 1;
                    }
                }
                black_box(dir.lookup(block));
                // A re-install updates the entry in place; every entry
                // ends up with two sharers.
                black_box(dir.install(block, two_sharers(40, 41)));
            }
        });
        assert_eq!(made, 0, "{name}: install, lookup and eviction allocated");
        assert_eq!(invalidating, 32, "{name}: invalidating evictions");
    }
}

#[test]
fn stash_silent_evictions_allocate_nothing() {
    let mut dir = DirConfig::stash(1, 8).build(7);
    fill(&mut *dir, vec![DirView::Exclusive(CoreId::new(40)); 8]);
    let views: Vec<DirView> = (0..32u16)
        .map(|i| DirView::Exclusive(CoreId::new(i)))
        .collect();
    let mut silent = 0;
    let made = allocations(|| {
        for (i, view) in views.into_iter().enumerate() {
            if let EvictionAction::Silent { .. } = dir.install(BlockAddr::new(i as u64), view) {
                silent += 1;
            }
        }
    });
    assert_eq!(made, 0, "silent evictions allocated");
    assert_eq!(silent, 32);
}

#[test]
fn cloning_a_64_core_sharer_set_allocates_nothing() {
    let set = SharerSet::new(64);
    assert_eq!(allocations(|| set.clone()), 0);
    let view = two_sharers(0, 63);
    assert_eq!(allocations(|| view.clone()), 0);
}

/// Beyond 64 cores a set boxes its capacity and words together, and the
/// words again inside: a clone allocates both.
#[test]
fn cloning_a_1024_core_sharer_set_allocates_twice() {
    let mut set = SharerSet::new(1024);
    set.extend([CoreId::new(0), CoreId::new(1023)]);
    assert_eq!(allocations(|| set.clone()), 2);
    let view = DirView::Shared(set);
    assert_eq!(allocations(|| view.clone()), 2);
}
