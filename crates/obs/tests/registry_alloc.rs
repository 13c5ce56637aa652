//! A registry lookup of an existing series allocates nothing: serve looks one up per HTTP
//! response and the flow one per stage.
//!
//! Lives in its own integration-test binary because it installs a counting global
//! allocator. Only allocations on the measuring thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use tsc3d_obs::Registry;

/// Counts the bytes the measuring thread allocates while [`COUNTING`] is set.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bytes `f` allocates on the calling thread.
fn allocated(f: impl FnOnce()) -> usize {
    let before = BYTES.load(Ordering::Relaxed);
    COUNTING.with(|counting| counting.set(true));
    f();
    COUNTING.with(|counting| counting.set(false));
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn a_repeated_lookup_of_an_unlabeled_counter_allocates_nothing() {
    let registry = Registry::new();
    let first = allocated(|| {
        registry
            .counter_with("tsc3d_test_hits_total", "hits", &[])
            .inc()
    });
    assert!(first > 0, "the first lookup registers the family");
    let repeated = allocated(|| {
        for _ in 0..100 {
            registry
                .counter_with("tsc3d_test_hits_total", "hits", &[])
                .inc();
        }
    });
    assert_eq!(repeated, 0, "bytes allocated by 100 repeated lookups");
    assert!(registry.render().contains("tsc3d_test_hits_total 101\n"));
}
