//! A counting global allocator for allocation-bound tests. Include it
//! with `#[path = ".../support/counting_alloc.rs"] mod counting_alloc;`
//! — a test binary that does so installs it as its global allocator.
//!
//! The count is per thread: libtest's own threads allocate while a test
//! runs (a process-global counter failed these asserts 3 runs in 6 on a
//! 2-core host), and each test only asks what *its* thread did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers TLS cleanup.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter increment has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator's
        // `alloc` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
