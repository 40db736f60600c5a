//! An allocation-counting wrapper around the system allocator, for
//! `serve.allocs_per_frame`. The binary installs it as the global
//! allocator; elsewhere [`count`] stays at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts every `alloc` and `realloc`, then defers to [`System`].
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: a statistic that publishes no other data.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` contract is passed on verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Relaxed: a statistic that publishes no other data.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // `new_size` contract is passed on verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events since process start (all threads).
pub fn count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
