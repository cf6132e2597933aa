//! The counting global allocator of the allocation-budget test binaries:
//! `System`'s allocator with three meters on the side. A binary installs
//! it with
//!
//! ```ignore
//! #[path = "common/counting_alloc.rs"]
//! mod counting_alloc;
//!
//! #[global_allocator]
//! static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;
//! ```
//!
//! and reads whichever meters its bounds need. The first two are
//! process-wide, so a binary that reads them holds one test; the third is
//! per thread. This is the one file under `tests/` with `unsafe` in it.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls of `alloc` and `realloc`, whichever thread made them.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bytes this thread asked `alloc` and `realloc` for.
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Calls of `alloc` and `realloc` so far, on every thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed, on every thread.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Bytes the calling thread has asked `alloc` and `realloc` for so far.
pub fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

fn count_thread(bytes: usize) {
    // A thread being torn down has no counter left; its bytes go uncounted.
    let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// `System`, counted.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        count_thread(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        count_thread(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
