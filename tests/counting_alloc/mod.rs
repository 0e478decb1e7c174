//! A counting global allocator shared by the allocation-budget tests
//! (`alloc_per_tick`, `alloc_wire_path`) and `space_accounting`: every
//! call is forwarded to `System`, tallying allocator calls, requested
//! bytes and live bytes process-wide. A binary that includes this module
//! must hold exactly one `#[test]` — a second test running on another
//! thread would be counted too.

// Each including binary uses one of the two readers.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is relaxed counter updates, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // Wrapping: a shrink adds the (negative) difference.
        LIVE.fetch_add(new_size.wrapping_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: forwarded with the caller's arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `work`, returning the allocator calls and bytes it requested
/// (`alloc` and `realloc` both count) beside its result.
pub fn counted<R>(work: impl FnOnce() -> R) -> (u64, u64, R) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = work();
    (
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
        out,
    )
}

/// Bytes allocated and not yet freed, process-wide (`alloc` adds,
/// `dealloc` subtracts, `realloc` adds the difference).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}
