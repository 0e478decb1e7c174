//! A counting global allocator shared by the allocation-budget tests
//! (`alloc_per_tick`, `alloc_wire_path`): every call is forwarded to
//! `System`, tallying allocator calls and requested bytes process-wide.
//! A binary that includes this module must hold exactly one `#[test]` —
//! a second test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is two relaxed counter increments, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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
