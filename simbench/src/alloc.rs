//! A counting global allocator: live bytes, their peak, and the number
//! of allocations, for `peak_heap_mb` and `alloc.per_ref`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Delegates every call to [`System`] and keeps three counters.
///
/// The counters are statistics that publish no other data, so they use
/// `Relaxed` ordering.
pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (so by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations on `ptr`, `layout` and
        // `new_size` pass through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Heap use of one timed call, from [`Mark::new`] to [`Mark::finish`].
pub struct Mark {
    start_live: u64,
    start_allocs: u64,
}

/// What a timed call allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapUse {
    /// Peak live bytes during the call minus the live bytes at its start.
    pub peak_bytes: u64,
    /// Allocations (including reallocations) made by the call.
    pub allocs: u64,
}

impl Mark {
    /// Resets the peak to the current live size and starts counting.
    pub fn new() -> Mark {
        let start_live = LIVE.load(Ordering::Relaxed);
        PEAK.store(start_live, Ordering::Relaxed);
        Mark { start_live, start_allocs: ALLOCS.load(Ordering::Relaxed) }
    }

    /// Ends the call.
    pub fn finish(self) -> HeapUse {
        HeapUse {
            peak_bytes: PEAK.load(Ordering::Relaxed).saturating_sub(self.start_live),
            allocs: ALLOCS.load(Ordering::Relaxed) - self.start_allocs,
        }
    }
}
