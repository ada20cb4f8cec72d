//! Counting global allocator: the outside-in source of `bytes_per_key`,
//! `alloc.calls_per_op` and `alloc.bytes_per_op`.
//!
//! Counting is off by default so the end-to-end windows never pay for
//! it; a [`Scope`] switches it on around the region being priced. All
//! counters are relaxed statistics — they publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by the benchmark binary.
pub struct Counting;

fn on_alloc(size: usize) {
    if ENABLED.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        let total = BYTES.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK_LIVE.fetch_max(total.saturating_sub(FREED.load(Relaxed)), Relaxed);
    }
}

fn on_free(size: usize) {
    if ENABLED.load(Relaxed) {
        FREED.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// layout and pointer unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counted region allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counted {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes still live when the region closed (requested − freed,
    /// counting only frees made inside the region).
    pub live: u64,
    /// Highest `live` seen inside the region.
    pub peak_live: u64,
}

/// A counted region: counting is on from [`Scope::begin`] until
/// [`Scope::end`]. Regions do not nest and must not overlap; the
/// benchmark opens them from its coordinating thread only.
pub struct Scope(());

impl Scope {
    /// Zeroes the counters and switches counting on.
    pub fn begin() -> Scope {
        assert!(!ENABLED.load(Relaxed), "allocation scopes do not nest");
        for c in [&CALLS, &BYTES, &FREED, &PEAK_LIVE] {
            c.store(0, Relaxed);
        }
        ENABLED.store(true, Relaxed);
        Scope(())
    }

    /// Switches counting off and returns what the region allocated.
    pub fn end(self) -> Counted {
        ENABLED.store(false, Relaxed);
        let (bytes, freed) = (BYTES.load(Relaxed), FREED.load(Relaxed));
        Counted {
            calls: CALLS.load(Relaxed),
            bytes,
            live: bytes.saturating_sub(freed),
            peak_live: PEAK_LIVE.load(Relaxed),
        }
    }
}
