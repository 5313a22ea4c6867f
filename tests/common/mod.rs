//! A counting global allocator for the tests that bound memory.
//!
//! A test binary that declares `mod common;` routes every allocation
//! through [`Counting`], which keeps the live heap bytes and their
//! peak. Measurements take [`serial`] in turn, so no other test of the
//! binary allocates during one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every call to `System`; only the byte counters are added.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), SeqCst) + layout.size();
            PEAK.fetch_max(live, SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// Holds the measurement lock of this test binary.
pub fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap bytes allocated and not yet freed.
pub fn live() -> usize {
    LIVE.load(SeqCst)
}

/// Runs `f` and returns its result with the bytes allocated above the
/// starting level at the peak of `f`.
pub fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live();
    PEAK.store(base, SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst).saturating_sub(base))
}
