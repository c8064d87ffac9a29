//! The benchmark's global allocator: the system allocator, counting the
//! live bytes in heap blocks of at least `MIN_COUNTED` bytes and their
//! high-water mark, for `peak_heap_mb`.
//!
//! Only those blocks are counted so that the shared counter stays cold:
//! counting every allocation made the two workers of a sharded build
//! contend on it and slowed the build by about half. Small blocks are
//! the most frequent allocations, while the memory a query works on
//! (posting lists, decoded blocks, pages, match sets) sits in large ones.
//!
//! The resident set size is not used for that metric. The service runs
//! each batch on fresh threads, and glibc keeps the memory they free in
//! per-thread arenas by chance: in one `batch_scan` pass the resident
//! size crept from 184 to 240 MiB, in another from 211 to 314 MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

/// Smallest block counted, bytes.
const MIN_COUNTED: usize = 1024;

/// The bytes of a block of `size` bytes that are counted.
fn counted(size: usize) -> usize {
    if size >= MIN_COUNTED {
        size
    } else {
        0
    }
}

/// Each counter on its own cache line, so the peak check reads a line
/// the allocating threads do not keep writing.
#[repr(align(64))]
struct Padded(AtomicUsize);

static LIVE: Padded = Padded(AtomicUsize::new(0));
static PEAK: Padded = Padded(AtomicUsize::new(0));

fn grow(bytes: usize) {
    if bytes == 0 {
        return;
    }
    let now = LIVE.0.fetch_add(bytes, Relaxed) + bytes;
    if now > PEAK.0.load(Relaxed) {
        PEAK.0.fetch_max(now, Relaxed);
    }
}

fn shrink(bytes: usize) {
    if bytes != 0 {
        LIVE.0.fetch_sub(bytes, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(counted(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(counted(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(counted(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let (old, new) = (counted(layout.size()), counted(new_size));
            if new > old {
                grow(new - old);
            } else {
                shrink(old - new);
            }
        }
        p
    }
}

/// Restarts the high-water mark at the current live bytes.
pub fn reset_peak() {
    PEAK.0.store(LIVE.0.load(Relaxed), Relaxed);
}

pub fn live_bytes() -> usize {
    LIVE.0.load(Relaxed)
}

pub fn peak_bytes() -> usize {
    PEAK.0.load(Relaxed)
}
