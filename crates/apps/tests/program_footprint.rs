//! Footprint guard: what a service mix's programs cost the host heap
//! while they wait to run.
//!
//! A counting global allocator tracks every allocation (`alloc` and
//! `realloc` calls) and the live heap. Building
//! `skewed_mix(&MixConfig::standard(7), 2, 400)` (402 sessions, each
//! holding its built program) must stay within two bounds per session:
//!
//! * allocations ≤ 138;
//! * live heap ≤ 8 750 B, measured after the mix is built.
//!
//! While the forest kept each partition's subspaces in a `BTreeMap`, its
//! space nodes were 136 B and `ProgramBuilder::build` handed its arrays
//! over with their growth slack, the mix made 44 139 allocations (109.8
//! per session) and left 5 318 470 B live (13 230 B per session). With
//! one sorted color table per partition, 96 B space nodes and exact-size
//! arrays it makes 50 337 (125.2 per session: the arrays shrunk at build
//! are one reallocation each) and leaves 3 198 162 B live (7 956 B per
//! session), in debug and release builds alike. Each bound is that plus
//! about 10 %. Tiling each shaped partition from one split per dimension
//! (instead of one per row or column) later brought the allocations to
//! 49 352 (122.8 per session), the live heap unchanged.
//!
//! The file holds exactly one test: the harness runs tests on parallel
//! threads, and a second test would allocate into the same counters.

use il_apps::service_mix::{skewed_mix, MixConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters are bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size(), Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size(), Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        LIVE.fetch_add(new_size, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn built_programs_stay_within_their_per_session_heap_budget() {
    let before = LIVE.load(Relaxed);
    let allocs_before = ALLOCS.load(Relaxed);
    let sessions = skewed_mix(&MixConfig::standard(7), 2, 400);
    let allocs = ALLOCS.load(Relaxed) - allocs_before;
    let live = LIVE.load(Relaxed) - before;

    let n = sessions.len() as f64;
    assert_eq!(sessions.len(), 402, "2 heavy and 400 light sessions");
    let per_session = (allocs as f64 / n, live as f64 / n);
    eprintln!(
        "{allocs} allocations, {live} B live: {:.1} allocations and {:.0} B per session",
        per_session.0, per_session.1
    );
    assert!(per_session.0 <= 138.0, "{:.1} allocations per session (bound 138)", per_session.0);
    assert!(per_session.1 <= 8_750.0, "{:.0} B live per session (bound 8 750)", per_session.1);
}
