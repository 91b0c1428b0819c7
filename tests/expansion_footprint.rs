//! Footprint guard: what one `execute` of PageRank costs the host heap.
//!
//! A counting global allocator tracks every allocation (`alloc` and
//! `realloc` calls), the live heap, and its peak. One run of
//! `PagerankConfig { iterations: 2, ..scale(4_000) }` (20 000 point
//! tasks) on 4 nodes, audits off, must stay within two bounds per task:
//!
//! * allocations ≤ 4;
//! * peak heap ≤ 315 B, where peak heap is the peak live heap during
//!   `execute` minus the live heap before it.
//!
//! Before the expansion stored its tasks in one flat table, the same run
//! made 220 759 allocations (11.04 per task) and peaked at 17.1 MB
//! (855 B per task). With the table it makes 48 591 (2.43 per task) and
//! peaks at 8.9 MB (444 B per task), in debug and release builds alike.
//! With the dependence oracle's per-space state in arrays indexed by
//! space id, its records grown exactly up to four, and compact BVH items
//! and nodes, it makes 54 755 (2.74 per task) and peaks at 5.8 MB (290 B
//! per task), again in both builds; the heap bound is that plus 8.6 %.
//!
//! The same test expands the program once more and checks
//! `TaskTable::heap_bytes` against the live heap the table holds: within
//! 2 %.
//!
//! The file holds exactly one test: the harness runs tests on parallel
//! threads, and a second test would allocate into the same counters.

use index_launch::apps::pagerank;
use index_launch::runtime::{execute, RuntimeConfig, TaskTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters are bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
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
fn pagerank_execute_stays_within_its_per_task_heap_budget() {
    let config = pagerank::PagerankConfig { iterations: 2, ..pagerank::PagerankConfig::scale(4_000) };
    let app = pagerank::build(&config);
    let runtime = RuntimeConfig::scale(4).with_audit(false);

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let allocs_before = ALLOCS.load(Relaxed);
    let report = execute(&app.program, &runtime);
    let allocs = ALLOCS.load(Relaxed) - allocs_before;
    let peak = PEAK.load(Relaxed) - before;

    let tasks = report.tasks as f64;
    assert_eq!(report.tasks, 20_000, "pagerank at 4 000 pieces × (1 + 2 iterations) launches");
    let per_task = (allocs as f64 / tasks, peak as f64 / tasks);
    eprintln!(
        "{allocs} allocations, {peak} B peak heap: {:.2} allocations and {:.0} B per task",
        per_task.0, per_task.1
    );
    assert!(per_task.0 <= 4.0, "{:.2} allocations per task (bound 4)", per_task.0);
    assert!(per_task.1 <= 315.0, "{:.0} B of peak heap per task (bound 315)", per_task.1);

    // The expansion's temporaries are freed when it returns, so what
    // stays live is the table: `heap_bytes` must account for it.
    let before = LIVE.load(Relaxed);
    let table = TaskTable::expand(&app.program, &runtime);
    let live = LIVE.load(Relaxed) - before;
    let counted = table.heap_bytes();
    eprintln!("task table: {live} B live, heap_bytes {counted} B");
    assert!(
        counted.abs_diff(live) as f64 <= 0.02 * live as f64,
        "heap_bytes {counted} B against {live} B live (bound 2 %)"
    );
}
