//! Allocation pin for plan generation: `BroadcastPlan::generate` and
//! `clone` on the paper's D5 layout cost a handful of allocations, not one
//! per page. Each page's airing offsets live in one flat index shared by
//! all pages, so a 5 000-page plan allocates about as often as a 5-page
//! one.
//!
//! This file deliberately holds a single `#[test]`: the counting global
//! allocator is process-wide, and a sibling test running concurrently
//! would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bdisk_sched::{BroadcastPlan, DiskLayout, PageId};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) made while `f` runs.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = black_box(f());
    ARMED.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed), out)
}

#[test]
fn d5_generate_and_clone_allocate_a_bounded_handful() {
    // D5: 500 / 2000 / 2500 pages at Δ = 3 (frequencies 7:4:1).
    let layout = DiskLayout::with_delta(&[500, 2000, 2500], 3).unwrap();

    let (generate, plan) = count(|| BroadcastPlan::generate(&layout, 1).unwrap());
    let (clone, copy) = count(|| plan.clone());

    // The counts are only meaningful if the plan is the real one.
    assert_eq!(plan.num_pages(), 5000);
    for p in [0u32, 499, 500, 2499, 2500, 4999] {
        let page = PageId(p);
        assert_eq!(copy.next_arrival(page, 0.0), plan.next_arrival(page, 0.0));
    }

    assert!(generate <= 64, "D5 generate made {generate} allocations");
    assert!(clone <= 16, "D5 clone made {clone} allocations");
}
