//! Allocation pin for compiling a channel's code: `ChannelCode::build`
//! on the paper's D5 layout makes one allocation per repair symbol (its
//! `covers` list) and a handful besides. The coverage windows, the
//! deduplication and the LT draw all reuse scratch built once per call.
//!
//! This file deliberately holds a single `#[test]`: the counting global
//! allocator is process-wide, and a sibling test running concurrently
//! would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bdisk_code::ChannelCode;
use bdisk_sched::{BroadcastPlan, ChannelId, CodingConfig, DiskLayout};

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
fn d5_lt_build_allocates_once_per_symbol() {
    // D5: 500 / 2000 / 2500 pages at Δ = 3 (frequencies 7:4:1), LT-coded
    // as the ledger's replan codes its plans.
    let layout = DiskLayout::with_delta(&[500, 2000, 2500], 3).unwrap();
    let cfg = CodingConfig::lt(0.25, 25, 1);
    let plan = BroadcastPlan::generate(&layout, 1)
        .unwrap()
        .with_coding(cfg)
        .unwrap();
    let program = plan.program(ChannelId(0));

    let (allocs, code) = count(|| ChannelCode::build(program, 0, &cfg));

    // The count is only meaningful if the code is the real one.
    let repairs = program.repair_slots();
    assert!(repairs > 1000, "only {repairs} repair slots");
    assert_eq!(code.symbols().len(), repairs);
    assert!(code.symbols().iter().all(|s| !s.covers.is_empty()));

    let bound = repairs as u64 + 8;
    assert!(
        allocs <= bound,
        "D5 LT build made {allocs} allocations for {repairs} symbols (bound {bound})"
    );
}
