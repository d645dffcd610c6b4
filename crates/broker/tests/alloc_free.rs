//! Satellite assertion for the fan-out tentpole: steady-state broadcast on
//! the in-memory bus performs **zero heap allocations** — frames are
//! refcount clones of pre-built payloads, subscriber queues are pre-sized,
//! and eviction/retention never rebuilds the subscriber list.
//!
//! The observability layer must not change this: the run executes with
//! metric recording enabled (the default) *and* the event journal
//! recording, so sharded counter adds, histogram records, and ring-buffer
//! event writes are all on the measured path.
//!
//! This file deliberately holds a single `#[test]`: the counting global
//! allocator is process-wide, and a sibling test running concurrently
//! would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use std::sync::Arc;

use bdisk_broker::{Backpressure, BusTuning, Frame, InMemoryBus, PagePayloads, Transport};
use bdisk_sched::{PageId, RepairId, Slot};

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

/// Broadcasts `frames` slots to `subs` un-drained DropNewest subscribers
/// and returns how many allocations the broadcast loop made.
fn count_broadcast_allocs(bus: &mut InMemoryBus, payloads: &PagePayloads, frames: u64) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for seq in 0..frames {
        let slot = Slot::Page(PageId(seq as u32 % 5));
        bus.broadcast(payloads.frame(seq, slot));
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_broadcast_allocates_nothing() {
    // Telemetry fully on: metrics are enabled by default; turning tracing
    // on here materializes the journal ring before the armed section, and
    // every subsequent broadcast journals its enqueues and drops.
    assert!(bdisk_obs::metrics_enabled(), "metrics must default on");
    bdisk_obs::set_tracing_enabled(true);

    let payloads = PagePayloads::generate(5, 64);

    // DropNewest with full buffers: every broadcast exercises the
    // backpressure path too, and nothing ever drains.
    let mut bus = InMemoryBus::with_tuning(32, Backpressure::DropNewest, BusTuning { batch: 8 });
    let subs: Vec<_> = (0..16).map(|_| bus.subscribe()).collect();

    // Warm-up: fill the (pre-sized) queues and the pending batch, and let
    // lazy one-time init (empty-payload singleton, etc.) happen.
    bus.broadcast(payloads.frame(0, Slot::Empty));
    count_broadcast_allocs(&mut bus, &payloads, 64);

    // Steady state: 16 subscribers × 512 slots, zero allocations — frame
    // clones are refcount bumps and queue pushes land in pre-sized rings.
    // A plan coded at rate 0 airs exactly this slot stream (coding is
    // `None`, no repair slots exist), so this *is* the rate-0 invariant.
    let allocs = count_broadcast_allocs(&mut bus, &payloads, 512);
    assert_eq!(
        allocs, 0,
        "steady-state broadcast must not touch the allocator"
    );

    // Coded airing is alloc-free too: a repair frame shares its symbol
    // buffer by refcount exactly like a page frame shares its payload —
    // the engine precomputes the per-channel symbol tables once per run.
    // Warm the repair path like the page path above: the first airing of
    // each repair id may trigger lazy one-time init (label-map inserts),
    // which is startup cost, not steady state.
    let symbol: Arc<[u8]> = vec![0u8; 64].into();
    for seq in 568..576u64 {
        bus.broadcast(Frame {
            seq,
            channel: 0,
            slot: Slot::Repair(RepairId(seq as u32 % 4)),
            epoch: 0,
            payload: Arc::clone(&symbol),
        });
    }
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for seq in 576..832u64 {
        bus.broadcast(Frame {
            seq,
            channel: 0,
            slot: Slot::Repair(RepairId(seq as u32 % 4)),
            epoch: 0,
            payload: Arc::clone(&symbol),
        });
    }
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "repair-slot broadcast must not touch the allocator"
    );

    bus.finish();
    drop(subs);
}
