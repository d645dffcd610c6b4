//! Steady-state broadcast on the in-memory bus performs **zero heap
//! allocations** in the medium's own path: frames are refcount clones of
//! pre-built payloads, the fault injector reuses its output buffer, and a
//! finished client costs one skipped check per frame.
//!
//! The measured window runs with an erasure plan on and with every client
//! finished during warm-up, so it covers the bus and its fault choke
//! point, not the clients' own bookkeeping (a client that is still
//! requesting pages allocates as its cache and measurements grow).
//!
//! The observability layer must not change this: the run executes with
//! metric recording enabled (the default) *and* the event journal
//! recording, so counter adds and ring-buffer event writes are all on the
//! measured path.
//!
//! This file deliberately holds a single `#[test]`: the counting global
//! allocator is process-wide, and a sibling test running concurrently
//! would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use std::sync::Arc;

use bdisk_broker::{FaultPlan, Frame, InMemoryBus, LiveClient, PagePayloads, Transport};
use bdisk_sched::{BroadcastProgram, DiskLayout, PageId, RepairId, Slot};
use bdisk_sim::SimConfig;

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

/// Broadcasts slots `seqs` on `bus` and returns how many allocations the
/// broadcast loop made.
fn count_broadcast_allocs(
    bus: &mut InMemoryBus,
    payloads: &PagePayloads,
    seqs: std::ops::Range<u64>,
) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for seq in seqs {
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

    // 16 clients that each finish after one request, on a 5-page program,
    // behind a 25 % erasure plan.
    let layout = DiskLayout::with_delta(&[2, 3], 1).unwrap();
    let program = BroadcastProgram::generate(&layout).unwrap();
    let cfg = SimConfig {
        access_range: 5,
        region_size: 1,
        requests: 1,
        warmup_requests: 0,
        ..SimConfig::default()
    };
    let clients = (0..16)
        .map(|seed| LiveClient::new(&cfg, &layout, program.clone(), seed).unwrap())
        .collect();
    let mut bus = InMemoryBus::new(clients);
    bus.set_fault_plan(FaultPlan::erasure_only(11, 0.25));

    // Warm-up: air the program until every client has finished, and let
    // lazy one-time init (empty-payload singleton, label maps, the
    // injector's output buffer) happen.
    let mut next = 0u64;
    for (seq, slot) in program.slots_from(0).take(10_000) {
        bus.broadcast(payloads.frame(seq, slot));
        next = seq + 1;
        if bus.active_clients() == 0 {
            break;
        }
    }
    assert_eq!(bus.active_clients(), 0, "clients must finish in warm-up");
    bus.broadcast(payloads.frame(next, Slot::Empty));
    count_broadcast_allocs(&mut bus, &payloads, next + 1..next + 65);
    assert!(
        bus.fault_counts().erased > 0,
        "the plan must erase something"
    );

    // Steady state: 512 slots past 16 finished clients, zero allocations
    // — a frame clone is a refcount bump and erasure decisions are pure
    // arithmetic. A plan coded at rate 0 airs exactly this slot stream
    // (coding is `None`, no repair slots exist), so this *is* the rate-0
    // invariant.
    let allocs = count_broadcast_allocs(&mut bus, &payloads, next + 65..next + 577);
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
    let base = next + 577;
    for seq in base..base + 8 {
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
    for seq in base + 8..base + 264 {
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
}
