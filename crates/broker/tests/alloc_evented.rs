//! Satellite assertion for the event-loop tentpole: the evented
//! transport's steady-state broadcast cost is a **client-count-independent
//! constant number of allocations per slot** — one shared wire encoding
//! (`Arc<[u8]>`), refcount-bump enqueues into backlog rings that a keeping-up
//! consumer never outgrows (they start at flush-cadence size), and
//! vectored flushes through a stack `IoSlice` array. Doubling the fleet
//! must not add a single allocation.
//!
//! Metrics stay enabled (the default): the cached counter/gauge handles
//! must not allocate on the hot path either.
//!
//! This file deliberately holds a single `#[test]`: the counting global
//! allocator is process-wide, and a sibling test running concurrently
//! would pollute the count. Reader threads drain into fixed stack buffers
//! so their work is invisible to the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

use bdisk_broker::{
    Backpressure, EventedTcpTransport, PagePayloads, TcpTransportConfig, Transport,
};
use bdisk_sched::{PageId, Slot};

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

/// A reader that drains its connection into a fixed stack buffer until the
/// server closes it — allocation-free by construction, so the global
/// counter only ever sees the broadcast path.
fn spawn_silent_reader(addr: SocketAddr) -> JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("reader connect");
        let mut buf = [0u8; 16 * 1024];
        let mut total = 0u64;
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return total,
                Ok(n) => total += n as u64,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return total,
            }
        }
    })
}

/// Broadcasts `frames` slots to a fleet of `clients` draining readers and
/// returns how many allocations the broadcast loop made after warm-up.
fn count_evented_allocs(clients: usize, frames: u64, payloads: &PagePayloads) -> u64 {
    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: 4096,
        backpressure: Backpressure::DropNewest,
        max_coalesce: 16,
        ..TcpTransportConfig::default()
    })
    .expect("bind evented transport");
    let readers: Vec<_> = (0..clients)
        .map(|_| spawn_silent_reader(transport.local_addr()))
        .collect();
    assert!(transport.wait_for_clients(clients, Duration::from_secs(10)));

    // Warm-up: let lazy one-time init happen (metric handle caches, the
    // epoll readiness plumbing, first flush).
    for seq in 0..64u64 {
        transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 5))));
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for seq in 64..64 + frames {
        transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 5))));
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    transport.finish();
    for reader in readers {
        assert!(reader.join().expect("reader panicked") > 0);
    }
    allocs
}

#[test]
fn evented_steady_state_allocs_are_constant_per_slot_and_client_independent() {
    assert!(bdisk_obs::metrics_enabled(), "metrics must default on");
    let payloads = PagePayloads::generate(5, 64);
    const FRAMES: u64 = 512;

    let small_fleet = count_evented_allocs(2, FRAMES, &payloads);
    let big_fleet = count_evented_allocs(16, FRAMES, &payloads);

    // The only per-slot allocations are the shared wire encoding itself;
    // enqueue and flush are allocation-free for every connection.
    assert!(
        small_fleet <= FRAMES * 4,
        "per-slot allocation budget blown: {small_fleet} allocs for {FRAMES} slots"
    );
    assert_eq!(
        small_fleet, big_fleet,
        "allocations must not scale with client count (2 clients: {small_fleet}, \
         16 clients: {big_fleet})"
    );
}
