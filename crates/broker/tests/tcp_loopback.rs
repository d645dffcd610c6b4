//! TCP transport end to end: a live measuring client over a real socket,
//! and slow consumers triggering both backpressure policies.

use std::time::{Duration, Instant};

use bdisk_broker::{
    Backpressure, BroadcastEngine, EngineConfig, EventedTcpTransport, LiveClient, TcpFrameReader,
    TcpTransportConfig, Transport,
};
use bdisk_cache::PolicyKind;
use bdisk_sched::{BroadcastProgram, DiskLayout};
use bdisk_sim::SimConfig;

/// Page size for the slow-consumer runs. The event loop writes frames
/// straight into the kernel's socket buffers, which swallow thousands of
/// small frames; 64 KiB pages fill them within a few frames, so the
/// 4-frame backlog (and the backpressure policy) is what the slow reader
/// actually meets.
const SLOW_PAGE: usize = 64 * 1024;

fn small_setup() -> (SimConfig, DiskLayout, BroadcastProgram) {
    let layout = DiskLayout::with_delta(&[10, 40, 50], 2).unwrap();
    let program = BroadcastProgram::generate(&layout).unwrap();
    let cfg = SimConfig {
        access_range: 50,
        region_size: 5,
        cache_size: 10,
        offset: 10,
        noise: 0.2,
        policy: PolicyKind::Lix,
        requests: 200,
        warmup_requests: 20,
        ..SimConfig::default()
    };
    (cfg, layout, program)
}

#[test]
fn live_client_completes_over_tcp() {
    let (cfg, layout, program) = small_setup();
    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: 4096,
        backpressure: Backpressure::DropNewest,
        max_coalesce: 64,
        ..TcpTransportConfig::default()
    })
    .unwrap();
    let addr = transport.local_addr();

    let client_program = program.clone();
    let client_thread = std::thread::spawn(move || {
        let mut reader = TcpFrameReader::connect(addr).unwrap();
        let mut client = LiveClient::new(&cfg, &layout, client_program, 21).unwrap();
        while let Some(frame) = reader.recv().unwrap() {
            if client.on_frame(&frame) {
                break;
            }
        }
        client.into_results()
    });

    assert!(transport.wait_for_clients(1, Duration::from_secs(10)));
    let engine = BroadcastEngine::new(
        program,
        EngineConfig {
            max_slots: 5_000_000,
            ..EngineConfig::default()
        },
    );
    let report = engine.run(&mut transport);

    let results = client_thread.join().unwrap();
    assert_eq!(results.outcome.measured_requests, 200);
    assert!(results.outcome.mean_response_time > 0.0);
    assert!(results.outcome.hit_rate > 0.0);
    assert!(report.frames_delivered > 0);
}

#[test]
fn slow_consumer_triggers_drops() {
    let (_, _, program) = small_setup();
    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: 4,
        backpressure: Backpressure::DropNewest,
        max_coalesce: 16,
        ..TcpTransportConfig::default()
    })
    .unwrap();
    let addr = transport.local_addr();

    // A deliberately slow consumer: sleeps on every frame while the engine
    // free-runs, so its 4-frame buffer overflows almost immediately.
    let slow = std::thread::spawn(move || {
        let mut reader = TcpFrameReader::connect(addr).unwrap();
        let mut seen = 0u64;
        while let Some(_frame) = reader.recv().unwrap() {
            seen += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        seen
    });

    assert!(transport.wait_for_clients(1, Duration::from_secs(10)));
    let engine = BroadcastEngine::new(
        program,
        EngineConfig {
            max_slots: 2_000,
            stop_when_no_clients: false,
            page_size: SLOW_PAGE,
            ..EngineConfig::default()
        },
    );
    let report = engine.run(&mut transport);

    let seen = slow.join().unwrap();
    assert_eq!(report.slots_sent, 2_000);
    assert!(
        report.frames_dropped > 0,
        "slow consumer never overflowed its buffer"
    );
    assert_eq!(
        report.frames_delivered + report.frames_dropped,
        report.slots_sent
    );
    assert!(seen < report.slots_sent, "drops must reduce what arrives");
    assert_eq!(seen, report.frames_delivered);
}

#[test]
fn slow_consumer_gets_disconnected() {
    let (_, _, program) = small_setup();
    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: 4,
        backpressure: Backpressure::Disconnect,
        max_coalesce: 16,
        ..TcpTransportConfig::default()
    })
    .unwrap();
    let addr = transport.local_addr();

    let slow = std::thread::spawn(move || {
        let mut reader = TcpFrameReader::connect(addr).unwrap();
        let mut seen = 0u64;
        while let Ok(Some(_)) = reader.recv() {
            seen += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        seen
    });

    assert!(transport.wait_for_clients(1, Duration::from_secs(10)));
    let engine = BroadcastEngine::new(
        program,
        EngineConfig {
            max_slots: 100_000,
            stop_when_no_clients: true,
            page_size: SLOW_PAGE,
            ..EngineConfig::default()
        },
    );
    let start = Instant::now();
    let report = engine.run(&mut transport);

    assert_eq!(report.clients_disconnected, 1);
    assert_eq!(transport.active_clients(), 0);
    // Eviction ended the run long before the slot cap.
    assert!(report.slots_sent < 100_000);
    let seen = slow.join().unwrap();
    assert!(seen <= report.frames_delivered);
    assert!(start.elapsed() < Duration::from_secs(30));
}
