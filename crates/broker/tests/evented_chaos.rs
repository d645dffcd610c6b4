//! Chaos test for the evented transport: a 256-client fleet rides out 10%
//! erasure plus corruption, delay/reorder, and random connection kills on
//! the single-threaded event loop. Every client must finish its
//! measurement quota — only possible if every lost pending page was
//! recovered at a later periodic broadcast — with zero panics, and the
//! loop's slab must keep absorbing the kill/reconnect churn.
//!
//! This is `tcp_faults.rs`'s chaos scenario at 32× the fleet size: one
//! event-loop thread serves all 256 connections, where a thread per
//! connection would burn the core on context switches.

use std::time::Duration;

use bdisk_broker::{
    Backpressure, BroadcastEngine, EngineConfig, EventedTcpTransport, FaultPlan, LiveClient,
    ReconnectPolicy, TcpClientFeed, TcpTransportConfig,
};
use bdisk_cache::PolicyKind;
use bdisk_sched::{BroadcastProgram, DiskLayout};
use bdisk_sim::SimConfig;

#[test]
fn evented_chaos_fleet_of_256_completes_with_gaps_recovered() {
    const CLIENTS: u64 = 256;
    let layout = DiskLayout::with_delta(&[10, 40, 50], 2).unwrap();
    let program = BroadcastProgram::generate(&layout).unwrap();
    let period = program.period() as u64;
    let cfg = SimConfig {
        access_range: 50,
        region_size: 5,
        cache_size: 10,
        offset: 10,
        noise: 0.2,
        policy: PolicyKind::Lix,
        // A lean quota per client: the point is 256 concurrent fault-riding
        // connections, not per-client statistics.
        requests: 40,
        warmup_requests: 10,
        ..SimConfig::default()
    };

    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: 4096,
        backpressure: Backpressure::DropNewest,
        max_coalesce: 64,
        ..TcpTransportConfig::default()
    })
    .unwrap();
    transport.set_fault_plan(FaultPlan {
        seed: 0xC0FFEE,
        erasure: 0.10,
        corruption: 0.02,
        delay: 0.01,
        max_delay_slots: 4,
        kill: 0.00002,
        overrun: 0.0,
        drift_every_slots: 0,
        broker_kill_slot: 0,
    });
    let addr = transport.local_addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let cfg = cfg.clone();
            let layout = layout.clone();
            let program = program.clone();
            std::thread::spawn(move || {
                let policy = ReconnectPolicy {
                    max_attempts: 10,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(20),
                    seed: 0xFEED ^ id,
                };
                let mut feed = TcpClientFeed::connect(addr, policy, id).unwrap();
                let mut client = LiveClient::new(&cfg, &layout, program, 100 + id).unwrap();
                while let Some(frame) = feed.recv() {
                    if client.on_frame(&frame) {
                        break;
                    }
                }
                (client.is_done(), client.into_results())
            })
        })
        .collect();

    assert!(transport.wait_for_clients(CLIENTS as usize, Duration::from_secs(60)));
    let engine = BroadcastEngine::new(
        program,
        EngineConfig {
            max_slots: 5_000_000,
            // Gentle pacing keeps a reconnect outage to a handful of slots,
            // so recovery waits stay commensurate with the period.
            slot_duration: Duration::from_micros(20),
            no_client_grace_slots: 4 * period,
            ..EngineConfig::default()
        },
    );
    let report = engine.run(&mut transport);
    let counts = transport.fault_counts();

    assert!(counts.erased > 0, "plan injected no erasures");
    assert!(counts.corrupted > 0, "plan injected no corruption");
    assert!(report.slots_sent < 5_000_000, "fleet never finished");

    let mut fleet_gaps = 0u64;
    let mut fleet_recoveries = 0u64;
    let mut fleet_max_wait = 0u64;
    for handle in handles {
        // join() panics here only if the client thread panicked: the
        // acceptance bar is zero client panics under faults.
        let (done, results) = handle.join().expect("client panicked under faults");
        assert!(done, "a client failed to finish its quota");
        assert_eq!(results.outcome.measured_requests, cfg.requests);
        fleet_gaps += results.gaps;
        fleet_recoveries += results.recoveries;
        fleet_max_wait = fleet_max_wait.max(results.max_recovery_wait);
    }
    assert!(fleet_gaps > 0, "10% erasure produced no observable gaps");
    assert!(
        fleet_recoveries >= 1,
        "no lost pending page was ever recovered"
    );
    assert!(
        fleet_max_wait <= 12 * period,
        "recovery waited {fleet_max_wait} slots; period is {period}"
    );
}
