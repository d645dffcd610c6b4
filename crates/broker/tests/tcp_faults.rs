//! Chaos test: a TCP client fleet under a seeded fault plan (erasure +
//! corruption + delay + connection kills) completes its full measurement
//! quota with zero panics, recovering every lost page at a later periodic
//! broadcast — the paper's recovery model, end to end over real sockets.

use std::time::Duration;

use bdisk_broker::{
    Backpressure, BroadcastEngine, EngineConfig, FaultPlan, LiveClient, ReconnectPolicy,
    TcpClientFeed, TcpTransport, TcpTransportConfig,
};
use bdisk_cache::PolicyKind;
use bdisk_sched::{BroadcastProgram, DiskLayout};
use bdisk_sim::SimConfig;

/// How long, in periods of `small_setup`'s program (240 slots, 4.8 ms at
/// the tests' 20 µs slots), the engine keeps ticking with no client
/// connected. 50 periods (240 ms) outlast the clients' worst reconnect
/// outage (10 attempts at most 20 ms apart) with room for a descheduled
/// client thread; a shorter grace lets the engine stop mid-reconnect and
/// strand the client.
const GRACE_PERIODS: u64 = 50;

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
        requests: 120,
        warmup_requests: 20,
        ..SimConfig::default()
    };
    (cfg, layout, program)
}

/// Eight clients ride out 10% erasure plus corruption, delay/reorder, and
/// random connection kills. Every client must finish its quota (which is
/// only possible if every lost pending page was eventually recovered), and
/// no recovery may wait more than a small multiple of the period.
#[test]
fn chaos_fleet_completes_under_seeded_faults() {
    const CLIENTS: u64 = 8;
    let (cfg, layout, program) = small_setup();
    let period = program.period() as u64;

    let mut transport = TcpTransport::bind(TcpTransportConfig {
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
        kill: 0.0001,
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
                    seed: 0xFEED,
                };
                let mut feed = TcpClientFeed::connect(addr, policy, id).unwrap();
                let mut client = LiveClient::new(&cfg, &layout, program, 100 + id).unwrap();
                while let Some(frame) = feed.recv() {
                    if client.on_frame(&frame) {
                        break;
                    }
                }
                (client.is_done(), feed.reconnects(), client.into_results())
            })
        })
        .collect();

    assert!(transport.wait_for_clients(CLIENTS as usize, Duration::from_secs(10)));
    let engine = BroadcastEngine::new(
        program,
        EngineConfig {
            max_slots: 5_000_000,
            // Gentle pacing keeps a reconnect outage to a handful of slots,
            // so recovery waits stay commensurate with the period.
            slot_duration: Duration::from_micros(20),
            no_client_grace_slots: GRACE_PERIODS * period,
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
        let (done, _reconnects, results) = handle.join().expect("client panicked under faults");
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
        fleet_max_wait <= 10 * period,
        "recovery waited {fleet_max_wait} slots; period is {period}"
    );
}

/// A lone client whose connection is repeatedly killed reconnects with
/// backoff, resyncs on the next slot marker, and still finishes — while
/// the engine's grace window keeps the slot clock ticking through the
/// momentarily empty client set.
#[test]
fn killed_client_reconnects_and_finishes() {
    let (cfg, layout, program) = small_setup();
    let period = program.period() as u64;

    let mut transport = TcpTransport::bind(TcpTransportConfig {
        queue_capacity: 4096,
        backpressure: Backpressure::DropNewest,
        max_coalesce: 64,
        ..TcpTransportConfig::default()
    })
    .unwrap();
    transport.set_fault_plan(FaultPlan {
        seed: 7,
        kill: 0.002,
        ..FaultPlan::none()
    });
    let addr = transport.local_addr();

    let client_cfg = cfg.clone();
    let client_program = program.clone();
    let handle = std::thread::spawn(move || {
        let policy = ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
            seed: 3,
        };
        let mut feed = TcpClientFeed::connect(addr, policy, 0).unwrap();
        let mut client = LiveClient::new(&client_cfg, &layout, client_program, 42).unwrap();
        while let Some(frame) = feed.recv() {
            if client.on_frame(&frame) {
                break;
            }
        }
        (client.is_done(), feed.reconnects(), client.into_results())
    });

    assert!(transport.wait_for_clients(1, Duration::from_secs(10)));
    let engine = BroadcastEngine::new(
        program,
        EngineConfig {
            max_slots: 5_000_000,
            slot_duration: Duration::from_micros(20),
            no_client_grace_slots: GRACE_PERIODS * period,
            ..EngineConfig::default()
        },
    );
    let report = engine.run(&mut transport);

    let (done, reconnects, results) = handle.join().expect("client panicked");
    assert!(done, "client failed to finish across kills");
    assert_eq!(results.outcome.measured_requests, cfg.requests);
    assert!(
        reconnects >= 1,
        "kill rate 0.002 over {} slots produced no reconnects",
        report.slots_sent
    );
    // Each outage shows up as an ordinary sequence gap to the client.
    assert!(results.gaps >= reconnects);
    assert!(transport.fault_counts().killed >= reconnects);
}
