//! Live-vs-simulator parity: 16 concurrent clients (four per policy) on a
//! lossless in-memory bus must reproduce each client's simulator prediction
//! exactly — same seed, same config, bit-identical measurements.

use bdisk_broker::{
    aggregate, Backpressure, BroadcastEngine, BusTuning, EngineConfig, InMemoryBus, LiveClient,
    LiveClientResult,
};
use bdisk_cache::PolicyKind;
use bdisk_sched::{BroadcastProgram, DiskLayout};
use bdisk_sim::{simulate, SimConfig};

fn config(policy: PolicyKind) -> SimConfig {
    SimConfig {
        access_range: 100,
        region_size: 5,
        cache_size: 20,
        offset: 20,
        noise: 0.3,
        policy,
        requests: 400,
        warmup_requests: 100,
        ..SimConfig::default()
    }
}

#[test]
fn sixteen_clients_match_their_simulated_twins() {
    let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
    let program = BroadcastProgram::generate(&layout).unwrap();
    let policies = [
        PolicyKind::Lru,
        PolicyKind::L,
        PolicyKind::Lix,
        PolicyKind::Pix,
    ];

    // 16 clients: four seeds per policy.
    let roster: Vec<(PolicyKind, u64)> = policies
        .iter()
        .flat_map(|&p| (0..4).map(move |i| (p, 1000 + i * 17)))
        .collect();
    assert_eq!(roster.len(), 16);

    let mut bus = InMemoryBus::new(256, Backpressure::Block);
    let subs: Vec<_> = roster.iter().map(|_| bus.subscribe()).collect();
    let mut clients: Vec<LiveClient> = roster
        .iter()
        .map(|&(policy, seed)| {
            LiveClient::new(&config(policy), &layout, program.clone(), seed).unwrap()
        })
        .collect();

    let engine = BroadcastEngine::new(program.clone(), EngineConfig::default());
    let report = crossbeam::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(subs)
            .map(|(client, sub)| scope.spawn(move |_| client.run(sub)))
            .collect();
        let report = engine.run(&mut bus);
        for h in handles {
            h.join().unwrap();
        }
        report
    })
    .unwrap();

    // The lossless bus delivered every frame: nothing dropped, and the run
    // spanned at least two full major cycles of the broadcast.
    assert_eq!(report.frames_dropped, 0);
    assert!(
        report.major_cycles >= 2,
        "only {} major cycles ({} slots of period {})",
        report.major_cycles,
        report.slots_sent,
        program.period()
    );

    let results: Vec<LiveClientResult> = clients.into_iter().map(|c| c.into_results()).collect();
    for (result, &(policy, seed)) in results.iter().zip(&roster) {
        let predicted = simulate(&config(policy), &layout, seed).unwrap();
        let live = &result.outcome;
        assert_eq!(live.measured_requests, predicted.measured_requests);
        assert_eq!(
            live.mean_response_time, predicted.mean_response_time,
            "{policy:?} seed {seed}: live mean diverged from simulator"
        );
        assert_eq!(
            live.hit_rate, predicted.hit_rate,
            "{policy:?} seed {seed}: live hit rate diverged from simulator"
        );
        assert_eq!(live.end_time, predicted.end_time);
        assert_eq!(live.access_fractions, predicted.access_fractions);
    }

    let fleet = aggregate(report, results);
    assert_eq!(fleet.clients, 16);
    assert_eq!(fleet.measured_requests, 16 * 400);
    let fleet_hit_rate = fleet.hit_rate.expect("measured fleet has a hit rate");
    assert!(fleet_hit_rate > 0.0 && fleet_hit_rate < 1.0);
    assert!(fleet.p50 <= fleet.p95 && fleet.p95 <= fleet.p99);
}

/// The tuning every bus experiment runs (`BusTuning::throughput()`,
/// batched flushes) is observably identical to the default bus: the same
/// clients still match their simulated twins bit for bit.
#[test]
fn throughput_bus_preserves_simulator_parity() {
    let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
    let program = BroadcastProgram::generate(&layout).unwrap();
    let roster: Vec<(PolicyKind, u64)> = [PolicyKind::Lru, PolicyKind::Lix]
        .iter()
        .flat_map(|&p| (0..4).map(move |i| (p, 2000 + i * 13)))
        .collect();

    let mut bus = InMemoryBus::with_tuning(256, Backpressure::Block, BusTuning::throughput());
    let subs: Vec<_> = roster.iter().map(|_| bus.subscribe()).collect();
    let mut clients: Vec<LiveClient> = roster
        .iter()
        .map(|&(policy, seed)| {
            LiveClient::new(&config(policy), &layout, program.clone(), seed).unwrap()
        })
        .collect();

    let engine = BroadcastEngine::new(program, EngineConfig::default());
    let report = crossbeam::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(subs)
            .map(|(client, sub)| scope.spawn(move |_| client.run(sub)))
            .collect();
        let report = engine.run(&mut bus);
        for h in handles {
            h.join().unwrap();
        }
        report
    })
    .unwrap();

    assert_eq!(report.frames_dropped, 0);
    for (client, &(policy, seed)) in clients.into_iter().zip(&roster) {
        let predicted = simulate(&config(policy), &layout, seed).unwrap();
        let live = client.into_results().outcome;
        assert_eq!(
            live.mean_response_time, predicted.mean_response_time,
            "{policy:?} seed {seed}: throughput bus diverged from simulator"
        );
        assert_eq!(live.hit_rate, predicted.hit_rate);
        assert_eq!(live.end_time, predicted.end_time);
        assert_eq!(live.access_fractions, predicted.access_fractions);
    }
}

#[test]
fn drop_newest_bus_still_lets_clients_finish() {
    // A lossy feed costs extra broadcast periods (a dropped page comes
    // around again) but never wedges the protocol.
    let layout = DiskLayout::with_delta(&[10, 40, 50], 2).unwrap();
    let program = BroadcastProgram::generate(&layout).unwrap();
    let cfg = config(PolicyKind::Lix);
    let cfg = SimConfig {
        access_range: 50,
        cache_size: 10,
        offset: 10,
        requests: 150,
        warmup_requests: 20,
        ..cfg
    };

    // Tiny buffer so the free-running engine overruns the client.
    let mut bus = InMemoryBus::new(2, Backpressure::DropNewest);
    let sub = bus.subscribe();
    let mut client = LiveClient::new(&cfg, &layout, program.clone(), 5).unwrap();

    let engine = BroadcastEngine::new(program, EngineConfig::default());
    let client_ref = &mut client;
    let report = crossbeam::scope(move |scope| {
        let handle = scope.spawn(move |_| client_ref.run(sub));
        let report = engine.run(&mut bus);
        handle.join().unwrap();
        report
    })
    .unwrap();

    let results = client.into_results();
    assert_eq!(results.outcome.measured_requests, 150);
    // The engine raced ahead of the client, so frames were dropped — the
    // client finished anyway by waiting out extra periods.
    assert!(report.slots_sent > 0);
}
