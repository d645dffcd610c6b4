//! Live-vs-simulator parity: 16 clients (four per policy) on the lossless
//! in-memory bus must reproduce each client's simulator prediction exactly
//! — same seed, same config, bit-identical measurements.

use bdisk_broker::{
    aggregate, BroadcastEngine, ChannelFault, EngineConfig, FaultPlan, InMemoryBus, LiveClient,
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

    let clients: Vec<LiveClient> = roster
        .iter()
        .map(|&(policy, seed)| {
            LiveClient::new(&config(policy), &layout, program.clone(), seed).unwrap()
        })
        .collect();
    let mut bus = InMemoryBus::new(clients);
    let engine = BroadcastEngine::new(program.clone(), EngineConfig::default());
    let report = engine.run(&mut bus);

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

    let results = bus.into_results();
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

#[test]
fn erasure_bus_still_lets_clients_finish() {
    // A lossy feed costs extra broadcast periods (an erased page comes
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
    let plan = FaultPlan::erasure_only(7, 0.2);

    let client = LiveClient::new(&cfg, &layout, program.clone(), 5).unwrap();
    let mut bus = InMemoryBus::new(vec![client]);
    bus.set_fault_plan(plan);
    let engine = BroadcastEngine::new(program, EngineConfig::default());
    let report = engine.run(&mut bus);

    // The client heard exactly the slots the plan let through, up to the
    // one that finished it; the plan erased every other slot aired.
    let delivered = (0..report.slots_sent)
        .filter(|&seq| plan.channel_fault(seq) == ChannelFault::Deliver)
        .count() as u64;
    assert!(
        delivered < report.slots_sent,
        "the plan must erase something"
    );
    assert_eq!(bus.fault_counts().erased, report.slots_sent - delivered);
    assert_eq!(report.frames_delivered, delivered);
    let results = bus.into_results().remove(0);
    assert_eq!(results.frames_seen, delivered);
    assert_eq!(results.outcome.measured_requests, 150);
    assert!(results.gaps > 0);
}
