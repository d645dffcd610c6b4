//! Integration tests for the future-work extensions, exercised through the
//! facade crate exactly as a downstream user would.

use broadcast_disks::prelude::*;
use broadcast_disks::sched::IndexedBroadcast;
use broadcast_disks::sim::{
    simulate_population, simulate_prefetch, simulate_volatile, ClientSpec, StalenessStrategy,
    VolatileConfig,
};

fn d5_small() -> DiskLayout {
    DiskLayout::with_delta(&[50, 200, 250], 3).unwrap()
}

fn cfg() -> SimConfig {
    SimConfig {
        access_range: 100,
        region_size: 5,
        cache_size: 40,
        offset: 40,
        policy: PolicyKind::Pix,
        requests: 2_000,
        warmup_requests: 400,
        ..SimConfig::default()
    }
}

#[test]
fn prefetching_dominates_demand_caching() {
    let layout = d5_small();
    let demand = simulate(&cfg(), &layout, 3).unwrap();
    let pt = simulate_prefetch(&cfg(), &layout, 3).unwrap();
    assert!(
        pt.mean_response_time < demand.mean_response_time,
        "PT {} vs demand {}",
        pt.mean_response_time,
        demand.mean_response_time
    );
}

#[test]
fn extension_policies_slot_into_the_simulator() {
    // LRU-K and 2Q run through the same simulate() entry point and land
    // between LRU and PIX at the Figure-13 operating point.
    let layout = d5_small();
    let run = |policy: PolicyKind| {
        let c = SimConfig {
            noise: 0.30,
            policy,
            ..cfg()
        };
        simulate(&c, &layout, 11).unwrap().mean_response_time
    };
    let lru = run(PolicyKind::Lru);
    let lruk = run(PolicyKind::LruK);
    let lrukx = run(PolicyKind::LruKX);
    let pix = run(PolicyKind::Pix);
    assert!(lruk < lru, "LRU-K {lruk} should improve on LRU {lru}");
    assert!(
        lrukx < lruk,
        "frequency scaling should help: {lrukx} vs {lruk}"
    );
    assert!(pix < lrukx, "PIX {pix} remains the lower bound");
}

#[test]
fn volatile_freshness_latency_tradeoff() {
    let layout = d5_small();
    let mk = |strategy| VolatileConfig {
        updates_per_cycle: 25.0,
        update_skew: 1.0,
        strategy,
    };
    let fresh = simulate_volatile(&cfg(), &mk(StalenessStrategy::Invalidate), &layout, 5).unwrap();
    let stale = simulate_volatile(&cfg(), &mk(StalenessStrategy::ServeStale), &layout, 5).unwrap();
    assert_eq!(fresh.stale_reads, 0);
    assert!(stale.stale_reads > 0);
    assert!(fresh.base.mean_response_time >= stale.base.mean_response_time);
    assert!(fresh.cache_drops > 0);
}

#[test]
fn air_index_tuning_time_is_tiny() {
    let layout = d5_small();
    let program = BroadcastProgram::generate(&layout).unwrap();
    let zipf = RegionZipf::new(100, 5, 0.95);
    let mut probs = zipf.probs().to_vec();
    probs.resize(500, 0.0);

    let always_on = BroadcastPlan::single(program.clone()).expected_delay(&probs);
    let ib = IndexedBroadcast::new(program, 8, 64).unwrap();
    let (access, tuning) = ib.expected_access_and_tuning(&probs);
    assert!(
        tuning < always_on / 10.0,
        "tuning {tuning} vs always-on {always_on}"
    );
    assert!(access > always_on, "indexing trades some access time");
    assert!(ib.overhead() < 0.2);
}

#[test]
fn population_and_optimizer_compose() {
    // Design a broadcast with the optimizer, then serve a population on it.
    let zipf = RegionZipf::new(100, 5, 0.95);
    let mut probs = zipf.probs().to_vec();
    probs.resize(500, 0.0);
    let best = broadcast_disks::sched::optimize_layout(
        &probs,
        &broadcast_disks::sched::OptimizerConfig {
            max_disks: 3,
            max_delta: 5,
            max_candidates: 16,
            max_channels: 1,
        },
    )
    .unwrap();

    let spec = |start: usize| ClientSpec {
        interest_start: start,
        config: SimConfig {
            cache_size: 10,
            offset: 0,
            requests: 1_000,
            warmup_requests: 100,
            ..cfg()
        },
        noise: 0.1,
    };
    let out = simulate_population(&best.layout, &[spec(0), spec(250)], 9, 2).unwrap();
    assert_eq!(out.per_client.len(), 2);
    assert!(out.best_response_time <= out.worst_response_time);
    // The matched client enjoys the optimized program.
    assert!(out.best_response_time < 2.0 * best.expected_delay);
}
