//! The per-request telemetry families hold exact totals after a run.
//!
//! Clients tally requests, response times, cache hits/misses/evictions and
//! LIX chain lengths locally and publish them once, when the run ends.
//! This pins what a finished run leaves in the registry: every measured
//! request counted once, every miss and eviction counted once, and one
//! chain-length sample per LIX chain per eviction.
//!
//! This file deliberately holds a single `#[test]`: the registry is
//! process-wide, and a sibling test running concurrently would move the
//! totals.

use bdisk_obs::registry::{snapshot, SnapshotValue};
use bdisk_sched::DiskLayout;
use bdisk_sim::{simulate, PolicyKind, SimConfig};

/// `(count, sum)` of a histogram or `(value, 0)` of a counter, by name.
fn read(name: &str) -> (u64, u64) {
    snapshot()
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| match m.value {
            SnapshotValue::Counter(v) => (v, 0),
            SnapshotValue::Histogram(h) => (h.count, h.sum),
            SnapshotValue::Gauge(v) => (v as u64, 0),
        })
        .unwrap_or_else(|| panic!("{name} is not registered"))
}

#[test]
fn a_finished_run_publishes_exact_totals() {
    bdisk_sim::register_metrics();
    bdisk_cache::register_metrics();
    let families = [
        "bd_sim_requests_total",
        "bd_sim_response_time",
        "bd_sim_runs_total",
        "bd_cache_hits_total",
        "bd_cache_misses_total",
        "bd_cache_evictions_total",
        "bd_lix_chain_len",
    ];
    let before: Vec<(u64, u64)> = families.iter().map(|f| read(f)).collect();

    let layout = DiskLayout::with_delta(&[50, 200, 250], 3).unwrap();
    let cfg = SimConfig {
        access_range: 100,
        region_size: 5,
        cache_size: 50,
        offset: 50,
        noise: 0.3,
        policy: PolicyKind::Lix,
        requests: 2_000,
        warmup_requests: 500,
        ..SimConfig::default()
    };
    let out = simulate(&cfg, &layout, 5).unwrap();

    let delta: Vec<(u64, u64)> = families
        .iter()
        .zip(&before)
        .map(|(f, b)| {
            let a = read(f);
            (a.0 - b.0, a.1 - b.1)
        })
        .collect();
    let [requests, responses, runs, hits, misses, evictions, chain_lens] = delta[..] else {
        unreachable!()
    };
    assert_eq!(runs.0, 1);
    assert_eq!(requests.0, out.measured_requests);
    assert_eq!(responses.0, out.measured_requests);
    // Measured hits wait zero; every measured miss waits at least one
    // whole slot, so the response sum is at least the measured misses.
    let measured_misses = out.measured_requests - (out.hit_rate * 2_000.0).round() as u64;
    assert!(responses.1 >= measured_misses);
    // The cache filled once and was never invalidated: every miss beyond
    // the first `cache_size` evicted a page.
    assert_eq!(misses.0 - evictions.0, cfg.cache_size as u64);
    assert!(hits.0 >= (out.hit_rate * 2_000.0).round() as u64);
    // One chain-length sample per chain (disk) per eviction.
    assert_eq!(chain_lens.0, 3 * evictions.0);
}
