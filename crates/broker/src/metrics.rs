//! Fleet-wide aggregation: merges per-client measurements into one report.

use bdesim::{Histogram, RunningStats};
use bdisk_sim::SimOutcome;

use crate::client::LiveClientResult;
use crate::engine::EngineReport;

/// Aggregate results of one live run: engine throughput plus fleet-wide
/// service statistics pooled over every client's measured requests.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Engine-side accounting (slot rate, drops, disconnects, lag).
    pub engine: EngineReport,
    /// Clients that reported results.
    pub clients: usize,
    /// Measured requests pooled across clients.
    pub measured_requests: u64,
    /// Fleet mean response time, in broadcast units.
    pub mean_response_time: f64,
    /// Fleet cache hit rate, or `None` when no requests were measured —
    /// a misconfigured warm-up is visible instead of masquerading as a
    /// 0% hit rate.
    pub hit_rate: Option<f64>,
    /// Fleet median response time (unit buckets).
    pub p50: f64,
    /// Fleet 95th-percentile response time.
    pub p95: f64,
    /// Fleet 99th-percentile response time.
    pub p99: f64,
    /// Fleet 99.9th-percentile response time (the extreme tail — where
    /// loss recovery and switch penalties live).
    pub p999: f64,
    /// Each client's own summarized outcome, in client order.
    pub per_client: Vec<SimOutcome>,
}

/// Merges client results into a [`LiveReport`].
///
/// Response-time moments merge exactly (parallel Welford); percentiles come
/// from summing the clients' unit-bucket histograms, so the fleet p50/p95/p99
/// are as exact as any single client's.
pub fn aggregate(engine: EngineReport, results: Vec<LiveClientResult>) -> LiveReport {
    let mut stats = RunningStats::new();
    let mut hist = Histogram::new(1);
    let mut cache_hits = 0u64;
    let mut total = 0u64;
    let mut per_client = Vec::with_capacity(results.len());

    for result in results {
        stats.merge(&result.measurements.stats);
        hist.merge(&result.measurements.hist);
        cache_hits += result.measurements.locations.count(0);
        total += result.measurements.locations.total();
        per_client.push(result.outcome);
    }

    LiveReport {
        engine,
        clients: per_client.len(),
        measured_requests: stats.count(),
        mean_response_time: stats.mean(),
        hit_rate: if total == 0 {
            None
        } else {
            Some(cache_hits as f64 / total as f64)
        },
        p50: hist.quantile(0.5).unwrap_or(0.0),
        p95: hist.quantile(0.95).unwrap_or(0.0),
        p99: hist.quantile(0.99).unwrap_or(0.0),
        p999: hist.quantile(0.999).unwrap_or(0.0),
        per_client,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::{BroadcastEngine, InMemoryBus, LiveClient};
    use bdisk_cache::PolicyKind;
    use bdisk_sched::{BroadcastProgram, DiskLayout};
    use bdisk_sim::SimConfig;

    #[test]
    fn aggregate_pools_two_clients() {
        let layout = DiskLayout::with_delta(&[10, 40, 50], 2).unwrap();
        let program = BroadcastProgram::generate(&layout).unwrap();
        let cfg = SimConfig {
            access_range: 50,
            region_size: 5,
            cache_size: 10,
            offset: 10,
            noise: 0.2,
            policy: PolicyKind::Lru,
            requests: 200,
            warmup_requests: 20,
            ..SimConfig::default()
        };

        let clients: Vec<LiveClient> = (0..2)
            .map(|i| LiveClient::new(&cfg, &layout, program.clone(), 7 + i).unwrap())
            .collect();
        let mut bus = InMemoryBus::new(clients);
        let engine = BroadcastEngine::new(program, EngineConfig::default());
        let engine_report = engine.run(&mut bus);
        let results = aggregate(engine_report, bus.into_results());

        assert_eq!(results.clients, 2);
        assert_eq!(results.measured_requests, 400);
        assert!(results.mean_response_time > 0.0);
        let hit_rate = results.hit_rate.expect("measured run has a hit rate");
        assert!((0.0..=1.0).contains(&hit_rate));
        assert!(results.p50 <= results.p95 && results.p95 <= results.p99);
        assert!(results.p99 <= results.p999);
        // Pooled mean equals the request-weighted mean of the parts.
        let weighted: f64 = results
            .per_client
            .iter()
            .map(|o| o.mean_response_time * o.measured_requests as f64)
            .sum::<f64>()
            / 400.0;
        assert!((results.mean_response_time - weighted).abs() < 1e-9);
    }

    #[test]
    fn empty_fleet_is_safe() {
        let layout = DiskLayout::with_delta(&[4, 8], 1).unwrap();
        let program = BroadcastProgram::generate(&layout).unwrap();
        let engine = BroadcastEngine::new(
            program,
            EngineConfig {
                max_slots: 10,
                stop_when_no_clients: false,
                ..EngineConfig::default()
            },
        );
        let mut bus = InMemoryBus::new(vec![]);
        let report = engine.run(&mut bus);
        let live = aggregate(report, Vec::new());
        assert_eq!(live.clients, 0);
        assert_eq!(live.measured_requests, 0);
        assert_eq!(live.mean_response_time, 0.0);
        assert_eq!(
            live.hit_rate, None,
            "no measured requests must not read as a 0% hit rate"
        );
    }
}
