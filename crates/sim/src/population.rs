//! Multi-client populations: the zero-sum broadcast tradeoff, directly.
//!
//! Section 3: "tuning the performance of the broadcast is a zero-sum game;
//! improving the broadcast for any one access probability distribution will
//! hurt the performance of clients with different access distributions."
//!
//! The single-client simulator models other clients *implicitly* through
//! `Noise`. This module models them explicitly: each [`ClientSpec`] has its
//! own interest region (where its hot pages sit in the server's database),
//! its own cache, and its own policy. Clients of a broadcast never contend
//! with each other — the channel is shared and read-only — so each client
//! is simulated independently against the same program and the results are
//! aggregated.

use bdisk_sched::{BroadcastProgram, DiskLayout};
use bdisk_workload::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{SimConfig, SimError};
use crate::metrics::SimOutcome;
use crate::model::ClientModel;
use crate::runner::sweep;

/// One client in a population.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Physical page at which this client's hottest page sits; clients with
    /// different interests point at different parts of the database.
    pub interest_start: usize,
    /// Per-client simulation parameters (cache size, policy, workload…).
    /// `offset`/`noise` inside are ignored — interest placement replaces
    /// them.
    pub config: SimConfig,
    /// Extra per-client noise applied on top of the interest placement.
    pub noise: f64,
}

/// Aggregated population results.
#[derive(Debug, Clone)]
pub struct PopulationOutcome {
    /// Outcome of each client, in spec order.
    pub per_client: Vec<SimOutcome>,
    /// Request-weighted mean response time across the population.
    pub mean_response_time: f64,
    /// Worst single-client mean (the fairness headline).
    pub worst_response_time: f64,
    /// Best single-client mean.
    pub best_response_time: f64,
}

/// Simulates every client of the population against the same broadcast
/// program, in parallel.
pub fn simulate_population(
    layout: &DiskLayout,
    specs: &[ClientSpec],
    seed: u64,
    threads: usize,
) -> Result<PopulationOutcome, SimError> {
    assert!(!specs.is_empty(), "population needs at least one client");
    let program = BroadcastProgram::generate(layout)?;
    let db = layout.total_pages();

    let indexed: Vec<(usize, ClientSpec)> = specs.iter().cloned().enumerate().collect();
    let results: Vec<Result<SimOutcome, SimError>> = sweep(indexed, threads, |(k, spec)| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(*k as u64 * 0x9E37_79B9));
        // Rotate the identity so the client's logical page 0 lands on
        // physical page `interest_start`: offset = (db − start) mod db.
        let mut mapping = Mapping::with_offset(db, (db - spec.interest_start % db) % db);
        mapping.apply_noise(layout, spec.noise, &mut rng);
        let client =
            ClientModel::with_mapping(&spec.config, layout, program.clone(), mapping, rng)?;
        Ok(client.run().0)
    });

    let mut per_client = Vec::with_capacity(results.len());
    for r in results {
        per_client.push(r?);
    }

    let total_requests: u64 = per_client.iter().map(|o| o.measured_requests).sum();
    let mean_response_time = per_client
        .iter()
        .map(|o| o.mean_response_time * o.measured_requests as f64)
        .sum::<f64>()
        / total_requests.max(1) as f64;
    let worst = per_client
        .iter()
        .map(|o| o.mean_response_time)
        .fold(f64::NEG_INFINITY, f64::max);
    let best = per_client
        .iter()
        .map(|o| o.mean_response_time)
        .fold(f64::INFINITY, f64::min);

    Ok(PopulationOutcome {
        per_client,
        mean_response_time,
        worst_response_time: worst,
        best_response_time: best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk_cache::PolicyKind;

    fn spec(interest_start: usize) -> ClientSpec {
        ClientSpec {
            interest_start,
            config: SimConfig {
                access_range: 100,
                region_size: 5,
                cache_size: 1,
                policy: PolicyKind::Pix,
                requests: 1_500,
                warmup_requests: 100,
                ..SimConfig::default()
            },
            noise: 0.0,
        }
    }

    #[test]
    fn favored_client_beats_unfavored() {
        // Client A's interest is the fast disk; client B's is deep in the
        // slow disk. The zero-sum tradeoff must be visible.
        let layout = DiskLayout::with_delta(&[100, 150, 250], 4).unwrap();
        let out = simulate_population(&layout, &[spec(0), spec(350)], 3, 2).unwrap();
        let a = out.per_client[0].mean_response_time;
        let b = out.per_client[1].mean_response_time;
        assert!(a < b, "favored {a} vs unfavored {b}");
        assert_eq!(out.best_response_time, a);
        assert_eq!(out.worst_response_time, b);
        assert!(out.mean_response_time > a && out.mean_response_time < b);
    }

    #[test]
    fn flat_broadcast_is_fair() {
        // Δ=0: every page equidistant, so interest placement is irrelevant
        // (up to seed noise).
        let layout = DiskLayout::with_delta(&[100, 150, 250], 0).unwrap();
        let out = simulate_population(&layout, &[spec(0), spec(250)], 9, 2).unwrap();
        let a = out.per_client[0].mean_response_time;
        let b = out.per_client[1].mean_response_time;
        let rel = (a - b).abs() / a;
        assert!(rel < 0.08, "flat broadcast should be fair: {a} vs {b}");
    }

    #[test]
    fn caching_rescues_the_unfavored_client() {
        let layout = DiskLayout::with_delta(&[100, 150, 250], 4).unwrap();
        let mut cached = spec(350);
        cached.config.cache_size = 40;
        let out = simulate_population(&layout, &[spec(350), cached], 11, 2).unwrap();
        let uncached_rt = out.per_client[0].mean_response_time;
        let cached_rt = out.per_client[1].mean_response_time;
        assert!(
            cached_rt < uncached_rt,
            "cache should help: {cached_rt} vs {uncached_rt}"
        );
    }

    #[test]
    fn deterministic_population() {
        let layout = DiskLayout::with_delta(&[100, 400], 2).unwrap();
        let specs = vec![spec(0), spec(100), spec(200)];
        let a = simulate_population(&layout, &specs, 5, 3).unwrap();
        let b = simulate_population(&layout, &specs, 5, 1).unwrap();
        for (x, y) in a.per_client.iter().zip(&b.per_client) {
            assert_eq!(x.mean_response_time, y.mean_response_time);
        }
    }
}
