//! `sim_sweep`: the simulator on its own — no broker, no sockets, one
//! thread. One repeat is the whole grid of `simulate` calls.

use std::time::Instant;

use bdisk_sched::BroadcastPlan;
use bdisk_sim::{simulate, simulate_plan, PolicyKind, SimConfig, SimOutcome};

use crate::common::{d5_layout, fold, mix, Repeat, Workload};
use crate::span::Tracer;

const REQUESTS: u64 = 15_000;
const WARMUP: u64 = 5_000;
const NOISES: [f64; 3] = [0.0, 0.3, 0.6];
const SEEDS_PER_CELL: u64 = 3;

/// One `simulate` call of the grid.
#[derive(Clone, Copy)]
pub struct Point {
    pub policy: PolicyKind,
    pub delta: u64,
    pub noise: f64,
    pub sim_seed: u64,
    /// The simulator seed does not depend on `--seed` (see [`points`]).
    pub pinned: bool,
}

impl Point {
    fn config(&self) -> SimConfig {
        SimConfig {
            cache_size: 500,
            noise: self.noise,
            policy: self.policy,
            requests: REQUESTS,
            warmup_requests: WARMUP,
            ..SimConfig::default()
        }
    }
}

/// `policies × deltas × noises × seeds`, every point with a simulator
/// seed of its own. The first point of each cell is pinned: its seed is the
/// same whatever `seed` is. One draw of a noisy mapping moves a point's
/// mean response by tens of percent, so a mean over seeded points is a
/// function of the seed; the mean over the pinned third of the grid is a
/// function of the code alone, and that is what `delay_bu` guards.
pub fn points(
    seed: u64,
    policies: &[PolicyKind],
    deltas: &[u64],
    noises: &[f64],
    seeds: u64,
) -> Vec<Point> {
    let mut out = Vec::new();
    for &policy in policies {
        for &delta in deltas {
            for &noise in noises {
                for k in 0..seeds {
                    let pinned = k == 0;
                    let stream = if pinned { 0x5eed_0fd5 } else { seed };
                    out.push(Point {
                        policy,
                        delta,
                        noise,
                        sim_seed: mix(stream ^ mix(out.len() as u64)),
                        pinned,
                    });
                }
            }
        }
    }
    out
}

fn outcome_digest(o: &SimOutcome) -> u64 {
    let mut digest = o.measured_requests;
    for v in [
        o.mean_response_time,
        o.hit_rate,
        o.p50,
        o.p95,
        o.p99,
        o.p999,
        o.max_response_time,
        o.end_time,
        o.ci_half_width.unwrap_or(-1.0),
    ]
    .iter()
    .chain(&o.access_fractions)
    {
        fold(&mut digest, v.to_bits());
    }
    digest
}

/// Runs every point through `simulate`, one span per call named after its
/// policy. Returns the repeat and each point's outcome digest (0 = failed).
pub fn run(points: &[Point], tr: &mut Tracer) -> (Repeat, Vec<u64>) {
    let mut r = Repeat::default();
    let mut digests = Vec::with_capacity(points.len());
    let (mut response_sum, mut pinned) = (0.0, 0u32);
    let t0 = Instant::now();
    for p in points {
        let s = tr.enter(&format!("simulate.{}", p.policy.name()));
        let call = Instant::now();
        let outcome = simulate(&p.config(), &d5_layout(p.delta), p.sim_seed);
        r.latency_us.push(call.elapsed().as_secs_f64() * 1e6);
        tr.exit(s);
        r.attempted += 1;
        match outcome {
            Ok(o) if o.measured_requests == REQUESTS => {
                r.ops += REQUESTS + WARMUP;
                if p.pinned {
                    response_sum += o.mean_response_time;
                    pinned += 1;
                }
                digests.push(outcome_digest(&o));
            }
            _ => {
                r.failed += 1;
                digests.push(0);
            }
        }
    }
    r.timed_s = t0.elapsed().as_secs_f64();
    r.delay_bu = response_sum / pinned.max(1) as f64;
    for &d in &digests {
        fold(&mut r.digest, d);
    }
    (r, digests)
}

pub struct SimSweep {
    pub seed: u64,
}

impl Workload for SimSweep {
    fn repeat(&mut self, tr: &mut Tracer) -> Repeat {
        let s = tr.enter("inputs");
        let grid = points(
            self.seed,
            &PolicyKind::ALL,
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &NOISES,
            SEEDS_PER_CELL,
        );
        tr.exit(s);
        let (mut r, digests) = run(&grid, tr);
        // One latency sample per (policy, Δ) row: the mean of its nine
        // calls. A call lasts a few milliseconds, so one preemption is a
        // fifth of it, and the tail of raw call times follows the host's
        // scheduler rather than the simulator. The p99 of rows is the
        // slowest (policy, Δ) combination.
        r.latency_us = r
            .latency_us
            .chunks(NOISES.len() * SEEDS_PER_CELL as usize)
            .map(|row| row.iter().sum::<f64>() / row.len() as f64)
            .collect();

        // Outside the timed region: one point per Δ again, by the other
        // public route (a plan generated up front, then `simulate_plan`).
        // Both routes must give the same outcome to the bit.
        let s = tr.enter("cross-check");
        let mut seen = Vec::new();
        for (p, &digest) in grid.iter().zip(&digests) {
            if p.policy != PolicyKind::Lix || seen.contains(&p.delta) {
                continue;
            }
            seen.push(p.delta);
            let layout = d5_layout(p.delta);
            let again = BroadcastPlan::generate(&layout, 1)
                .ok()
                .and_then(|plan| simulate_plan(&p.config(), &layout, plan, p.sim_seed).ok());
            r.attempted += 1;
            r.failed += u64::from(again.map(|o| outcome_digest(&o)) != Some(digest));
        }
        tr.exit(s);
        r
    }
}
