//! `repro channels` — the multi-channel broadcast sweep.
//!
//! Sweeps the paper's D5 configuration (⟨500, 2000, 2500⟩, Δ = 3 — the
//! fixed 5000-page set) striped across 1–4 broadcast channels and measures
//! mean response time for PIX, LIX, and LRU at the Figure 13 caching
//! operating point (CacheSize = Offset = 500, Noise = 30%), at zero switch
//! cost. Alongside the simulation it evaluates the plan's *analytic*
//! expected delay under the region-Zipf access distribution.
//!
//! Two invariants are asserted in-process (failing the run, and CI):
//!
//! * the analytic expected delay is non-increasing in the channel count —
//!   striping only shrinks per-channel periods; and
//! * at zero switch cost the simulated mean response time is non-increasing
//!   in the channel count for PIX and LIX (exact at full scale, a small
//!   slack at `--quick` statistics).
//!
//! A final stage runs the live broadcast engine on a 2-channel plan over
//! the lossless in-memory bus and checks every client against
//! `simulate_plan` **bit-exactly** — the multi-channel extension of the
//! `repro live` parity contract — which also exercises the per-channel
//! metric families (`bd_slots_by_channel_total` and friends).
//!
//! Artifact: `results/channels.csv`. The stdout witnesses CI greps for,
//! `monotonicity: OK` and `parity: EXACT`, print only after the asserts
//! above pass.

use bdisk_broker::{aggregate, BroadcastEngine, EngineConfig, InMemoryBus, LiveClient};
use bdisk_cache::PolicyKind;
use bdisk_sched::BroadcastPlan;
use bdisk_sim::{seeds_from_base, simulate_plan, SimConfig, SimOutcome};
use bdisk_workload::RegionZipf;

use crate::common::{self, Scale};
use crate::live::{linger, start_metrics, LiveOptions};

/// Channel counts swept.
const CHANNEL_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// Policies compared across channel counts.
const POLICIES: [PolicyKind; 3] = [PolicyKind::Pix, PolicyKind::Lix, PolicyKind::Lru];

/// Bit-identical tolerance for the 2-channel live parity stage.
const PARITY_TOLERANCE: f64 = 1e-9;

/// The Figure 13 caching config at `channels`, zero switch cost.
fn config(scale: Scale, policy: PolicyKind, channels: usize) -> SimConfig {
    SimConfig {
        channels,
        switch_slots: 0.0,
        ..common::caching_config(scale, policy, 0.30)
    }
}

/// Runs the sweep, the assertions, the artifacts, and the live parity stage.
pub fn run(scale: Scale, opts: &LiveOptions) {
    let server = start_metrics(opts);
    let layout = common::layout("D5", 3);
    let seeds = scale.seeds();

    println!(
        "\n=== channels: D5, Delta=3, Noise=30%, {} channels x {{PIX, LIX, LRU}}, switch cost 0 ===",
        CHANNEL_COUNTS.len()
    );

    // Analytic access distribution: the region-Zipf logical probabilities
    // under the identity mapping (offset 0, noise 0), padded with zeros to
    // the full 5000-page set. Any fixed distribution works for the
    // monotonicity claim; this one matches the workload's skew.
    let base = common::base_config(scale);
    let zipf = RegionZipf::new(base.access_range, base.region_size, base.theta);
    let mut probs = zipf.probs().to_vec();
    probs.resize(layout.total_pages(), 0.0);

    let mut analytic = Vec::new();
    let mut sim_means: Vec<Vec<f64>> = vec![Vec::new(); POLICIES.len()];
    for &channels in &CHANNEL_COUNTS {
        let plan = BroadcastPlan::generate(&layout, channels).expect("paper layout stripes");
        analytic.push(plan.expected_delay(&probs));

        // All (policy, seed) points of this channel count in parallel,
        // sharing the one generated plan.
        let points: Vec<(usize, u64)> = POLICIES
            .iter()
            .enumerate()
            .flat_map(|(pi, _)| seeds.iter().map(move |&s| (pi, s)))
            .collect();
        let outcomes: Vec<SimOutcome> = bdisk_sim::sweep(
            points.clone(),
            common::threads(),
            |&(pi, seed): &(usize, u64)| {
                let cfg = config(scale, POLICIES[pi], channels);
                simulate_plan(&cfg, &layout, plan.clone(), seed)
                    .expect("channel sweep run must succeed")
            },
        );
        for (pi, _) in POLICIES.iter().enumerate() {
            let per_policy: Vec<f64> = points
                .iter()
                .zip(&outcomes)
                .filter(|((i, _), _)| *i == pi)
                .map(|(_, o)| o.mean_response_time)
                .collect();
            sim_means[pi].push(per_policy.iter().sum::<f64>() / per_policy.len() as f64);
        }
    }

    let xs: Vec<String> = CHANNEL_COUNTS.iter().map(|c| c.to_string()).collect();
    let mut series = vec![("analytic".to_string(), analytic.clone())];
    for (pi, policy) in POLICIES.iter().enumerate() {
        series.push((policy.name().to_lowercase(), sim_means[pi].clone()));
    }
    common::print_table(
        "mean response vs broadcast channels (D5, Delta=3)",
        "channels",
        &xs,
        &series,
    );
    common::write_csv("channels.csv", "channels", &xs, &series);

    // Striping only shrinks per-channel periods, so the analytic delay of
    // the fixed layout must be non-increasing in the channel count.
    assert_non_increasing("analytic expected delay", &analytic, 1e-9);

    // At zero switch cost the simulated means must not get worse either;
    // full scale is averaged over enough requests to assert exactly, quick
    // runs get a small statistical slack.
    let slack = match scale {
        Scale::Full => 1e-9,
        Scale::Quick => 0.05,
    };
    for (pi, policy) in POLICIES.iter().enumerate() {
        if matches!(policy, PolicyKind::Pix | PolicyKind::Lix) {
            assert_non_increasing_rel(
                &format!("{} simulated mean", policy.name()),
                &sim_means[pi],
                slack,
            );
        }
    }
    println!(
        "monotonicity: OK — delay non-increasing 1→{} channels",
        CHANNEL_COUNTS.len()
    );

    // --- live parity on a 2-channel plan ---
    live_parity(scale, opts, &layout);

    linger(server, opts.serve_secs);
}

/// Asserts `values` never increases (absolute slack).
fn assert_non_increasing(what: &str, values: &[f64], slack: f64) {
    for w in values.windows(2) {
        assert!(
            w[1] <= w[0] + slack,
            "{what} must be non-increasing in channel count: {values:?}"
        );
    }
}

/// Asserts `values` never increases by more than `rel` relative slack.
fn assert_non_increasing_rel(what: &str, values: &[f64], rel: f64) {
    for w in values.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + rel),
            "{what} must be non-increasing in channel count: {values:?}"
        );
    }
}

/// The live engine on a 2-channel plan over the lossless bus: every client
/// must be bit-identical to its `simulate_plan` twin.
fn live_parity(scale: Scale, opts: &LiveOptions, layout: &bdisk_sched::DiskLayout) {
    let plan = BroadcastPlan::generate(layout, 2).expect("2-channel D5 plan");
    let seeds = seeds_from_base(common::context().base_seed, POLICIES.len());
    let roster: Vec<(PolicyKind, u64)> = POLICIES.iter().copied().zip(seeds).collect();

    println!(
        "\n=== channels: live parity — {} clients on a 2-channel plan over the bus ===",
        roster.len()
    );

    let clients: Vec<LiveClient> = roster
        .iter()
        .map(|&(policy, seed)| {
            LiveClient::with_plan(&config(scale, policy, 2), layout, plan.clone(), seed)
                .expect("live client config is valid")
        })
        .collect();
    let mut bus = InMemoryBus::new(clients);

    let engine = BroadcastEngine::with_plan(
        plan.clone(),
        EngineConfig {
            page_size: opts.page_size,
            ..EngineConfig::default()
        },
    );
    let report = engine.run(&mut bus);

    let results: Vec<_> = bus.into_results();
    let mut worst_gap: f64 = 0.0;
    for (&(policy, seed), result) in roster.iter().zip(&results) {
        let cfg = config(scale, policy, 2);
        let sim = simulate_plan(&cfg, layout, plan.clone(), seed).expect("simulator run");
        let out = &result.outcome;
        for (live_v, sim_v) in [
            (out.mean_response_time, sim.mean_response_time),
            (out.hit_rate, sim.hit_rate),
            (out.end_time, sim.end_time),
        ] {
            worst_gap = worst_gap.max((live_v - sim_v).abs());
        }
        assert!(
            worst_gap < PARITY_TOLERANCE,
            "{policy:?}/seed {seed}: 2-channel live diverged from simulate_plan \
             (gap {worst_gap:.3e})"
        );
    }
    let fleet = aggregate(report, results);
    println!(
        "parity: EXACT — {} clients, {} measured requests, worst gap {worst_gap:.3e} \
         (tolerance {PARITY_TOLERANCE:e})",
        roster.len(),
        fleet.measured_requests
    );
}
