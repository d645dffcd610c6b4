//! `repro coding` — coded repair slots: recovery latency vs code rate.
//!
//! The broadcast disk's loss story without coding is "wait a period": a
//! client whose pending page is erased listens until the page comes around
//! again. `bdisk-code` converts the schedule's dead air (and, past that,
//! duplicate airings) into parity symbols; a client that heard the rest of
//! a symbol's coverage window reconstructs the lost page at the symbol,
//! slots — not a period — after the loss.
//!
//! Stages:
//!
//! 1. **Rate × loss sweep** (deterministic in-memory bus): LT fountain
//!    symbols at code rates 0 and 25% × erasure rates 5–20%, D5, Δ = 3,
//!    Offset = 0, Noise = 0, policy LIX. The operating point is chosen so
//!    the pending population is *coverable*: repair slots can only
//!    displace padding or *duplicate* airings, so the frequency-1 disk is
//!    outside every coverage window — offset or noise would strand hot
//!    pages there and pin the recovery tail to the period plateau no code
//!    rate can move (see DESIGN.md §8 for the shadow analysis). At offset
//!    0 / noise 0 every requested page lives on a disk with spare
//!    airings. The erasure schedule is seeded and shared across rates,
//!    and coded plans *nest* (the repair slots at rate r are a subset of
//!    those at r' > r), so the comparison across rates is structural, not
//!    sampled. The swept rates bracket the anchor loss deliberately: a
//!    code rate *below* the channel's erasure rate cannot repair most
//!    losses (there are fewer parity symbols than holes), and recovery
//!    waits concentrate on exact gap multiples (stolen airings double a
//!    gap; a full period is the worst case), so only a rate comfortably
//!    above the loss moves the tail off its plateau. The run asserts
//!    in-process that the fleet's p99 recovery wait **strictly
//!    decreases** as the code rate rises at 10% loss, and that rate 0
//!    decodes nothing. Results go to `coding.csv`; each point also
//!    reports the analytic `expected_delay_lossy` and its loss-induced
//!    excess over the same plan's lossless delay — the excess must
//!    collapse with the rate (total mean delay need not: stolen airings
//!    widen base gaps, the price of the tail collapse).
//!
//! 2. **Coded live parity** (lossless bus, 2-channel plan, LT fountain
//!    codec): every client must be bit-identical to `simulate_plan` on the
//!    same coded plan — repair slots displace padding, never data timing,
//!    and a lossless feed never decodes.
//!
//! Artifact: `results/coding.csv`. The stdout witnesses CI greps for,
//! `monotonicity: OK` and `parity: EXACT`, print only after the asserts
//! above pass.

use bdisk_broker::{aggregate, BroadcastEngine, EngineConfig, FaultPlan, InMemoryBus, LiveClient};
use bdisk_cache::PolicyKind;
use bdisk_sched::{BroadcastPlan, CodingConfig, DiskLayout};
use bdisk_sim::{seeds_from_base, simulate_plan, SimConfig};
use bdisk_workload::RegionZipf;

use crate::common::{self, Scale};
use crate::live::{linger, start_metrics, LiveOptions};

/// Parity-group span: each repair symbol draws from the last 25 distinct
/// *coded* (multi-airing) pages aired before it. At the swept code rate (a
/// repair every ~4 slots) every data slot sits under ~6 overlapping
/// windows, so the peeling decoder behaves like a spatially-coupled
/// erasure code: a double loss that defeats one symbol resolves through a
/// neighbour once either of its holes decodes elsewhere. The LT codec is
/// essential here, not a luxury: whole-window XOR symbols over sliding
/// windows are prefix-sum constraints (`P(b) ⊕ P(a−1)`), so a run of them
/// is rank-deficient and peeling stalls near half the losses regardless of
/// overhead, while random-subset symbols give an expander-like graph that
/// drains almost everything (see the `stream_decode` harness).
const GROUP: usize = 25;

/// Bit-identical tolerance for the coded 2-channel live parity stage.
const PARITY_TOLERANCE: f64 = 1e-9;

/// Code rates swept (repair slots per broadcast slot). Two points at both
/// scales: uncoded, and a rate 2.5× the anchor loss — see the module docs
/// for why sub-loss rates cannot move the recovery-wait plateau.
fn code_rates(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Full => &[0.0, 0.25],
        Scale::Quick => &[0.0, 0.25],
    }
}

/// Frame-erasure rates swept.
fn loss_rates(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Full => &[0.05, 0.10, 0.20],
        Scale::Quick => &[0.10],
    }
}

/// The loss rate the monotonicity assertion anchors on (present at both
/// scales).
const ANCHOR_LOSS: f64 = 0.10;

/// Clients averaged per sweep point.
fn sweep_clients(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Quick => 4,
    }
}

/// The erasure seed, derived from the invocation's base seed — shared by
/// every sweep point so the slots erased are identical across code rates.
fn fault_seed() -> u64 {
    common::context().base_seed ^ 0xC0DE
}

/// The coding seed (symbol selection for the LT codec).
fn coding_seed() -> u64 {
    common::context().base_seed ^ 0x50D4
}

/// One sweep point's fleet outcome.
struct PointOutcome {
    mean: f64,
    recoveries: u64,
    recoveries_coded: u64,
    symbols_decoded: u64,
    mean_wait: f64,
    p99_wait: u64,
    max_wait: u64,
    analytic: f64,
    /// Loss-induced excess of the analytic model: `expected_delay_lossy`
    /// minus the same plan's lossless `expected_delay`. Isolates the
    /// model's repair credit from the base-delay cost of stolen airings.
    analytic_excess: f64,
}

/// Runs one (code rate, loss rate) fleet on the deterministic bus.
fn sweep_point(
    scale: Scale,
    opts: &LiveOptions,
    rate: f64,
    loss: f64,
    layout: &DiskLayout,
    plan: &BroadcastPlan,
    probs: &[f64],
) -> PointOutcome {
    let n = sweep_clients(scale);
    let seeds = seeds_from_base(common::context().base_seed, n);
    let cfg = SimConfig {
        offset: 0,
        ..common::caching_config(scale, PolicyKind::Lix, 0.0)
    };

    let clients: Vec<LiveClient> = seeds
        .iter()
        .map(|&seed| {
            LiveClient::with_plan(&cfg, layout, plan.clone(), seed).expect("valid client config")
        })
        .collect();
    let mut bus = InMemoryBus::new(clients);
    bus.set_fault_plan(FaultPlan::erasure_only(fault_seed(), loss));

    let engine = BroadcastEngine::with_plan(
        plan.clone(),
        EngineConfig {
            max_slots: 100_000_000,
            page_size: opts.page_size,
            ..EngineConfig::default()
        },
    );
    let report = engine.run(&mut bus);
    let results = bus.into_results();
    for r in &results {
        assert_eq!(
            r.outcome.measured_requests, cfg.requests,
            "a coding sweep client failed to finish (rate {rate}, loss {loss})"
        );
    }
    let recoveries: u64 = results.iter().map(|r| r.recoveries).sum();
    let recoveries_coded = results.iter().map(|r| r.recoveries_coded).sum();
    let symbols_decoded = results.iter().map(|r| r.symbols_decoded).sum();
    let mut waits: Vec<u64> = results
        .iter()
        .flat_map(|r| r.recovery_waits.iter().copied())
        .collect();
    let mean_wait = if waits.is_empty() {
        0.0
    } else {
        waits.iter().sum::<u64>() as f64 / waits.len() as f64
    };
    let p99_wait = common::percentile(&mut waits, 0.99);
    let max_wait = waits.last().copied().unwrap_or(0);
    let fleet = aggregate(report, results);
    PointOutcome {
        mean: fleet.mean_response_time,
        recoveries,
        recoveries_coded,
        symbols_decoded,
        mean_wait,
        p99_wait,
        max_wait,
        analytic: plan.expected_delay_lossy(probs, loss),
        analytic_excess: plan.expected_delay_lossy(probs, loss) - plan.expected_delay(probs),
    }
}

/// Runs the sweep, the monotonicity assertions, the coded parity stage,
/// and the artifacts.
pub fn run(scale: Scale, opts: &LiveOptions) {
    let server = start_metrics(opts);
    let rates = code_rates(scale);
    let losses = loss_rates(scale);
    let layout = common::layout("D5", 3);

    println!(
        "\n=== coding: LT repair slots, D5, Delta=3, Offset=0, Noise=0, LIX, group={GROUP}, \
         {} clients/point, erasure seed {} ===",
        sweep_clients(scale),
        fault_seed()
    );

    // Analytic access distribution: region-Zipf logical probabilities under
    // the identity mapping, padded to the full page set (same convention as
    // `repro channels`).
    let base = common::base_config(scale);
    let zipf = RegionZipf::new(base.access_range, base.region_size, base.theta);
    let mut probs = zipf.probs().to_vec();
    probs.resize(layout.total_pages(), 0.0);

    // One coded plan per rate, shared across losses and clients. Rate 0 is
    // the uncoded identity plan (`with_coding` returns it unchanged).
    let plans: Vec<BroadcastPlan> = rates
        .iter()
        .map(|&rate| {
            let plan = BroadcastPlan::generate(&layout, 1)
                .expect("paper layout is valid")
                .with_coding(CodingConfig::lt(rate, GROUP, coding_seed()))
                .expect("sweep coding config is valid");
            // Satellite: the plan summary reports per-channel slot budgets
            // (data / empty / repair), so the dead-air conversion is visible.
            println!("\nplan @ rate {rate:.2}:\n{}", plan.summary());
            plan
        })
        .collect();

    // outcomes[l][r]: loss l at code rate r.
    let outcomes: Vec<Vec<PointOutcome>> = losses
        .iter()
        .map(|&loss| {
            rates
                .iter()
                .zip(&plans)
                .map(|(&rate, plan)| {
                    let point = sweep_point(scale, opts, rate, loss, &layout, plan, &probs);
                    println!(
                        "  rate {rate:>4.2} @ {:>4.0}% loss: mean {:>7.1}  \
                         waits mean {:>6.1} p99 {:>5} max {:>5}  \
                         ({} recoveries, {} coded, {} symbols decoded)",
                        loss * 100.0,
                        point.mean,
                        point.mean_wait,
                        point.p99_wait,
                        point.max_wait,
                        point.recoveries,
                        point.recoveries_coded,
                        point.symbols_decoded,
                    );
                    point
                })
                .collect()
        })
        .collect();

    // Rate 0 must be observably uncoded: nothing decodes, nothing is coded.
    for per_rate in &outcomes {
        let zero = &per_rate[0];
        assert_eq!(zero.recoveries_coded, 0, "rate 0 produced coded recoveries");
        assert_eq!(zero.symbols_decoded, 0, "rate 0 decoded repair symbols");
    }

    // The acceptance bar: at the anchor loss rate the recovery-wait tail
    // collapses as the code rate rises — p99 strictly decreasing — and the
    // analytic lossy delay agrees on the direction.
    let anchor = losses
        .iter()
        .position(|&l| (l - ANCHOR_LOSS).abs() < 1e-12)
        .expect("anchor loss rate is always swept");
    let per_rate = &outcomes[anchor];
    for w in per_rate.windows(2) {
        assert!(
            w[1].p99_wait < w[0].p99_wait,
            "p99 recovery wait must strictly decrease with code rate at \
             {:.0}% loss: {:?}",
            ANCHOR_LOSS * 100.0,
            per_rate.iter().map(|o| o.p99_wait).collect::<Vec<_>>()
        );
        assert!(
            w[1].recoveries_coded > w[0].recoveries_coded,
            "coded recoveries must rise with the code rate"
        );
    }
    // The analytic model's repair credit: the *loss-induced excess* (lossy
    // minus lossless delay of the same plan) must collapse as the rate
    // rises. Total lossy delay is the wrong yardstick here — at high rates
    // stolen airings widen base gaps by more than repair saves in *mean*
    // delay, a tradeoff the simulated mean response shows too; the tail
    // collapse above is what coding buys.
    let excess_anchor: Vec<f64> = per_rate.iter().map(|o| o.analytic_excess).collect();
    for w in excess_anchor.windows(2) {
        assert!(
            w[1] < w[0],
            "analytic loss excess must collapse with the code rate: {excess_anchor:?}"
        );
    }
    println!(
        "\nmonotonicity: OK — p99 recovery wait strictly decreasing in code rate \
         at {:.0}% loss",
        ANCHOR_LOSS * 100.0
    );

    let xs: Vec<String> = rates.iter().map(|r| format!("{r:.2}")).collect();
    let mut table = Vec::new();
    let mut series = Vec::new();
    for (l, &loss) in losses.iter().enumerate() {
        let tag = format!("loss{:02}", (loss * 100.0).round() as u32);
        let p99s: Vec<f64> = outcomes[l].iter().map(|o| o.p99_wait as f64).collect();
        table.push((format!("{tag}_p99wait"), p99s.clone()));
        series.push((format!("{tag}_p99wait"), p99s));
        series.push((
            format!("{tag}_maxwait"),
            outcomes[l].iter().map(|o| o.max_wait as f64).collect(),
        ));
        series.push((
            format!("{tag}_meanwait"),
            outcomes[l].iter().map(|o| o.mean_wait).collect(),
        ));
        series.push((
            format!("{tag}_mean"),
            outcomes[l].iter().map(|o| o.mean).collect(),
        ));
        series.push((
            format!("{tag}_coded"),
            outcomes[l]
                .iter()
                .map(|o| o.recoveries_coded as f64)
                .collect(),
        ));
        series.push((
            format!("{tag}_analytic"),
            outcomes[l].iter().map(|o| o.analytic).collect(),
        ));
        series.push((
            format!("{tag}_analytic_excess"),
            outcomes[l].iter().map(|o| o.analytic_excess).collect(),
        ));
    }
    common::print_table(
        "p99 recovery wait vs code rate (coupled erasure, deterministic bus)",
        "rate",
        &xs,
        &table,
    );
    common::write_csv("coding.csv", "rate", &xs, &series);

    // --- coded live parity on a 2-channel plan (LT fountain codec) ---
    coded_parity(scale, opts, &layout);

    linger(server, opts.serve_secs);
}

/// The live engine on a *coded* 2-channel plan (LT fountain) over the
/// lossless bus: every client must be bit-identical to `simulate_plan` on
/// the same plan, and must decode nothing.
fn coded_parity(scale: Scale, opts: &LiveOptions, layout: &DiskLayout) {
    let plan = BroadcastPlan::generate(layout, 2)
        .expect("2-channel D5 plan")
        .with_coding(CodingConfig::lt(0.10, GROUP, coding_seed()))
        .expect("parity coding config is valid");
    let policies = [PolicyKind::Pix, PolicyKind::Lix, PolicyKind::Lru];
    let seeds = seeds_from_base(common::context().base_seed, policies.len());
    let roster: Vec<(PolicyKind, u64)> = policies.iter().copied().zip(seeds).collect();
    let config = |policy| SimConfig {
        channels: 2,
        switch_slots: 0.0,
        ..common::caching_config(scale, policy, 0.30)
    };

    println!(
        "\n=== coding: live parity — {} clients on a coded 2-channel plan (LT) ===",
        roster.len()
    );
    println!("{}", plan.summary());

    let clients: Vec<LiveClient> = roster
        .iter()
        .map(|&(policy, seed)| {
            LiveClient::with_plan(&config(policy), layout, plan.clone(), seed)
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
    engine.run(&mut bus);

    let results = bus.into_results();
    let mut worst_gap: f64 = 0.0;
    for (&(policy, seed), result) in roster.iter().zip(&results) {
        assert_eq!(result.gaps, 0, "{policy:?}: lossless feed saw gaps");
        assert_eq!(
            result.symbols_decoded, 0,
            "{policy:?}: a lossless feed must never decode"
        );
        assert_eq!(result.recoveries_coded, 0);
        let sim = simulate_plan(&config(policy), layout, plan.clone(), seed)
            .expect("simulator run on the coded plan");
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
            "{policy:?}/seed {seed}: coded 2-channel live diverged from \
             simulate_plan (gap {worst_gap:.3e})"
        );
    }
    println!(
        "parity: EXACT — {} clients on the coded plan, worst gap {worst_gap:.3e} \
         (tolerance {PARITY_TOLERANCE:e})",
        roster.len()
    );
}
