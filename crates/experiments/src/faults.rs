//! `repro faults` — degradation under channel loss, and a chaos run.
//!
//! Two stages:
//!
//! 1. **Loss sweep** (deterministic in-memory bus): erasure rates swept
//!    over 0–20% × policies PIX / LIX / LRU at the Figure 13 operating
//!    point (D5, Δ = 3, Noise = 30%). The erasure schedule is seeded and
//!    *coupled* across rates — the slots erased at 5% are a subset of
//!    those erased at 10% — so degradation is structural, not sampling
//!    luck: the run asserts mean response time is monotonically
//!    non-decreasing in the loss rate, per policy. Results go to
//!    `faults.csv`.
//!
//! 2. **Chaos run** (loopback TCP): a large client fleet (256 full /
//!    24 quick) rides out 10% seeded erasure plus CRC-checked corruption.
//!    The bar is the paper's recovery model working end to end: zero
//!    client panics, every client completes its full measurement quota
//!    (impossible unless every lost pending page was recovered at a later
//!    periodic broadcast), recovery waits commensurate with the period.
//!
//! The stdout witnesses CI greps for, `degradation: monotone` and
//! `fleet: N/N completed`, print only after each stage's asserts pass.

use std::time::Duration;

use bdisk_broker::{
    aggregate, Backpressure, BroadcastEngine, EngineConfig, EventedTcpTransport, FaultPlan,
    InMemoryBus, LiveClient, LiveClientResult, ReconnectPolicy, TcpClientFeed, TcpTransportConfig,
};
use bdisk_cache::PolicyKind;
use bdisk_sched::{BroadcastProgram, DiskLayout};
use bdisk_sim::{seeds_from_base, SimConfig};

use crate::common::{self, Scale};
use crate::live::{self, LiveOptions};

/// Policies compared under loss (the caching line-up that matters: the
/// paper's broadcast-aware policies vs the classic baseline).
const SWEEP_POLICIES: [PolicyKind; 3] = [PolicyKind::Pix, PolicyKind::Lix, PolicyKind::Lru];

/// Frame-erasure rates swept.
fn sweep_rates(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Full => &[0.0, 0.02, 0.05, 0.10, 0.20],
        Scale::Quick => &[0.0, 0.10],
    }
}

/// Clients averaged per sweep point.
fn sweep_clients(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Quick => 4,
    }
}

/// Chaos-stage fleet size.
fn chaos_clients(scale: Scale) -> usize {
    match scale {
        Scale::Full => 256,
        Scale::Quick => 24,
    }
}

/// Chaos-stage measured requests per client (small quota: the stage
/// validates survival and recovery, not statistics).
fn chaos_requests(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 400,
        Scale::Quick => 150,
    }
}

/// Chaos-stage slot pacing. Free-running would outpace the clients'
/// frame parsing by an order of magnitude, so DropNewest backpressure —
/// not the injected erasure — would dominate the loss and the run would
/// crawl. Pacing keeps queue drops rare: the loss the fleet recovers
/// from is the seeded plan's.
fn chaos_slot(scale: Scale) -> Duration {
    match scale {
        Scale::Full => Duration::from_micros(25),
        Scale::Quick => Duration::from_micros(5),
    }
}

/// The channel fault seed, derived from the invocation's base seed so a
/// whole `repro faults` run replays bit-identically from the CSV header.
fn fault_seed() -> u64 {
    common::context().base_seed ^ 0xFA17
}

/// One sweep point's fleet outcome.
struct PointOutcome {
    mean: f64,
    hit: f64,
    /// Fleet 99.9th-percentile response time — the tail the loss lands in.
    p999: f64,
    gaps: u64,
    recoveries: u64,
    max_recovery_wait: u64,
    /// Fleet-wide p99 recovery wait (nearest-rank over every wait sample).
    p99_recovery_wait: u64,
    erased: u64,
}

/// Runs one (policy, erasure-rate) fleet on the deterministic bus. The
/// bus drops nothing itself, so the only loss is the injected loss and the
/// outcome is a pure function of the seeds — reruns are bit-identical.
fn sweep_point(
    scale: Scale,
    opts: &LiveOptions,
    policy: PolicyKind,
    rate: f64,
    layout: &DiskLayout,
    program: &BroadcastProgram,
) -> PointOutcome {
    let n = sweep_clients(scale);
    let seeds = seeds_from_base(common::context().base_seed, n);
    let cfg = common::caching_config(scale, policy, 0.30);

    let clients: Vec<LiveClient> = seeds
        .iter()
        .map(|&seed| {
            LiveClient::new(&cfg, layout, program.clone(), seed).expect("valid client config")
        })
        .collect();
    let mut bus = InMemoryBus::new(clients);
    if rate > 0.0 {
        bus.set_fault_plan(FaultPlan::erasure_only(fault_seed(), rate));
    }

    let engine = BroadcastEngine::new(
        program.clone(),
        EngineConfig {
            max_slots: 100_000_000,
            page_size: opts.page_size,
            ..EngineConfig::default()
        },
    );
    let report = engine.run(&mut bus);

    let erased = bus.fault_counts().erased;
    let results: Vec<LiveClientResult> = bus.into_results();
    for r in &results {
        assert_eq!(
            r.outcome.measured_requests,
            cfg.requests,
            "a sweep client failed to finish under {rate:.0}% loss",
            rate = rate * 100.0
        );
    }
    let gaps = results.iter().map(|r| r.gaps).sum();
    let recoveries = results.iter().map(|r| r.recoveries).sum();
    let max_recovery_wait = results
        .iter()
        .map(|r| r.max_recovery_wait)
        .max()
        .unwrap_or(0);
    let mut waits: Vec<u64> = results
        .iter()
        .flat_map(|r| r.recovery_waits.iter().copied())
        .collect();
    let p99_recovery_wait = common::percentile(&mut waits, 0.99);
    let fleet = aggregate(report, results);
    PointOutcome {
        mean: fleet.mean_response_time,
        hit: fleet.hit_rate.expect("finished run has measured requests"),
        p999: fleet.p999,
        gaps,
        recoveries,
        max_recovery_wait,
        p99_recovery_wait,
        erased,
    }
}

/// Chaos-stage broadcast: a small paper-shaped layout, not D5 — the stage
/// validates fleet survival and recovery mechanics, and a short period
/// keeps both the run and each recovery wait small enough to drive
/// hundreds of clients in seconds.
const CHAOS_DISKS: [usize; 3] = [50, 200, 250];

/// Chaos stage: the full fleet over loopback TCP under 10% erasure plus
/// corruption, every client on a self-healing [`TcpClientFeed`].
fn chaos(scale: Scale, opts: &LiveOptions) {
    let n = chaos_clients(scale);
    let layout = DiskLayout::with_delta(&CHAOS_DISKS, 3).expect("chaos layout is valid");
    let program = BroadcastProgram::generate(&layout).expect("chaos program is valid");
    let period = program.period() as u64;
    let requests = chaos_requests(scale);
    let cfg = SimConfig {
        access_range: 500,
        region_size: 25,
        cache_size: 100,
        offset: 100,
        noise: 0.30,
        policy: PolicyKind::Lix,
        requests,
        warmup_requests: requests / 4,
        ..common::base_config(scale)
    };
    let plan = FaultPlan {
        seed: fault_seed(),
        erasure: 0.10,
        corruption: 0.01,
        ..FaultPlan::none()
    };

    println!(
        "\n--- chaos: {n} TCP clients, 10% erasure + 1% corruption, \
         {requests} requests each ---"
    );

    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: 8192,
        backpressure: Backpressure::DropNewest,
        max_coalesce: 64,
        ..TcpTransportConfig::default()
    })
    .expect("loopback bind must succeed");
    transport.set_fault_plan(plan);
    let addr = transport.local_addr();

    let seeds = seeds_from_base(common::context().base_seed, n);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let cfg = cfg.clone();
            let layout = layout.clone();
            let program = program.clone();
            let seed = seeds[i];
            std::thread::spawn(move || {
                let policy = ReconnectPolicy {
                    seed,
                    ..ReconnectPolicy::default()
                };
                let mut feed =
                    TcpClientFeed::connect(addr, policy, i as u64).expect("connect to broker");
                let mut client =
                    LiveClient::new(&cfg, &layout, program, seed).expect("valid client config");
                while let Some(frame) = feed.recv() {
                    if client.on_frame(&frame) {
                        break;
                    }
                }
                (
                    client.is_done(),
                    feed.reconnects(),
                    feed.corrupt_frames(),
                    client.into_results(),
                )
            })
        })
        .collect();

    assert!(
        transport.wait_for_clients(n, Duration::from_secs(60)),
        "chaos fleet failed to connect"
    );
    let engine = BroadcastEngine::new(
        program,
        EngineConfig {
            max_slots: 100_000_000,
            slot_duration: chaos_slot(scale),
            page_size: opts.page_size,
            ..EngineConfig::default()
        },
    );
    let start = std::time::Instant::now();
    let report = engine.run(&mut transport);
    let elapsed_sec = start.elapsed().as_secs_f64();
    let counts = transport.fault_counts();

    let mut gaps = 0u64;
    let mut recoveries = 0u64;
    let mut reconnects = 0u64;
    let mut max_recovery_wait = 0u64;
    let mut corrupt_discarded = 0u64;
    for handle in handles {
        let (done, recs, corrupt, results) = handle
            .join()
            .expect("chaos client panicked — acceptance is zero panics");
        assert!(done, "a chaos client failed to finish its quota");
        assert_eq!(results.outcome.measured_requests, requests);
        gaps += results.gaps;
        recoveries += results.recoveries;
        reconnects += recs;
        corrupt_discarded += corrupt;
        max_recovery_wait = max_recovery_wait.max(results.max_recovery_wait);
    }
    assert!(gaps > 0, "10% erasure produced no observable gaps");
    assert!(recoveries >= 1, "no lost pending page was ever recovered");
    // A single lost broadcast recovers within one period by construction
    // (pinned by the broker's unit tests); the wait here counts from the
    // FIRST miss, so repeated erasure of the same page or a client stalled
    // through whole periods (a scheduling hiccup under a fleet of threads
    // shows up as a burst of queue drops) stretches it to k periods. The
    // fleet-wide worst case must still be a bounded multiple — unbounded
    // growth would mean a recovery that never lands.
    assert!(
        max_recovery_wait <= 20 * period,
        "recovery waited {max_recovery_wait} slots; period is {period}"
    );
    assert!(counts.erased > 0 && counts.corrupted > 0);

    println!(
        "chaos:  {} slots in {elapsed_sec:.2}s; {} erased, {} corrupted on the wire",
        report.slots_sent, counts.erased, counts.corrupted
    );
    println!(
        "        fleet: {n}/{n} completed, {gaps} gaps, {recoveries} recoveries \
         (max wait {max_recovery_wait} of period {period}), \
         {corrupt_discarded} CRC discards, {reconnects} reconnects"
    );
}

/// Runs the loss sweep and the chaos stage; writes `faults.csv`.
pub fn run(scale: Scale, opts: &LiveOptions) {
    let server = live::start_metrics(opts);
    let rates = sweep_rates(scale);
    let layout = common::layout("D5", 3);
    let program = BroadcastProgram::generate(&layout).expect("paper layout is valid");

    println!(
        "\n=== faults: loss sweep, D5, Delta=3, Noise=30%, {} clients/point, \
         erasure seed {} ===",
        sweep_clients(scale),
        fault_seed()
    );

    // outcomes[p][r]: policy p at rate r.
    let outcomes: Vec<Vec<PointOutcome>> = SWEEP_POLICIES
        .iter()
        .map(|&policy| {
            rates
                .iter()
                .map(|&rate| {
                    let point = sweep_point(scale, opts, policy, rate, &layout, &program);
                    println!(
                        "  {:>4} @ {:>4.0}% loss: mean {:>7.1}  hit {:.3}  \
                         ({} erased, {} gaps, {} recoveries, max wait {})",
                        policy.name(),
                        rate * 100.0,
                        point.mean,
                        point.hit,
                        point.erased,
                        point.gaps,
                        point.recoveries,
                        point.max_recovery_wait
                    );
                    point
                })
                .collect()
        })
        .collect();

    // The acceptance bar: coupled erasure means more loss can only delay —
    // mean response must be monotonically non-decreasing in the rate.
    for (p, per_rate) in outcomes.iter().enumerate() {
        for w in per_rate.windows(2) {
            assert!(
                w[1].mean + 1e-9 >= w[0].mean,
                "{} mean response decreased as loss rose ({:.3} -> {:.3})",
                SWEEP_POLICIES[p].name(),
                w[0].mean,
                w[1].mean
            );
        }
    }
    println!("degradation: monotone — mean response never improves with loss");

    let xs: Vec<String> = rates.iter().map(|r| format!("{r:.2}")).collect();
    let mut table = Vec::new();
    let mut series = Vec::new();
    for (p, &policy) in SWEEP_POLICIES.iter().enumerate() {
        let name = policy.name().to_lowercase();
        let means: Vec<f64> = outcomes[p].iter().map(|o| o.mean).collect();
        table.push((format!("{name}_mean"), means.clone()));
        series.push((format!("{name}_mean"), means));
        series.push((
            format!("{name}_hit"),
            outcomes[p].iter().map(|o| o.hit).collect(),
        ));
        series.push((
            format!("{name}_p999"),
            outcomes[p].iter().map(|o| o.p999).collect(),
        ));
        series.push((
            format!("{name}_recover"),
            outcomes[p].iter().map(|o| o.recoveries as f64).collect(),
        ));
        series.push((
            format!("{name}_p99wait"),
            outcomes[p]
                .iter()
                .map(|o| o.p99_recovery_wait as f64)
                .collect(),
        ));
        series.push((
            format!("{name}_maxwait"),
            outcomes[p]
                .iter()
                .map(|o| o.max_recovery_wait as f64)
                .collect(),
        ));
    }
    common::print_table(
        "response vs loss rate (coupled erasure, deterministic bus)",
        "loss",
        &xs,
        &table,
    );
    // The replay keys ride in the header: the erasure schedule is a pure
    // function of fault_seed, and the whole sweep runs under the engine's
    // initial plan epoch (no hot swaps here — `repro drift` exercises those).
    common::write_csv_with_comments(
        "faults.csv",
        "loss",
        &xs,
        &series,
        &[
            format!("fault_seed={}", fault_seed()),
            "plan_epoch=0".to_string(),
        ],
    );

    chaos(scale, opts);

    live::linger(server, opts.serve_secs);
}
