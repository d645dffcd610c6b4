//! `repro timeline` — the wait-attribution waterfall.
//!
//! Runs small live fleets on the deterministic in-memory bus with span
//! sampling at 1-in-1 (every measured request traced), over a grid of
//! policy × channel count × loss rate, and decomposes every response
//! time into the four wait phases of `bdisk_obs::trace`:
//!
//! * **broadcast** — the wait the schedule itself imposes (time to the
//!   next airing on the page's own channel, no tuner movement),
//! * **switch** — extra wait caused by retuning across channels,
//! * **loss** — extra wait past the expected airing (lost frames ride
//!   the next periodic broadcast),
//! * **credit** — wait *saved* by coded repair slots decoding a lost
//!   page before its next periodic airing.
//!
//! The phases telescope: `broadcast + switch + loss − credit` must equal
//! the recorded response time **bit-exactly** for every span — the run
//! asserts this in process over every collected span and prints a
//! `conservation: OK` witness line that CI greps for. Outputs:
//!
//! * `timeline.csv` — per-phase p50/p99/p999 (and totals) per grid point,
//! * `waterfall.csv` — the first traced client's request-by-request
//!   phase breakdown at the lossy operating point, ready to plot as a
//!   waterfall.

use bdisk_broker::{
    BroadcastEngine, EngineConfig, FaultPlan, InMemoryBus, LiveClient, LiveClientResult,
};
use bdisk_cache::PolicyKind;
use bdisk_obs::trace::{self, Span, REQUEST_PHASE_NAMES};
use bdisk_sched::BroadcastPlan;
use bdisk_sim::{seeds_from_base, SimConfig};

use crate::common::{self, Scale};
use crate::live::{self, LiveOptions};

/// Policies compared: the paper's broadcast-aware winner vs the classic
/// baseline — the waterfall shows *where* PIX buys its wins.
const POLICIES: [PolicyKind; 2] = [PolicyKind::Pix, PolicyKind::Lru];

/// Clients per grid point (each with its own derived seed).
const CLIENTS_PER_POINT: usize = 4;

/// Retune penalty (slots) used for the multi-channel points, so the
/// switch phase is visible instead of structurally zero.
const SWITCH_SLOTS: f64 = 2.0;

/// Erasure rate of the lossy points.
const LOSS_RATE: f64 = 0.10;

/// Rows kept in `waterfall.csv`.
const WATERFALL_MAX_ROWS: usize = 512;

/// One cell of the grid.
#[derive(Clone, Copy)]
struct Point {
    policy: PolicyKind,
    channels: usize,
    loss: f64,
}

impl Point {
    fn label(&self) -> String {
        format!(
            "{}/c{}/l{:.2}",
            self.policy.name().to_lowercase(),
            self.channels,
            self.loss
        )
    }
}

/// The grid: both policies at 1 and 2 channels lossless, plus a lossy
/// single-channel point per policy.
fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for &policy in &POLICIES {
        for channels in [1usize, 2] {
            points.push(Point {
                policy,
                channels,
                loss: 0.0,
            });
        }
        points.push(Point {
            policy,
            channels: 1,
            loss: LOSS_RATE,
        });
    }
    points
}

/// The Figure 13 caching config for one grid point.
fn config(scale: Scale, point: Point) -> SimConfig {
    SimConfig {
        channels: point.channels,
        switch_slots: if point.channels > 1 {
            SWITCH_SLOTS
        } else {
            0.0
        },
        ..common::caching_config(scale, point.policy, 0.30)
    }
}

/// Runs one grid point's fleet on the deterministic bus and returns the
/// per-client results (spans included — sampling is already on).
fn run_point(scale: Scale, opts: &LiveOptions, point: Point) -> Vec<LiveClientResult> {
    let layout = common::layout("D5", 3);
    let plan = BroadcastPlan::generate(&layout, point.channels).expect("paper layout is valid");
    let seeds = seeds_from_base(common::context().base_seed, CLIENTS_PER_POINT);
    let cfg = config(scale, point);

    let clients: Vec<LiveClient> = seeds
        .iter()
        .map(|&seed| {
            LiveClient::with_plan(&cfg, &layout, plan.clone(), seed).expect("valid client config")
        })
        .collect();
    let mut bus = InMemoryBus::new(clients);
    if point.loss > 0.0 {
        bus.set_fault_plan(FaultPlan::erasure_only(
            common::context().base_seed ^ 0x7135,
            point.loss,
        ));
    }

    let engine = BroadcastEngine::with_plan(
        plan,
        EngineConfig {
            max_slots: 100_000_000,
            page_size: opts.page_size,
            ..EngineConfig::default()
        },
    );
    engine.run(&mut bus);

    bus.into_results()
}

/// Nearest-rank percentile over floats; 0 when empty. Sorts in place.
fn pct(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((xs.len() as f64) * q).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Runs the grid, asserts conservation over every span, writes
/// `timeline.csv` and `waterfall.csv`.
pub fn run(scale: Scale, opts: &LiveOptions) {
    let server = live::start_metrics(opts);
    // Every measured request traced: the waterfall wants the full
    // population, not a sample.
    trace::set_sample_every(1);

    let points = grid();
    println!(
        "\n=== timeline: wait attribution, D5, Delta=3, Noise=30%, {} clients/point, \
         {} grid points ===",
        CLIENTS_PER_POINT,
        points.len()
    );

    let mut xs = Vec::new();
    // series[phase][quantile] plus totals, flattened below.
    let quantiles = [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)];
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for phase in REQUEST_PHASE_NAMES {
        for (qname, _) in &quantiles {
            series.push((format!("{phase}_{qname}"), Vec::new()));
        }
    }
    for (qname, _) in &quantiles {
        series.push((format!("total_{qname}"), Vec::new()));
    }
    series.push(("spans".to_string(), Vec::new()));

    let mut conserved: u64 = 0;
    let mut waterfall: Vec<Span> = Vec::new();
    for point in &points {
        let results = run_point(scale, opts, *point);
        let spans: Vec<&Span> = results.iter().flat_map(|r| r.spans.iter()).collect();
        assert!(
            !spans.is_empty(),
            "1-in-1 sampling produced no spans at {}",
            point.label()
        );

        // The tentpole invariant, checked over the whole population:
        // broadcast + switch + loss − credit must reproduce the recorded
        // response time to the bit, for every span.
        for span in &spans {
            assert_eq!(
                span.phase_sum().to_bits(),
                span.total.to_bits(),
                "conservation violated at {}: phases {:?} vs total {}",
                point.label(),
                span.phases,
                span.total
            );
        }
        conserved += spans.len() as u64;

        // Structural sanity: the grid is built so each mechanism shows up
        // where (and only where) it can.
        let phase_total = |i: usize| spans.iter().map(|s| s.phases[i]).sum::<f64>();
        if point.channels > 1 {
            assert!(
                phase_total(1) > 0.0,
                "2-channel point {} recorded no switch wait",
                point.label()
            );
        } else {
            assert_eq!(phase_total(1), 0.0, "switch wait on a single channel");
        }
        if point.loss > 0.0 {
            assert!(
                phase_total(2) > 0.0,
                "lossy point {} recorded no loss wait",
                point.label()
            );
        } else {
            assert_eq!(
                phase_total(2),
                0.0,
                "loss wait on the lossless bus at {}",
                point.label()
            );
        }

        let mut col = 0;
        for phase in 0..REQUEST_PHASE_NAMES.len() {
            let mut vals: Vec<f64> = spans.iter().map(|s| s.phases[phase]).collect();
            for (_, q) in &quantiles {
                series[col].1.push(pct(&mut vals, *q));
                col += 1;
            }
        }
        let mut totals: Vec<f64> = spans.iter().map(|s| s.total).collect();
        for (_, q) in &quantiles {
            series[col].1.push(pct(&mut totals, *q));
            col += 1;
        }
        series[col].1.push(spans.len() as f64);

        println!(
            "  {:<14} {:>7} spans: broadcast p99 {:>7.1}  switch p99 {:>5.1}  \
             loss p99 {:>6.1}  credit p99 {:>5.1}  total p999 {:>7.1}",
            point.label(),
            spans.len(),
            series[1].1.last().unwrap(),
            series[4].1.last().unwrap(),
            series[7].1.last().unwrap(),
            series[10].1.last().unwrap(),
            series[13].1.last().unwrap(),
        );
        xs.push(point.label());

        // The lossy PIX point feeds the request-by-request waterfall.
        if waterfall.is_empty() && point.loss > 0.0 {
            waterfall = results[0]
                .spans
                .iter()
                .take(WATERFALL_MAX_ROWS)
                .copied()
                .collect();
        }
    }

    println!(
        "conservation: OK — {conserved} spans, phases telescope bit-exactly \
         to the recorded wait"
    );

    common::write_csv("timeline.csv", "point", &xs, &series);

    let wf_xs: Vec<String> = waterfall.iter().map(|s| s.index.to_string()).collect();
    let wf_series: Vec<(String, Vec<f64>)> = REQUEST_PHASE_NAMES
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            (
                phase.to_string(),
                waterfall.iter().map(|s| s.phases[i]).collect(),
            )
        })
        .chain(std::iter::once((
            "total".to_string(),
            waterfall.iter().map(|s| s.total).collect(),
        )))
        .collect();
    common::write_csv("waterfall.csv", "request", &wf_xs, &wf_series);

    // Leave the 1-in-64 production cadence on while the endpoint lingers
    // (so `/trace` scrapes keep working); off otherwise.
    trace::set_sample_every(if opts.metrics_addr.is_some() { 64 } else { 0 });
    live::linger(server, opts.serve_secs);
}
