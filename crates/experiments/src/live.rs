//! `repro live` — runs the real broadcast engine (`bdisk-broker`) at the
//! paper's Figure 13 operating point and validates the live measurements
//! against simulator predictions.
//!
//! Operating point: configuration D5 ⟨500, 2000, 2500⟩, Δ = 3,
//! CacheSize = Offset = 500, Noise = 30%, policies LRU / L / LIX / PIX —
//! the clients are split evenly across the four policies, with per-client
//! seeds derived from the invocation's base seed.
//!
//! Parity contract: on the lossless in-memory bus every client sees every
//! slot, so each live client's measurements must be **bit-identical** to
//! the simulator run with the same seed (tolerance 1e-9, i.e. exact up to
//! float printing). Over TCP, backpressure may drop frames for a slow
//! client — a dropped page simply comes around on a later broadcast cycle,
//! which perturbs response times but barely moves hit rates, so per-policy
//! hit rates are checked within a 2-percentage-point tolerance instead.

use std::time::Duration;

use bdisk_broker::{
    aggregate, Backpressure, BroadcastEngine, EngineConfig, EventedTcpTransport, InMemoryBus,
    LiveClient, LiveClientResult, TcpFrameReader, TcpTransportConfig,
};
use bdisk_cache::PolicyKind;
use bdisk_sched::BroadcastPlan;
use bdisk_sim::{seeds_from_base, simulate_plan, SimConfig, SimOutcome};

use crate::common::{self, Scale};

/// Which transport `repro live` drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveTransport {
    /// In-memory broadcast bus, lossless (exact simulator parity).
    Bus,
    /// Loopback TCP on the single-threaded epoll event loop, drop-newest
    /// backpressure.
    Tcp,
}

impl std::str::FromStr for LiveTransport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bus" => Ok(LiveTransport::Bus),
            "tcp" => Ok(LiveTransport::Tcp),
            other => Err(format!("unknown transport '{other}' (expected bus or tcp)")),
        }
    }
}

/// `repro live` options (from `--transport`, `--clients`, `--page-size`,
/// `--metrics-addr`, `--serve-secs`).
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Transport to drive.
    pub transport: LiveTransport,
    /// Concurrent clients (at least 4, one per policy).
    pub clients: usize,
    /// Broadcast channels to stripe the layout across (default 1 — the
    /// paper's single channel; parity stays bit-exact at any count).
    pub channels: usize,
    /// Bytes of page payload per frame (`PageSize`, paper Table 2).
    pub page_size: usize,
    /// Serve `GET /metrics` and `GET /events` on this address during the run.
    pub metrics_addr: Option<String>,
    /// Keep the metrics endpoint up this many seconds after the run, so
    /// scrapers (and the CI smoke test) can collect the final state.
    pub serve_secs: u64,
}

impl Default for LiveOptions {
    fn default() -> Self {
        Self {
            transport: LiveTransport::Bus,
            clients: 16,
            channels: 1,
            page_size: 64,
            metrics_addr: None,
            serve_secs: 0,
        }
    }
}

/// Registers every layer's metric families and, when `--metrics-addr` was
/// given, binds the HTTP endpoint — eager registration means `/metrics`
/// shows the full inventory from the first scrape, not just what traffic
/// has touched.
pub(crate) fn start_metrics(opts: &LiveOptions) -> Option<bdisk_obs::MetricsServer> {
    bdisk_broker::register_metrics();
    bdisk_cache::register_metrics();
    bdisk_sim::register_metrics();
    let addr = opts.metrics_addr.as_deref()?;
    match bdisk_obs::MetricsServer::bind(addr) {
        Ok(server) => {
            // With an endpoint up, `/events` and `/trace` should have
            // something to serve: both the journal and the span ring are
            // bounded and never block the broadcast path, so tracing
            // rides along for free (1-in-64 request/slot sampling).
            bdisk_obs::set_tracing_enabled(true);
            bdisk_obs::trace::set_sample_every(64);
            println!(
                "metrics: serving http://{}/metrics, /events and /trace",
                server.addr()
            );
            Some(server)
        }
        Err(e) => {
            eprintln!("warning: cannot bind metrics endpoint {addr}: {e}");
            None
        }
    }
}

/// Holds the metrics endpoint open after the run for late scrapers.
pub(crate) fn linger(server: Option<bdisk_obs::MetricsServer>, secs: u64) {
    if let Some(mut server) = server {
        if secs > 0 {
            println!(
                "metrics: serving for {secs}s more at http://{}/",
                server.addr()
            );
            std::thread::sleep(Duration::from_secs(secs));
        }
        server.stop();
    }
}

/// The Figure 13 policy line-up.
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::L,
    PolicyKind::Lix,
    PolicyKind::Pix,
];

/// Bit-identical tolerance for the lossless bus.
const BUS_TOLERANCE: f64 = 1e-9;
/// Hit-rate tolerance (absolute) for the lossy TCP path.
const TCP_HIT_TOLERANCE: f64 = 0.02;

/// Runs the live engine and validates it against the simulator.
pub fn run(scale: Scale, opts: &LiveOptions) {
    let server = start_metrics(opts);
    let n_clients = opts.clients.max(POLICIES.len());
    let layout = common::layout("D5", 3);
    let plan = BroadcastPlan::generate(&layout, opts.channels).expect("paper layout is valid");
    let seeds = seeds_from_base(common::context().base_seed, n_clients);

    // Client i runs policy i mod 4 with its own derived seed.
    let roster: Vec<(PolicyKind, u64)> = (0..n_clients)
        .map(|i| (POLICIES[i % POLICIES.len()], seeds[i]))
        .collect();

    println!(
        "\n=== live broadcast: D5, Delta=3, Noise=30%, {} clients over {}, {} channel(s) ===",
        n_clients,
        match opts.transport {
            LiveTransport::Bus => "in-memory bus",
            LiveTransport::Tcp => "loopback TCP",
        },
        opts.channels
    );

    let (report, results) = match opts.transport {
        LiveTransport::Bus => run_bus(scale, opts, &roster, &layout, &plan),
        LiveTransport::Tcp => run_tcp(scale, opts, &roster, &layout, &plan),
    };

    println!(
        "engine: {} slots ({} major cycles) in {:.2}s = {:.0} slots/sec",
        report.slots_sent,
        report.major_cycles,
        report.elapsed.as_secs_f64(),
        report.slots_per_sec
    );
    println!(
        "        {} frames delivered, {} dropped, {} clients disconnected, max lag {} frames",
        report.frames_delivered,
        report.frames_dropped,
        report.clients_disconnected,
        report.max_client_lag
    );
    println!(
        "        {:.1} MB of {}-byte pages shipped ({:.1} MB/s fan-out)",
        report.bytes_sent as f64 / 1e6,
        opts.page_size,
        report.bytes_sent as f64 / 1e6 / report.elapsed.as_secs_f64().max(1e-9)
    );
    assert!(
        report.major_cycles >= 2,
        "live run must span at least two full broadcast periods"
    );

    // Simulator predictions for the same roster (in parallel).
    let predictions: Vec<SimOutcome> = bdisk_sim::sweep(
        roster.clone(),
        common::threads(),
        |&(policy, seed): &(PolicyKind, u64)| {
            let cfg = config(scale, policy, plan.num_channels());
            simulate_plan(&cfg, &layout, plan.clone(), seed).expect("simulator run must succeed")
        },
    );

    let fleet = aggregate(report, results);
    let fleet_hit = fleet
        .hit_rate
        .expect("a finished live run has measured requests");
    println!(
        "fleet:  {} measured requests, mean response {:.1}, hit rate {:.3}",
        fleet.measured_requests, fleet.mean_response_time, fleet_hit
    );
    println!(
        "        service latency p50 {:.0}  p95 {:.0}  p99 {:.0}  p999 {:.0} (broadcast units)",
        fleet.p50, fleet.p95, fleet.p99, fleet.p999
    );

    // Per-policy comparison table: live vs simulator.
    let mut xs = Vec::new();
    let mut live_mean = Vec::new();
    let mut sim_mean = Vec::new();
    let mut live_hit = Vec::new();
    let mut sim_hit = Vec::new();
    let mut live_p99 = Vec::new();
    let mut sim_p99 = Vec::new();
    let mut live_p999 = Vec::new();
    let mut sim_p999 = Vec::new();
    let mut worst_hit_gap: f64 = 0.0;
    let mut worst_mean_gap: f64 = 0.0;
    for &policy in &POLICIES {
        let members: Vec<usize> = roster
            .iter()
            .enumerate()
            .filter(|(_, (p, _))| *p == policy)
            .map(|(i, _)| i)
            .collect();
        let mean = |outs: &[&SimOutcome]| {
            outs.iter().map(|o| o.mean_response_time).sum::<f64>() / outs.len() as f64
        };
        let hit =
            |outs: &[&SimOutcome]| outs.iter().map(|o| o.hit_rate).sum::<f64>() / outs.len() as f64;
        let p99 =
            |outs: &[&SimOutcome]| outs.iter().map(|o| o.p99).sum::<f64>() / outs.len() as f64;
        let p999 =
            |outs: &[&SimOutcome]| outs.iter().map(|o| o.p999).sum::<f64>() / outs.len() as f64;
        let live_outs: Vec<&SimOutcome> = members.iter().map(|&i| &fleet.per_client[i]).collect();
        let sim_outs: Vec<&SimOutcome> = members.iter().map(|&i| &predictions[i]).collect();
        let (lm, sm) = (mean(&live_outs), mean(&sim_outs));
        let (lh, sh) = (hit(&live_outs), hit(&sim_outs));
        worst_mean_gap = worst_mean_gap.max((lm - sm).abs());
        worst_hit_gap = worst_hit_gap.max((lh - sh).abs());
        xs.push(policy.name().to_string());
        live_mean.push(lm);
        sim_mean.push(sm);
        live_hit.push(lh);
        sim_hit.push(sh);
        live_p99.push(p99(&live_outs));
        sim_p99.push(p99(&sim_outs));
        live_p999.push(p999(&live_outs));
        sim_p999.push(p999(&sim_outs));
    }

    common::print_table(
        "live vs simulator (Figure 13 operating point)",
        "policy",
        &xs,
        &[
            ("live_mean".to_string(), live_mean.clone()),
            ("sim_mean".to_string(), sim_mean.clone()),
            ("live_hit".to_string(), live_hit.clone()),
            ("sim_hit".to_string(), sim_hit.clone()),
            ("live_p99".to_string(), live_p99.clone()),
            ("sim_p99".to_string(), sim_p99.clone()),
            ("live_p999".to_string(), live_p999.clone()),
            ("sim_p999".to_string(), sim_p999.clone()),
        ],
    );
    common::write_csv(
        "live.csv",
        "policy",
        &xs,
        &[
            ("live_mean".to_string(), live_mean),
            ("sim_mean".to_string(), sim_mean),
            ("live_hit".to_string(), live_hit),
            ("sim_hit".to_string(), sim_hit),
            ("live_p99".to_string(), live_p99),
            ("sim_p99".to_string(), sim_p99),
            ("live_p999".to_string(), live_p999),
            ("sim_p999".to_string(), sim_p999),
        ],
    );

    match opts.transport {
        LiveTransport::Bus => {
            assert!(
                worst_mean_gap < BUS_TOLERANCE && worst_hit_gap < BUS_TOLERANCE,
                "lossless bus must match the simulator exactly \
                 (mean gap {worst_mean_gap:.3e}, hit gap {worst_hit_gap:.3e})"
            );
            println!(
                "parity: EXACT — every client bit-identical to its simulated twin \
                 (tolerance {BUS_TOLERANCE:e})"
            );
        }
        LiveTransport::Tcp => {
            if worst_hit_gap <= TCP_HIT_TOLERANCE {
                println!(
                    "parity: OK — worst per-policy hit-rate gap {:.4} within tolerance {}",
                    worst_hit_gap, TCP_HIT_TOLERANCE
                );
            } else {
                println!(
                    "parity: WARN — hit-rate gap {:.4} exceeds {} (heavy frame loss?)",
                    worst_hit_gap, TCP_HIT_TOLERANCE
                );
            }
        }
    }

    linger(server, opts.serve_secs);
}

/// `repro trace` — a short live run on the in-memory bus with the event
/// journal enabled, tailed concurrently to stdout (first events + per-kind
/// totals) and in full to `results/trace.csv`.
///
/// The journal is a fixed-size ring that overwrites the oldest entries
/// rather than ever blocking the broadcast path, so the tailer reports an
/// explicit count of events it was too slow to collect.
pub fn trace(scale: Scale, opts: &LiveOptions) {
    use bdisk_obs::expo::{render_event_csv_row, EVENT_CSV_HEADER};
    use std::sync::atomic::{AtomicBool, Ordering};

    let server = start_metrics(opts);
    bdisk_obs::set_tracing_enabled(true);

    // Trace runs are about the event stream, not statistics: keep the
    // fleet small so the CSV stays readable.
    let trace_opts = LiveOptions {
        clients: opts.clients.min(POLICIES.len()),
        ..opts.clone()
    };
    let n_clients = trace_opts.clients.max(POLICIES.len());
    let layout = common::layout("D5", 3);
    let plan =
        BroadcastPlan::generate(&layout, trace_opts.channels).expect("paper layout is valid");
    let seeds = seeds_from_base(common::context().base_seed, n_clients);
    let roster: Vec<(PolicyKind, u64)> = (0..n_clients)
        .map(|i| (POLICIES[i % POLICIES.len()], seeds[i]))
        .collect();

    println!(
        "\n=== trace: D5, Delta=3, {} clients over in-memory bus, journal -> stdout + trace.csv ===",
        n_clients
    );

    // Tail the journal while the run executes: poll for new events, print
    // the first few, and buffer collected rows for the CSV. A free-running
    // engine emits millions of events per run, so the CSV keeps the first
    // `CSV_MAX_EVENTS` and the per-kind totals keep counting past the cap.
    // The run starts only once the tailer is polling, and the tailer polls
    // back to back (yielding, never sleeping): given a core of its own in
    // the run's first ~2 ms, it reads the run's first event before the
    // ring laps it.
    const STDOUT_EVENTS: usize = 24;
    const CSV_MAX_EVENTS: u64 = 250_000;
    let done = AtomicBool::new(false);
    let ready = AtomicBool::new(false);
    let start_seq = bdisk_obs::journal().head();
    let (report, results, csv, total, dropped, first_seq) = crossbeam::scope(|scope| {
        let (done, ready) = (&done, &ready);
        let tailer = scope.spawn(move |_| {
            let journal = bdisk_obs::journal();
            let mut next = start_seq;
            let mut csv = String::from(EVENT_CSV_HEADER);
            csv.push('\n');
            let mut total: u64 = 0;
            let mut dropped: u64 = 0;
            let mut printed = 0usize;
            let mut counts = [0u64; 16];
            let mut first_seq = None;
            ready.store(true, Ordering::Release);
            loop {
                let finished = done.load(Ordering::Acquire);
                let batch = journal.since(next);
                next = batch.next_seq;
                dropped += batch.dropped;
                for ev in &batch.events {
                    first_seq.get_or_insert(ev.seq);
                    total += 1;
                    counts[ev.kind as usize & 15] += 1;
                    if total <= CSV_MAX_EVENTS {
                        csv.push_str(&render_event_csv_row(ev));
                        csv.push('\n');
                    }
                    if printed < STDOUT_EVENTS {
                        println!(
                            "  [{:>6}] {:<18} a={} b={}",
                            ev.seq,
                            ev.kind.name(),
                            ev.a,
                            ev.b
                        );
                        printed += 1;
                    } else if printed == STDOUT_EVENTS {
                        println!("  ... (full stream in trace.csv)");
                        printed += 1;
                    }
                }
                if finished {
                    return (csv, total, dropped, counts, first_seq);
                }
                std::thread::yield_now();
            }
        });

        while !ready.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let (report, results) = run_bus(scale, &trace_opts, &roster, &layout, &plan);
        done.store(true, Ordering::Release);
        let (csv, total, dropped, counts, first_seq) =
            tailer.join().expect("tailer must not panic");

        println!("\nevent totals over {} collected events:", total);
        for kind in 0..12u8 {
            if counts[kind as usize] > 0 {
                let name = bdisk_obs::EventKind::from_u8(kind)
                    .map(|k| k.name())
                    .unwrap_or("?");
                println!("  {:<18} {}", name, counts[kind as usize]);
            }
        }
        (report, results, csv, total, dropped, first_seq)
    })
    .expect("trace run must not panic");

    // The ring never blocks the broadcast path, so a slow tailer loses
    // events; the reader's dropped count is part of the result, printed
    // even when it's the happy zero.
    println!("  reader dropped: {dropped} events overwritten before collection");
    // The witness: the printed sample opens on the run's first event.
    if first_seq == Some(start_seq) {
        println!("trace: sample starts at run start: OK");
    }
    if total > CSV_MAX_EVENTS {
        println!(
            "  (trace.csv truncated to the first {CSV_MAX_EVENTS} of {total} collected events)"
        );
    }
    let fleet = aggregate(report, results);
    println!(
        "run:    {} slots, {} measured requests, {} events tailed",
        fleet.engine.slots_sent, fleet.measured_requests, total
    );

    let dir = common::context().out_dir.as_path();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
    } else {
        // Footer, not header: the dropped total is only known once the
        // tailer has drained the ring after the run.
        let mut csv = csv;
        csv.push_str(&format!("# dropped={dropped}\n"));
        let path = dir.join("trace.csv");
        match std::fs::write(&path, csv) {
            Ok(()) => println!("  -> {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    linger(server, opts.serve_secs);
}

/// The Figure 13 caching config for one policy at `channels`.
fn config(scale: Scale, policy: PolicyKind, channels: usize) -> SimConfig {
    SimConfig {
        channels,
        switch_slots: 0.0,
        ..common::caching_config(scale, policy, 0.30)
    }
}

fn run_bus(
    scale: Scale,
    opts: &LiveOptions,
    roster: &[(PolicyKind, u64)],
    layout: &bdisk_sched::DiskLayout,
    plan: &BroadcastPlan,
) -> (bdisk_broker::EngineReport, Vec<LiveClientResult>) {
    // The bus calls each client inline, lossless and in order, so parity
    // with the simulator is exact.
    let clients: Vec<LiveClient> = roster
        .iter()
        .map(|&(policy, seed)| {
            let cfg = config(scale, policy, plan.num_channels());
            LiveClient::with_plan(&cfg, layout, plan.clone(), seed)
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

    let results = bus.into_results();
    (report, results)
}

fn run_tcp(
    scale: Scale,
    opts: &LiveOptions,
    roster: &[(PolicyKind, u64)],
    layout: &bdisk_sched::DiskLayout,
    plan: &BroadcastPlan,
) -> (bdisk_broker::EngineReport, Vec<LiveClientResult>) {
    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: 8192,
        backpressure: Backpressure::DropNewest,
        max_coalesce: 64,
        ..TcpTransportConfig::default()
    })
    .expect("loopback bind must succeed");
    let addr = transport.local_addr();

    let handles: Vec<_> = roster
        .iter()
        .map(|&(policy, seed)| {
            let cfg = config(scale, policy, plan.num_channels());
            let layout = layout.clone();
            let plan = plan.clone();
            std::thread::spawn(move || {
                let mut reader = TcpFrameReader::connect(addr).expect("connect to broker");
                let mut client =
                    LiveClient::with_plan(&cfg, &layout, plan, seed).expect("valid client config");
                while let Ok(Some(frame)) = reader.recv() {
                    if client.on_frame(&frame) {
                        break;
                    }
                }
                client.into_results()
            })
        })
        .collect();

    assert!(
        transport.wait_for_clients(roster.len(), Duration::from_secs(30)),
        "clients failed to connect"
    );
    let engine = BroadcastEngine::with_plan(
        plan.clone(),
        EngineConfig {
            page_size: opts.page_size,
            ..EngineConfig::default()
        },
    );
    let report = engine.run(&mut transport);
    let results = handles
        .into_iter()
        .map(|h| h.join().expect("client thread must not panic"))
        .collect();
    (report, results)
}
