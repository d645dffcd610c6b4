//! `repro drift` — epoch-versioned plan hot-swap under workload drift,
//! with a mid-run broker crash and checkpoint restart.
//!
//! The workload drifts on a fixed cadence: every swap window the
//! logical→physical mapping rotates by [`ROTATE`] pages, sliding the hot
//! set off the fast disk and into the archive. Two fleets face the same
//! deterministic drift:
//!
//! * the **adaptive** fleet's broker carries a plan book — one
//!   re-optimized program per drift phase — and hot-swaps on a cycle
//!   boundary at every window (epoch fences announce the swap on wire
//!   v3). Mid-window-2 the broker is killed ([`FaultPlan::broker_kill_slot`])
//!   and restarted from its [`bdisk_broker::EngineCheckpoint`]: every connection is
//!   severed, clients reconnect with seeded backoff, and a resumed engine
//!   picks up the slot clock exactly where the crash left it. Every
//!   client must survive ≥3 swaps and ≥1 restart with zero fleet losses,
//!   and each window's measured mean delay must re-converge to the
//!   re-optimized plan's analytic prediction;
//! * the **control** fleet's broker never swaps: same drift, same seeds,
//!   same epoch-0 plan throughout — its windowed delay must degrade
//!   monotonically as the hot set slides away from the fast disk.
//!
//! Writes `drift.csv`: per-window measured and analytic means for both
//! fleets.

use std::sync::Arc;
use std::time::Duration;

use bdisk_broker::{
    Backpressure, BroadcastEngine, ClientEpoch, DriftBook, EngineConfig, EventedTcpTransport,
    FaultPlan, InMemoryBus, LiveClient, LiveClientResult, ReconnectPolicy, TcpClientFeed,
    TcpTransportConfig, Transport,
};
use bdisk_cache::PolicyContext;
use bdisk_sched::{BroadcastPlan, BroadcastProgram, DiskLayout, PageId, Slot};
use bdisk_sim::{seeds_from_base, SimConfig};
use bdisk_workload::{Mapping, RegionZipf};

use crate::common::{self, Scale};
use crate::live::{self, LiveOptions};

/// Drift phases, one broadcast plan per phase.
const EPOCHS: usize = 4;

/// Pages the mapping rotates per phase. With [`DISKS`] = 200 pages this
/// walks the ~40%-mass hot head (pages 0..20 plus the warm shoulder)
/// from disk 1 into disk 2 and then deep into disk 3 — each phase is
/// analytically worse than the last for a non-adapting broadcast, which
/// is what makes the control's monotone degradation assertable.
const ROTATE: usize = 40;

/// A small three-disk layout (200 pages) keeps the period short enough
/// that a window of several cycles is thousands — not millions — of
/// slots, so a full four-phase run with a mid-run restart stays fast.
const DISKS: [usize; 3] = [20, 80, 100];
const DELTA: u64 = 3;

/// Per-scale knobs for the drift runs.
struct Params {
    clients: usize,
    /// Broadcast cycles per swap window (and per drift phase).
    swap_cycles: u64,
    slot: Duration,
    /// Relative tolerance for measured-vs-analytic convergence.
    tol: f64,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            // The 10% convergence gate needs fleet-scale sample counts:
            // settled waits have σ ≈ 1.2× the mean, so ~1000 samples per
            // half-window keep the standard error under 4%.
            clients: 48,
            swap_cycles: 8,
            slot: Duration::from_micros(20),
            tol: 0.10,
        },
        Scale::Quick => Params {
            clients: 10,
            swap_cycles: 4,
            slot: Duration::from_micros(8),
            // A smoke bound: ~100 settled samples per window leaves real
            // sampling noise; the 10% convergence claim is full mode's.
            tol: 0.35,
        },
    }
}

/// Client config: no cache, no noise, access range = the whole database
/// so the rotation moves the entire probability mass. The request quota
/// is sized so every client is still tuned in well past the third swap
/// (surviving all swaps and the restart) and finishes shortly after
/// window 3 — late enough to fill every delay bucket, early enough that
/// the runs stay seconds.
fn drift_config(scale: Scale) -> SimConfig {
    let (requests, warmup) = match scale {
        Scale::Full => (185, 12),
        Scale::Quick => (95, 8),
    };
    SimConfig {
        access_range: DISKS.iter().sum(),
        region_size: 10,
        requests,
        warmup_requests: warmup,
        ..common::base_config(scale)
    }
}

/// The epoch-`rot` program: the base program with every page advanced by
/// `rot` (mod n). A pure permutation of the slot vector — same period,
/// same per-disk cadence — so after the hot set rotates by `rot`, this
/// plan serves it exactly as the base plan served the original workload.
fn rotated_program(base: &BroadcastProgram, layout: &DiskLayout, rot: usize) -> BroadcastProgram {
    let n = layout.total_pages();
    let slots: Vec<Slot> = base
        .slots()
        .iter()
        .map(|s| match *s {
            Slot::Page(p) => Slot::Page(PageId(((p.index() + rot) % n) as u32)),
            other => other,
        })
        .collect();
    let disk_of = |q: PageId| layout.disk_of(PageId(((q.index() + n - rot) % n) as u32)) as u16;
    BroadcastProgram::from_slots(slots, Some(&disk_of), layout.freqs().to_vec())
        .expect("rotating a valid program yields a valid program")
}

/// Everything both fleets share: the plan book, the per-phase mappings,
/// the per-phase physical probability vectors, and the client epoch book.
struct DriftWorld {
    layout: DiskLayout,
    plans: Vec<BroadcastPlan>,
    mappings: Vec<Mapping>,
    probs: Vec<Vec<f64>>,
    book: Arc<Vec<ClientEpoch>>,
    period: u64,
}

fn build_world(cfg: &SimConfig) -> DriftWorld {
    let layout = DiskLayout::with_delta(&DISKS, DELTA).expect("drift layout is valid");
    let n = layout.total_pages();
    let base = BroadcastProgram::generate(&layout).expect("drift program is valid");
    let period = base.period() as u64;
    let zipf = RegionZipf::new(cfg.access_range, cfg.region_size, cfg.theta);

    let mut plans = Vec::with_capacity(EPOCHS);
    let mut mappings = Vec::with_capacity(EPOCHS);
    let mut probs = Vec::with_capacity(EPOCHS);
    let mut book = Vec::with_capacity(EPOCHS);
    for p in 0..EPOCHS {
        let rot = (p * ROTATE) % n;
        let program = if rot == 0 {
            base.clone()
        } else {
            rotated_program(&base, &layout, rot)
        };
        let plan = BroadcastPlan::single(program).with_epoch(p as u32);
        let mapping = Mapping::identity(n).rotated(rot);
        let phys = mapping.physical_probs(zipf.probs());
        // The policy context a freshly-built client would have under this
        // epoch's workload and plan; adopted wholesale at each swap.
        let ctx = PolicyContext {
            probs: phys.clone(),
            page_disk: (0..n)
                .map(|q| plan.disk_of(PageId(q as u32)) as u16)
                .collect(),
            disk_freqs: layout.freqs().to_vec(),
            alpha: cfg.alpha,
        };
        book.push(ClientEpoch {
            plan: plan.clone(),
            ctx,
        });
        plans.push(plan);
        mappings.push(mapping);
        probs.push(phys);
    }
    DriftWorld {
        layout,
        plans,
        mappings,
        probs,
        book: Arc::new(book),
        period,
    }
}

/// Fleet-wide settled per-window delay means. Buckets are half a window
/// wide; the *second* half of each window is the settled measurement —
/// the first half absorbs the swap transient (a request already pending
/// when the plan swaps waits up to one period extra for its relocated
/// page, and that one-time cost belongs to the swap, not to the new
/// plan's steady state). Returns `(mean, samples)` per window.
fn settled_means(results: &[LiveClientResult], windows: usize) -> Vec<(f64, u64)> {
    let mut acc = vec![(0.0f64, 0u64); 2 * windows];
    for r in results {
        for (i, &(sum, count)) in r.delay_buckets.iter().enumerate().take(2 * windows) {
            acc[i].0 += sum;
            acc[i].1 += count;
        }
    }
    (0..windows)
        .map(|w| {
            let (sum, count) = acc[2 * w + 1];
            assert!(
                count > 0,
                "drift window {w} recorded no settled completions"
            );
            (sum / count as f64, count)
        })
        .collect()
}

/// The adaptive fleet's outcome.
struct AdaptiveOutcome {
    means: Vec<(f64, u64)>,
    min_swaps: u64,
    reconnects: u64,
    stale_frames: u64,
    gaps: u64,
    slots_before_kill: u64,
    slots_after_restart: u64,
}

/// Adaptive fleet over loopback TCP: plan book on the broker, epoch book
/// on every client, broker killed mid-window-2 and restarted from its
/// checkpoint over the same listener.
fn adaptive(
    scale: Scale,
    opts: &LiveOptions,
    world: &DriftWorld,
    cfg: &SimConfig,
) -> AdaptiveOutcome {
    let p = params(scale);
    let n = p.clients;
    let window = p.swap_cycles * world.period;
    let kill_slot = 2 * window + window / 2;

    println!(
        "\n--- adaptive: {n} TCP clients, swap every {window} slots \
         (cycle {c}), broker killed at slot {kill_slot} ---",
        c = p.swap_cycles,
    );

    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: 8192,
        backpressure: Backpressure::DropNewest,
        max_coalesce: 64,
        ..TcpTransportConfig::default()
    })
    .expect("loopback bind must succeed");
    let addr = transport.local_addr();

    let seeds = seeds_from_base(common::context().base_seed, n);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let cfg = cfg.clone();
            let layout = world.layout.clone();
            let plan0 = world.plans[0].clone();
            let book = Arc::clone(&world.book);
            let mappings = world.mappings.clone();
            let seed = seeds[i];
            std::thread::spawn(move || {
                let policy = ReconnectPolicy {
                    max_attempts: 200,
                    seed,
                    ..ReconnectPolicy::default()
                };
                let mut feed =
                    TcpClientFeed::connect(addr, policy, i as u64).expect("connect to broker");
                let mut client = LiveClient::with_plan(&cfg, &layout, plan0, seed)
                    .expect("valid client config")
                    .with_epoch_book(book)
                    .with_drift(DriftBook::new(window, mappings))
                    .with_delay_buckets(window / 2);
                while let Some(frame) = feed.recv() {
                    if client.on_frame(&frame) {
                        break;
                    }
                }
                (client.is_done(), feed.reconnects(), client.into_results())
            })
        })
        .collect();

    assert!(
        transport.wait_for_clients(n, Duration::from_secs(30)),
        "drift fleet failed to connect"
    );

    let engine_cfg = EngineConfig {
        max_slots: 40 * window,
        slot_duration: p.slot,
        no_client_grace_slots: 4 * world.period,
        page_size: opts.page_size,
        fault_plan: FaultPlan {
            broker_kill_slot: kill_slot,
            ..FaultPlan::none()
        },
        ..EngineConfig::default()
    };
    let engine = BroadcastEngine::with_plan_book(world.plans.clone(), p.swap_cycles, engine_cfg);
    let checkpoint = engine.checkpoint();
    let report_a = engine.run(&mut transport);

    // The "crash": every connection dies mid-stream; the listener (the
    // broker's well-known port) comes straight back up, as a restarted
    // process would. `finish` severs every connection but keeps the
    // listener bound, which also avoids fighting TIME_WAIT for the same
    // port inside one process. Clients notice the hangup and reconnect
    // with seeded backoff while we stand the replacement engine up.
    let severed = transport.active_clients();
    transport.finish();
    assert_eq!(severed, n, "the kill should sever the whole fleet");
    let resume = checkpoint.snapshot();
    assert_eq!(
        resume.seq, kill_slot,
        "checkpoint must stop exactly at the kill slot"
    );
    assert_eq!(resume.epoch, 2, "the kill lands mid-window-2");
    assert!(
        transport.wait_for_clients(n, Duration::from_secs(30)),
        "drift fleet failed to reconnect after the broker restart"
    );

    let engine2 = BroadcastEngine::with_plan_book(
        world.plans.clone(),
        p.swap_cycles,
        EngineConfig {
            max_slots: 40 * window,
            slot_duration: p.slot,
            no_client_grace_slots: 4 * world.period,
            page_size: opts.page_size,
            resume: Some(resume),
            ..EngineConfig::default()
        },
    );
    let report_b = engine2.run(&mut transport);

    let mut results = Vec::with_capacity(n);
    let mut min_swaps = u64::MAX;
    let mut reconnects = 0u64;
    let mut survivors = 0usize;
    for handle in handles {
        let (done, recs, r) = handle.join().expect("drift client panicked");
        if done {
            survivors += 1;
        }
        assert!(
            recs >= 1,
            "every client must live through the broker restart (got {recs} reconnects)"
        );
        min_swaps = min_swaps.min(r.epoch_swaps);
        reconnects += recs;
        results.push(r);
    }
    assert_eq!(survivors, n, "drift acceptance is zero fleet losses");
    assert!(
        min_swaps >= 3,
        "every client must survive at least 3 hot swaps (min was {min_swaps})"
    );

    let stale_frames = results.iter().map(|r| r.stale_epoch_frames).sum();
    let gaps = results.iter().map(|r| r.gaps).sum();
    let means = settled_means(&results, EPOCHS);
    AdaptiveOutcome {
        means,
        min_swaps,
        reconnects,
        stale_frames,
        gaps,
        slots_before_kill: report_a.slots_sent,
        slots_after_restart: report_b.slots_sent,
    }
}

/// Control fleet on the deterministic bus: identical drift and seeds,
/// but the broker airs the epoch-0 plan forever (wire stays v2).
fn control(
    scale: Scale,
    opts: &LiveOptions,
    world: &DriftWorld,
    cfg: &SimConfig,
) -> Vec<(f64, u64)> {
    let p = params(scale);
    let n = p.clients;
    let window = p.swap_cycles * world.period;

    println!("--- control: {n} bus clients, same drift, no swaps ---");

    let seeds = seeds_from_base(common::context().base_seed, n);
    let clients: Vec<LiveClient> = seeds
        .iter()
        .map(|&seed| {
            LiveClient::with_plan(cfg, &world.layout, world.plans[0].clone(), seed)
                .expect("valid client config")
                .with_drift(DriftBook::new(window, world.mappings.clone()))
                .with_delay_buckets(window / 2)
        })
        .collect();
    let mut bus = InMemoryBus::new(clients);

    let engine = BroadcastEngine::with_plan(
        world.plans[0].clone(),
        EngineConfig {
            max_slots: 100 * window,
            page_size: opts.page_size,
            ..EngineConfig::default()
        },
    );
    engine.run(&mut bus);

    let results = bus.into_results();
    for r in &results {
        assert_eq!(
            r.outcome.measured_requests, cfg.requests,
            "a control client failed to finish"
        );
    }
    settled_means(&results, EPOCHS)
}

/// Runs both fleets, checks convergence and degradation, writes
/// `drift.csv`.
pub fn run(scale: Scale, opts: &LiveOptions) {
    let server = live::start_metrics(opts);
    println!("\n=== Experiment: epoch hot-swap under workload drift ===");

    let p = params(scale);
    let cfg = drift_config(scale);
    let world = build_world(&cfg);
    let window = p.swap_cycles * world.period;
    println!(
        "layout {:?} Δ{DELTA}: period {} slots, window {window} slots, \
         rotation {ROTATE} pages/phase",
        DISKS, world.period
    );

    // Analytic predictions. The adaptive broker re-optimizes each phase,
    // so its prediction is phase p's plan against phase p's workload —
    // roughly flat. The control prediction holds the plan at epoch 0; it
    // must be strictly increasing or the parameterization is wrong.
    let preds: Vec<f64> = (0..EPOCHS)
        .map(|i| world.plans[i].expected_delay(&world.probs[i]))
        .collect();
    let control_preds: Vec<f64> = (0..EPOCHS)
        .map(|i| world.plans[0].expected_delay(&world.probs[i]))
        .collect();
    for i in 1..EPOCHS {
        assert!(
            control_preds[i] > control_preds[i - 1] * 1.05,
            "drift phases must be analytically distinct for the control \
             ({:.1} vs {:.1})",
            control_preds[i],
            control_preds[i - 1]
        );
    }

    let adaptive = adaptive(scale, opts, &world, &cfg);
    let control_means = control(scale, opts, &world, &cfg);

    // Convergence: each window's settled fleet mean tracks the
    // re-optimized analytic prediction.
    for (i, &(mean, samples)) in adaptive.means.iter().enumerate() {
        let gap = (mean - preds[i]).abs() / preds[i];
        println!(
            "drift witness: epoch {i} adaptive mean={mean:.1} pred={:.1} \
             gap={:.1}% ({samples} samples)",
            preds[i],
            gap * 100.0
        );
        assert!(
            gap <= p.tol,
            "window {i} mean {mean:.1} strayed {:.1}% from the re-optimized \
             prediction {:.1} (tolerance {:.0}%)",
            gap * 100.0,
            preds[i],
            p.tol * 100.0
        );
    }

    // Degradation: without swaps the same drift must make things
    // monotonically worse (2% slack absorbs sampling noise — the
    // analytic gaps between phases are 20%+).
    for i in 1..EPOCHS {
        assert!(
            control_means[i].0 >= control_means[i - 1].0 * 0.98,
            "control should degrade monotonically: window {i} improved \
             ({:.1} after {:.1})",
            control_means[i].0,
            control_means[i - 1].0
        );
    }
    assert!(
        control_means[EPOCHS - 1].0 >= control_means[0].0 * 1.2,
        "control should degrade materially across the drift \
         ({:.1} -> {:.1})",
        control_means[0].0,
        control_means[EPOCHS - 1].0
    );
    println!(
        "drift witness: control degradation {} (monotone)",
        control_means
            .iter()
            .map(|(m, _)| format!("{m:.1}"))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!(
        "drift witness: survivors={n}/{n} swaps={s} restarts=1 losses=0 \
         stale_frames={st} reconnects={r} gaps={g}",
        n = p.clients,
        s = adaptive.min_swaps,
        st = adaptive.stale_frames,
        r = adaptive.reconnects,
        g = adaptive.gaps,
    );
    println!(
        "        broker: {} slots aired, killed, {} more after restart",
        adaptive.slots_before_kill, adaptive.slots_after_restart
    );

    let xs: Vec<String> = (0..EPOCHS).map(|i| i.to_string()).collect();
    common::write_csv_with_comments(
        "drift.csv",
        "epoch",
        &xs,
        &[
            (
                "adaptive_mean".into(),
                adaptive.means.iter().map(|&(m, _)| m).collect(),
            ),
            ("adaptive_pred".into(), preds),
            (
                "control_mean".into(),
                control_means.iter().map(|&(m, _)| m).collect(),
            ),
            ("control_pred".into(), control_preds),
        ],
        &[
            format!("clients={}", p.clients),
            format!("swap_every_cycles={}", p.swap_cycles),
            format!("window_slots={window}"),
            format!("rotate_pages={ROTATE}"),
            format!("broker_kill_slot={}", 2 * window + window / 2),
        ],
    );

    live::linger(server, opts.serve_secs);
}
