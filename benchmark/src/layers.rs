//! The per-layer probes of the traced pass. A layer is a crate or a broker
//! module; each probe times calls into its public functions from here and
//! reports under the names of `spec::PER_LAYER`, which says which
//! end-to-end number each should move. Fixed operation counts; the median
//! of `BATCHES` batches where a probe is a loop.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bdesim::{Simulation, Time};
use bdisk_broker::{
    crc32, encode_request, BroadcastEngine, DeliveryStats, EngineConfig, Frame, PagePayloads,
    PullRequest, SlotArbiter, Transport, UpstreamParser,
};
use bdisk_cache::{build_policy, PolicyContext};
use bdisk_code::{xor_into, ChannelCode, DecodeWindow};
use bdisk_obs::SpanKind;
use bdisk_sched::{BroadcastPlan, ChannelId, CodingConfig, DiskLayout, PageId, Slot};
use bdisk_sim::PolicyKind;
use bdisk_workload::{AccessGenerator, Mapping, RegionZipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{d5_layout, d5_plan, median, mix, percentile, D5_DELTA};
use crate::span::Tracer;
use crate::{fanout, pull, replan, sweep};

const BATCHES: usize = 3;
const CH0: ChannelId = ChannelId(0);

/// (metric name, value, samples behind it).
pub type Values = Vec<(&'static str, f64, usize)>;

/// Operations the probes' own broker sessions checked, and how many
/// failed a correctness gate.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

/// Median seconds of `BATCHES` runs of `batch`, under one span.
fn time(tr: &mut Tracer, span: &str, mut batch: impl FnMut()) -> f64 {
    let s = tr.enter(span);
    let secs: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    tr.exit(s);
    median(&secs)
}

fn cold_request(n: u64, min_seq: u64) -> PullRequest {
    PullRequest {
        user: (n % 64) as u32,
        page: PageId(2500 + (mix(n) % 2500) as u32),
        min_seq,
    }
}

fn sched(out: &mut Values, tr: &mut Tracer) {
    let plan = d5_plan();
    const N: u64 = 2_000_000;
    let secs = time(tr, "layer.sched.next_arrival", || {
        let mut acc = 0.0;
        for i in 0..N {
            let page = PageId((i.wrapping_mul(2_654_435_761) % 5000) as u32);
            acc += plan.next_arrival(page, (i % 20_011) as f64 + 0.5);
        }
        black_box(acc);
    });
    out.push(("sched.next_arrival_ns", secs * 1e9 / N as f64, BATCHES));
    let secs = time(tr, "layer.sched.slot_at", || {
        let mut acc = 0u32;
        for seq in 0..N {
            if let Slot::Page(p) = plan.slot_at(CH0, black_box(seq)) {
                acc ^= p.0;
            }
        }
        black_box(acc);
    });
    out.push(("sched.slot_at_ns", secs * 1e9 / N as f64, BATCHES));
}

fn workload_and_cache(out: &mut Values, seed: u64, tr: &mut Tracer) {
    let layout = d5_layout(D5_DELTA);
    let zipf = RegionZipf::paper_default();
    let mapping = Mapping::identity(layout.total_pages());
    let generator = AccessGenerator::new(&zipf, mapping.clone());
    let mut rng = StdRng::seed_from_u64(seed);

    const N: usize = 1_000_000;
    let mut refs: Vec<PageId> = Vec::with_capacity(N);
    let secs = time(tr, "layer.workload.sample", || {
        refs.clear();
        refs.extend((0..N).map(|_| generator.next_request(&mut rng)));
    });
    out.push(("workload.sample_ns", secs * 1e9 / N as f64, BATCHES));

    const BUILDS: usize = 100;
    let secs = time(tr, "layer.workload.mapping_build", || {
        for _ in 0..BUILDS {
            black_box(Mapping::build(&layout, 500, 0.3, &mut rng));
        }
    });
    out.push((
        "workload.mapping_build_us",
        secs * 1e6 / BUILDS as f64,
        BATCHES,
    ));

    let ctx = PolicyContext {
        probs: mapping.physical_probs(zipf.probs()),
        page_disk: (0..layout.total_pages())
            .map(|p| layout.disk_of(PageId(p as u32)) as u16)
            .collect(),
        disk_freqs: layout.freqs().to_vec(),
        alpha: 0.25,
    };
    for (kind, name) in PolicyKind::ALL.into_iter().zip([
        "cache.op_ns.P",
        "cache.op_ns.PIX",
        "cache.op_ns.LRU",
        "cache.op_ns.L",
        "cache.op_ns.LIX",
    ]) {
        let secs = time(tr, &format!("layer.{name}"), || {
            let mut policy = build_policy(kind, 500, &ctx);
            for (i, &page) in refs.iter().enumerate() {
                if policy.contains(page) {
                    policy.on_hit(page, i as f64);
                } else {
                    black_box(policy.insert(page, i as f64));
                }
            }
        });
        out.push((name, secs * 1e9 / N as f64, BATCHES));
    }
}

fn desim(out: &mut Values, tr: &mut Tracer) {
    const N: u64 = 1_000_000;
    for (pending, name) in [
        (1u32, "desim.events_per_s.pending1"),
        (1024, "desim.events_per_s.pending1024"),
    ] {
        let secs = time(tr, &format!("layer.{name}"), || {
            let mut sim: Simulation<u32> = Simulation::new();
            for e in 0..pending {
                sim.schedule_at(Time::new(e as f64 * 0.37), e);
            }
            for _ in 0..N {
                let e = sim.next_event().expect("an event is always pending");
                sim.schedule_in(Time::new(1.0 + (e % 7) as f64), e);
            }
            black_box(sim.now());
        });
        out.push((name, N as f64 / secs, BATCHES));
    }
}

fn sim(out: &mut Values, seed: u64, tr: &mut Tracer) {
    for (kind, name) in PolicyKind::ALL.into_iter().zip([
        "sim.request_ns.P",
        "sim.request_ns.PIX",
        "sim.request_ns.LRU",
        "sim.request_ns.L",
        "sim.request_ns.LIX",
    ]) {
        let grid = sweep::points(seed, &[kind], &[1, 3, 5], &[0.0, 0.3], 1);
        let (r, _) = sweep::run(&grid, tr);
        assert_eq!(r.failed, 0, "simulate failed in the {name} probe");
        out.push((name, r.timed_s * 1e9 / r.ops as f64, r.attempted as usize));
    }
}

fn replan_phases(out: &mut Values, seed: u64, tr: &mut Tracer) {
    const CATALOGS: usize = 3;
    let payloads = PagePayloads::generate(replan::PAGES, replan::PAGE_SIZE);
    let mark = tr.len();
    let mut xor_bytes = 0u64;
    for k in 0..CATALOGS {
        let probs = replan::catalog(seed, k, CATALOGS);
        let done = replan::replan(&probs, &payloads, seed, tr).expect("replan probe");
        xor_bytes += done.xor_bytes;
    }
    let phase = |span: &str| median(&tr.durations_us(span, mark));
    out.push(("sched.optimize_ms", phase("sched.optimize") / 1e3, CATALOGS));
    out.push(("sched.generate_us", phase("sched.generate"), CATALOGS));
    out.push(("sched.with_coding_us", phase("sched.with_coding"), CATALOGS));
    out.push(("sched.plan_hash_us", phase("sched.plan_hash"), CATALOGS));
    // A replan builds and encodes once per channel: report per replan.
    let build_us: f64 = tr.durations_us("code.build", mark).iter().sum();
    let encode_us: f64 = tr.durations_us("code.encode", mark).iter().sum();
    out.push(("code.build_us", build_us / CATALOGS as f64, CATALOGS));
    out.push((
        "code.encode_mb_per_s",
        xor_bytes as f64 / encode_us,
        CATALOGS,
    ));
}

/// A tuner's decode loop over 12 periods of the coded D5 broadcast with
/// every tenth slot (seeded) erased.
fn code_peel(out: &mut Values, seed: u64, tr: &mut Tracer) {
    const PERIODS: u64 = 12;
    let coding = CodingConfig::lt(0.25, 25, seed);
    let plan = d5_plan().with_coding(coding).expect("D5 takes a 25 % code");
    let program = plan.program(CH0);
    let code = ChannelCode::build(program, 0, &coding);
    let payloads = PagePayloads::generate(plan.num_pages(), replan::PAGE_SIZE);
    let repair: Vec<Vec<u8>> = code
        .symbols()
        .iter()
        .map(|symbol| {
            let mut buf = vec![0u8; replan::PAGE_SIZE];
            for &(_, page) in &symbol.covers {
                xor_into(&mut buf, payloads.page(page));
            }
            buf
        })
        .collect();
    let erased = |seq: u64| mix(seed ^ seq).is_multiple_of(10);

    let s = tr.enter("layer.code.peel");
    let (mut lost, mut recovered, mut symbols) = (0u64, 0u64, 0u64);
    let mut window = DecodeWindow::new(program.period());
    let t0 = Instant::now();
    for seq in 0..PERIODS * program.period() as u64 {
        match program.slot_at(seq) {
            Slot::Page(page) if erased(seq) => {
                window.push_lost(seq, page);
                lost += 1;
            }
            Slot::Page(page) => window.push_heard(seq, page, Arc::clone(payloads.page(page))),
            Slot::Repair(id) if !erased(seq) => {
                if let Some(covers) = code.covered_seqs(id, seq) {
                    symbols += 1;
                    for decoded in window.on_repair(covers, &repair[id.index()]) {
                        assert_eq!(
                            decoded.payload,
                            *payloads.page(decoded.page),
                            "peeled page {} differs from the page aired",
                            decoded.page
                        );
                        recovered += 1;
                    }
                }
            }
            _ => {}
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    tr.exit(s);
    out.push((
        "code.peel_symbols_per_s",
        symbols as f64 / secs,
        symbols as usize,
    ));
    out.push((
        "code.recovered_share",
        recovered as f64 / lost as f64,
        lost as usize,
    ));
}

/// A transport with no subscribers that counts what the engine hands it
/// and, when asked, feeds pull requests back.
struct Counting {
    frames: u64,
    requests_per_slot: u64,
    issued: u64,
}

impl Transport for Counting {
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
        self.frames += 1;
        black_box(frame);
        DeliveryStats::default()
    }
    fn active_clients(&self) -> usize {
        0
    }
    fn take_requests(&mut self, out: &mut Vec<PullRequest>) {
        for _ in 0..self.requests_per_slot {
            out.push(cold_request(self.issued, self.frames));
            self.issued += 1;
        }
    }
}

fn engine_loop(out: &mut Values, tr: &mut Tracer) {
    let cat500 = BroadcastPlan::generate(
        &DiskLayout::with_delta(&[50, 200, 250], D5_DELTA).expect("500-page layout"),
        1,
    )
    .expect("500-page plan");
    for (name, plan, requests_per_slot) in [
        ("broker.engine_slot_ns.cat500", cat500, 0u64),
        ("broker.engine_slot_ns.cat5000", d5_plan(), 0),
        ("broker.engine_slot_ns.pull", d5_plan(), 4),
    ] {
        let run = |slots: u64| {
            let mut engine = BroadcastEngine::with_plan(
                plan.clone(),
                EngineConfig {
                    max_slots: slots,
                    stop_when_no_clients: false,
                    ..EngineConfig::default()
                },
            );
            if requests_per_slot > 0 {
                engine = engine.with_pull(pull::adaptive());
            }
            let mut transport = Counting {
                frames: 0,
                requests_per_slot,
                issued: 0,
            };
            let t0 = Instant::now();
            let report = engine.run(&mut transport);
            assert_eq!((report.slots_sent, transport.frames), (slots, slots));
            t0.elapsed().as_secs_f64()
        };
        // The per-slot cost spans three decades across catalogs and
        // versions, so a short pilot sizes the batch to about 0.1 s.
        let pilot = 500;
        let slots = ((0.1 * pilot as f64 / run(pilot)) as u64).clamp(1_000, 1_000_000);
        let secs = time(tr, &format!("layer.{name}"), || {
            run(slots);
        });
        out.push((name, secs * 1e9 / slots as f64, BATCHES));
    }
}

fn frames(out: &mut Values, tr: &mut Tracer) {
    for (size, encode_name, decode_name, n) in [
        (
            64usize,
            "broker.frame_encode_ns.64",
            "broker.frame_decode_ns.64",
            200_000u64,
        ),
        (
            4096,
            "broker.frame_encode_ns.4096",
            "broker.frame_decode_ns.4096",
            5_000,
        ),
    ] {
        let payloads = PagePayloads::generate(64, size);
        let secs = time(tr, &format!("layer.{encode_name}"), || {
            for seq in 0..n {
                let frame = payloads.frame(seq, Slot::Page(PageId((seq % 64) as u32)));
                black_box(frame.encode_shared());
            }
        });
        out.push((encode_name, secs * 1e9 / n as f64, BATCHES));

        let frame = payloads.frame(7, Slot::Page(PageId(7)));
        let wire = frame.encode();
        let body = &wire[frame.wire_len() - frame.header_len() - size..];
        let secs = time(tr, &format!("layer.{decode_name}"), || {
            for _ in 0..n {
                black_box(Frame::decode(black_box(body)).expect("intact frame"));
            }
        });
        out.push((decode_name, secs * 1e9 / n as f64, BATCHES));
    }

    let buf: Vec<u8> = (0..64 * 1024).map(|i| (i * 31) as u8).collect();
    const ROUNDS: usize = 200;
    let secs = time(tr, "layer.broker.crc", || {
        for _ in 0..ROUNDS {
            black_box(crc32(black_box(&buf)));
        }
    });
    out.push((
        "broker.crc_mb_per_s",
        (ROUNDS * buf.len()) as f64 / 1e6 / secs,
        BATCHES,
    ));
}

/// Quarter-length fan-out sessions: pre-built frames with no engine, the
/// engine with the program's stage sampling on, and the engine with the
/// metric registry switched off and on.
fn fanout_sessions(out: &mut Values, gate: &mut Gate, tr: &mut Tracer) {
    let mut check = |session: &fanout::Session| {
        gate.attempted += session.attempted;
        gate.failed += session.failed;
    };
    let quarter = |shape: fanout::Shape| fanout::Shape {
        slots: shape.slots / 4,
        ..shape
    };
    let plan = d5_plan();
    for (shape, name) in [
        (quarter(fanout::SMALL), "broker.fanout_ns_per_delivery.64"),
        (
            quarter(fanout::PAGE4K),
            "broker.fanout_ns_per_delivery.4096",
        ),
    ] {
        let payloads = PagePayloads::generate(plan.num_pages(), shape.page_size);
        let prebuilt: Vec<Frame> = (0..shape.slots)
            .map(|seq| payloads.frame(seq, plan.slot_at(CH0, seq)))
            .collect();
        let s = tr.enter(&format!("layer.{name}"));
        let ns: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let session = fanout::session(&plan, shape, tr, |transport| {
                    for frame in &prebuilt {
                        transport.broadcast(frame.clone());
                    }
                    transport.finish();
                    0
                });
                check(&session);
                session.timed_s * 1e9 / session.attempted as f64
            })
            .collect();
        tr.exit(s);
        out.push((name, median(&ns), BATCHES));
    }

    let shape = quarter(fanout::SMALL);
    let s = tr.enter("layer.broker.stage");
    let head = bdisk_obs::trace::spans().head();
    bdisk_obs::set_sample_every(64);
    check(&fanout::engine_session(shape, tr).0);
    bdisk_obs::set_sample_every(0);
    let stages: Vec<[f64; 4]> = bdisk_obs::trace::spans()
        .since(head)
        .spans
        .iter()
        .filter(|span| span.kind == SpanKind::Stage)
        .map(|span| span.phases)
        .collect();
    tr.exit(s);
    for (i, name) in [
        "broker.stage_us.jitter",
        "broker.stage_us.encode",
        "broker.stage_us.enqueue",
        "broker.stage_us.drain",
    ]
    .into_iter()
    .enumerate()
    {
        let column: Vec<f64> = stages.iter().map(|p| p[i]).collect();
        out.push((name, percentile(&column, 0.5), stages.len()));
    }

    let s = tr.enter("layer.obs.metrics_overhead");
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        for (enabled, rates) in [(false, &mut off), (true, &mut on)] {
            bdisk_obs::set_metrics_enabled(enabled);
            let session = fanout::engine_session(shape, tr).0;
            check(&session);
            rates.push(session.attempted as f64 / session.timed_s);
        }
    }
    tr.exit(s);
    let (on, off) = (median(&on), median(&off));
    out.push((
        "obs.metrics_overhead_pct",
        (off - on) / off * 100.0,
        BATCHES,
    ));
}

fn pull_session(out: &mut Values, gate: &mut Gate, seed: u64, tr: &mut Tracer) {
    const REQUESTS: usize = 60;
    let s = tr.enter("layer.broker.pull_session");
    let session = pull::session(seed, REQUESTS, tr);
    tr.exit(s);
    let answered = session.wait_slots.len();
    let frames = session.lag_us.len();
    out.push((
        "broker.flush_batch_frames",
        percentile(&session.burst_frames, 0.5),
        session.burst_frames.len(),
    ));
    out.push((
        "broker.pull_wait_slots_p50",
        percentile(&session.wait_slots, 0.5),
        answered,
    ));
    out.push((
        "broker.delivery_lag_us_p50",
        percentile(&session.lag_us, 0.5),
        frames,
    ));
    out.push((
        "broker.delivery_lag_us_p99",
        percentile(&session.lag_us, 0.99),
        frames,
    ));
    out.push((
        "broker.pull_queue_wait_slots",
        session.arbiter_max_wait as f64,
        answered,
    ));
    out.push((
        "broker.pull_served_by_push_share",
        session.served_by_push_share,
        answered,
    ));
    gate.attempted += session.attempted;
    gate.failed += session.failed;
}

fn arbiter_and_upstream(out: &mut Values, tr: &mut Tracer) {
    let plan = d5_plan();
    for (depth, decisions, name) in [
        (1usize, 1_000_000u64, "broker.arbiter_decision_ns.depth1"),
        (2048, 20_000, "broker.arbiter_decision_ns.depth2048"),
    ] {
        let secs = time(tr, &format!("layer.{name}"), || {
            let mut arbiter = SlotArbiter::new(pull::adaptive(), 1);
            let mut issued = 0u64;
            for seq in 1..=decisions {
                // Hold the queue at `depth`: replace whatever the last
                // decision served or a push airing cancelled.
                for _ in arbiter.queue_depth()..depth {
                    arbiter.submit(cold_request(issued, seq), &plan, 0, seq - 1);
                    issued += 1;
                }
                black_box(arbiter.arbitrate(plan.slot_at(CH0, seq), CH0, seq));
            }
        });
        out.push((name, secs * 1e9 / decisions as f64, BATCHES));
    }

    const RECORDS: usize = 4096;
    const ROUNDS: usize = 50;
    let stream: Vec<u8> = (0..RECORDS as u64)
        .flat_map(|n| {
            let r = cold_request(n, n);
            encode_request(r.user, r.page, r.min_seq)
        })
        .collect();
    let mut parsed = Vec::with_capacity(RECORDS);
    let secs = time(tr, "layer.broker.upstream_parse", || {
        for _ in 0..ROUNDS {
            let mut parser = UpstreamParser::new();
            // Socket-read-sized pieces, so records straddle feeds.
            for piece in stream.chunks(4096) {
                parser.feed(piece, &mut parsed);
            }
            assert_eq!(parsed.len(), RECORDS);
            parsed.clear();
        }
    });
    out.push((
        "broker.upstream_parse_ns",
        secs * 1e9 / (RECORDS * ROUNDS) as f64,
        BATCHES,
    ));
}

fn obs(out: &mut Values, tr: &mut Tracer) {
    const N: u64 = 5_000_000;
    let counter = bdisk_obs::counter("bench_probe_total", "benchmark probe counter");
    let secs = time(tr, "layer.obs.counter_inc", || {
        for _ in 0..N {
            counter.inc();
        }
    });
    out.push(("obs.counter_inc_ns", secs * 1e9 / N as f64, BATCHES));

    static BOUNDS: [u64; 6] = [1, 10, 100, 1_000, 10_000, 100_000];
    let histogram = bdisk_obs::histogram("bench_probe_hist", "benchmark probe histogram", &BOUNDS);
    let secs = time(tr, "layer.obs.histogram_record", || {
        for i in 0..N {
            histogram.record(black_box(i & 0xffff));
        }
    });
    out.push(("obs.histogram_record_ns", secs * 1e9 / N as f64, BATCHES));

    // The full inventory an operator's scrape renders.
    bdisk_broker::register_metrics();
    bdisk_sim::register_metrics();
    const RENDERS: usize = 50;
    let secs = time(tr, "layer.obs.render_prometheus", || {
        for _ in 0..RENDERS {
            black_box(bdisk_obs::render_prometheus());
        }
    });
    out.push((
        "obs.render_prometheus_us",
        secs * 1e6 / RENDERS as f64,
        BATCHES,
    ));
}

pub fn run(seed: u64, tr: &mut Tracer) -> (Values, Gate) {
    let mut out = Values::new();
    let mut gate = Gate::default();
    let s = tr.enter("layers");
    sched(&mut out, tr);
    workload_and_cache(&mut out, seed, tr);
    desim(&mut out, tr);
    sim(&mut out, seed, tr);
    replan_phases(&mut out, seed, tr);
    code_peel(&mut out, seed, tr);
    engine_loop(&mut out, tr);
    frames(&mut out, tr);
    fanout_sessions(&mut out, &mut gate, tr);
    pull_session(&mut out, &mut gate, seed, tr);
    arbiter_and_upstream(&mut out, tr);
    obs(&mut out, tr);
    tr.exit(s);
    (out, gate)
}
