//! `pull_paced`: the upstream path beside the downstream one, and the only
//! workload with a wall-clock request latency.
//!
//! Two threads: a broker thread runs the paced engine over the evented
//! transport; this thread is one closed-loop prober with zero think time
//! (the next request leaves when the previous page arrives, so a slower
//! broker receives less load). The engine stops when the prober hangs up.

use std::time::{Duration, Instant};

use bdisk_broker::{BroadcastEngine, EngineConfig, Frame, PullConfig, PullMode, TcpFrameReader};
use bdisk_sched::{PageId, Slot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{bind, d5_plan, fold, percentile, Repeat, Workload, D5_SIZES};
use crate::pin::{pin, Core};
use crate::span::Tracer;

pub const SLOT: Duration = Duration::from_micros(200);

/// Requests per repeat of the workload (about 2 s at the first baseline).
pub const REQUESTS: usize = 150;

/// A request not answered this many slots past one full period has failed.
const GRACE_SLOTS: u64 = 128;

/// The pull configuration of every pull measurement in the ledger.
pub fn adaptive() -> PullConfig {
    PullConfig {
        mode: PullMode::Adaptive {
            max_ratio: 0.5,
            depth_target: 1,
        },
        max_queue: 4096,
    }
}

pub struct Session {
    pub timed_s: f64,
    pub rtt_us: Vec<f64>,
    /// Completion seq − the request's `min_seq`, per completed request.
    pub wait_slots: Vec<f64>,
    /// Per received frame: arrival − seq × slot duration, minus the
    /// session's minimum of that (one-way delay variation against the
    /// slot schedule).
    pub lag_us: Vec<f64>,
    /// Frames per arrival burst (a burst ends at a pause above half a slot).
    pub burst_frames: Vec<f64>,
    /// `EngineReport.pull.max_wait`: the arbiter's own view of the wait.
    pub arbiter_max_wait: u64,
    pub served_by_push_share: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

/// One prober session of `requests` seeded cold-disk requests.
pub fn session(seed: u64, requests: usize, tr: &mut Tracer) -> Session {
    let s = tr.enter("sched.generate");
    let plan = d5_plan();
    tr.exit(s);
    let deadline_slots = plan.max_period() as u64 + GRACE_SLOTS;
    // The cold disk: the pages a push-only client waits longest for.
    let cold = (D5_SIZES[0] + D5_SIZES[1]) as u32..plan.num_pages() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let pages: Vec<PageId> = (0..requests)
        .map(|_| PageId(rng.random_range(cold.clone())))
        .collect();

    let engine = BroadcastEngine::with_plan(
        plan,
        EngineConfig {
            slot_duration: SLOT,
            stop_when_no_clients: true,
            ..EngineConfig::default()
        },
    )
    .with_pull(adaptive());

    let s = tr.enter("bind");
    let mut transport = bind();
    let addr = transport.local_addr();
    tr.exit(s);

    let mut out = Session {
        timed_s: 0.0,
        rtt_us: Vec::with_capacity(requests),
        wait_slots: Vec::with_capacity(requests),
        lag_us: Vec::new(),
        burst_frames: Vec::new(),
        arbiter_max_wait: 0,
        served_by_push_share: 0.0,
        attempted: requests as u64,
        failed: 0,
        digest: 0,
    };
    let (report, run_span) = std::thread::scope(|scope| {
        let engine = &engine;
        let broker = scope.spawn(move || {
            pin(Core::Broker);
            let connected = transport.wait_for_clients(1, Duration::from_secs(30));
            let start = Instant::now();
            let report = engine.run(&mut transport);
            (connected, report, (start, Instant::now()))
        });

        pin(Core::Peer);
        let s = tr.enter("connect");
        let mut reader = TcpFrameReader::connect(addr).expect("connect prober");
        tr.exit(s);
        let s = tr.enter("probe");
        probe(&mut reader, &pages, deadline_slots, &mut out);
        out.failed += reader.corrupt_frames();
        drop(reader);
        tr.exit(s);

        let (connected, report, run_span) = broker.join().expect("broker thread");
        pin(Core::Broker);
        out.failed += u64::from(!connected);
        (report, run_span)
    });
    tr.record("engine.run", run_span.0, run_span.1);

    // `pull.rejected` is not a failure: a page already pushed inside the
    // in-flight flush window is refused and arrives by that push.
    out.failed += report.frames_dropped;
    out.arbiter_max_wait = report.pull.max_wait;
    out.served_by_push_share =
        report.pull.satisfied_by_push as f64 / (report.pull.requests.max(1)) as f64;
    out
}

/// Everything the prober learns from frames as they arrive, whether or
/// not they answer a request.
struct Arrivals {
    epoch: Instant,
    last_seq: Option<u64>,
    last_arrival: Instant,
    gaps: u64,
    raw_lag_us: Vec<f64>,
    burst: u64,
    burst_frames: Vec<f64>,
}

impl Arrivals {
    /// Receives one frame; `None` at end of stream.
    fn next(&mut self, reader: &mut TcpFrameReader) -> Option<(Frame, Instant)> {
        let frame = reader.recv().expect("prober recv")?;
        let now = Instant::now();
        if self.last_seq.is_some_and(|l| frame.seq != l + 1) {
            self.gaps += 1;
        }
        self.last_seq = Some(frame.seq);
        let due_us = frame.seq as f64 * SLOT.as_secs_f64() * 1e6;
        self.raw_lag_us
            .push((now - self.epoch).as_secs_f64() * 1e6 - due_us);
        if self.burst > 0 && now - self.last_arrival > SLOT / 2 {
            self.burst_frames.push(self.burst as f64);
            self.burst = 0;
        }
        self.burst += 1;
        self.last_arrival = now;
        Some((frame, now))
    }
}

fn probe(reader: &mut TcpFrameReader, pages: &[PageId], deadline_slots: u64, out: &mut Session) {
    let epoch = Instant::now();
    let mut seen = Arrivals {
        epoch,
        last_seq: None,
        last_arrival: epoch,
        gaps: 0,
        raw_lag_us: Vec::new(),
        burst: 0,
        burst_frames: Vec::new(),
    };
    if seen.next(reader).is_none() {
        out.failed += pages.len() as u64;
        return;
    }
    let t0 = Instant::now();
    'requests: for &page in pages {
        let min_seq = seen.last_seq.expect("one frame seen") + 1;
        let sent = Instant::now();
        reader
            .send_request(0, page, min_seq)
            .expect("prober send_request");
        loop {
            let Some((frame, now)) = seen.next(reader) else {
                // Stream ended under an open request: it and the rest fail.
                out.failed += (pages.len() - out.rtt_us.len()) as u64;
                break 'requests;
            };
            if frame.slot == Slot::Pull(page) || frame.slot == Slot::Page(page) {
                out.rtt_us.push((now - sent).as_secs_f64() * 1e6);
                out.wait_slots.push((frame.seq - min_seq) as f64);
                fold(&mut out.digest, page.0 as u64);
                break;
            }
            if frame.seq - min_seq > deadline_slots {
                out.failed += 1;
                break;
            }
        }
    }
    out.timed_s = t0.elapsed().as_secs_f64();
    out.failed += seen.gaps;
    let floor = seen
        .raw_lag_us
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    out.lag_us = seen.raw_lag_us.into_iter().map(|l| l - floor).collect();
    out.burst_frames = seen.burst_frames;
}

pub struct PullPaced {
    pub seed: u64,
}

impl Workload for PullPaced {
    fn repeat(&mut self, tr: &mut Tracer) -> Repeat {
        let s = session(self.seed, REQUESTS, tr);
        Repeat {
            timed_s: s.timed_s,
            ops: s.rtt_us.len() as u64,
            // The answer's distance from the request in broadcast units:
            // slots a pulled page waits, median.
            delay_bu: if s.wait_slots.is_empty() {
                0.0
            } else {
                percentile(&s.wait_slots, 0.5)
            },
            latency_us: s.rtt_us,
            attempted: s.attempted,
            failed: s.failed,
            digest: s.digest,
        }
    }
}
