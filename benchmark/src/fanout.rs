//! `fanout_small` and `fanout_page4k`: the push-only broadcast, free-running,
//! from `engine.run` to the last tuner's end of stream.
//!
//! Two threads: this one is the broker (engine + evented transport, one
//! epoll loop), the other is the `TunerFleet` drainer (one epoll loop for
//! every tuner). Tuner count is fan-out, not threads.

use std::time::{Duration, Instant};

use bdisk_broker::{
    BroadcastEngine, DeliveryStats, EngineConfig, EventedTcpTransport, Frame, PullRequest,
    Transport, TunerFleet,
};
use bdisk_sched::{BroadcastPlan, ChannelId, Slot};
use bdisk_workload::RegionZipf;

use crate::common::{bind, d5_plan, Repeat, Workload};
use crate::pin::{pin, Core};
use crate::span::Tracer;

#[derive(Clone, Copy)]
pub struct Shape {
    pub tuners: usize,
    pub slots: u64,
    pub page_size: usize,
}

/// Sized so one repeat lasts about a second at the first baseline.
pub const SMALL: Shape = Shape {
    tuners: 128,
    slots: 10_000,
    page_size: 64,
};
pub const PAGE4K: Shape = Shape {
    tuners: 32,
    slots: 4000,
    page_size: 4096,
};

/// Stamps the instant each slot is handed to the transport. The interval
/// between two stamps is the slot duration the free-running broker
/// achieved — the unit every delay in broadcast units is multiplied by.
pub struct SlotClock<T> {
    inner: T,
    stamps: Vec<Instant>,
}

impl<T: Transport> Transport for SlotClock<T> {
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
        self.stamps.push(Instant::now());
        self.inner.broadcast(frame)
    }
    fn active_clients(&self) -> usize {
        self.inner.active_clients()
    }
    fn finish(&mut self) -> DeliveryStats {
        self.inner.finish()
    }
    fn set_hello(&mut self, hello: Option<Frame>) {
        self.inner.set_hello(hello)
    }
    fn take_requests(&mut self, out: &mut Vec<PullRequest>) {
        self.inner.take_requests(out)
    }
}

pub struct Session {
    pub timed_s: f64,
    pub slot_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Wire bytes one tuner must receive for slots `0..slots` of `plan`.
fn expected_wire_bytes(plan: &BroadcastPlan, shape: Shape) -> u64 {
    (0..shape.slots)
        .map(|seq| {
            let slot = plan.slot_at(ChannelId(0), seq);
            let payload = match slot {
                Slot::Page(_) => shape.page_size,
                _ => 0,
            };
            (Frame::bare(seq, slot).wire_len() + payload) as u64
        })
        .sum()
}

/// Binds, connects `shape.tuners` tuners, times `air` (which must put
/// slots `0..shape.slots` of `plan` on the transport and finish it) until
/// the fleet has drained, and checks every tuner saw every slot CRC-clean,
/// gap-free and with the exact wire-byte total. `air` returns frames the
/// broker dropped.
pub fn session(
    plan: &BroadcastPlan,
    shape: Shape,
    tr: &mut Tracer,
    air: impl FnOnce(&mut SlotClock<EventedTcpTransport>) -> u64,
) -> Session {
    let s = tr.enter("bind");
    let transport = bind();
    let addr = transport.local_addr();
    tr.exit(s);
    let mut clock = SlotClock {
        inner: transport,
        stamps: Vec::with_capacity(shape.slots as usize),
    };

    let s = tr.enter("connect");
    // The fleet thread inherits the placement of the thread that spawns it.
    pin(Core::Peer);
    let fleet = TunerFleet::launch(addr, shape.tuners).expect("spawn tuner fleet");
    pin(Core::Broker);
    let connected = clock
        .inner
        .wait_for_clients(shape.tuners, Duration::from_secs(30));
    tr.exit(s);

    let t0 = Instant::now();
    let s = tr.enter("air");
    let dropped = air(&mut clock);
    tr.exit(s);
    let s = tr.enter("fleet.join");
    let report = fleet.join().expect("tuner fleet");
    tr.exit(s);
    let timed_s = t0.elapsed().as_secs_f64();

    let s = tr.enter("verify");
    let want_bytes = expected_wire_bytes(plan, shape);
    let mut failed = dropped + u64::from(!connected);
    failed += (shape.tuners as u64).saturating_sub(report.tuners.len() as u64) * shape.slots;
    for t in &report.tuners {
        failed += shape.slots.saturating_sub(t.frames) + t.crc_errors + t.gaps;
        failed += u64::from(t.last_seq != Some(shape.slots - 1));
        failed += u64::from(t.bytes != want_bytes);
    }
    failed += u64::from(clock.stamps.len() as u64 != shape.slots);
    tr.exit(s);

    Session {
        timed_s,
        slot_us: clock
            .stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
            .collect(),
        attempted: shape.tuners as u64 * shape.slots,
        failed,
    }
}

/// The engine-driven session both fan-out workloads (and the stage-timer
/// and metrics-overhead probes) run.
pub fn engine_session(shape: Shape, tr: &mut Tracer) -> (Session, BroadcastPlan) {
    let s = tr.enter("sched.generate");
    let plan = d5_plan();
    tr.exit(s);
    let engine = BroadcastEngine::with_plan(
        plan.clone(),
        EngineConfig {
            max_slots: shape.slots,
            page_size: shape.page_size,
            slot_duration: Duration::ZERO,
            // Exactly `slots` airings whatever the tuners do; a tuner that
            // leaves early then fails the gates instead of ending the run.
            stop_when_no_clients: false,
            ..EngineConfig::default()
        },
    );
    let session = session(&plan, shape, tr, |transport| {
        let report = engine.run(transport);
        report.frames_dropped + u64::from(report.slots_sent != shape.slots)
    });
    (session, plan)
}

pub struct Fanout(pub Shape);

impl Workload for Fanout {
    fn repeat(&mut self, tr: &mut Tracer) -> Repeat {
        let (session, plan) = engine_session(self.0, tr);
        Repeat {
            timed_s: session.timed_s,
            ops: session.attempted.saturating_sub(session.failed),
            latency_us: session.slot_us,
            attempted: session.attempted,
            failed: session.failed,
            // The program on the air, judged by the paper's default client
            // (1000-page access range, 50-page regions, θ = 0.95): a guard
            // that a faster fan-out still airs the D5 program.
            delay_bu: plan.expected_delay(RegionZipf::paper_default().probs()),
            digest: plan.plan_hash(),
        }
    }
}
