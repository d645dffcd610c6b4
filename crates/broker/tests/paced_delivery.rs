//! A paced engine over the evented transport keeps the broadcast clock on
//! the wire: each slot reaches a loopback tuner within a few slot times of
//! its deadline, and an upstream pull is answered within a few slots of
//! the request rather than one batching interval later.

use std::time::{Duration, Instant};

use bdisk_broker::{
    BroadcastEngine, EngineConfig, EventedTcpTransport, PullConfig, PullMode, TcpFrameReader,
    TcpTransportConfig,
};
use bdisk_sched::{BroadcastPlan, DiskLayout, PageId, Slot};

const SLOT: Duration = Duration::from_millis(1);

fn plan() -> BroadcastPlan {
    BroadcastPlan::generate(&DiskLayout::with_delta(&[10, 40, 150], 2).unwrap(), 1).unwrap()
}

/// Runs `engine` over a fresh evented transport (default config: 64-frame
/// batching) with one tuner connected before the first slot. Returns the
/// instant just before `run` and what `tuner` returned.
fn run_with_tuner<R: Send>(
    engine: &BroadcastEngine,
    tuner: impl FnOnce(TcpFrameReader) -> R + Send,
) -> (Instant, R) {
    let mut transport = EventedTcpTransport::bind(TcpTransportConfig::default()).unwrap();
    let addr = transport.local_addr();
    std::thread::scope(|s| {
        let tuner = s.spawn(move || tuner(TcpFrameReader::connect(addr).unwrap()));
        assert!(transport.wait_for_clients(1, Duration::from_secs(10)));
        let t0 = Instant::now();
        engine.run(&mut transport);
        (t0, tuner.join().unwrap())
    })
}

#[test]
fn paced_frames_arrive_within_a_few_slots_of_their_deadline() {
    const SLOTS: u64 = 300;
    let engine = BroadcastEngine::with_plan(
        plan(),
        EngineConfig {
            max_slots: SLOTS,
            slot_duration: SLOT,
            stop_when_no_clients: false,
            ..EngineConfig::default()
        },
    );
    let (t0, arrivals) = run_with_tuner(&engine, |mut reader| {
        let mut arrivals = Vec::new();
        while let Some(frame) = reader.recv().unwrap() {
            arrivals.push((frame.seq, Instant::now()));
        }
        arrivals
    });
    assert_eq!(arrivals.len() as u64, SLOTS);
    let on_time = arrivals
        .iter()
        .filter(|&&(seq, at)| at.saturating_duration_since(t0 + SLOT * seq as u32) <= SLOT * 5)
        .count();
    assert!(
        on_time * 10 >= arrivals.len() * 9,
        "only {on_time} of {SLOTS} frames arrived within 5 slots of their deadline"
    );
}

#[test]
fn adaptive_pull_is_answered_within_a_few_slots() {
    let plan = plan();
    // The tuner asks at min_seq 1 (right after the first frame, seq 0) for
    // the page whose periodic airing is furthest off: only a pull airing
    // can answer it within the bound.
    const MIN_SEQ: u64 = 1;
    const BOUND: u64 = 8;
    let page = (0..plan.num_pages() as u32)
        .map(PageId)
        .max_by(|a, b| {
            let at = |p: &PageId| plan.next_arrival(*p, MIN_SEQ as f64);
            at(a).total_cmp(&at(b))
        })
        .unwrap();
    assert!(plan.next_arrival(page, MIN_SEQ as f64) > (MIN_SEQ + 4 * BOUND) as f64);
    let engine = BroadcastEngine::with_plan(
        plan,
        EngineConfig {
            max_slots: 2000,
            slot_duration: SLOT,
            ..EngineConfig::default()
        },
    )
    .with_pull(PullConfig {
        mode: PullMode::Adaptive {
            max_ratio: 0.5,
            depth_target: 1,
        },
        max_queue: 64,
    });
    let (_, (min_seq, answer)) = run_with_tuner(&engine, |mut reader| {
        let first = reader.recv().unwrap().expect("first frame");
        let min_seq = first.seq + 1;
        reader.send_request(0, page, min_seq).unwrap();
        loop {
            let frame = reader
                .recv()
                .unwrap()
                .expect("answered before end of stream");
            if frame.slot == Slot::Pull(page) || frame.slot == Slot::Page(page) {
                return (min_seq, frame);
            }
        }
    });
    assert_eq!(min_seq, MIN_SEQ);
    assert_eq!(answer.slot, Slot::Pull(page));
    assert!(
        answer.seq - min_seq <= BOUND,
        "pull answered {} slots after min_seq",
        answer.seq - min_seq
    );
}
