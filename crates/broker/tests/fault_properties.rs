//! Fault-plan properties (satellites of the fault-injection tentpole):
//!
//! * a **zero-fault** plan is not "a plan that happens to do nothing" — it
//!   must leave both transports *bit-identical* to never having installed
//!   a plan at all: on the bus, the same client results and engine totals;
//!   over TCP, the same frames, payload bytes and `DeliveryStats` (minus
//!   `max_queue`, which depends on how much the socket accepted at each
//!   flush);
//! * the same seed replays the identical fault sequence, at both the
//!   decision level (`channel_fault`) and the injector level (what comes
//!   out of the choke point, and in what order).

use std::time::Duration;

use bdisk_broker::faults::InjectedFrame;
use bdisk_broker::{
    BroadcastEngine, ChannelFault, DeliveryStats, EngineConfig, EventedTcpTransport, FaultInjector,
    FaultPlan, Frame, InMemoryBus, LiveClient, PagePayloads, TcpFrameReader, TcpTransportConfig,
    Transport,
};
use bdisk_sched::{BroadcastProgram, DiskLayout, PageId, Slot};
use bdisk_sim::SimConfig;
use proptest::prelude::*;

fn slot_for(seq: u64) -> Slot {
    if seq % 5 == 4 {
        Slot::Empty
    } else {
        Slot::Page(PageId(seq as u32 % 7))
    }
}

/// Runs an engine for at most `frames` slots of a small program over a bus
/// of `clients` clients (optionally under `plan`), each finishing after
/// `requests` measured requests. Returns every client's results and the
/// engine's delivery totals, rendered for exact comparison.
fn run_bus(
    plan: Option<FaultPlan>,
    clients: u64,
    requests: u64,
    frames: u64,
    page_size: usize,
) -> (Vec<String>, String) {
    let layout = DiskLayout::with_delta(&[4, 8, 12], 2).unwrap();
    let program = BroadcastProgram::generate(&layout).unwrap();
    let cfg = SimConfig {
        access_range: 24,
        region_size: 2,
        requests,
        warmup_requests: 2,
        ..SimConfig::default()
    };
    let clients = (0..clients)
        .map(|seed| LiveClient::new(&cfg, &layout, program.clone(), seed).unwrap())
        .collect();
    let mut bus = InMemoryBus::new(clients);
    if let Some(plan) = plan {
        bus.set_fault_plan(plan);
    }
    let engine = BroadcastEngine::new(
        program,
        EngineConfig {
            max_slots: frames,
            page_size,
            ..EngineConfig::default()
        },
    );
    let r = engine.run(&mut bus);
    let totals = (
        r.slots_sent,
        r.frames_delivered,
        r.clients_disconnected,
        r.bytes_sent,
    );
    let totals = format!("{totals:?} {:?}", bus.fault_counts());
    let results = bus
        .into_results()
        .into_iter()
        .map(|c| {
            let counts = (c.frames_seen, c.gaps, c.gap_slots, c.recovery_waits);
            format!("{:?} {counts:?}", c.outcome)
        })
        .collect();
    (results, totals)
}

/// Broadcasts `frames` slots over loopback TCP (optionally under `plan`)
/// and returns the reader's received (seq, payload-checksum) sequence plus
/// the summed stats.
fn run_tcp(
    plan: Option<FaultPlan>,
    frames: usize,
    payloads: &PagePayloads,
) -> (Vec<(u64, u64)>, DeliveryStats) {
    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: frames.max(1),
        ..TcpTransportConfig::default()
    })
    .unwrap();
    if let Some(plan) = plan {
        transport.set_fault_plan(plan);
    }
    let addr = transport.local_addr();
    let reader = std::thread::spawn(move || {
        let mut reader = TcpFrameReader::connect(addr).unwrap();
        let mut seen = Vec::new();
        while let Some(f) = reader.recv().unwrap() {
            let sum: u64 = f.payload.iter().map(|&b| b as u64).sum();
            seen.push((f.seq, sum));
        }
        seen
    });
    assert!(transport.wait_for_clients(1, Duration::from_secs(10)));
    let mut totals = DeliveryStats::default();
    for seq in 0..frames as u64 {
        totals.absorb(transport.broadcast(payloads.frame(seq, slot_for(seq))));
    }
    totals.absorb(transport.finish());
    (reader.join().unwrap(), totals)
}

/// Stats with the timing-dependent field removed: on TCP a flush drains
/// only what the socket accepts, so the sampled peak backlog is not
/// deterministic even on a fault-free run.
fn sans_max_queue(mut stats: DeliveryStats) -> DeliveryStats {
    stats.max_queue = 0;
    stats
}

/// A zero-rate plan with everything else (seed, delay bound) arbitrary.
fn zero_plan(seed: u64, max_delay_slots: u64) -> FaultPlan {
    FaultPlan {
        seed,
        max_delay_slots: max_delay_slots.max(1),
        ..FaultPlan::none()
    }
}

/// Runs one frame stream through an injector, recording the emitted
/// (seq, was_corrupted) sequence and the final counts.
fn injector_trace(plan: FaultPlan, frames: usize) -> (Vec<(u64, bool)>, u64) {
    let mut inj = FaultInjector::new(plan);
    let mut out: Vec<InjectedFrame> = Vec::new();
    let mut trace = Vec::new();
    for seq in 0..frames as u64 {
        out.clear();
        inj.step(Frame::bare(seq, slot_for(seq)), &mut out);
        for f in &out {
            trace.push((f.frame.seq, f.corrupt.is_some()));
        }
    }
    (trace, inj.counts.total())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero-fault plan ≡ no plan, on the bus: client results and engine
    /// totals.
    #[test]
    fn zero_fault_plan_is_bit_identical_on_bus(
        seed in any::<u64>(),
        max_delay in 1u64..16,
        clients in 1u64..6,
        requests in 1u64..20,
        frames in 1u64..400,
        page_size in 0usize..48,
    ) {
        let base = run_bus(None, clients, requests, frames, page_size);
        let zero = run_bus(
            Some(zero_plan(seed, max_delay)),
            clients,
            requests,
            frames,
            page_size,
        );
        prop_assert_eq!(zero.0, base.0, "zero plan changed client results");
        prop_assert_eq!(zero.1, base.1, "zero plan changed engine totals");
    }

    /// The same seed replays the identical fault sequence — decision
    /// stream and injector output alike.
    #[test]
    fn same_seed_replays_identically(
        seed in any::<u64>(),
        erasure in 0.0f64..0.4,
        corruption in 0.0f64..0.3,
        delay in 0.0f64..0.3,
        max_delay in 1u64..8,
        frames in 1usize..250,
    ) {
        let plan = FaultPlan {
            seed,
            erasure,
            corruption,
            delay,
            max_delay_slots: max_delay,
            kill: 0.02,
            overrun: 0.02,
            drift_every_slots: 0,
            broker_kill_slot: 0,
        };
        for seq in 0..frames as u64 {
            prop_assert_eq!(plan.channel_fault(seq), plan.channel_fault(seq));
            prop_assert_eq!(plan.kills_client(seq, 3), plan.kills_client(seq, 3));
            prop_assert_eq!(plan.overrun_at(seq), plan.overrun_at(seq));
        }
        let (trace_a, total_a) = injector_trace(plan, frames);
        let (trace_b, total_b) = injector_trace(plan, frames);
        prop_assert_eq!(trace_a, trace_b, "injector replay diverged");
        prop_assert_eq!(total_a, total_b);
    }

    /// Raising the erasure rate only adds losses (coupled sampling): the
    /// erased slot set at a lower rate is a subset of the higher rate's.
    #[test]
    fn erasure_sets_nest_across_rates(
        seed in any::<u64>(),
        low in 0.0f64..0.5,
        extra in 0.0f64..0.5,
    ) {
        let lo = FaultPlan::erasure_only(seed, low);
        let hi = FaultPlan::erasure_only(seed, (low + extra).min(1.0));
        for seq in 0..500u64 {
            if lo.channel_fault(seq) == ChannelFault::Erase {
                prop_assert_eq!(hi.channel_fault(seq), ChannelFault::Erase);
            }
        }
    }
}

proptest! {
    // Real sockets per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Zero-fault plan ≡ no plan, over TCP: frames bit-equal, stats equal
    /// except the timing-raced `max_queue`.
    #[test]
    fn zero_fault_plan_is_bit_identical_on_tcp(
        seed in any::<u64>(),
        frames in 1usize..60,
        page_size in 0usize..48,
    ) {
        let payloads = PagePayloads::generate(7, page_size);
        let (base_seen, base_stats) = run_tcp(None, frames, &payloads);
        let (seen, stats) = run_tcp(Some(zero_plan(seed, 4)), frames, &payloads);
        prop_assert_eq!(seen, base_seen, "zero plan changed TCP frames");
        prop_assert_eq!(
            sans_max_queue(stats),
            sans_max_queue(base_stats),
            "zero plan changed TCP delivery stats"
        );
    }
}
