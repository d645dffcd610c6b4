//! Property test: whatever the tuning — per-slot sequential delivery or
//! batched flushes — the bus hands every subscriber the exact same frame
//! sequence and reports the exact same `DeliveryStats` totals.
//!
//! Broadcasts run with no concurrent consumer so queue evolution is
//! deterministic; subscribers drain after `finish`. Block is only generated
//! with capacity ≥ frame count (a full lossless queue with nobody draining
//! would rightly block forever).
//!
//! The whole property runs with the event journal recording (tracing
//! enabled): observability must not perturb behavior, so delivered frames
//! must stay bit-equal to the sequential path while every enqueue/drop is
//! being journaled.

use bdisk_broker::{Backpressure, BusTuning, DeliveryStats, InMemoryBus, PagePayloads, Transport};
use bdisk_sched::{PageId, Slot};
use proptest::prelude::*;

/// Runs one broadcast of `frames` frames to `subs` subscribers and returns
/// every subscriber's received (seq, payload-checksum) sequence plus the
/// summed delivery stats.
fn run_fleet(
    tuning: BusTuning,
    backpressure: Backpressure,
    capacity: usize,
    subs: usize,
    frames: usize,
    payloads: &PagePayloads,
) -> (Vec<Vec<(u64, u64)>>, DeliveryStats) {
    let mut bus = InMemoryBus::with_tuning(capacity, backpressure, tuning);
    let mut receivers: Vec<_> = (0..subs).map(|_| bus.subscribe()).collect();
    let mut totals = DeliveryStats::default();
    let num_pages = 7u32;
    for seq in 0..frames as u64 {
        let slot = if seq % 5 == 4 {
            Slot::Empty
        } else {
            Slot::Page(PageId(seq as u32 % num_pages))
        };
        totals.absorb(bus.broadcast(payloads.frame(seq, slot)));
    }
    totals.absorb(bus.finish());
    let seen = receivers
        .iter_mut()
        .map(|sub| {
            std::iter::from_fn(|| sub.recv())
                .map(|f| {
                    let sum: u64 = f.payload.iter().map(|&b| b as u64).sum();
                    (f.seq, sum)
                })
                .collect()
        })
        .collect();
    (seen, totals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tuned_fanout_equals_sequential(
        subs in 1usize..10,
        frames in 1usize..150,
        batch in 1usize..40,
        lossy in 0u8..2,
        page_size in 0usize..48,
    ) {
        // Record every enqueue/drop/disconnect while asserting equality:
        // tracing must be a pure observer.
        bdisk_obs::set_tracing_enabled(true);
        let journal_start = bdisk_obs::journal().head();

        let (backpressure, capacity) = if lossy == 1 {
            (Backpressure::DropNewest, 8)
        } else {
            (Backpressure::Block, 160) // room for every frame
        };
        let payloads = PagePayloads::generate(7, page_size);

        let (baseline_seen, baseline_stats) = run_fleet(
            BusTuning::default(),
            backpressure,
            capacity,
            subs,
            frames,
            &payloads,
        );
        let tuning = BusTuning { batch };
        let (seen, stats) = run_fleet(tuning, backpressure, capacity, subs, frames, &payloads);
        prop_assert_eq!(
            &seen, &baseline_seen,
            "frame sequences diverged under {:?}", tuning
        );
        prop_assert_eq!(
            stats, baseline_stats,
            "delivery stats diverged under {:?}", tuning
        );
        prop_assert!(
            bdisk_obs::journal().head() > journal_start,
            "tracing was on: the runs must have journaled events"
        );
    }
}
