//! Golden inventory of every metric family the workspace registers.
//!
//! The CI `/metrics` smoke test asserts a minimum family count; this test
//! pins the exact names, so adding a family is a deliberate one-line diff
//! here (and a floor bump in `ci.yml`), and losing one — a refactor that
//! silently stops registering a family — fails loudly instead of shrinking
//! the scrape.

use std::collections::BTreeSet;

/// Every family name expected after all layers register eagerly, sorted.
/// One entry per family: labeled series (`bd_slots_by_channel_total{channel}`
/// et al.) collapse to their family name, exactly like a `# TYPE` line.
const GOLDEN_FAMILIES: &[&str] = &[
    "bd_bus_backpressure_stalls_total",
    "bd_bus_batch_occupancy",
    "bd_bus_flushes_total",
    "bd_bus_subscribers",
    "bd_cache_evictions_total",
    "bd_cache_hits_total",
    "bd_cache_invalidations_total",
    "bd_cache_miss_loss_delayed_total",
    "bd_cache_misses_total",
    "bd_client_finished_total",
    "bd_client_frames_seen_total",
    "bd_conn_lag_watermark",
    "bd_conn_slab_occupancy",
    "bd_decode_window_evictions_total",
    "bd_engine_active_clients",
    "bd_engine_bytes_sent_total",
    "bd_engine_disconnects_total",
    "bd_engine_frames_delivered_total",
    "bd_engine_frames_dropped_total",
    "bd_engine_max_client_lag",
    "bd_engine_slots_total",
    "bd_epoch_fences_total",
    "bd_epoch_swaps_total",
    "bd_fanout_frames_by_channel_total",
    "bd_fault_injected_by_channel_total",
    "bd_fault_injected_total",
    "bd_frame_gaps_total",
    "bd_frames_corrupt_total",
    "bd_lix_chain_len",
    "bd_partial_writes_total",
    "bd_plan_epoch",
    "bd_poll_wakeups_total",
    "bd_pull_padding_slots_total",
    "bd_pull_queue_depth",
    "bd_pull_requests_rejected_total",
    "bd_pull_requests_total",
    "bd_pull_slots_total",
    "bd_pull_stolen_slots_total",
    "bd_pull_user_max_wait_slots",
    "bd_pull_wait_slots",
    "bd_reconnects_total",
    "bd_recovery_coded_total",
    "bd_recovery_periodic_total",
    "bd_recovery_wait_slots",
    "bd_repair_slots_aired_total",
    "bd_repair_symbols_decoded_total",
    "bd_sim_measured_requests_total",
    "bd_sim_requests_total",
    "bd_sim_response_time",
    "bd_sim_runs_total",
    "bd_sim_virtual_time",
    "bd_slots_by_channel_total",
    "bd_slow_consumer_conn",
    "bd_slow_consumer_lag",
    "bd_stage_drain_us",
    "bd_stage_encode_us",
    "bd_stage_enqueue_us",
    "bd_stage_jitter_us",
    "bd_stale_epoch_frames_total",
    "bd_tcp_accepted_total",
    "bd_tcp_bytes_total",
    "bd_tcp_coalesce_batch",
    "bd_tcp_connections",
    "bd_tcp_disconnects_total",
    "bd_tcp_frames_dropped_total",
    "bd_tcp_writer_backlog",
    "bd_writable_spurious_total",
];

#[test]
fn registered_families_match_the_golden_list() {
    bdisk_broker::register_metrics();
    bdisk_cache::register_metrics();
    bdisk_sim::register_metrics();

    let families: BTreeSet<&'static str> = bdisk_obs::registry::snapshot()
        .iter()
        .map(|s| s.name)
        .collect();
    let actual: Vec<&str> = families.into_iter().collect();
    let golden: Vec<&str> = GOLDEN_FAMILIES.to_vec();
    assert_eq!(
        actual, golden,
        "metric family inventory changed — update GOLDEN_FAMILIES and the \
         /metrics family floor in ci.yml"
    );
}
