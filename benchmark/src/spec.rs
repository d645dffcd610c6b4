//! The ledger's names: workloads, end-to-end metrics with their regression
//! bounds, per-layer metrics with the end-to-end number each should move.
//! `BENCHMARK.json` at the repo root is this table rendered by
//! [`manifest`]; the binary refuses to run when the two disagree.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fanout_small",
        why: "Push-only D5 broadcast, 64 B pages to 256 loopback tuners: per-frame cost (engine slot loop, enqueue, writev, tuner CRC). Bypasses sim, optimizer, pull path.",
    },
    Workload {
        name: "fanout_page4k",
        why: "Same path with 4 KiB pages to 32 tuners: per-byte cost (CRC, copies, socket bytes), so a per-frame win paid for per byte shows. Bypasses sim, optimizer, pull path.",
    },
    Workload {
        name: "pull_paced",
        why: "Engine paced at 200 us slots with adaptive pull; one closed-loop prober asks for cold pages: upstream parse, arbiter, flush cadence. The latency workload. Bypasses sim, optimizer.",
    },
    Workload {
        name: "sim_sweep",
        why: "bdisk_sim::simulate over D5 x 5 policies x delta 0..7 x 3 noises x 3 seeds: desim, workload, cache, sched arrival arithmetic. Bypasses the broker entirely.",
    },
    Workload {
        name: "replan",
        why: "Drift signal to next epoch ready, per seeded 5000-page catalog: optimize_layout, generate, with_coding, ChannelCode, repair payloads, plan_hash. Bypasses sim and transport.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// the names are generic; README.md says what each one is on each
/// workload and which ISSUE-11 name it carries.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "latency_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "latency_us_p99",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "delay_bu",
        unit: "bu",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric @ workload this number should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const TP_REPLAN: &str = "throughput_per_s, latency_us_*@replan";
const TP_SIM: &str = "throughput_per_s@sim_sweep";
const TP_SMALL: &str = "throughput_per_s@fanout_small";
const TP_FANOUT: &str = "throughput_per_s@fanout_small (.64), @fanout_page4k (.4096)";
const LAT_PULL: &str = "latency_us_*, delay_bu@pull_paced";
const NONE_YET: &str = "none yet: no workload decodes until the sans-IO tuner exists";

pub const PER_LAYER: [PerLayer; 52] = [
    // sched
    layer("sched.optimize_ms", "ms", "lower", TP_REPLAN),
    layer(
        "sched.generate_us",
        "us",
        "lower",
        "throughput_per_s@replan, @sim_sweep (simulate regenerates the plan per call)",
    ),
    layer("sched.with_coding_us", "us", "lower", TP_REPLAN),
    layer("sched.plan_hash_us", "us", "lower", TP_REPLAN),
    layer("sched.next_arrival_ns", "ns", "lower", TP_SIM),
    layer("sched.slot_at_ns", "ns", "lower", TP_SMALL),
    // workload
    layer("workload.sample_ns", "ns", "lower", TP_SIM),
    layer("workload.mapping_build_us", "us", "lower", TP_SIM),
    // cache: one 1M-reference trace per policy at cache 500
    layer("cache.op_ns.P", "ns", "lower", TP_SIM),
    layer("cache.op_ns.PIX", "ns", "lower", TP_SIM),
    layer("cache.op_ns.LRU", "ns", "lower", TP_SIM),
    layer("cache.op_ns.L", "ns", "lower", TP_SIM),
    layer("cache.op_ns.LIX", "ns", "lower", TP_SIM),
    // desim
    layer("desim.events_per_s.pending1", "1/s", "higher", TP_SIM),
    layer("desim.events_per_s.pending1024", "1/s", "higher", TP_SIM),
    // sim: the sweep's time split by policy
    layer("sim.request_ns.P", "ns", "lower", TP_SIM),
    layer("sim.request_ns.PIX", "ns", "lower", TP_SIM),
    layer("sim.request_ns.LRU", "ns", "lower", TP_SIM),
    layer("sim.request_ns.L", "ns", "lower", TP_SIM),
    layer("sim.request_ns.LIX", "ns", "lower", TP_SIM),
    // code
    layer("code.build_us", "us", "lower", TP_REPLAN),
    layer("code.encode_mb_per_s", "MB/s", "higher", TP_REPLAN),
    layer("code.peel_symbols_per_s", "1/s", "higher", NONE_YET),
    layer("code.recovered_share", "share", "higher", NONE_YET),
    // broker.engine: BroadcastEngine::run over a counting Transport
    layer("broker.engine_slot_ns.cat500", "ns", "lower", TP_SMALL),
    layer("broker.engine_slot_ns.cat5000", "ns", "lower", TP_SMALL),
    layer(
        "broker.engine_slot_ns.pull",
        "ns",
        "lower",
        "latency_us_p50@pull_paced",
    ),
    // broker.transport
    layer("broker.frame_encode_ns.64", "ns", "lower", TP_FANOUT),
    layer("broker.frame_encode_ns.4096", "ns", "lower", TP_FANOUT),
    layer("broker.frame_decode_ns.64", "ns", "lower", TP_FANOUT),
    layer("broker.frame_decode_ns.4096", "ns", "lower", TP_FANOUT),
    layer("broker.crc_mb_per_s", "MB/s", "higher", TP_FANOUT),
    // broker.tcp_evented + fleet
    layer("broker.fanout_ns_per_delivery.64", "ns", "lower", TP_FANOUT),
    layer(
        "broker.fanout_ns_per_delivery.4096",
        "ns",
        "lower",
        TP_FANOUT,
    ),
    layer("broker.flush_batch_frames", "count", "lower", LAT_PULL),
    layer("broker.pull_wait_slots_p50", "bu", "lower", LAT_PULL),
    layer("broker.delivery_lag_us_p50", "us", "lower", LAT_PULL),
    layer("broker.delivery_lag_us_p99", "us", "lower", LAT_PULL),
    // broker.arbiter / upstream
    layer(
        "broker.arbiter_decision_ns.depth1",
        "ns",
        "lower",
        "latency_us_p50@pull_paced (predicted: no visible change)",
    ),
    layer(
        "broker.arbiter_decision_ns.depth2048",
        "ns",
        "lower",
        "latency_us_p50@pull_paced (predicted: no visible change)",
    ),
    layer(
        "broker.upstream_parse_ns",
        "ns",
        "lower",
        "latency_us_p50@pull_paced",
    ),
    layer("broker.pull_queue_wait_slots", "bu", "lower", LAT_PULL),
    layer(
        "broker.pull_served_by_push_share",
        "share",
        "lower",
        LAT_PULL,
    ),
    // broker stage timers (PR 8 sampling, 1 in 64 slots), p50
    layer("broker.stage_us.jitter", "us", "lower", TP_SMALL),
    layer("broker.stage_us.encode", "us", "lower", TP_SMALL),
    layer("broker.stage_us.enqueue", "us", "lower", TP_SMALL),
    layer("broker.stage_us.drain", "us", "lower", TP_SMALL),
    // obs
    layer("obs.counter_inc_ns", "ns", "lower", TP_SMALL),
    layer("obs.histogram_record_ns", "ns", "lower", TP_SMALL),
    layer(
        "obs.render_prometheus_us",
        "us",
        "lower",
        "none: scrape path, off every timed region",
    ),
    layer("obs.metrics_overhead_pct", "%", "lower", TP_SMALL),
    layer(
        "obs.trace_overhead_pct",
        "%",
        "lower",
        "throughput_per_s@the traced workload",
    ),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
