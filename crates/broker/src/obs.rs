//! Broker-side telemetry: the static metric handles for the engine slot
//! loop, the in-memory bus, the TCP transport, and live clients.
//!
//! All handles are `&'static` metrics from the [`bdisk_obs`] registry,
//! materialized once per process through `OnceLock` — after the first
//! touch (which the engine's warm-up traffic performs), the hot paths do
//! a single pointer load plus lock-free atomic recording, keeping the
//! steady-state broadcast allocation-free (`tests/alloc_free.rs` pins
//! this with metrics *and* tracing enabled).

use std::sync::OnceLock;

use bdisk_obs::registry::{self, Counter, Gauge, Histogram, POW2_BOUNDS};

/// Engine slot-loop metrics.
pub(crate) struct EngineMetrics {
    /// `bd_engine_slots_total`
    pub slots: &'static Counter,
    /// `bd_engine_frames_delivered_total`
    pub frames_delivered: &'static Counter,
    /// `bd_engine_frames_dropped_total`
    pub frames_dropped: &'static Counter,
    /// `bd_engine_disconnects_total`
    pub disconnects: &'static Counter,
    /// `bd_engine_bytes_sent_total`
    pub bytes: &'static Counter,
    /// `bd_engine_active_clients`
    pub active_clients: &'static Gauge,
    /// `bd_engine_max_client_lag`
    pub max_client_lag: &'static Gauge,
}

pub(crate) fn engine() -> &'static EngineMetrics {
    static M: OnceLock<EngineMetrics> = OnceLock::new();
    M.get_or_init(|| EngineMetrics {
        slots: registry::counter(
            "bd_engine_slots_total",
            "Broadcast slots sent by the engine",
        ),
        frames_delivered: registry::counter(
            "bd_engine_frames_delivered_total",
            "Frames successfully enqueued to clients",
        ),
        frames_dropped: registry::counter(
            "bd_engine_frames_dropped_total",
            "Frames dropped at full client buffers",
        ),
        disconnects: registry::counter(
            "bd_engine_disconnects_total",
            "Clients disconnected (evicted as slow, finished, or died)",
        ),
        bytes: registry::counter(
            "bd_engine_bytes_sent_total",
            "Wire bytes enqueued to clients (header + payload per frame)",
        ),
        active_clients: registry::gauge(
            "bd_engine_active_clients",
            "Clients currently attached to the running transport",
        ),
        max_client_lag: registry::gauge(
            "bd_engine_max_client_lag",
            "Largest per-client backlog observed so far this process (frames)",
        ),
    })
}

/// Per-channel slots aired by the engine
/// (`bd_slots_by_channel_total{channel=...}`).
pub(crate) fn slots_by_channel(channel: u16) -> &'static Counter {
    registry::counter_labeled(
        "bd_slots_by_channel_total",
        "Broadcast slots aired by the engine, per channel",
        "channel",
        channel.to_string(),
    )
}

/// Per-channel frames entering transport fan-out
/// (`bd_fanout_frames_by_channel_total{channel=...}`).
pub(crate) fn fanout_by_channel(channel: u16) -> &'static Counter {
    registry::counter_labeled(
        "bd_fanout_frames_by_channel_total",
        "Frames handed to transport fan-out (bus or TCP), per channel",
        "channel",
        channel.to_string(),
    )
}

/// Per-channel injected faults
/// (`bd_fault_injected_by_channel_total{channel=...}`).
pub(crate) fn fault_channel_counter(channel: u16) -> &'static Counter {
    registry::counter_labeled(
        "bd_fault_injected_by_channel_total",
        "Faults injected into the broadcast, per channel",
        "channel",
        channel.to_string(),
    )
}

/// Lazily-grown cache of one labelled family's per-channel counter
/// handles. The registry lookup allocates (it formats the label value), so
/// hot paths hold one of these and pay that cost once per channel, on
/// first sighting — steady-state traffic is a pointer index plus an atomic
/// add, preserving the zero-allocation broadcast invariant.
pub(crate) struct ChannelCounters {
    make: fn(u16) -> &'static Counter,
    handles: Vec<&'static Counter>,
}

impl ChannelCounters {
    /// A cache over `make` (one of the `*_by_channel` constructors above).
    pub(crate) fn new(make: fn(u16) -> &'static Counter) -> Self {
        Self {
            make,
            handles: Vec::new(),
        }
    }

    /// The counter for `channel`, materializing handles up to it on first
    /// use.
    pub(crate) fn get(&mut self, channel: u16) -> &'static Counter {
        let idx = channel as usize;
        while self.handles.len() <= idx {
            let next = self.handles.len() as u16;
            self.handles.push((self.make)(next));
        }
        self.handles[idx]
    }
}

/// Broker stage-timer metrics: where a sampled slot's wall-clock time
/// went, in microseconds — the histogram view of the [`bdisk_obs::trace`]
/// stage spans (tick deadline jitter, frame encode, transport enqueue,
/// writev drain).
pub(crate) struct StageMetrics {
    /// `bd_stage_jitter_us`
    pub jitter: &'static Histogram,
    /// `bd_stage_encode_us`
    pub encode: &'static Histogram,
    /// `bd_stage_enqueue_us`
    pub enqueue: &'static Histogram,
    /// `bd_stage_drain_us`
    pub drain: &'static Histogram,
    /// `bd_conn_lag_watermark`
    pub conn_lag_watermark: &'static Gauge,
}

pub(crate) fn stage() -> &'static StageMetrics {
    static M: OnceLock<StageMetrics> = OnceLock::new();
    M.get_or_init(|| StageMetrics {
        jitter: registry::histogram(
            "bd_stage_jitter_us",
            "How late a sampled slot started past its absolute tick deadline (us)",
            POW2_BOUNDS,
        ),
        encode: registry::histogram(
            "bd_stage_encode_us",
            "Frame build time for a sampled slot, summed over channels (us)",
            POW2_BOUNDS,
        ),
        enqueue: registry::histogram(
            "bd_stage_enqueue_us",
            "Transport enqueue/fan-out time for a sampled slot, summed over channels (us)",
            POW2_BOUNDS,
        ),
        drain: registry::histogram(
            "bd_stage_drain_us",
            "Writev drain time accumulated since the previous sampled slot (us)",
            POW2_BOUNDS,
        ),
        conn_lag_watermark: registry::gauge(
            "bd_conn_lag_watermark",
            "High-water per-connection send backlog observed at enqueue (frames)",
        ),
    })
}

/// Send backlog of the `rank`-th slowest TCP connection at the latest
/// broadcast (`bd_slow_consumer_lag{rank=...}`).
pub(crate) fn slow_consumer_lag(rank: usize) -> &'static Gauge {
    registry::gauge_labeled(
        "bd_slow_consumer_lag",
        "Send backlog of the rank-th slowest connection at the latest broadcast (frames)",
        "rank",
        rank.to_string(),
    )
}

/// Connection id of the `rank`-th slowest TCP connection at the latest
/// broadcast (`bd_slow_consumer_conn{rank=...}`).
pub(crate) fn slow_consumer_conn(rank: usize) -> &'static Gauge {
    registry::gauge_labeled(
        "bd_slow_consumer_conn",
        "Connection id holding the rank-th largest send backlog at the latest broadcast",
        "rank",
        rank.to_string(),
    )
}

/// TCP transport metrics.
pub(crate) struct TcpMetrics {
    /// `bd_tcp_connections`
    pub connections: &'static Gauge,
    /// `bd_tcp_accepted_total`
    pub accepted: &'static Counter,
    /// `bd_tcp_writer_backlog`
    pub writer_backlog: &'static Histogram,
    /// `bd_tcp_coalesce_batch`
    pub coalesce_batch: &'static Histogram,
    /// `bd_tcp_bytes_total`
    pub bytes: &'static Counter,
    /// `bd_tcp_frames_dropped_total`
    pub frames_dropped: &'static Counter,
    /// `bd_tcp_disconnects_total`
    pub disconnects: &'static Counter,
}

pub(crate) fn tcp() -> &'static TcpMetrics {
    static M: OnceLock<TcpMetrics> = OnceLock::new();
    M.get_or_init(|| TcpMetrics {
        connections: registry::gauge(
            "bd_tcp_connections",
            "TCP broadcast connections currently registered",
        ),
        accepted: registry::counter(
            "bd_tcp_accepted_total",
            "TCP broadcast connections accepted since process start",
        ),
        writer_backlog: registry::histogram(
            "bd_tcp_writer_backlog",
            "Send-buffer backlog in frames of the slowest connection, once per broadcast",
            POW2_BOUNDS,
        ),
        coalesce_batch: registry::histogram(
            "bd_tcp_coalesce_batch",
            "Frames folded into one vectored write by a connection writer",
            POW2_BOUNDS,
        ),
        bytes: registry::counter(
            "bd_tcp_bytes_total",
            "Wire bytes enqueued to TCP connections",
        ),
        frames_dropped: registry::counter(
            "bd_tcp_frames_dropped_total",
            "Frames dropped at full TCP send buffers (DropNewest)",
        ),
        disconnects: registry::counter(
            "bd_tcp_disconnects_total",
            "TCP connections evicted as slow consumers or lost to write errors",
        ),
    })
}

/// Event-loop (epoll) transport metrics.
pub(crate) struct EventedMetrics {
    /// `bd_poll_wakeups_total`
    pub poll_wakeups: &'static Counter,
    /// `bd_partial_writes_total`
    pub partial_writes: &'static Counter,
    /// `bd_conn_slab_occupancy`
    pub slab_occupancy: &'static Gauge,
    /// `bd_writable_spurious_total`
    pub writable_spurious: &'static Counter,
}

pub(crate) fn evented() -> &'static EventedMetrics {
    static M: OnceLock<EventedMetrics> = OnceLock::new();
    M.get_or_init(|| EventedMetrics {
        poll_wakeups: registry::counter(
            "bd_poll_wakeups_total",
            "Readiness polls that returned at least one event to the evented transport",
        ),
        partial_writes: registry::counter(
            "bd_partial_writes_total",
            "Socket writes that accepted only part of the pending backlog (resumed by cursor)",
        ),
        slab_occupancy: registry::gauge(
            "bd_conn_slab_occupancy",
            "Connection slots currently occupied in the evented transport's slab",
        ),
        writable_spurious: registry::counter(
            "bd_writable_spurious_total",
            "Writable wakeups that found an empty backlog (interest disarmed too late)",
        ),
    })
}

/// Live-client metrics.
pub(crate) struct ClientMetrics {
    /// `bd_client_frames_seen_total`
    pub frames_seen: &'static Counter,
    /// `bd_client_finished_total`
    pub finished: &'static Counter,
}

pub(crate) fn client() -> &'static ClientMetrics {
    static M: OnceLock<ClientMetrics> = OnceLock::new();
    M.get_or_init(|| ClientMetrics {
        frames_seen: registry::counter(
            "bd_client_frames_seen_total",
            "Broadcast frames observed by live clients",
        ),
        finished: registry::counter(
            "bd_client_finished_total",
            "Live clients that completed their measured request quota",
        ),
    })
}

/// Loss-recovery metrics: wire damage detected, gaps observed, reconnects
/// survived, and how long recoveries waited for the next broadcast.
pub(crate) struct RecoveryMetrics {
    /// `bd_frames_corrupt_total`
    pub frames_corrupt: &'static Counter,
    /// `bd_reconnects_total`
    pub reconnects: &'static Counter,
    /// `bd_frame_gaps_total`
    pub gaps: &'static Counter,
    /// `bd_recovery_wait_slots`
    pub recovery_wait: &'static Histogram,
}

pub(crate) fn recovery() -> &'static RecoveryMetrics {
    static M: OnceLock<RecoveryMetrics> = OnceLock::new();
    M.get_or_init(|| RecoveryMetrics {
        frames_corrupt: registry::counter(
            "bd_frames_corrupt_total",
            "Frames discarded by receivers after CRC verification failed",
        ),
        reconnects: registry::counter(
            "bd_reconnects_total",
            "Client feed reconnects completed after a lost connection",
        ),
        gaps: registry::counter(
            "bd_frame_gaps_total",
            "Contiguous frame-sequence gaps detected by live clients",
        ),
        recovery_wait: registry::histogram(
            "bd_recovery_wait_slots",
            "Slots a client waited from a missed broadcast of a pending page \
             to the next periodic broadcast that recovered it",
            registry::RESPONSE_BOUNDS,
        ),
    })
}

/// Coded-repair metrics: repair symbols aired by the engine, decodes and
/// window churn on the client side, and how recoveries split between the
/// coded fast path and the periodic-wait fallback.
pub(crate) struct RepairMetrics {
    /// `bd_repair_slots_aired_total`
    pub slots_aired: &'static Counter,
    /// `bd_repair_symbols_decoded_total`
    pub symbols_decoded: &'static Counter,
    /// `bd_decode_window_evictions_total`
    pub window_evictions: &'static Counter,
    /// `bd_recovery_coded_total`
    pub recoveries_coded: &'static Counter,
    /// `bd_recovery_periodic_total`
    pub recoveries_periodic: &'static Counter,
}

pub(crate) fn repair() -> &'static RepairMetrics {
    static M: OnceLock<RepairMetrics> = OnceLock::new();
    M.get_or_init(|| RepairMetrics {
        slots_aired: registry::counter(
            "bd_repair_slots_aired_total",
            "Repair (parity/fountain) slots aired by the engine across all channels",
        ),
        symbols_decoded: registry::counter(
            "bd_repair_symbols_decoded_total",
            "Repair symbols that produced at least one decoded page at a live client",
        ),
        window_evictions: registry::counter(
            "bd_decode_window_evictions_total",
            "Decode-window entries or pending symbols aged out before they could help",
        ),
        recoveries_coded: registry::counter(
            "bd_recovery_coded_total",
            "Pending-page recoveries completed early from a decoded repair symbol",
        ),
        recoveries_periodic: registry::counter(
            "bd_recovery_periodic_total",
            "Pending-page recoveries that waited for the next periodic broadcast",
        ),
    })
}

/// Epoch / hot-swap metrics: where the plan clock stands, how many swaps
/// the engine has executed, and how much stale-epoch traffic clients are
/// discarding (nonzero only around a swap or a rejoin).
pub(crate) struct EpochMetrics {
    /// `bd_plan_epoch`
    pub plan_epoch: &'static Gauge,
    /// `bd_epoch_swaps_total`
    pub swaps: &'static Counter,
    /// `bd_epoch_fences_total`
    pub fences: &'static Counter,
    /// `bd_stale_epoch_frames_total`
    pub stale_frames: &'static Counter,
}

pub(crate) fn epoch_metrics() -> &'static EpochMetrics {
    static M: OnceLock<EpochMetrics> = OnceLock::new();
    M.get_or_init(|| EpochMetrics {
        plan_epoch: registry::gauge(
            "bd_plan_epoch",
            "Plan epoch currently on the air (0 until the first hot swap)",
        ),
        swaps: registry::counter(
            "bd_epoch_swaps_total",
            "Plan hot-swaps executed by the engine at cycle boundaries",
        ),
        fences: registry::counter(
            "bd_epoch_fences_total",
            "Epoch-fence marker ticks aired (announce + refresh)",
        ),
        stale_frames: registry::counter(
            "bd_stale_epoch_frames_total",
            "Frames discarded by live clients for carrying a non-current plan epoch",
        ),
    })
}

/// Hybrid push/pull metrics: the upstream request stream, the slot
/// arbiter's queue and service decisions, and user-perceived fairness
/// (per-user wait, not per-item — the "Be Fair to Users" objective).
pub(crate) struct PullMetrics {
    /// `bd_pull_requests_total`
    pub requests: &'static Counter,
    /// `bd_pull_requests_rejected_total`
    pub rejected: &'static Counter,
    /// `bd_pull_slots_total`
    pub slots: &'static Counter,
    /// `bd_pull_padding_slots_total`
    pub padding_slots: &'static Counter,
    /// `bd_pull_stolen_slots_total`
    pub stolen_slots: &'static Counter,
    /// `bd_pull_queue_depth`
    pub queue_depth: &'static Gauge,
    /// `bd_pull_wait_slots`
    pub wait: &'static Histogram,
    /// `bd_pull_user_max_wait_slots`
    pub user_max_wait: &'static Gauge,
}

pub(crate) fn pull() -> &'static PullMetrics {
    static M: OnceLock<PullMetrics> = OnceLock::new();
    M.get_or_init(|| PullMetrics {
        requests: registry::counter(
            "bd_pull_requests_total",
            "Upstream pull requests accepted into the slot arbiter's queue",
        ),
        rejected: registry::counter(
            "bd_pull_requests_rejected_total",
            "Upstream pull requests dropped (bad page, full queue, or already \
             satisfied by the periodic schedule)",
        ),
        slots: registry::counter(
            "bd_pull_slots_total",
            "On-demand pull airings substituted into the broadcast",
        ),
        padding_slots: registry::counter(
            "bd_pull_padding_slots_total",
            "Pull airings that filled empty padding slots (free bandwidth)",
        ),
        stolen_slots: registry::counter(
            "bd_pull_stolen_slots_total",
            "Pull airings that displaced a scheduled push slot (fixed-ratio or \
             adaptive stealing)",
        ),
        queue_depth: registry::gauge(
            "bd_pull_queue_depth",
            "Pull requests currently waiting in the slot arbiter (all channels)",
        ),
        wait: registry::histogram(
            "bd_pull_wait_slots",
            "Slots a pull request waited in the arbiter queue before its page aired",
            registry::RESPONSE_BOUNDS,
        ),
        user_max_wait: registry::gauge(
            "bd_pull_user_max_wait_slots",
            "Worst single-request pull wait observed for any user (slots)",
        ),
    })
}

/// Eagerly registers every broker metric (engine, bus, TCP, client, fault
/// injection, loss recovery) so a scrape of `/metrics` shows the full
/// inventory before traffic arrives. Idempotent; call when starting a
/// metrics server.
pub fn register_metrics() {
    let _ = engine();
    let _ = tcp();
    let _ = evented();
    let _ = client();
    let _ = stage();
    let _ = slots_by_channel(0);
    let _ = fanout_by_channel(0);
    let _ = fault_channel_counter(0);
    let _ = slow_consumer_lag(0);
    let _ = slow_consumer_conn(0);
    let _ = recovery();
    let _ = repair();
    let _ = epoch_metrics();
    let _ = pull();
    let _ = crate::faults::metrics();
}
