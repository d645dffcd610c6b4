//! # bdisk-obs — live telemetry for the broadcast engine
//!
//! The rest of the workspace can now *run* a broadcast disk at tens of
//! thousands of slots per second; this crate makes a running broadcast
//! *observable* without slowing it down. Three pieces:
//!
//! * [`registry`] — a process-wide metrics registry of **sharded atomic
//!   counters**, gauges, and **fixed-bucket histograms**, registered once
//!   by static name. Recording is lock-free (one relaxed flag load plus an
//!   atomic add on a per-thread shard) and allocation-free, so the
//!   steady-state broadcast hot path stays zero-alloc with metrics enabled
//!   (`crates/broker/tests/alloc_free.rs` pins this).
//! * [`journal`](mod@journal) — a bounded **ring-buffer event journal** of structured
//!   events (slot tick, enqueue, drop, disconnect, cache admit/evict,
//!   backpressure stall) with monotone sequence numbers. Overflow is
//!   explicit — the oldest events are overwritten and a drop count is
//!   reported — and recording **never blocks** the broadcast.
//! * [`trace`] — **wait-attribution spans**: sampled client requests
//!   decomposed into broadcast/switch/loss/credit phases (with an exact
//!   conservation invariant) and sampled broker slots profiled into
//!   jitter/encode/enqueue/drain stage timers, recorded into a second
//!   seqlock ring with deterministic 1-in-N sampling
//!   ([`set_sample_every`]).
//! * [`http`] + [`expo`] — a snapshot sampler that renders the registry as
//!   Prometheus text exposition format (and as JSONL), served from a
//!   minimal `std::net` HTTP endpoint: `GET /metrics`,
//!   `GET /metrics/json`, `GET /events?since=seq`, and
//!   `GET /trace?since=seq`.
//!
//! ## Switches
//!
//! Two global switches gate the hot paths, both single relaxed atomic
//! loads:
//!
//! * [`metrics_enabled`] (default **on**) gates counter/gauge/histogram
//!   recording — the perf ledger measures fan-out with it on and off and
//!   records the delta as `obs.metrics_overhead_pct`;
//! * [`tracing_enabled`] (default **off**) gates event-journal recording —
//!   `repro trace` and `repro live --metrics-addr` turn it on.
//!
//! Neither switch may change *behavior*: the fan-out equivalence proptest
//! runs with tracing enabled and requires delivered frames to stay
//! bit-equal to the sequential path.

#![warn(missing_docs)]

pub mod expo;
pub mod http;
pub mod journal;
pub mod registry;
pub mod trace;

pub use expo::{render_jsonl, render_prometheus};
pub use http::MetricsServer;
pub use journal::{event, journal, Event, EventKind, Journal};
pub use registry::{
    counter, counter_labeled, gauge, gauge_labeled, histogram, Counter, Gauge, Histogram,
    HistogramSnapshot,
};
pub use trace::{attribute_wait, sample_every, set_sample_every, Span, SpanBatch, SpanKind};

use std::sync::atomic::{AtomicBool, Ordering};

static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);
static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);

/// True when metric recording is on (the default). A single relaxed load;
/// every [`Counter::add`], [`Gauge::set`], and [`Histogram::record`] checks
/// it first.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide. Registration and
/// snapshot/render paths are unaffected — a disabled registry still serves
/// its (frozen) values.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// True when event-journal recording is on (default off).
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// Turns event-journal recording on or off process-wide. Turning tracing on
/// lazily allocates the ring buffer once; recording itself never allocates.
pub fn set_tracing_enabled(on: bool) {
    if on {
        // Materialize the ring outside any hot path.
        let _ = journal::journal();
    }
    TRACING_ENABLED.store(on, Ordering::Relaxed);
}

/// Serializes tests that toggle or depend on the global switches, so the
/// default-parallel test runner can't interleave a disable with a record.
#[cfg(test)]
pub(crate) fn test_switch_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switches_toggle() {
        let _g = test_switch_guard();
        assert!(metrics_enabled(), "metrics default on");
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
        set_metrics_enabled(true);

        set_tracing_enabled(true);
        assert!(tracing_enabled());
        set_tracing_enabled(false);
        assert!(!tracing_enabled());
    }
}
