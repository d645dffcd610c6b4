//! Simulator telemetry: request throughput, response-time distribution,
//! and run-level progress.
//!
//! The per-request metrics are tallied inside [`crate::Measurements`], so
//! they cover every driver of [`crate::ClientCore`] — the simulator *and*
//! the live engine's clients — with one instrumentation point. They are
//! tallied per run without atomics and published once, when the run's
//! measurements are dropped (at [`crate::ClientCore::finish`] or
//! [`crate::Measurements::finish`]): the registry's totals after a run
//! are exact, but a run in progress has published nothing yet. Run-level
//! metrics (`bd_sim_runs_total`, `bd_sim_virtual_time`) are fed by
//! [`crate::simulate_program`] and its siblings.

use std::sync::OnceLock;

use bdisk_obs::registry::{self, Counter, Gauge, Histogram, HistogramBatch, RESPONSE_BOUNDS};

/// Simulator-layer metric handles.
pub(crate) struct SimMetrics {
    /// `bd_sim_requests_total`
    pub requests: &'static Counter,
    /// `bd_sim_response_time`
    pub response_time: &'static Histogram,
    /// `bd_sim_runs_total`
    pub runs: &'static Counter,
    /// `bd_sim_measured_requests_total`
    pub measured_requests: &'static Counter,
    /// `bd_sim_virtual_time`
    pub virtual_time: &'static Gauge,
}

pub(crate) fn metrics() -> &'static SimMetrics {
    static M: OnceLock<SimMetrics> = OnceLock::new();
    M.get_or_init(|| SimMetrics {
        requests: registry::counter(
            "bd_sim_requests_total",
            "Measured client requests recorded (simulated and live); published when each run ends",
        ),
        response_time: registry::histogram(
            "bd_sim_response_time",
            "Measured response times in broadcast units; published when each run ends",
            RESPONSE_BOUNDS,
        ),
        runs: registry::counter(
            "bd_sim_runs_total",
            "Completed discrete-event simulation runs",
        ),
        measured_requests: registry::counter(
            "bd_sim_measured_requests_total",
            "Requests measured by completed simulation runs",
        ),
        virtual_time: registry::gauge(
            "bd_sim_virtual_time",
            "Largest virtual end time reached by any completed run, in broadcast units",
        ),
    })
}

/// One run's per-request telemetry: response times (and with them the
/// request count) tallied locally, published to `bd_sim_response_time` and
/// `bd_sim_requests_total` when dropped. A clone starts empty, so each
/// request is published once.
#[derive(Debug, Clone)]
pub(crate) struct RunTelemetry(HistogramBatch);

impl RunTelemetry {
    pub(crate) fn new() -> Self {
        Self(HistogramBatch::new(metrics().response_time))
    }

    /// Tallies one measured request's response time.
    #[inline]
    pub(crate) fn record(&mut self, response: f64) {
        self.0.record(response as u64);
    }
}

impl Drop for RunTelemetry {
    fn drop(&mut self) {
        // The histogram half publishes itself when the field drops.
        metrics().requests.add(self.0.count());
    }
}

/// Eagerly registers the simulator metrics (idempotent); call when starting
/// a metrics server so `/metrics` shows the `bd_sim_*` family before
/// traffic.
pub fn register_metrics() {
    let _ = metrics();
}
