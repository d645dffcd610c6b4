//! Steady-state measurements collected by the client model.

use bdesim::{BatchMeans, Counter, Histogram, RunningStats};

use crate::obs::RunTelemetry;

/// Where a request was satisfied (the breakdown of Figures 11 and 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessLocation {
    /// Served from the client cache.
    Cache,
    /// Waited on the broadcast for a page of this disk (0-based).
    Disk(usize),
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Mean response time over measured requests, in broadcast units.
    pub mean_response_time: f64,
    /// 95% batch-means half-width for the mean (when enough batches ran).
    pub ci_half_width: Option<f64>,
    /// Fraction of measured requests served from the cache.
    pub hit_rate: f64,
    /// Fraction of requests served from each location:
    /// index 0 = cache, 1 = disk 1 (fastest), …, N = disk N.
    pub access_fractions: Vec<f64>,
    /// Response-time median (bucketed to whole broadcast units).
    pub p50: f64,
    /// Response-time 95th percentile.
    pub p95: f64,
    /// Response-time 99th percentile (the tail the mean hides).
    pub p99: f64,
    /// Response-time 99.9th percentile (the extreme tail — where loss
    /// recovery and switch penalties live).
    pub p999: f64,
    /// Largest observed response time.
    pub max_response_time: f64,
    /// Requests measured after warm-up.
    pub measured_requests: u64,
    /// Virtual time at which measurement ended.
    pub end_time: f64,
}

/// Accumulates per-request observations during the measurement phase.
///
/// Public so out-of-crate drivers (the live broadcast engine) can collect
/// with the same machinery and merge client histograms into fleet-wide
/// percentiles.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Running response-time mean/variance.
    pub stats: RunningStats,
    /// Batch-means accumulator for the confidence interval.
    pub batches: BatchMeans,
    /// Unit-bucket response-time histogram (percentile queries).
    pub hist: Histogram,
    /// Access-location tally: bucket 0 = cache, 1.. = disks.
    pub locations: Counter,
    /// Registry telemetry for this run, published when dropped.
    telemetry: RunTelemetry,
}

impl Measurements {
    /// `num_disks` disks plus the cache bucket; histogram sized to hold a
    /// full broadcast period.
    pub fn new(num_disks: usize, batch_size: u64, max_wait: usize) -> Self {
        Self {
            stats: RunningStats::new(),
            batches: BatchMeans::new(batch_size),
            hist: Histogram::new(max_wait.max(1)),
            locations: Counter::new(num_disks + 1),
            telemetry: RunTelemetry::new(),
        }
    }

    /// Records one measured request.
    pub fn record(&mut self, response: f64, location: AccessLocation) {
        self.stats.record(response);
        self.batches.record(response);
        self.hist.record(response);
        match location {
            AccessLocation::Cache => self.locations.bump(0),
            AccessLocation::Disk(d) => self.locations.bump(d + 1),
        }
        self.telemetry.record(response);
    }

    /// Summarizes the run into a [`SimOutcome`] and publishes its
    /// telemetry.
    pub fn finish(self, end_time: f64) -> SimOutcome {
        let hit_rate = self.locations.fraction(0);
        SimOutcome {
            mean_response_time: self.stats.mean(),
            ci_half_width: self.batches.half_width_95(),
            hit_rate,
            access_fractions: self.locations.fractions(),
            p50: self.hist.quantile(0.5).unwrap_or(0.0),
            p95: self.hist.quantile(0.95).unwrap_or(0.0),
            p99: self.hist.quantile(0.99).unwrap_or(0.0),
            p999: self.hist.quantile(0.999).unwrap_or(0.0),
            max_response_time: self.stats.max().unwrap_or(0.0),
            measured_requests: self.stats.count(),
            end_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut m = Measurements::new(3, 2, 100);
        m.record(0.0, AccessLocation::Cache);
        m.record(10.0, AccessLocation::Disk(0));
        m.record(20.0, AccessLocation::Disk(2));
        m.record(30.0, AccessLocation::Disk(2));
        let out = m.finish(123.0);
        assert_eq!(out.measured_requests, 4);
        assert!((out.mean_response_time - 15.0).abs() < 1e-12);
        assert_eq!(out.hit_rate, 0.25);
        assert_eq!(out.access_fractions, vec![0.25, 0.25, 0.0, 0.5]);
        assert_eq!(out.max_response_time, 30.0);
        assert!(out.p50 <= out.p95 && out.p95 <= out.p99 && out.p99 <= out.p999);
        assert_eq!(out.p99, 30.0);
        assert_eq!(out.p999, 30.0);
        assert_eq!(out.end_time, 123.0);
        assert!(out.ci_half_width.is_some());
    }

    #[test]
    fn empty_measurements_are_safe() {
        let m = Measurements::new(2, 10, 50);
        let out = m.finish(0.0);
        assert_eq!(out.measured_requests, 0);
        assert_eq!(out.mean_response_time, 0.0);
        assert_eq!(out.hit_rate, 0.0);
        assert_eq!(out.ci_half_width, None);
    }
}
