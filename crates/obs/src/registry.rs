//! The lock-free metrics core: sharded counters, gauges, fixed-bucket
//! histograms, and the process-wide registry they live in.
//!
//! ## Hot-path contract
//!
//! Recording ([`Counter::add`], [`Gauge::set`], [`Histogram::record`]) is
//! one relaxed load of the global enable flag plus one or two atomic RMWs
//! on a **per-thread shard** — no locks, no allocation, no syscalls. All
//! storage is allocated once at registration time. Counters and histograms
//! are sharded [`SHARDS`] ways and each thread hashes to a fixed shard
//! (assigned on first use), so concurrent writers on different cores do
//! not bounce one cache line.
//!
//! ## Registration
//!
//! Metrics are registered by **static name** (plus an optional static
//! label key with an owned value, for small families like per-shard queue
//! depths) and live for the process lifetime (`&'static`). Registration is
//! idempotent: asking for an already-registered `(name, labels)` returns
//! the existing metric, so instrument sites can call the register function
//! from a `OnceLock` initializer — or repeatedly — without double counting.
//! Re-registering a name as a different metric kind panics.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::metrics_enabled;

/// Number of write shards per counter/histogram (power of two).
pub const SHARDS: usize = 8;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's shard index, assigned round-robin on first use.
#[inline]
fn shard_index() -> usize {
    THREAD_SHARD.with(|c| {
        let mut i = c.get();
        if i == usize::MAX {
            i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(i);
        }
        i & (SHARDS - 1)
    })
}

/// One cache line per shard so concurrent writers do not false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A monotone sharded counter.
pub struct Counter {
    shards: Box<[PaddedU64]>,
}

impl Counter {
    /// A standalone (unregistered) counter. Instrument sites normally use
    /// [`counter`]; this constructor exists for tests of the merge math.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| PaddedU64(AtomicU64::new(0))).collect(),
        }
    }

    /// Adds `n` to this thread's shard. Lock- and allocation-free.
    #[inline]
    pub fn add(&self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The summed value across shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-shard values, in shard order (for merge-property tests).
    pub fn shard_values(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .collect()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time signed gauge (single atomic; gauges are set by one
/// writer or are naturally last-write-wins).
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A standalone (unregistered) gauge.
    pub fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if !metrics_enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds to the gauge (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if !metrics_enabled() {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    #[inline]
    pub fn set_max(&self, v: i64) {
        if !metrics_enabled() {
            return;
        }
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

struct HistogramShard {
    /// One slot per bound plus the overflow (`+Inf`) bucket.
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A sharded histogram over fixed integer bucket upper bounds.
///
/// Buckets are `v <= bounds[i]` plus a final `+Inf` bucket; `record` does a
/// short linear scan (bounds are small, typically ≤ 16) and two atomic
/// adds on this thread's shard.
pub struct Histogram {
    bounds: &'static [u64],
    shards: Box<[HistogramShard]>,
}

/// Power-of-two bounds 1..=4096 — the default scale for queue depths,
/// batch sizes, and backlog counts.
pub const POW2_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Response-time bounds in broadcast units (slots), resolving the paper's
/// typical 0–3000-unit range.
pub const RESPONSE_BOUNDS: &[u64] = &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10_000];

impl Histogram {
    /// A standalone (unregistered) histogram over `bounds`, which must be
    /// non-empty and strictly increasing.
    pub fn with_bounds(bounds: &'static [u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let shards = (0..SHARDS)
            .map(|_| HistogramShard {
                counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })
            .collect();
        Self { bounds, shards }
    }

    /// Records one observation. Lock- and allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        let shard = &self.shards[shard_index()];
        shard.counts[bucket_of(self.bounds, v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a whole batch of observations at once — `batch`'s bucket
    /// counts, sum and count — as if each had gone through
    /// [`Histogram::record`]. One atomic add per non-empty bucket, so a
    /// hot loop can tally into a [`HistogramBatch`] and publish once.
    pub fn absorb(&self, batch: &HistogramSnapshot) {
        assert_eq!(self.bounds, batch.bounds, "absorbing mismatched histograms");
        if !metrics_enabled() || batch.count == 0 {
            return;
        }
        let shard = &self.shards[shard_index()];
        for (slot, &n) in shard.counts.iter().zip(&batch.counts) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        shard.sum.fetch_add(batch.sum, Ordering::Relaxed);
        shard.count.fetch_add(batch.count, Ordering::Relaxed);
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Snapshot of one shard (for merge-property tests).
    pub fn shard_snapshot(&self, shard: usize) -> HistogramSnapshot {
        let s = &self.shards[shard];
        HistogramSnapshot {
            bounds: self.bounds,
            counts: s.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: s.sum.load(Ordering::Relaxed),
            count: s.count.load(Ordering::Relaxed),
        }
    }

    /// Merged snapshot across all shards.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = self.shard_snapshot(0);
        for i in 1..SHARDS {
            out.merge(&self.shard_snapshot(i));
        }
        out
    }
}

/// A plain-data histogram state: per-bucket counts (including the final
/// `+Inf` bucket), the observation sum, and the observation count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (shared with the live histogram).
    pub bounds: &'static [u64],
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (last is +Inf).
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

/// The bucket `v` falls in: the first bound `>= v`, else the final `+Inf`
/// bucket.
#[inline]
fn bucket_of(bounds: &[u64], v: u64) -> usize {
    bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())
}

impl HistogramSnapshot {
    /// An empty histogram state over `bounds`.
    pub(crate) fn empty(bounds: &'static [u64]) -> Self {
        Self {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Records one observation into this plain (single-owner, non-atomic)
    /// state, bucketed exactly as [`Histogram::record`] buckets it.
    #[inline]
    pub(crate) fn record(&mut self, v: u64) {
        self.counts[bucket_of(self.bounds, v)] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Merges another snapshot of the same bounds into this one.
    /// Commutative and associative, so per-shard snapshots merge to the
    /// same result in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "merging mismatched histograms");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Observations tallied locally and published to a registered
/// [`Histogram`] in one [`Histogram::absorb`] when the batch is dropped.
///
/// For per-request instrumentation owned by one run (a client's
/// measurements, a cache policy): recording costs no atomics, and the
/// registry's totals after the run are exactly what per-observation
/// [`Histogram::record`] calls would have left. Cloning starts an empty
/// batch, so every observation is published once, by the batch that
/// recorded it.
pub struct HistogramBatch {
    target: &'static Histogram,
    local: HistogramSnapshot,
}

impl HistogramBatch {
    /// An empty batch that publishes to `target`.
    pub fn new(target: &'static Histogram) -> Self {
        Self {
            target,
            local: HistogramSnapshot::empty(target.bounds()),
        }
    }

    /// Tallies one observation (published when the batch is dropped).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.local.record(v);
    }

    /// Observations tallied and not yet published.
    pub fn count(&self) -> u64 {
        self.local.count
    }
}

impl std::fmt::Debug for HistogramBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramBatch")
            .field("local", &self.local)
            .finish_non_exhaustive()
    }
}

impl Clone for HistogramBatch {
    fn clone(&self) -> Self {
        Self::new(self.target)
    }
}

impl Drop for HistogramBatch {
    fn drop(&mut self) {
        self.target.absorb(&self.local);
    }
}

/// What a registered metric is.
#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    metric: Metric,
}

static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

fn register_metric(
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    make: impl FnOnce() -> Metric,
) -> Metric {
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    if let Some(e) = reg.iter().find(|e| e.name == name && e.labels == labels) {
        // Idempotent: a kind mismatch surfaces as a panic in the caller's
        // match on the returned variant.
        return e.metric;
    }
    let metric = make();
    reg.push(Entry {
        name,
        help,
        labels,
        metric,
    });
    metric
}

/// Registers (or returns the existing) counter `name`.
pub fn counter(name: &'static str, help: &'static str) -> &'static Counter {
    match register_metric(name, help, Vec::new(), || {
        Metric::Counter(Box::leak(Box::new(Counter::new())))
    }) {
        Metric::Counter(c) => c,
        _ => panic!("metric {name} already registered as a non-counter"),
    }
}

/// Registers (or returns the existing) counter `name{key="value"}`.
pub fn counter_labeled(
    name: &'static str,
    help: &'static str,
    key: &'static str,
    value: impl Into<String>,
) -> &'static Counter {
    match register_metric(name, help, vec![(key, value.into())], || {
        Metric::Counter(Box::leak(Box::new(Counter::new())))
    }) {
        Metric::Counter(c) => c,
        _ => panic!("metric {name} already registered as a non-counter"),
    }
}

/// Registers (or returns the existing) gauge `name`.
pub fn gauge(name: &'static str, help: &'static str) -> &'static Gauge {
    match register_metric(name, help, Vec::new(), || {
        Metric::Gauge(Box::leak(Box::new(Gauge::new())))
    }) {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name} already registered as a non-gauge"),
    }
}

/// Registers (or returns the existing) gauge `name{key="value"}`.
pub fn gauge_labeled(
    name: &'static str,
    help: &'static str,
    key: &'static str,
    value: impl Into<String>,
) -> &'static Gauge {
    match register_metric(name, help, vec![(key, value.into())], || {
        Metric::Gauge(Box::leak(Box::new(Gauge::new())))
    }) {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name} already registered as a non-gauge"),
    }
}

/// Registers (or returns the existing) histogram `name` over `bounds`.
pub fn histogram(
    name: &'static str,
    help: &'static str,
    bounds: &'static [u64],
) -> &'static Histogram {
    match register_metric(name, help, Vec::new(), || {
        Metric::Histogram(Box::leak(Box::new(Histogram::with_bounds(bounds))))
    }) {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name} already registered as a non-histogram"),
    }
}

/// A point-in-time value of one registered series.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One registered series, snapshotted.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Label pairs (possibly empty).
    pub labels: Vec<(&'static str, String)>,
    /// The value at snapshot time.
    pub value: SnapshotValue,
}

/// Snapshots every registered series, in registration order.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.iter()
        .map(|e| MetricSnapshot {
            name: e.name,
            help: e.help,
            labels: e.labels.clone(),
            value: match e.metric {
                Metric::Counter(c) => SnapshotValue::Counter(c.value()),
                Metric::Gauge(g) => SnapshotValue::Gauge(g.value()),
                Metric::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let _g = crate::test_switch_guard();
        let c = Counter::new();
        c.add(5);
        c.inc();
        assert_eq!(c.value(), 6);
        assert_eq!(c.shard_values().iter().sum::<u64>(), 6);
    }

    #[test]
    fn gauge_set_add_max() {
        let _g = crate::test_switch_guard();
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
        g.set_max(5);
        assert_eq!(g.value(), 7, "set_max never lowers");
        g.set_max(20);
        assert_eq!(g.value(), 20);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let _g = crate::test_switch_guard();
        static BOUNDS: &[u64] = &[1, 4, 16];
        let h = Histogram::with_bounds(BOUNDS);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2, 2]); // <=1, <=4, <=16, +Inf
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1045); // 0+1+2+4+5+16+17+1000
    }

    #[test]
    fn absorb_equals_per_observation_records() {
        let _g = crate::test_switch_guard();
        static BOUNDS: &[u64] = &[1, 4, 16];
        let values = [0, 1, 2, 4, 5, 16, 17, 1000, 3, 3];
        let one_by_one = Histogram::with_bounds(BOUNDS);
        let batched = Histogram::with_bounds(BOUNDS);
        let mut local = HistogramSnapshot::empty(BOUNDS);
        for v in values {
            one_by_one.record(v);
            local.record(v);
        }
        batched.absorb(&local);
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
    }

    #[test]
    fn batch_publishes_once_on_drop() {
        let _g = crate::test_switch_guard();
        let h = histogram("obs_test_batch", "test", &[1, 4, 16]);
        let before = h.snapshot();
        let mut batch = HistogramBatch::new(h);
        batch.record(3);
        batch.record(20);
        let copy = batch.clone();
        assert_eq!(copy.count(), 0, "a clone starts empty");
        drop(copy);
        assert_eq!(h.snapshot(), before, "nothing published before the drop");
        drop(batch);
        let after = h.snapshot();
        assert_eq!(after.count, before.count + 2);
        assert_eq!(after.sum, before.sum + 23);
        assert_eq!(after.counts[1], before.counts[1] + 1);
        assert_eq!(after.counts[3], before.counts[3] + 1);
    }

    #[test]
    fn registration_is_idempotent() {
        let _g = crate::test_switch_guard();
        let a = counter("obs_test_idem_total", "test");
        let b = counter("obs_test_idem_total", "test");
        assert!(std::ptr::eq(a, b), "same name must return same counter");
        a.inc();
        assert_eq!(b.value(), a.value());
    }

    #[test]
    fn labeled_series_are_distinct() {
        let _g = crate::test_switch_guard();
        let a = gauge_labeled("obs_test_labeled", "test", "shard", "0");
        let b = gauge_labeled("obs_test_labeled", "test", "shard", "1");
        assert!(!std::ptr::eq(a, b));
        a.set(1);
        b.set(2);
        let snaps: Vec<_> = snapshot()
            .into_iter()
            .filter(|s| s.name == "obs_test_labeled")
            .collect();
        assert_eq!(snaps.len(), 2);
    }

    #[test]
    fn disabled_metrics_freeze() {
        let _g = crate::test_switch_guard();
        let c = counter("obs_test_disable_total", "test");
        c.inc();
        let before = c.value();
        crate::set_metrics_enabled(false);
        c.inc();
        assert_eq!(c.value(), before, "disabled counter must not move");
        crate::set_metrics_enabled(true);
        c.inc();
        assert_eq!(c.value(), before + 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_bounds_rejected() {
        let _ = Histogram::with_bounds(&[4, 4]);
    }
}
