//! What every workload shares: the repeat record, order statistics, the
//! digest fold, and the paper's D5 broadcast.

use bdisk_broker::{EventedTcpTransport, TcpTransportConfig};
use bdisk_sched::{BroadcastPlan, DiskLayout};

use crate::span::Tracer;

/// The paper's D5 disk sizes (5000 pages); with Δ=3 the relative
/// frequencies are 7:4:1.
pub const D5_SIZES: [usize; 3] = [500, 2000, 2500];
pub const D5_DELTA: u64 = 3;

/// Per-connection backlog bound for every broker workload: above the
/// longest fan-out repeat, so no frame is ever dropped for lack of room.
/// The one `TcpTransportConfig` field the ground rules let differ from its
/// default (flush cadence stays `max_coalesce` = 64 frames).
pub const QUEUE_CAPACITY: usize = 16_384;

pub fn d5_layout(delta: u64) -> DiskLayout {
    DiskLayout::with_delta(&D5_SIZES, delta).expect("D5 is a valid layout")
}

pub fn d5_plan() -> BroadcastPlan {
    BroadcastPlan::generate(&d5_layout(D5_DELTA), 1).expect("D5 generates")
}

pub fn bind() -> EventedTcpTransport {
    EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: QUEUE_CAPACITY,
        ..TcpTransportConfig::default()
    })
    .expect("bind 127.0.0.1:0")
}

/// One repeat of a workload: a fixed amount of work, set up, timed from
/// outside and verified.
#[derive(Default)]
pub struct Repeat {
    /// Wall seconds of the timed region only.
    pub timed_s: f64,
    /// Operations the timed region completed (the numerator of
    /// `throughput_per_s`).
    pub ops: u64,
    /// One latency sample (µs) per timed unit.
    pub latency_us: Vec<f64>,
    /// Operations checked, and how many of them failed a gate.
    pub attempted: u64,
    pub failed: u64,
    /// The workload's delay figure in broadcast units.
    pub delay_bu: f64,
    /// Fold of everything the program returned that must repeat exactly.
    pub digest: u64,
}

pub trait Workload {
    /// Runs one repeat. `tr` is off on the untraced pass.
    fn repeat(&mut self, tr: &mut Tracer) -> Repeat;
}

/// splitmix64 finalizer: the digest fold and the seed-derivation hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn fold(digest: &mut u64, v: u64) {
    *digest = mix(*digest ^ mix(v));
}

/// Nearest-rank percentile of `values`; `q` in [0, 1].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
