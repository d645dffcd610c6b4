//! # Broadcast Disks
//!
//! A complete reproduction of *"Broadcast Disks: Data Management for
//! Asymmetric Communication Environments"* (Acharya, Alonso, Franklin,
//! Zdonik — SIGMOD 1995) as a Rust workspace.
//!
//! This facade crate re-exports the public API of every subsystem:
//!
//! * [`sched`] — broadcast program generation (the multi-disk algorithm of
//!   Section 2, flat/skewed/random baselines, schedule queries) and the
//!   closed-form delay model (the Bus Stop Paradox, the square-root bound).
//! * [`cache`] — client cache replacement policies (P, PIX, LRU, L, LIX).
//! * [`workload`] — region-Zipf client access distributions and the
//!   Offset/Noise logical-to-physical mappings of Section 4.2.
//! * [`sim`] — the Section-4 simulation model (client/server processes,
//!   steady-state metrics, parameter sweeps).
//! * [`desim`] — a discrete-event kernel and the statistics collectors
//!   (running moments, histograms, batch means) the simulator measures
//!   with; the simulator itself drives its client with a plain loop.
//!
//! ## Quickstart
//!
//! ```
//! use broadcast_disks::prelude::*;
//!
//! // Three-disk configuration D5 = <500, 2000, 2500> at Delta = 3.
//! let disks = DiskLayout::with_delta(&[500, 2000, 2500], 3).unwrap();
//! let program = BroadcastProgram::generate(&disks).unwrap();
//!
//! // The fastest disk spins 7x the slowest: rel_freq(i) = (N - i)·Δ + 1.
//! assert_eq!(program.disk_frequencies(), &[7, 4, 1]);
//!
//! // Simulate a cache-less client (Experiment 1 point).
//! let cfg = SimConfig {
//!     cache_size: 1,
//!     noise: 0.0,
//!     offset: 0,
//!     policy: PolicyKind::Pix,
//!     requests: 5_000,
//!     ..SimConfig::default()
//! };
//! let outcome = simulate(&cfg, &disks, 42).unwrap();
//! assert!(outcome.mean_response_time > 0.0);
//! ```

pub use bdesim as desim;
pub use bdisk_cache as cache;
pub use bdisk_sched as sched;
pub use bdisk_sim as sim;
pub use bdisk_workload as workload;

/// One-stop imports for application code and the examples.
pub mod prelude {
    pub use bdisk_cache::{CachePolicy, PolicyKind};
    pub use bdisk_sched::{BroadcastPlan, BroadcastProgram, DiskLayout, PageId, Slot};
    pub use bdisk_sim::{simulate, AccessLocation, SimConfig, SimOutcome};
    pub use bdisk_workload::{Mapping, RegionZipf};
}
