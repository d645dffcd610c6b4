//! # bdisk-sim — the Section 4 simulation model
//!
//! Reimplements the paper's CSIM-based simulator: "a single server that
//! continuously broadcasts pages and a single client that continuously
//! accesses pages from the broadcast and from its cache", measured in
//! broadcast units.
//!
//! The pieces:
//!
//! * [`SimConfig`] — Tables 2–4: `ThinkTime`, `CacheSize`, `AccessRange`,
//!   θ, `RegionSize`, `Offset`, `Noise`, replacement policy, request
//!   counts.
//! * [`ClientModel`] — the client process: draw a logical page from the
//!   region-Zipf distribution, map it to a physical page, probe the cache,
//!   wait on the broadcast on a miss, insert via the replacement policy,
//!   think, repeat. A plain loop over a virtual `f64` clock: the server
//!   is pure plan arithmetic, so there is nothing else to schedule.
//! * [`SimOutcome`] — steady-state response time (with a batch-means
//!   confidence interval), cache hit rate, and the access-location
//!   breakdown of Figures 11 and 14.
//! * [`runner`] — multi-seed averaging and parallel parameter sweeps for
//!   the experiment harness.
//!
//! ## Example
//!
//! ```
//! use bdisk_sched::DiskLayout;
//! use bdisk_sim::{simulate, PolicyKind, SimConfig};
//!
//! // A small D5-like configuration, PIX policy.
//! let layout = DiskLayout::with_delta(&[50, 200, 250], 3).unwrap();
//! let cfg = SimConfig {
//!     access_range: 100,
//!     region_size: 5,
//!     cache_size: 50,
//!     offset: 50,
//!     noise: 0.30,
//!     policy: PolicyKind::Pix,
//!     requests: 2_000,
//!     warmup_requests: 500,
//!     ..SimConfig::default()
//! };
//! let out = simulate(&cfg, &layout, 7).unwrap();
//! assert!(out.mean_response_time > 0.0);
//! assert!(out.hit_rate > 0.0 && out.hit_rate < 1.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod metrics;
pub mod model;
pub mod obs;
pub mod population;
pub mod prefetch;
pub mod runner;
pub mod volatile;

pub use bdisk_cache::PolicyKind;
pub use bdisk_workload::Mapping;
pub use config::{SimConfig, SimError};
pub use core::ClientCore;
pub use metrics::{AccessLocation, Measurements, SimOutcome};
pub use model::{simulate, simulate_plan, simulate_plan_traced, simulate_program, ClientModel};
pub use obs::register_metrics;
pub use population::{simulate_population, ClientSpec, PopulationOutcome};
pub use prefetch::simulate_prefetch;
pub use runner::{
    average_seeds, average_seeds_from_base, seeds_from_base, sweep, AveragedOutcome, SEED_STRIDE,
};
pub use volatile::{simulate_volatile, StalenessStrategy, VolatileConfig, VolatileOutcome};
