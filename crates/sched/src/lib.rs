//! # bdisk-sched — broadcast program generation
//!
//! Implements Section 2 of *Broadcast Disks* (Acharya et al., SIGMOD 1995):
//! the server-side algorithm that superimposes multiple "disks" spinning at
//! different speeds on a single broadcast channel.
//!
//! The central object is the [`BroadcastProgram`]: a periodic sequence of
//! page-broadcast slots. Programs are generated from a [`DiskLayout`] (how
//! many disks, how many pages on each, and each disk's integer relative
//! broadcast frequency) by the chunk-interleaving algorithm of Section 2.2,
//! which guarantees
//!
//! 1. **fixed inter-arrival times** for every page (no Bus Stop Paradox),
//! 2. a **well-defined period** after which the broadcast repeats, and
//! 3. maximal use of the available bandwidth subject to 1 and 2.
//!
//! Baseline generators for a *flat* program (every page once per cycle), a
//! *skewed* program (repeat broadcasts clustered back-to-back, program (b)
//! of Figure 2), and a *random* bandwidth-allocation program are provided
//! for the paper's comparisons.
//!
//! ## Example: the Figure 3 worked example
//!
//! ```
//! use bdisk_sched::{BroadcastProgram, DiskLayout, PageId};
//!
//! // Three disks holding 1, 2, and 8 pages, spinning at 4:2:1.
//! let layout = DiskLayout::new(vec![1, 2, 8], vec![4, 2, 1]).unwrap();
//! let program = BroadcastProgram::generate(&layout).unwrap();
//!
//! assert_eq!(program.period(), 16); // 4 minor cycles of 4 slots
//! assert_eq!(program.frequency(PageId(0)), 4); // hottest page, every minor cycle
//! assert_eq!(program.gap(PageId(0)), Some(4.0)); // evenly spaced
//! ```

#![warn(missing_docs)]

pub mod disk;
pub mod error;
pub mod generate;
pub mod index;
pub mod optimizer;
pub mod plan;
pub mod program;

pub use disk::DiskLayout;
pub use error::SchedError;
pub use generate::{flat_program, random_program, skewed_program};
pub use index::IndexedBroadcast;
pub use optimizer::{optimize_layout, sqrt_rule_bound, OptimizedLayout, OptimizerConfig};
pub use plan::{BroadcastPlan, ChannelId, ChannelStats, CodecKind, CodingConfig};
pub use program::{BroadcastProgram, CoverageWalker, PageId, RepairId, Slot};

/// Least common multiple of two positive integers.
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Greatest common divisor (Euclid).
pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    // The closed-form delay model through the crate's public API:
    // `BroadcastProgram::expected_delay`, `BroadcastPlan::expected_delay`
    // and `sqrt_rule_bound`.

    /// Page 0 aired twice per period, `a` then `b` slots apart; every
    /// other slot airs a page of its own.
    fn two_airings(a: u32, b: u32) -> BroadcastProgram {
        let slots = (0..a + b)
            .map(|i| match i {
                0 => PageId(0),
                i if i == a => PageId(0),
                i if i < a => PageId(i),
                i => PageId(i - 1),
            })
            .map(Slot::Page)
            .collect();
        BroadcastProgram::from_slots(slots, None, vec![]).unwrap()
    }

    /// The Bus Stop Paradox penalty of `page`: its expected delay minus
    /// the delay of the same number of evenly spaced airings.
    fn penalty(program: &BroadcastProgram, page: PageId) -> f64 {
        program.expected_delay(page)
            - program.period() as f64 / (2.0 * program.frequency(page) as f64)
    }

    #[test]
    fn flat_delay_is_half_period() {
        let p = flat_program(100).unwrap();
        for page in (0..100).step_by(7) {
            assert_eq!(p.expected_delay(PageId(page)), 50.0);
        }
    }

    #[test]
    fn multi_disk_delay_is_half_gap() {
        let layout = DiskLayout::new(vec![1, 2, 8], vec![4, 2, 1]).unwrap();
        let p = BroadcastProgram::generate(&layout).unwrap();
        assert_eq!(p.expected_delay(PageId(0)), 2.0); // gap 4
        assert_eq!(p.expected_delay(PageId(1)), 4.0); // gap 8
        assert_eq!(p.expected_delay(PageId(5)), 8.0); // gap 16
    }

    #[test]
    fn skewed_pays_bus_stop_penalty() {
        // Same bandwidth shares, different spacing: AABC vs ABAC.
        let skewed = skewed_program(&[2, 1, 1]).unwrap();
        let multi = two_airings(2, 2);
        assert_eq!(multi.render(), "A B A C");
        assert!(skewed.expected_delay(PageId(0)) > multi.expected_delay(PageId(0)));
        // B and C identical in both.
        assert_eq!(
            skewed.expected_delay(PageId(1)),
            multi.expected_delay(PageId(1))
        );
    }

    #[test]
    fn response_time_weights_by_probability() {
        let flat = BroadcastPlan::single(flat_program(3).unwrap());
        // Uniform: 1.5 regardless.
        assert!((flat.expected_delay(&[1.0 / 3.0; 3]) - 1.5).abs() < 1e-12);
        // All mass on one page: still 1.5 for a flat disk.
        assert_eq!(flat.expected_delay(&[1.0, 0.0, 0.0]), 1.5);
    }

    #[test]
    fn response_time_allows_partial_access_range() {
        // AccessRange < ServerDBSize: only the first two pages accessed.
        let flat = BroadcastPlan::single(flat_program(10).unwrap());
        assert_eq!(flat.expected_delay(&[0.5, 0.5]), 5.0);
    }

    #[test]
    fn bus_stop_penalty_zero_for_even_gaps() {
        assert_eq!(penalty(&two_airings(2, 2), PageId(0)), 0.0);
        // (1² + 3²)/(2·4) − 4/(2·2) = 1.25 − 1.0
        assert_eq!(penalty(&two_airings(1, 3), PageId(0)), 0.25);
    }

    #[test]
    fn penalty_grows_with_variance() {
        let p1 = penalty(&two_airings(19, 21), PageId(0));
        let p2 = penalty(&two_airings(10, 30), PageId(0));
        let p3 = penalty(&two_airings(1, 39), PageId(0));
        assert!(0.0 < p1 && p1 < p2 && p2 < p3, "{p1} {p2} {p3}");
    }

    #[test]
    fn sqrt_rule_bound_below_flat() {
        // For a skewed distribution the sqrt-rule bound beats a flat disk.
        let probs = [0.9, 0.05, 0.05];
        let flat = BroadcastPlan::single(flat_program(3).unwrap());
        assert!(sqrt_rule_bound(&probs, 1).unwrap() < flat.expected_delay(&probs));
        // For uniform access the bound equals the flat disk's performance.
        let bound_uni = sqrt_rule_bound(&[1.0 / 3.0; 3], 1).unwrap();
        assert!((bound_uni - 1.5).abs() < 1e-12);
    }

    #[test]
    fn analysis_summarizes() {
        let layout = DiskLayout::new(vec![1, 3], vec![2, 1]).unwrap();
        let p = BroadcastProgram::generate(&layout).unwrap();
        assert_eq!(p.period(), 6);
        assert_eq!(p.num_pages(), 4);
        assert_eq!(p.empty_slots(), 1);
        assert!((0..4).all(|q| p.gap(PageId(q)).is_some()));
        assert_eq!(p.expected_delay(PageId(0)), 1.5); // gap 3
    }

    #[test]
    fn analysis_flags_uneven_programs() {
        let p = skewed_program(&[2, 1]).unwrap();
        assert!((0..2).any(|q| p.gap(PageId(q)).is_none()));
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(7, 4), 28);
        assert_eq!(lcm(1, 1), 1);
    }
}
