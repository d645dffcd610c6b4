//! Table 1: expected delay of the three Figure 2 programs over a
//! three-page database — flat `A B C`, skewed `A A B C` and multi-disk
//! `A B A C` — under five access distributions, analytic and simulated.

use bdisk_sched::{
    flat_program, skewed_program, BroadcastPlan, BroadcastProgram, DiskLayout, PageId, Slot,
};
use bdisk_sim::{ClientModel, PolicyKind, SimConfig};
use bdisk_workload::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::Scale;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Access probabilities for pages A, B, C.
    pub probs: [f64; 3],
    /// Expected delay under the flat program `A B C`.
    pub flat: f64,
    /// Expected delay under the skewed program `A A B C`.
    pub skewed: f64,
    /// Expected delay under the multi-disk program `A B A C`.
    pub multi_disk: f64,
}

/// The three example programs of Figure 2.
pub fn figure2_programs() -> (BroadcastProgram, BroadcastProgram, BroadcastProgram) {
    let flat = flat_program(3).expect("3 pages");
    let skewed = skewed_program(&[2, 1, 1]).expect("valid copies");
    let slots = [0, 1, 0, 2].map(|p| Slot::Page(PageId(p))).to_vec();
    let multi = BroadcastProgram::from_slots(slots, None, vec![2, 1]).expect("valid slots");
    (flat, skewed, multi)
}

/// The five access-probability distributions used in Table 1.
pub const TABLE1_DISTRIBUTIONS: [[f64; 3]; 5] = [
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [0.50, 0.25, 0.25],
    [0.75, 0.125, 0.125],
    [0.90, 0.05, 0.05],
    [1.0, 0.0, 0.0],
];

/// The published Table 1: flat, skewed and multi-disk delay per
/// distribution, to two decimals.
pub const PUBLISHED: [[f64; 3]; 5] = [
    [1.50, 1.75, 1.67],
    [1.50, 1.63, 1.50],
    [1.50, 1.44, 1.25],
    [1.50, 1.33, 1.10],
    [1.50, 1.25, 1.00],
];

/// Regenerates Table 1 from the closed-form delay model.
pub fn table1() -> Vec<Table1Row> {
    let (flat, skewed, multi) = figure2_programs();
    let [flat, skewed, multi] = [flat, skewed, multi].map(BroadcastPlan::single);
    TABLE1_DISTRIBUTIONS
        .iter()
        .map(|&probs| Table1Row {
            probs,
            flat: flat.expected_delay(&probs),
            skewed: skewed.expected_delay(&probs),
            multi_disk: multi.expected_delay(&probs),
        })
        .collect()
}

/// Simulates one (program, distribution) cell of Table 1.
fn simulate_cell(program: &BroadcastProgram, probs: &[f64], scale: Scale) -> f64 {
    // A single flat "disk" of 3 pages is enough context for the baselines;
    // the cache holds one page, so replacement policy is irrelevant.
    let layout = DiskLayout::new(vec![3], vec![1]).expect("3-page disk");
    let cfg = SimConfig {
        access_range: 3,
        region_size: 1,
        // Table 1 measures raw broadcast delay for "a request arriving at
        // a random time": no retention at all, and think jitter spanning
        // many periods so request instants decorrelate from the previous
        // arrival (the programs are only 3–4 slots long).
        cache_size: 0,
        think_jitter: 50.0,
        policy: PolicyKind::P,
        requests: scale.requests() * 4, // cells are cheap; cut noise further
        warmup_requests: 100,
        think_time: 2.0,
        ..SimConfig::default()
    };
    let (mapping, rng) = (Mapping::identity(3), StdRng::seed_from_u64(4242));
    let model = ClientModel::with_workload(&cfg, &layout, program.clone(), probs, mapping, rng);
    model
        .expect("valid Table 1 cell")
        .run()
        .0
        .mean_response_time
}

/// Regenerates Table 1, prints analytic vs simulated values, and asserts
/// them against the paper and the paper's three points about the table.
pub fn run(scale: Scale) {
    println!("\n=== Table 1: Expected Delay (broadcast units) ===");
    println!("programs: flat = A B C | skewed = A A B C | multi-disk = A B A C\n");
    println!(
        "{:>22} | {:>6} {:>6} {:>6} | {:>7} {:>7} {:>7}",
        "P(A),P(B),P(C)", "flat", "skew", "multi", "flat~", "skew~", "multi~"
    );
    println!("{:->22}-+-{}-+-{}", "", "-".repeat(20), "-".repeat(23));

    let rows = table1();
    let (flat, skewed, multi) = figure2_programs();
    for (row, published) in rows.iter().zip(PUBLISHED) {
        let [pa, pb, pc] = row.probs;
        let analytic = [row.flat, row.skewed, row.multi_disk];
        let simulated = [&flat, &skewed, &multi].map(|p| simulate_cell(p, &row.probs, scale));
        let [a, b, c] = analytic.map(|d| format!("{d:>6.2}"));
        let [x, y, z] = simulated.map(|d| format!("{d:>7.2}"));
        println!("{pa:>6.3},{pb:>6.3},{pc:>6.3} | {a} {b} {c} | {x} {y} {z}");
        for ((a, s), p) in analytic.into_iter().zip(simulated).zip(published) {
            let ok = (a - p).abs() < 0.005 && (s - a).abs() < 0.03;
            assert!(ok, "analytic {a}, published {p}, simulated {s}: {row:?}");
        }
    }
    println!("\n(analytic columns left; simulated '~' columns right)");
    println!("paper values: flat always 1.50; skewed 1.75→1.25; multi 1.67→1.00");

    let uniform = &rows[0];
    assert!(
        uniform.flat < uniform.skewed && uniform.flat < uniform.multi_disk,
        "flat must be best at uniform access: {uniform:?}"
    );
    let multi_wins = rows.iter().all(|r| r.multi_disk < r.skewed);
    assert!(
        multi_wins,
        "multi-disk must beat skewed in every row: {rows:?}"
    );
    for w in rows.windows(2) {
        let falls = w[1].skewed <= w[0].skewed && w[1].multi_disk <= w[0].multi_disk;
        assert!(falls, "delay must fall as access skews: {w:?}");
    }
    println!(
        "\nacceptance: OK — every cell within 0.005 of the paper and 0.03 of simulation; \
         flat best at uniform, multi-disk < skewed everywhere, both fall with skew"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 0.005
    }

    #[test]
    fn matches_published_values() {
        let rows = table1();
        for (row, [f, s, m]) in rows.iter().zip(PUBLISHED) {
            assert!(
                close(row.flat, f),
                "flat {} vs {f} at {:?}",
                row.flat,
                row.probs
            );
            assert!(
                close(row.skewed, s),
                "skewed {} vs {s} at {:?}",
                row.skewed,
                row.probs
            );
            assert!(
                close(row.multi_disk, m),
                "multi {} vs {m} at {:?}",
                row.multi_disk,
                row.probs
            );
        }
    }

    #[test]
    fn point_one_flat_best_at_uniform() {
        // "for uniform page access probabilities, a flat disk has the best
        //  expected performance"
        let row = &table1()[0];
        assert!(row.flat < row.skewed);
        assert!(row.flat < row.multi_disk);
    }

    #[test]
    fn point_two_nonflat_wins_with_skew() {
        // "as the access probabilities become increasingly skewed, the
        //  non-flat programs perform increasingly better"
        let rows = table1();
        for row in &rows[2..] {
            assert!(row.multi_disk < row.flat, "probs {:?}", row.probs);
            assert!(row.skewed < row.flat, "probs {:?}", row.probs);
        }
        // And monotonically so.
        for w in rows.windows(2) {
            assert!(w[1].multi_disk <= w[0].multi_disk);
            assert!(w[1].skewed <= w[0].skewed);
        }
    }

    #[test]
    fn point_three_multi_disk_beats_skewed_everywhere() {
        // "the Multi-disk program always performs better than the skewed
        //  program" (Bus Stop Paradox)
        for row in table1() {
            assert!(row.multi_disk < row.skewed, "probs {:?}", row.probs);
        }
    }

    #[test]
    fn figure2_program_shapes() {
        let (flat, skewed, multi) = figure2_programs();
        assert_eq!(flat.render(), "A B C");
        assert_eq!(skewed.render(), "A A B C");
        assert_eq!(multi.render(), "A B A C");
    }
}
