//! Table 1: expected delay for the Figure 2 example programs, analytic and
//! simulated.

use bdisk_analytic::table1::{figure2_programs, table1, TABLE1_DISTRIBUTIONS};
use bdisk_sched::{BroadcastProgram, DiskLayout};
use bdisk_sim::{ClientModel, PolicyKind, SimConfig};
use bdisk_workload::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::Scale;

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
    let rng = StdRng::seed_from_u64(4242);
    ClientModel::with_workload(
        &cfg,
        &layout,
        program.clone(),
        probs,
        Mapping::identity(3),
        rng,
    )
    .expect("valid Table 1 cell")
    .run()
    .0
    .mean_response_time
}

/// Regenerates Table 1 and prints analytic vs simulated values.
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
    for (row, probs) in rows.iter().zip(TABLE1_DISTRIBUTIONS) {
        let sim_flat = simulate_cell(&flat, &probs, scale);
        let sim_skew = simulate_cell(&skewed, &probs, scale);
        let sim_multi = simulate_cell(&multi, &probs, scale);
        println!(
            "{:>6.3},{:>6.3},{:>6.3} | {:>6.2} {:>6.2} {:>6.2} | {:>7.2} {:>7.2} {:>7.2}",
            probs[0],
            probs[1],
            probs[2],
            row.flat,
            row.skewed,
            row.multi_disk,
            sim_flat,
            sim_skew,
            sim_multi
        );
    }
    println!("\n(analytic columns left; simulated '~' columns right)");
    println!("paper values: flat always 1.50; skewed 1.75→1.25; multi 1.67→1.00");
}
