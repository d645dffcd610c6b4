//! Broadcast program design studio: explore the knobs of Section 2.2.
//!
//! The paper closes asking for "concrete design principles for deciding how
//! many disks to use, what the best relative spinning speeds should be, and
//! how to segment the client access range across these disks" (Section 7).
//! This example walks that space for one workload: it sweeps disk counts
//! and Δ, reports the analytic expected delay of each candidate, runs the
//! automated optimizer, and validates the winner in simulation.
//!
//! ```text
//! cargo run --release --example program_designer
//! ```

use broadcast_disks::prelude::*;
use broadcast_disks::sched::{optimize_layout, sqrt_rule_bound, OptimizerConfig};

fn main() {
    // The paper's workload: 1000-page access range, region Zipf θ = 0.95,
    // over a 5000-page database (cold pages exist for other clients).
    let zipf = RegionZipf::new(1000, 50, 0.95);
    let mut probs = zipf.probs().to_vec();
    probs.resize(5000, 0.0);

    println!("workload: 1000 hot pages (region Zipf 0.95) in a 5000-page database\n");

    // --- Hand-designed candidates ---------------------------------------
    println!("hand-designed candidates (analytic expected delay, no cache):");
    println!(
        "{:>28} {:>8} {:>12} {:>9}",
        "layout", "Delta", "E[delay]", "waste%"
    );
    let candidates: [(&str, &[usize]); 4] = [
        ("D1 <500,4500>", &[500, 4500]),
        ("D3 <2500,2500>", &[2500, 2500]),
        ("D4 <300,1200,3500>", &[300, 1200, 3500]),
        ("D5 <500,2000,2500>", &[500, 2000, 2500]),
    ];
    for (name, sizes) in candidates {
        for delta in [2u64, 4] {
            let layout = DiskLayout::with_delta(sizes, delta).expect("valid");
            let program = BroadcastProgram::generate(&layout).expect("valid");
            let waste = program.waste() * 100.0;
            let delay = BroadcastPlan::single(program).expected_delay(&probs);
            println!("{name:>28} {delta:>8} {delay:>12.0} {waste:>8.2}%");
        }
    }

    // --- Theoretical floor ----------------------------------------------
    let bound = sqrt_rule_bound(&probs, 1).expect("valid weights");
    println!("\nsquare-root-rule lower bound (variance-free ideal): {bound:.0} bu");

    // --- Automated search -------------------------------------------------
    let best = optimize_layout(
        &probs,
        &OptimizerConfig {
            max_disks: 3,
            max_delta: 7,
            max_candidates: 40,
            max_channels: 1,
        },
    )
    .expect("optimizer runs");
    println!(
        "\noptimizer: {} disks, sizes {:?}, Delta={} -> E[delay] {:.0} bu",
        best.layout.num_disks(),
        best.layout.sizes(),
        best.delta,
        best.expected_delay
    );

    // --- Validate in simulation ------------------------------------------
    let cfg = SimConfig {
        cache_size: 1,
        requests: 10_000,
        warmup_requests: 500,
        ..SimConfig::default()
    };
    let sim = simulate(&cfg, &best.layout, 5).expect("simulation runs");
    println!(
        "simulated (no cache): {:.0} bu (analytic {:.0}; agreement {:.1}%)",
        sim.mean_response_time,
        best.expected_delay,
        100.0 * (1.0 - (sim.mean_response_time - best.expected_delay).abs() / best.expected_delay)
    );

    let flat = DiskLayout::with_delta(&[5000], 0).expect("flat");
    let flat_sim = simulate(&cfg, &flat, 5).expect("simulation runs");
    println!(
        "flat broadcast, same client: {:.0} bu -> the designed program is {:.1}x faster",
        flat_sim.mean_response_time,
        flat_sim.mean_response_time / sim.mean_response_time
    );
}
