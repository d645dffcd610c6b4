//! Stock ticker dissemination: the paper's "information dispersal systems
//! for volatile, time-sensitive information such as stock prices" scenario
//! (Section 1.1).
//!
//! A broadcast server pushes quotes for 2 000 symbols to a large population
//! of receive-only terminals. Symbol popularity is heavy-tailed (a few
//! indices and mega-caps dominate). We:
//!
//! 1. let the layout optimizer design the broadcast from the popularity
//!    distribution,
//! 2. compare it against a flat broadcast and a hand-tuned layout, and
//! 3. simulate three trader profiles with different portfolios to show the
//!    zero-sum tradeoff and how caching compensates.
//!
//! ```text
//! cargo run --release --example stock_ticker
//! ```

use broadcast_disks::prelude::*;
use broadcast_disks::sched::{flat_program, optimize_layout, OptimizerConfig};
use broadcast_disks::sim::{simulate_population, ClientSpec};

fn main() {
    const SYMBOLS: usize = 2_000;

    // Heavy-tailed symbol popularity: indices first, then by market cap.
    let mut popularity: Vec<f64> = (1..=SYMBOLS).map(|r| 1.0 / (r as f64).powf(1.1)).collect();
    let total: f64 = popularity.iter().sum();
    popularity.iter_mut().for_each(|p| *p /= total);

    // --- 1. Design the broadcast program ------------------------------
    let designed = optimize_layout(
        &popularity,
        &OptimizerConfig {
            max_disks: 3,
            max_delta: 7,
            max_candidates: 32,
            max_channels: 1,
        },
    )
    .expect("optimizer runs");
    println!(
        "optimizer chose {} disks at Delta={}",
        designed.layout.num_disks(),
        designed.delta
    );
    println!("  sizes: {:?}", designed.layout.sizes());
    println!(
        "  analytic expected delay: {:.0} bu",
        designed.expected_delay
    );

    // --- 2. Compare against baselines ----------------------------------
    let flat = flat_program(SYMBOLS).expect("flat program");
    let flat_delay = BroadcastPlan::single(flat).expected_delay(&popularity);
    let hand = DiskLayout::with_delta(&[200, 1800], 3).expect("hand layout");
    let hand_program = BroadcastProgram::generate(&hand).expect("hand program");
    let hand_delay = BroadcastPlan::single(hand_program).expected_delay(&popularity);

    println!("\nexpected delay for the average listener:");
    println!("  flat broadcast:    {:>7.0} bu", flat_delay);
    println!("  hand-tuned <200,1800> Δ3: {:>6.0} bu", hand_delay);
    println!("  optimized layout:  {:>7.0} bu", designed.expected_delay);

    // --- 3. Three trader profiles --------------------------------------
    // An index fund (tracks the hot head), a sector desk (mid-list), and a
    // small-cap specialist (deep tail). Each has a 100-quote cache.
    let base = SimConfig {
        access_range: 200,
        region_size: 10,
        theta: 0.9,
        cache_size: 100,
        policy: PolicyKind::Lix,
        requests: 5_000,
        warmup_requests: 1_000,
        ..SimConfig::default()
    };
    let profiles = [
        ("index fund (hot head)", 0usize),
        ("sector desk (mid list)", 800),
        ("small-cap specialist (tail)", 1_700),
    ];
    let specs: Vec<ClientSpec> = profiles
        .iter()
        .map(|&(_, start)| ClientSpec {
            interest_start: start,
            config: base.clone(),
            noise: 0.10,
        })
        .collect();

    let outcome = simulate_population(&designed.layout, &specs, 99, 3).expect("population runs");
    println!("\ntrader response times on the optimized broadcast (LIX caches):");
    for ((name, _), client) in profiles.iter().zip(&outcome.per_client) {
        println!(
            "  {:<28} {:>7.1} bu  (hit rate {:>4.1}%)",
            name,
            client.mean_response_time,
            client.hit_rate * 100.0
        );
    }
    println!(
        "\npopulation mean {:.1} bu; best {:.1}, worst {:.1} — the broadcast favors the head,",
        outcome.mean_response_time, outcome.best_response_time, outcome.worst_response_time
    );
    println!("and client caches are what keep the tail-focused trader usable.");
}
