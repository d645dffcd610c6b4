//! Quickstart: build a broadcast disk, inspect it, and simulate a client.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use broadcast_disks::prelude::*;

fn main() {
    // 1. Partition 5000 pages into the paper's D5 configuration:
    //    a fast disk of 500 pages, a medium disk of 2000, a slow disk of
    //    2500, with Δ = 3 (relative speeds 7 : 4 : 1).
    let layout = DiskLayout::with_delta(&[500, 2000, 2500], 3).expect("valid layout");
    let program = BroadcastProgram::generate(&layout).expect("valid program");

    println!("broadcast disk D5 at Delta=3");
    println!("  disks:        {:?} pages", layout.sizes());
    println!("  rel. speeds:  {:?}", program.disk_frequencies());
    println!("  period:       {} slots", program.period());
    println!(
        "  waste:        {:.2}% of slots are padding",
        program.waste() * 100.0
    );

    // 2. Expected delay per disk, straight from the closed form.
    println!("\nexpected delay by disk (no cache):");
    for (disk, first_page) in [(0, 0u32), (1, 500), (2, 2500)] {
        println!(
            "  disk {}: {:.0} broadcast units",
            disk + 1,
            program.expected_delay(PageId(first_page))
        );
    }

    // 3. Simulate a client with a 500-page cache under two policies.
    println!("\nsimulating a client (cache 500 pages, 30% noise):");
    for policy in [PolicyKind::Lru, PolicyKind::Lix, PolicyKind::Pix] {
        let cfg = SimConfig {
            cache_size: 500,
            offset: 500,
            noise: 0.30,
            policy,
            requests: 5_000,
            warmup_requests: 1_000,
            ..SimConfig::default()
        };
        let out = simulate(&cfg, &layout, 7).expect("simulation runs");
        println!(
            "  {:>4}: mean response {:>7.1} bu, hit rate {:>4.1}%",
            policy.name(),
            out.mean_response_time,
            out.hit_rate * 100.0
        );
    }

    println!("\ncost-based caching (LIX/PIX) beats recency (LRU) on a broadcast disk.");
}
