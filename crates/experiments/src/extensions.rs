//! Extension experiments beyond the paper's evaluation:
//!
//! * `prefetch` — PT prefetching (paper §7 future work) vs demand PIX/LIX.
//! * `policies` — the full replacement-policy shoot-out, including the
//!   LRU-K and 2Q bases the paper suggests in Section 5.5.
//! * `design` — the automated broadcast-program designer (paper §7 asks
//!   for "concrete design principles").

use bdisk_cache::PolicyKind;
use bdisk_sched::{optimize_layout, BroadcastPlan, BroadcastProgram, DiskLayout, OptimizerConfig};
use bdisk_sim::{simulate_prefetch, SimConfig};
use bdisk_workload::RegionZipf;

use crate::common::{
    base_config, caching_config, layout, print_table, run_point, threads, write_csv, Scale, NOISES,
};

/// PT prefetching vs demand caching over noise (D5, Δ = 3).
///
/// Prefetching walks every broadcast slot, so it runs at a reduced request
/// count regardless of scale.
pub fn prefetch(scale: Scale) {
    let l = layout("D5", 3);
    let requests = match scale {
        Scale::Full => 4_000,
        Scale::Quick => 1_500,
    };

    let mut demand_pix = Vec::new();
    let mut demand_lix = Vec::new();
    let mut pt = Vec::new();
    for &noise in &NOISES {
        let cfg_pix = caching_config(scale, PolicyKind::Pix, noise);
        let cfg_lix = caching_config(scale, PolicyKind::Lix, noise);
        demand_pix.push(run_point(&cfg_pix, &l, scale).mean_response_time);
        demand_lix.push(run_point(&cfg_lix, &l, scale).mean_response_time);
        let cfg_pt = SimConfig {
            requests,
            ..cfg_pix.clone()
        };
        pt.push(
            simulate_prefetch(&cfg_pt, &l, 404)
                .expect("prefetch run")
                .mean_response_time,
        );
    }

    let xs: Vec<String> = NOISES
        .iter()
        .map(|n| format!("{}%", (n * 100.0) as u32))
        .collect();
    let series = vec![
        ("LIX".to_string(), demand_lix),
        ("PIX".to_string(), demand_pix),
        ("PT-pref".to_string(), pt),
    ];
    print_table(
        "Extension: PT prefetching vs demand caching (D5, CacheSize=500, Delta=3)",
        "Noise",
        &xs,
        &series,
    );
    write_csv("ext_prefetch.csv", "noise", &xs, &series);
}

/// Every policy (paper five + extensions) at the Figure 13 operating
/// point.
pub fn policies(scale: Scale) {
    let kinds: Vec<PolicyKind> = PolicyKind::ALL
        .into_iter()
        .chain(PolicyKind::EXTENSIONS)
        .collect();
    let l = layout("D5", 3);
    let results = bdisk_sim::sweep(kinds.clone(), threads(), |&kind| {
        let cfg = caching_config(scale, kind, 0.30);
        let out = run_point(&cfg, &l, scale);
        let p99 =
            out.per_seed.iter().map(|o| o.p99).sum::<f64>() / out.per_seed.len().max(1) as f64;
        (out.mean_response_time, out.hit_rate, p99)
    });

    println!("\n=== Extension: policy shoot-out (D5, CacheSize=500, Noise=30%, Delta=3) ===");
    println!(
        "{:>10}{:>14}{:>12}{:>12}{:>12}",
        "policy", "response", "hit rate", "p99", "idealized"
    );
    for (kind, (rt, hit, p99)) in kinds.iter().zip(&results) {
        println!(
            "{:>10}{:>14.1}{:>11.1}%{:>12.0}{:>12}",
            kind.name(),
            rt,
            hit * 100.0,
            p99,
            if kind.is_idealized() { "yes" } else { "no" }
        );
    }
    let xs: Vec<String> = kinds.iter().map(|k| k.name().to_string()).collect();
    let series = vec![
        (
            "response".to_string(),
            results.iter().map(|r| r.0).collect(),
        ),
        (
            "hit_rate".to_string(),
            results.iter().map(|r| r.1).collect(),
        ),
        ("p99".to_string(), results.iter().map(|r| r.2).collect()),
    ];
    write_csv("ext_policies.csv", "policy", &xs, &series);
}

/// The automated program designer against the paper's hand configurations.
pub fn design(scale: Scale) {
    let zipf = RegionZipf::paper_default();
    let mut probs = zipf.probs().to_vec();
    probs.resize(5000, 0.0);

    println!("\n=== Extension: automated broadcast-program design ===");
    println!("workload: paper default (AccessRange 1000, theta 0.95) in 5000 pages\n");

    println!(
        "{:>24}{:>8}{:>14}{:>14}",
        "layout", "Delta", "analytic", "simulated"
    );
    let cfg = base_config(scale);
    for (name, delta) in [("D4", 4u64), ("D5", 3)] {
        let l = layout(name, delta);
        let program = BroadcastProgram::generate(&l).expect("valid");
        let analytic = BroadcastPlan::single(program).expected_delay(&probs);
        let sim = run_point(&cfg, &l, scale).mean_response_time;
        println!(
            "{:>24}{:>8}{:>14.0}{:>14.1}",
            format!("{name}{:?}", l.sizes()),
            delta,
            analytic,
            sim
        );
    }

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
    let sim = run_point(&cfg, &best.layout, scale).mean_response_time;
    println!(
        "{:>24}{:>8}{:>14.0}{:>14.1}   <- optimizer",
        format!("opt{:?}", best.layout.sizes()),
        best.delta,
        best.expected_delay,
        sim
    );

    let flat = DiskLayout::with_delta(&[5000], 0).expect("flat");
    let sim_flat = run_point(&cfg, &flat, scale).mean_response_time;
    println!(
        "{:>24}{:>8}{:>14.0}{:>14.1}",
        "flat[5000]", 0, 2500.0, sim_flat
    );
}

/// Volatile data: response time and staleness vs update rate (paper §7
/// "what if the broadcast data changed from cycle to cycle?").
pub fn updates(scale: Scale) {
    use bdisk_sim::{simulate_volatile, StalenessStrategy, VolatileConfig};

    let l = layout("D5", 3);
    let mut cfg = caching_config(scale, PolicyKind::Pix, 0.0);
    if matches!(scale, Scale::Quick) {
        cfg.requests = cfg.requests.min(3_000);
    }

    let rates = [0.0f64, 10.0, 50.0, 200.0, 1000.0];
    println!("\n=== Extension: volatile data (D5, Delta=3, CacheSize=500, PIX) ===");
    println!(
        "{:>14}{:>14}{:>14}{:>14}{:>14}{:>12}",
        "updates/cycle", "inval resp", "drops", "stale resp", "stale reads", "overflow"
    );
    let mut xs = Vec::new();
    let mut inval_rt = Vec::new();
    let mut stale_rt = Vec::new();
    let mut stale_frac = Vec::new();
    for &rate in &rates {
        let inval = simulate_volatile(
            &cfg,
            &VolatileConfig {
                updates_per_cycle: rate,
                update_skew: 1.0,
                strategy: StalenessStrategy::Invalidate,
            },
            &l,
            606,
        )
        .expect("volatile run");
        let stale = simulate_volatile(
            &cfg,
            &VolatileConfig {
                updates_per_cycle: rate,
                update_skew: 1.0,
                strategy: StalenessStrategy::ServeStale,
            },
            &l,
            606,
        )
        .expect("volatile run");
        println!(
            "{:>14}{:>14.1}{:>14}{:>14.1}{:>13.1}%{:>12}",
            rate,
            inval.base.mean_response_time,
            inval.cache_drops,
            stale.base.mean_response_time,
            stale.stale_read_rate * 100.0,
            inval.overflow_cycles
        );
        xs.push(format!("{rate}"));
        inval_rt.push(inval.base.mean_response_time);
        stale_rt.push(stale.base.mean_response_time);
        stale_frac.push(stale.stale_read_rate);
    }
    let series = vec![
        ("invalidate_resp".to_string(), inval_rt),
        ("stale_resp".to_string(), stale_rt),
        ("stale_read_rate".to_string(), stale_frac),
    ];
    write_csv("ext_updates.csv", "updates_per_cycle", &xs, &series);
    println!("\nfreshness costs latency: invalidation turns update churn into refetch");
    println!("misses; serving stale keeps latency flat but stale reads grow with churn.");
    println!("note the cliff even at low rates: Offset=CacheSize parks the hot pages on");
    println!("the *slowest* disk precisely because they are cached — an invalidated hot");
    println!("page costs half the slow disk's gap to refetch. Volatile hot data wants a");
    println!("smaller Offset (or none), coupling the broadcast design to the update rate.");
}

/// (1, m) air indexing: the access-time / tuning-time tradeoff over m
/// (Section 2.2 "extra slots … can be used to broadcast indexes"; related
/// work \[Imie94b\]).
pub fn index(_scale: Scale) {
    use bdisk_sched::IndexedBroadcast;

    let l = layout("D5", 3);
    let program = BroadcastProgram::generate(&l).expect("valid program");
    let zipf = RegionZipf::paper_default();
    let mut probs = zipf.probs().to_vec();
    probs.resize(5000, 0.0);

    // A 4 KB page holds ~512 eight-byte (page, offset) entries.
    const ENTRIES_PER_SLOT: usize = 512;

    println!("\n=== Extension: (1,m) air indexing (D5, Delta=3, 512 entries/slot) ===");
    println!(
        "{:>6}{:>12}{:>14}{:>14}{:>14}",
        "m", "overhead", "access (bu)", "tuning (bu)", "doze fraction"
    );
    // Baseline: no index — the client listens from request to arrival.
    let no_index_access = BroadcastPlan::single(program.clone()).expected_delay(&probs) + 1.0;
    println!(
        "{:>6}{:>11.2}%{:>14.1}{:>14.1}{:>14}",
        "none", 0.0, no_index_access, no_index_access, "0%"
    );

    let mut xs = vec!["0".to_string()];
    let mut access_series = vec![no_index_access];
    let mut tuning_series = vec![no_index_access];
    for m in [1usize, 2, 4, 8, 16, 32] {
        let ib = IndexedBroadcast::new(program.clone(), m, ENTRIES_PER_SLOT).expect("valid index");
        let (access, tuning) = ib.expected_access_and_tuning(&probs);
        println!(
            "{:>6}{:>11.2}%{:>14.1}{:>14.1}{:>13.1}%",
            m,
            ib.overhead() * 100.0,
            access,
            tuning,
            (1.0 - tuning / access) * 100.0
        );
        xs.push(m.to_string());
        access_series.push(access);
        tuning_series.push(tuning);
    }
    let series = vec![
        ("access".to_string(), access_series),
        ("tuning".to_string(), tuning_series),
    ];
    write_csv("ext_index.csv", "m", &xs, &series);
    println!("\na battery-powered client dozes through ~99% of its wait for a small");
    println!("access-time premium; larger m cuts the probe wait but dilutes data bandwidth.");
}
