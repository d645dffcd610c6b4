//! Integration tests asserting the paper's headline claims end to end,
//! at reduced scale (seconds, not minutes).

use broadcast_disks::prelude::*;
use broadcast_disks::sched::{flat_program, random_program, skewed_program};
use broadcast_disks::sim::average_seeds;
use rand::SeedableRng;

/// Scaled-down D5: same 1:4:5 shape, 500 pages.
fn d5() -> [usize; 3] {
    [50, 200, 250]
}

fn cfg(policy: PolicyKind, cache: usize, offset: usize, noise: f64) -> SimConfig {
    SimConfig {
        access_range: 100,
        region_size: 5,
        cache_size: cache,
        offset,
        noise,
        policy,
        requests: 6_000,
        warmup_requests: 1_500,
        ..SimConfig::default()
    }
}

const SEEDS: [u64; 3] = [11, 22, 33];

#[test]
fn multi_disk_beats_flat_for_skewed_access_no_cache() {
    // Experiment 1: with skewed access and no cache, the multi-disk
    // program wins; the win grows with Delta up to a point.
    let flat = DiskLayout::with_delta(&d5(), 0).unwrap();
    let tuned = DiskLayout::with_delta(&d5(), 3).unwrap();
    let c = cfg(PolicyKind::Pix, 1, 0, 0.0);
    let flat_rt = average_seeds(&c, &flat, &SEEDS).unwrap().mean_response_time;
    let tuned_rt = average_seeds(&c, &tuned, &SEEDS)
        .unwrap()
        .mean_response_time;
    assert!(
        tuned_rt < flat_rt * 0.7,
        "tuned {tuned_rt} should clearly beat flat {flat_rt}"
    );
}

#[test]
fn bus_stop_paradox_shows_in_simulation() {
    // Fixed-spacing multi-disk beats both clustered and random programs of
    // identical bandwidth allocation.
    let copies: Vec<u64> = (0..500).map(|p| if p < 50 { 4 } else { 1 }).collect();
    let single = DiskLayout::new(vec![500], vec![1]).unwrap();
    let multi_layout = DiskLayout::new(vec![50, 450], vec![4, 1]).unwrap();

    let skewed = skewed_program(&copies).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let random = random_program(&copies, &mut rng).unwrap();
    let multi = BroadcastProgram::generate(&multi_layout).unwrap();

    let c = cfg(PolicyKind::Pix, 1, 0, 0.0);
    let rt = |layout: &DiskLayout, prog: BroadcastProgram| {
        broadcast_disks::sim::simulate_program(&c, layout, prog, 3)
            .unwrap()
            .mean_response_time
    };
    let rt_skew = rt(&single, skewed);
    let rt_rand = rt(&single, random);
    let rt_multi = rt(&multi_layout, multi);
    assert!(rt_multi < rt_rand, "multi {rt_multi} vs random {rt_rand}");
    assert!(rt_multi < rt_skew, "multi {rt_multi} vs skewed {rt_skew}");
}

#[test]
fn p_caching_is_noise_sensitive_pix_is_not() {
    // Experiments 3 & 4: under heavy noise, P degrades much more than PIX.
    let layout = DiskLayout::with_delta(&d5(), 3).unwrap();
    let run = |policy: PolicyKind, noise: f64| {
        average_seeds(&cfg(policy, 50, 50, noise), &layout, &SEEDS)
            .unwrap()
            .mean_response_time
    };
    let p_calm = run(PolicyKind::P, 0.0);
    let p_noisy = run(PolicyKind::P, 0.6);
    let pix_calm = run(PolicyKind::Pix, 0.0);
    let pix_noisy = run(PolicyKind::Pix, 0.6);

    // Both degrade with noise…
    assert!(p_noisy > p_calm);
    assert!(pix_noisy > pix_calm);
    // …but P degrades by more, and PIX stays strictly better under noise.
    assert!(
        pix_noisy < p_noisy,
        "pix {pix_noisy} must beat p {p_noisy} under noise"
    );
}

#[test]
fn pix_beats_p_via_cheaper_misses_not_hit_rate() {
    // Figure 11: PIX may have a *lower* hit rate than P yet win on response
    // time by avoiding the slowest disk.
    let layout = DiskLayout::with_delta(&d5(), 3).unwrap();
    let p = average_seeds(&cfg(PolicyKind::P, 50, 50, 0.3), &layout, &SEEDS).unwrap();
    let pix = average_seeds(&cfg(PolicyKind::Pix, 50, 50, 0.3), &layout, &SEEDS).unwrap();

    assert!(pix.mean_response_time < p.mean_response_time);
    // PIX fetches less from the slowest disk (last access bucket).
    let slow = |o: &broadcast_disks::sim::AveragedOutcome| *o.access_fractions.last().unwrap();
    assert!(
        slow(&pix) < slow(&p),
        "pix slow-disk share {} vs p {}",
        slow(&pix),
        slow(&p)
    );
}

#[test]
fn implementable_policy_ordering_lru_l_lix() {
    // Experiment 5 (Figures 13/15): LIX < L < LRU in response time at
    // Delta=3, Noise=30%.
    let layout = DiskLayout::with_delta(&d5(), 3).unwrap();
    let run = |policy: PolicyKind| {
        average_seeds(&cfg(policy, 50, 50, 0.3), &layout, &SEEDS)
            .unwrap()
            .mean_response_time
    };
    let lru = run(PolicyKind::Lru);
    let l = run(PolicyKind::L);
    let lix = run(PolicyKind::Lix);
    let pix = run(PolicyKind::Pix);
    assert!(lix < l, "LIX {lix} must beat L {l}");
    assert!(l < lru, "L {l} must beat LRU {lru}");
    assert!(pix < lix, "PIX {pix} is the lower bound for LIX {lix}");
}

#[test]
fn lix_fetches_less_from_slow_disk_than_lru() {
    // Figure 14's mechanism.
    let layout = DiskLayout::with_delta(&d5(), 3).unwrap();
    let lru = average_seeds(&cfg(PolicyKind::Lru, 50, 50, 0.3), &layout, &SEEDS).unwrap();
    let lix = average_seeds(&cfg(PolicyKind::Lix, 50, 50, 0.3), &layout, &SEEDS).unwrap();
    assert!(
        lix.access_fractions.last().unwrap() < lru.access_fractions.last().unwrap(),
        "lix {:?} vs lru {:?}",
        lix.access_fractions,
        lru.access_fractions
    );
}

#[test]
fn simulator_agrees_with_analytic_model() {
    // The simulator and the closed form must agree without caching.
    for delta in [0, 2, 5] {
        let layout = DiskLayout::with_delta(&d5(), delta).unwrap();
        let program = BroadcastProgram::generate(&layout).unwrap();
        let zipf = RegionZipf::new(100, 5, 0.95);
        let analytic = BroadcastPlan::single(program).expected_delay(zipf.probs());
        let sim = average_seeds(&cfg(PolicyKind::P, 1, 0, 0.0), &layout, &SEEDS).unwrap();
        let rel = (sim.mean_response_time - analytic).abs() / analytic;
        assert!(
            rel < 0.06,
            "delta {delta}: sim {} vs analytic {analytic}",
            sim.mean_response_time
        );
    }
}

#[test]
fn flat_disk_uniform_delay_for_all_pages() {
    // "With the flat broadcast, the expected wait for an item on the
    //  broadcast is the same for all items."
    let program = flat_program(200).unwrap();
    for p in (0..200).step_by(17) {
        assert_eq!(program.expected_delay(PageId(p)), 100.0);
    }
}
