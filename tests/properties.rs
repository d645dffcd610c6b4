//! Property-based tests over the core invariants, spanning crates.

use broadcast_disks::cache::{build_policy, PolicyContext, PolicyKind};
use broadcast_disks::prelude::*;
use broadcast_disks::sched::{random_program, skewed_program};
use broadcast_disks::workload::AliasTable;
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy for a small but structurally diverse disk layout.
fn layout_strategy() -> impl Strategy<Value = DiskLayout> {
    (1usize..=4)
        .prop_flat_map(|n| (proptest::collection::vec(1usize..=40, n), 0u64..=7))
        .prop_map(|(sizes, delta)| DiskLayout::with_delta(&sizes, delta).expect("valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated program broadcasts page p exactly rel_freq(disk(p))
    /// times per period, evenly spaced.
    #[test]
    fn program_respects_frequencies(layout in layout_strategy()) {
        let program = BroadcastProgram::generate(&layout).unwrap();
        for p in 0..layout.total_pages() {
            let page = PageId(p as u32);
            prop_assert_eq!(program.frequency(page), layout.freq_of(page));
            prop_assert!(program.gap(page).is_some(), "page {} uneven", p);
        }
    }

    /// Period accounting: page slots + empty slots = period, and the period
    /// is max_chunks * minor_cycle as the algorithm specifies.
    #[test]
    fn program_period_accounting(layout in layout_strategy()) {
        let program = BroadcastProgram::generate(&layout).unwrap();
        let page_slots: u64 = (0..layout.total_pages())
            .map(|p| program.frequency(PageId(p as u32)))
            .sum();
        prop_assert_eq!(
            page_slots as usize + program.empty_slots(),
            program.period()
        );
    }

    /// next_arrival is sane for arbitrary request instants: never in the
    /// past, never more than one full gap away, and actually a broadcast
    /// instant of that page.
    #[test]
    fn next_arrival_is_correct(
        layout in layout_strategy(),
        t in 0.0f64..10_000.0,
        page_pick in 0usize..1000,
    ) {
        let program = BroadcastProgram::generate(&layout).unwrap();
        let page = PageId((page_pick % layout.total_pages()) as u32);
        let arrival = program.next_arrival(page, t);
        prop_assert!(arrival >= t);
        let gap = program.gap(page).unwrap();
        prop_assert!(arrival - t <= gap, "waited {} > gap {}", arrival - t, gap);
        // The arrival instant is on the page's schedule.
        let phase = arrival % program.period() as f64;
        let on_schedule = program
            .page_starts(page)
            .iter()
            .any(|&s| (s as f64 - phase).abs() < 1e-9);
        prop_assert!(on_schedule, "arrival {} not a broadcast of {}", arrival, page);
    }

    /// The offset+noise mapping stays a bijection for any parameters.
    #[test]
    fn mapping_is_always_bijective(
        layout in layout_strategy(),
        offset_frac in 0.0f64..1.0,
        noise in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let n = layout.total_pages();
        let offset = ((n as f64 * offset_frac) as usize).min(n - 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Mapping::build(&layout, offset, noise, &mut rng);
        let mut seen = vec![false; n];
        for l in 0..n {
            let p = m.to_physical(l);
            prop_assert!(!seen[p.index()]);
            seen[p.index()] = true;
            prop_assert_eq!(m.to_logical(p), l);
        }
    }

    /// All cache policies (the paper's five plus the LRU-K/2Q extensions)
    /// maintain len <= capacity, evict exactly when full, and never evict
    /// the page just inserted.
    #[test]
    fn policies_respect_capacity(
        kind_pick in 0usize..8,
        capacity in 1usize..20,
        ops in proptest::collection::vec(0u32..60, 1..300),
    ) {
        let kind = PolicyKind::ALL
            .into_iter()
            .chain(PolicyKind::EXTENSIONS)
            .nth(kind_pick)
            .unwrap();
        let ctx = PolicyContext {
            probs: (0..60).map(|i| 1.0 / (i + 1) as f64).collect(),
            page_disk: (0..60u16).map(|p| p % 3).collect(),
            disk_freqs: vec![4, 2, 1],
            alpha: 0.25,
        };
        let mut policy = build_policy(kind, capacity, &ctx);
        let mut resident = std::collections::HashSet::new();
        for (i, &page) in ops.iter().enumerate() {
            let now = i as f64;
            let page = PageId(page);
            if policy.contains(page) {
                prop_assert!(resident.contains(&page), "{kind}: phantom resident");
                policy.on_hit(page, now);
            } else {
                prop_assert!(!resident.contains(&page), "{kind}: lost resident");
                let victim = policy.insert(page, now);
                if let Some(v) = victim {
                    prop_assert_ne!(v, page, "{}: evicted the new page", kind);
                    prop_assert!(resident.remove(&v), "{}: evicted non-resident", kind);
                }
                resident.insert(page);
            }
            prop_assert_eq!(policy.len(), resident.len());
            prop_assert!(policy.len() <= capacity);
        }
    }

    /// The alias table is an exact partition of the weight mass: sampling
    /// never yields a zero-weight outcome.
    #[test]
    fn alias_never_samples_zero_weight(
        weights in proptest::collection::vec(0.0f64..10.0, 2..50),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = AliasTable::new(&weights);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = table.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "sampled zero-weight outcome {}", i);
        }
    }

    /// Region-Zipf probabilities are a valid, monotonically non-increasing
    /// distribution for any parameters.
    #[test]
    fn zipf_is_valid_distribution(
        access_range in 1usize..500,
        region_size in 1usize..60,
        theta in 0.0f64..2.0,
    ) {
        let z = RegionZipf::new(access_range, region_size, theta);
        let sum: f64 = z.probs().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        // Region *weights* are non-increasing (per-page probabilities can
        // tick up in a ragged final region that holds fewer pages).
        let region_weight = |j: usize| -> f64 {
            let start = j * region_size;
            let end = ((j + 1) * region_size).min(access_range);
            (start..end).map(|p| z.prob(p)).sum()
        };
        for j in 1..z.num_regions() {
            prop_assert!(
                region_weight(j) <= region_weight(j - 1) + 1e-12,
                "region {} hotter than region {}", j, j - 1
            );
        }
    }

    /// Expected delay of any program — multi-disk, skewed or random — is
    /// bounded by half the period, and from below by the even-spacing delay
    /// `period/(2·frequency)`, with equality exactly when the page's gaps
    /// are fixed (the Bus Stop Paradox).
    #[test]
    fn expected_delay_bounds(
        kind in 0u8..3,
        layout in layout_strategy(),
        copies in proptest::collection::vec(1u64..=4, 1..=24),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let program = match kind {
            0 => BroadcastProgram::generate(&layout).unwrap(),
            1 => skewed_program(&copies).unwrap(),
            _ => random_program(&copies, &mut rng).unwrap(),
        };
        let period = program.period() as f64;
        for p in 0..program.num_pages() as u32 {
            let page = PageId(p);
            let d = program.expected_delay(page);
            prop_assert!(d > 0.0);
            prop_assert!(d <= period / 2.0 + 1e-9);
            let even = period / (2.0 * program.frequency(page) as f64);
            if program.gap(page).is_some() {
                prop_assert!((d - even).abs() <= 1e-12 * even, "page {}: {} vs {}", p, d, even);
            } else {
                prop_assert!(d > even * (1.0 + 1e-12), "page {}: {} vs {}", p, d, even);
            }
        }
    }
}

/// The ragged-final-region case of `zipf_is_valid_distribution`, pinned:
/// 37 pages in regions of 2 leave a one-page last region, and θ = 0 gives
/// every region the same weight, so the ragged region must still weigh no
/// more than its predecessor.
#[test]
fn zipf_ragged_final_region_is_valid() {
    let (access_range, region_size) = (37, 2);
    let z = RegionZipf::new(access_range, region_size, 0.0);
    let sum: f64 = z.probs().iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    let region_weight = |j: usize| -> f64 {
        let start = j * region_size;
        let end = ((j + 1) * region_size).min(access_range);
        (start..end).map(|p| z.prob(p)).sum()
    };
    for j in 1..z.num_regions() {
        assert!(
            region_weight(j) <= region_weight(j - 1) + 1e-12,
            "region {} hotter than region {}",
            j,
            j - 1
        );
    }
}

/// Deterministic cross-crate check: a full simulation is reproducible and
/// its outcome fields are internally consistent.
#[test]
fn outcome_internal_consistency() {
    let layout = DiskLayout::with_delta(&[30, 120, 150], 3).unwrap();
    let cfg = SimConfig {
        access_range: 60,
        region_size: 5,
        cache_size: 20,
        offset: 20,
        noise: 0.3,
        policy: PolicyKind::Lix,
        requests: 2_000,
        warmup_requests: 300,
        ..SimConfig::default()
    };
    let out = simulate(&cfg, &layout, 17).unwrap();
    assert_eq!(out.measured_requests, 2_000);
    let sum: f64 = out.access_fractions.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    assert_eq!(out.access_fractions[0], out.hit_rate);
    assert!(out.p50 <= out.p95);
    assert!(out.mean_response_time >= 0.0);
    assert!(out.end_time > 0.0);
}
