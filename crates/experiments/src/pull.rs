//! `repro pull` — hybrid push/pull: the slot arbiter under a Zipf skew
//! sweep, plus a pull-enabled live-vs-sim parity stage.
//!
//! The paper's broadcast disk is pure push: a client that wants a
//! slow-disk page waits for its periodic airing, which at Δ = 3 on D5 can
//! be most of a ~14 000-slot period away. The upstream backchannel turns
//! that tail into a request: the server's [`SlotArbiter`] services queued
//! pulls from `Slot::Empty` padding first (free bandwidth), and — in the
//! stealing modes — displaces a paced fraction of scheduled data slots.
//!
//! Stages:
//!
//! 1. **Skew × mode sweep** (deterministic lockstep, real arbiter): a
//!    population of cache-less users with rotated interest regions (user
//!    `u`'s hot region sits `u · DB/n` pages deep, so low-offset users
//!    love the fast disk and high-offset users live on the slow one)
//!    drives one broadcast channel through the real [`SlotArbiter`] in
//!    push-only, fixed-ratio, and adaptive modes, across Zipf θ. Per
//!    point the harness reports the mean wait, the **cold-page p99 wait**
//!    (pages on the slowest disk — the tail push cannot move), and the
//!    **worst-user stretch** (per-user mean wait over that user's
//!    analytic expected delay `plan.expected_delay(probs_u)` — the
//!    fairness lens: a stretch of 1 means the broadcast serves you as
//!    well as the schedule promises a random arrival). The run asserts
//!    in-process, at every swept θ, that **adaptive strictly improves
//!    both the cold-page p99 wait and the worst-user stretch over
//!    push-only** — the PR's acceptance bar.
//!
//! 2. **Pull-enabled live parity** (lockstep wire roundtrip): a single
//!    [`LiveClient`] with the backchannel armed, fed frames that cross
//!    the real encode/decode path (pull airings carry the CRC-bound
//!    channel flag), its requests routed into a padding-fill arbiter —
//!    against `simulate_plan` with [`SimConfig::pull`] on. The simulator
//!    predicts pull service with pure plan arithmetic
//!    (`next_padding_arrival` at `max(⌈t⌉+1, min_seq)`); the live client
//!    must match it **bit-exactly**, on both a 1-channel plan and a
//!    2-channel plan with a retune penalty.
//!
//! Artifact: `results/pull.csv`. The stdout witnesses CI greps for,
//! `acceptance: OK` and `parity: EXACT`, print only after the asserts
//! above pass.

use bdisk_broker::{
    Frame, LiveClient, PagePayloads, PullConfig, PullMode, PullRequest, SlotArbiter,
};
use bdisk_cache::PolicyKind;
use bdisk_sched::{BroadcastPlan, ChannelId, DiskLayout, PageId, Slot};
use bdisk_sim::{simulate_plan, SimConfig};
use bdisk_workload::{AccessGenerator, Mapping, RegionZipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, Scale};
use crate::live::{linger, start_metrics, LiveOptions};

/// Bit-identical tolerance for the pull-enabled live parity stage.
const PARITY_TOLERANCE: f64 = 1e-9;

/// Broadcast units between a user's completed request and its next.
const THINK: u64 = 2;

/// Zipf θ values swept per scale.
fn thetas(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Full => &[0.25, 0.50, 0.75, 0.95, 1.15],
        Scale::Quick => &[0.50, 0.95],
    }
}

/// Users in the lockstep sweep population.
fn sweep_users(scale: Scale) -> usize {
    match scale {
        Scale::Full => 16,
        Scale::Quick => 8,
    }
}

/// Completed requests measured per user per point.
fn requests_per_user(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 600,
        Scale::Quick => 200,
    }
}

/// The three arbitration modes the sweep compares. `None` is push-only
/// (no arbiter at all — the exact pre-pull engine path).
fn modes(users: usize) -> [(&'static str, Option<PullMode>); 3] {
    [
        ("push", None),
        ("fixed", Some(PullMode::FixedRatio(0.15))),
        (
            "adaptive",
            Some(PullMode::Adaptive {
                max_ratio: 0.4,
                depth_target: users,
            }),
        ),
    ]
}

/// One lockstep user: a cache-less think-time request loop over a
/// rotated interest region.
struct SweepUser {
    gen: AccessGenerator,
    rng: StdRng,
    /// Physical access probabilities (for the analytic stretch basis).
    expected_delay: f64,
    /// Tick at which the next request is due.
    next_due: u64,
    /// In-flight request: `(page, requested_at)`.
    pending: Option<(PageId, u64)>,
    /// Completed waits, in slots, tagged cold (slowest disk) or not.
    waits: Vec<(u64, bool)>,
    target: u64,
}

impl SweepUser {
    fn done(&self) -> bool {
        self.waits.len() as u64 >= self.target
    }
}

/// One sweep point's outcome.
struct PointOutcome {
    mean_wait: f64,
    cold_p99: u64,
    worst_stretch: f64,
    pull_slots: u64,
    padding_slots: u64,
    stolen_slots: u64,
    satisfied_by_push: u64,
    rejected: u64,
}

/// Runs one (θ, mode) population through the lockstep arbiter driver.
///
/// Per tick `t`: the channel's scheduled slot is arbitrated and
/// "broadcast"; every user waiting on the aired page completes (a pull
/// airing delivers exactly like a push airing); then users whose think
/// time expired issue their next request, which reaches the arbiter with
/// `last_aired = t` — the same cadence the engine's per-tick drain gives
/// real upstream traffic, making `t + 1` the earliest serviceable slot.
fn sweep_point(
    scale: Scale,
    theta: f64,
    mode: Option<PullMode>,
    layout: &DiskLayout,
    plan: &BroadcastPlan,
) -> PointOutcome {
    let n = sweep_users(scale);
    let total = layout.total_pages();
    let zipf = RegionZipf::new(1000, 50, theta);
    let slowest = layout.num_disks() - 1;
    let mut users: Vec<SweepUser> = (0..n)
        .map(|u| {
            // Rotated interest regions: user u's logical page 0 maps
            // u·DB/n pages deep, so the population disagrees about which
            // disk is "hot" — the fairness stress pull is meant to fix.
            let mapping = Mapping::with_offset(total, u * total / n);
            let mut probs = mapping.physical_probs(zipf.probs());
            probs.resize(total, 0.0);
            SweepUser {
                gen: AccessGenerator::from_probs(zipf.probs(), mapping),
                rng: StdRng::seed_from_u64(common::context().base_seed ^ (u as u64) << 17),
                expected_delay: plan.expected_delay(&probs),
                next_due: 0,
                pending: None,
                waits: Vec::new(),
                target: requests_per_user(scale),
            }
        })
        .collect();

    let mut arbiter = mode.map(|mode| {
        SlotArbiter::new(
            PullConfig {
                mode,
                max_queue: n * 4,
            },
            1,
        )
    });

    let mut t = 0u64;
    while users.iter().any(|u| !u.done()) {
        let scheduled = plan.slot_at(ChannelId(0), t);
        let slot = match arbiter.as_mut() {
            Some(a) => a.arbitrate(scheduled, ChannelId(0), t),
            None => scheduled,
        };
        for user in users.iter_mut() {
            if let Some((page, requested_at)) = user.pending {
                if (slot == Slot::Page(page) || slot == Slot::Pull(page)) && requested_at < t {
                    user.waits
                        .push((t - requested_at, plan.disk_of(page) == slowest));
                    user.pending = None;
                    user.next_due = t + THINK;
                }
            }
        }
        for (u, user) in users.iter_mut().enumerate() {
            if user.pending.is_none() && !user.done() && user.next_due <= t {
                let page = user.gen.next_request(&mut user.rng);
                user.pending = Some((page, t));
                if let Some(a) = arbiter.as_mut() {
                    a.submit(
                        PullRequest {
                            user: u as u32,
                            page,
                            min_seq: t,
                        },
                        plan,
                        0,
                        t,
                    );
                }
            }
        }
        t += 1;
        assert!(t < 200_000_000, "lockstep sweep failed to converge");
    }

    let mut cold: Vec<u64> = users
        .iter()
        .flat_map(|u| u.waits.iter().filter(|(_, c)| *c).map(|(w, _)| *w))
        .collect();
    let all: Vec<u64> = users
        .iter()
        .flat_map(|u| u.waits.iter().map(|(w, _)| *w))
        .collect();
    let mean_wait = all.iter().sum::<u64>() as f64 / all.len().max(1) as f64;
    let worst_stretch = users
        .iter()
        .map(|u| {
            let mean = u.waits.iter().map(|(w, _)| *w).sum::<u64>() as f64 / u.target as f64;
            mean / u.expected_delay
        })
        .fold(0.0f64, f64::max);
    let stats = arbiter.map(|a| a.stats()).unwrap_or_default();
    PointOutcome {
        mean_wait,
        cold_p99: common::percentile(&mut cold, 0.99),
        worst_stretch,
        pull_slots: stats.pull_slots,
        padding_slots: stats.padding_slots,
        stolen_slots: stats.stolen_slots,
        satisfied_by_push: stats.satisfied_by_push,
        rejected: stats.rejected,
    }
}

/// Runs the sweep, the acceptance assertions, the parity stage, and the
/// artifacts.
pub fn run(scale: Scale, opts: &LiveOptions) {
    let server = start_metrics(opts);
    let layout = common::layout("D5", 3);
    let plan = BroadcastPlan::generate(&layout, 1).expect("paper layout is valid");
    assert!(
        plan.next_padding_arrival(ChannelId(0), 0.0).is_some(),
        "D5/Δ3 must schedule padding slots for padding-fill to bite"
    );
    let n = sweep_users(scale);
    let modes = modes(n);

    println!(
        "\n=== pull: slot arbiter, D5, Delta=3, 1 channel, {n} users × {} requests, \
         cold = disk {} pages ===",
        requests_per_user(scale),
        layout.num_disks() - 1,
    );
    println!("{}", plan.summary());

    // outcomes[theta][mode].
    let outcomes: Vec<Vec<PointOutcome>> = thetas(scale)
        .iter()
        .map(|&theta| {
            modes
                .iter()
                .map(|&(name, mode)| {
                    let o = sweep_point(scale, theta, mode, &layout, &plan);
                    println!(
                        "  θ {theta:>4.2} {name:>8}: mean wait {:>7.1}  cold p99 {:>6}  \
                         worst stretch {:>5.2}  (pull {} = {} padding + {} stolen, \
                         {} push-satisfied, {} rejected)",
                        o.mean_wait,
                        o.cold_p99,
                        o.worst_stretch,
                        o.pull_slots,
                        o.padding_slots,
                        o.stolen_slots,
                        o.satisfied_by_push,
                        o.rejected,
                    );
                    o
                })
                .collect()
        })
        .collect();

    // The acceptance bar: at every swept skew, adaptive pull strictly
    // improves both the cold-page tail and the worst user's stretch over
    // the pure-push schedule.
    for (theta, per_mode) in thetas(scale).iter().zip(&outcomes) {
        let push = &per_mode[0];
        let adaptive = &per_mode[2];
        assert!(
            adaptive.cold_p99 < push.cold_p99,
            "θ {theta}: adaptive cold p99 {} must beat push-only {}",
            adaptive.cold_p99,
            push.cold_p99
        );
        assert!(
            adaptive.worst_stretch < push.worst_stretch,
            "θ {theta}: adaptive worst stretch {} must beat push-only {}",
            adaptive.worst_stretch,
            push.worst_stretch
        );
        assert_eq!(push.pull_slots, 0, "push-only must never air a pull slot");
        assert!(
            adaptive.pull_slots > 0,
            "θ {theta}: adaptive never serviced a pull — the sweep is vacuous"
        );
    }
    println!(
        "\nacceptance: OK — adaptive < push-only on cold-page p99 wait and worst-user \
         stretch at every θ"
    );

    let xs: Vec<String> = thetas(scale).iter().map(|t| format!("{t:.2}")).collect();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for (m, &(name, _)) in modes.iter().enumerate() {
        let coldp99: Vec<f64> = outcomes.iter().map(|o| o[m].cold_p99 as f64).collect();
        table.push((format!("{name}_coldp99"), coldp99.clone()));
        series.push((format!("{name}_coldp99"), coldp99));
        series.push((
            format!("{name}_meanwait"),
            outcomes.iter().map(|o| o[m].mean_wait).collect(),
        ));
        series.push((
            format!("{name}_stretch"),
            outcomes.iter().map(|o| o[m].worst_stretch).collect(),
        ));
        series.push((
            format!("{name}_pullslots"),
            outcomes.iter().map(|o| o[m].pull_slots as f64).collect(),
        ));
    }
    common::print_table(
        "cold-page p99 wait vs Zipf θ (lockstep arbiter, D5, Δ3)",
        "theta",
        &xs,
        &table,
    );
    common::write_csv_with_comments(
        "pull.csv",
        "theta",
        &xs,
        &series,
        &[format!(
            "users={n} requests_per_user={} modes=push,fixed,adaptive",
            requests_per_user(scale)
        )],
    );

    // --- pull-enabled live parity: 1 channel, then 2 channels + retune ---
    for (channels, switch_slots) in [(1usize, 0.0f64), (2, 3.0)] {
        parity(scale, opts, &layout, channels, switch_slots);
    }

    linger(server, opts.serve_secs);
}

/// The pull-enabled live parity stage: one [`LiveClient`] with the
/// backchannel armed, lockstep with a padding-fill arbiter, every frame
/// crossing the real wire encode/decode.
///
/// Per tick `t`: every channel's slot is arbitrated at seq `t`, encoded,
/// decoded, and handed to the client; then the client's freshly issued
/// requests are submitted with `last_aired = t` — so `t + 1` is the
/// earliest slot a pull can air on, exactly the lower bound both the
/// client's trace anchor and the simulator's mirror assume.
fn parity(
    scale: Scale,
    opts: &LiveOptions,
    layout: &DiskLayout,
    channels: usize,
    switch_slots: f64,
) {
    let plan = BroadcastPlan::generate(layout, channels).expect("paper layout is valid");
    let cfg = SimConfig {
        channels,
        switch_slots,
        pull: true,
        ..common::caching_config(scale, PolicyKind::Lix, 0.30)
    };
    let seed = common::context().base_seed ^ 0x9D11;
    let user = 7u32;

    let mut client = LiveClient::with_plan(&cfg, layout, plan.clone(), seed)
        .expect("parity client config is valid")
        .with_pull_requests(user);
    let mut arbiter = SlotArbiter::new(
        PullConfig {
            mode: PullMode::PaddingFill,
            max_queue: 64,
        },
        channels,
    );
    let payloads = PagePayloads::generate(layout.total_pages(), opts.page_size);

    let mut requests: Vec<PullRequest> = Vec::new();
    let mut done = false;
    let mut t = 0u64;
    while !done {
        for c in 0..channels {
            let channel = ChannelId(c as u16);
            let slot = arbiter.arbitrate(plan.slot_at(channel, t), channel, t);
            // Round-trip the real wire format: a pull airing differs from
            // a push airing by one CRC-bound channel flag, and the client
            // must accept it through the same decode path a TCP tuner
            // uses. (encode() prepends the u32 length prefix.)
            let bytes = payloads.frame_on(t, c as u16, slot).encode();
            let frame = Frame::decode(&bytes[4..]).expect("round-trip frame decodes");
            done |= client.on_frame(&frame);
        }
        client.drain_pull_requests(&mut requests);
        for req in requests.drain(..) {
            arbiter.submit(req, &plan, 0, t);
        }
        t += 1;
        assert!(t < 100_000_000, "parity run failed to converge");
    }

    let pull_slots = arbiter.stats().pull_slots;
    assert!(
        pull_slots > 0,
        "{channels}-channel parity run never aired a pull slot — the stage is vacuous"
    );
    let result = client.into_results();
    let sim = simulate_plan(&cfg, layout, plan, seed).expect("simulator run with pull");
    let mut worst_gap: f64 = 0.0;
    for (live_v, sim_v) in [
        (result.outcome.mean_response_time, sim.mean_response_time),
        (result.outcome.hit_rate, sim.hit_rate),
        (result.outcome.end_time, sim.end_time),
    ] {
        worst_gap = worst_gap.max((live_v - sim_v).abs());
    }
    assert!(
        worst_gap < PARITY_TOLERANCE,
        "{channels}-channel pull-enabled live run diverged from simulate_plan \
         (gap {worst_gap:.3e})"
    );
    println!(
        "parity: EXACT — {channels}-channel pull-enabled live vs sim, {pull_slots} pull \
         slots aired, worst gap {worst_gap:.3e} (tolerance {PARITY_TOLERANCE:e})"
    );
}
