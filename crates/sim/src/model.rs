//! The client process: the heart of the Section 4.1 execution model.
//!
//! "The client runs a continuous loop that randomly requests a page
//! according to a specified distribution. […] If the requested page is not
//! cache-resident, then the client waits for the page to arrive on the
//! broadcast and then brings the requested page into its cache. […] Once
//! the requested page is cache resident, the client waits ThinkTime
//! broadcast units of time and then makes the next request."
//!
//! Measurement follows Section 5's methodology: "the cache warm-up effects
//! were eliminated by beginning our measurements only after the cache was
//! full, and then running the experiment for 15,000 or more client page
//! requests".

use bdisk_obs::trace::{self, Span, SpanKind};
use bdisk_sched::{BroadcastPlan, BroadcastProgram, ChannelId, DiskLayout, PageId};
use bdisk_workload::{Mapping, RegionZipf};
use rand::rngs::StdRng;

use crate::config::{SimConfig, SimError};
use crate::core::ClientCore;
use crate::metrics::{AccessLocation, SimOutcome};

/// The simulated client (one per run; the server is implicit in the
/// broadcast plan's arithmetic).
///
/// The request stream, cache policy, warm-up, and measurement logic all
/// live in [`ClientCore`], shared with the live engine's clients; this
/// wrapper adds the simulated waiting strategy (jump the clock to the
/// page's next arrival, see [`ClientModel::run`]) and the **single-tuner
/// constraint** of the multi-channel model: the client listens to one
/// channel at a time. A miss on the tuned channel waits in place; a miss
/// on another channel retunes — the earliest receivable slot on the
/// target channel starts at `⌊t⌋ + 1 + switch_slots`, since the slot in
/// flight at the switch instant is already lost. With one channel the client never switches and the
/// model is bit-identical to the original single-program simulator.
pub struct ClientModel {
    core: ClientCore,
    plan: BroadcastPlan,
    /// The channel the single tuner currently listens to.
    tuned: ChannelId,
    switch_slots: f64,
    /// Padding-fill pull mirror: misses also wait on the next empty slot
    /// of the page's home channel (see [`SimConfig::pull`]).
    pull: bool,
    /// Span identity (the seed for seeded constructors, 0 otherwise).
    trace_id: u64,
    /// Sampled wait-attribution spans, in completion order. Empty (and
    /// never allocated into) unless span sampling is on.
    spans: Vec<Span>,
}

impl ClientModel {
    /// Builds the client for `cfg` against a generated broadcast program,
    /// deriving the Offset/Noise mapping from the config.
    pub fn new(
        cfg: &SimConfig,
        layout: &DiskLayout,
        program: BroadcastProgram,
        seed: u64,
    ) -> Result<Self, SimError> {
        let core = ClientCore::new(cfg, layout, &program, seed)?;
        Ok(Self::assemble(
            cfg,
            core,
            BroadcastPlan::single(program),
            seed,
        ))
    }

    /// Builds the client against a multi-channel [`BroadcastPlan`]. The
    /// tuner starts on channel 0.
    pub fn new_plan(
        cfg: &SimConfig,
        layout: &DiskLayout,
        plan: BroadcastPlan,
        seed: u64,
    ) -> Result<Self, SimError> {
        let core = ClientCore::new_plan(cfg, layout, &plan, seed)?;
        Ok(Self::assemble(cfg, core, plan, seed))
    }

    /// Builds the client with an explicit logical→physical mapping (used by
    /// the multi-client population model, where each client has its own
    /// interest region).
    pub fn with_mapping(
        cfg: &SimConfig,
        layout: &DiskLayout,
        program: BroadcastProgram,
        mapping: Mapping,
        rng: StdRng,
    ) -> Result<Self, SimError> {
        let zipf = RegionZipf::new(cfg.access_range, cfg.region_size, cfg.theta);
        Self::with_workload(cfg, layout, program, zipf.probs(), mapping, rng)
    }

    /// Builds the client with an explicit logical-page probability vector
    /// instead of the region-Zipf distribution (used by the Table 1
    /// simulation cross-check and custom workloads).
    pub fn with_workload(
        cfg: &SimConfig,
        layout: &DiskLayout,
        program: BroadcastProgram,
        logical_probs: &[f64],
        mapping: Mapping,
        rng: StdRng,
    ) -> Result<Self, SimError> {
        let core = ClientCore::with_workload(cfg, layout, &program, logical_probs, mapping, rng)?;
        Ok(Self::assemble(cfg, core, BroadcastPlan::single(program), 0))
    }

    fn assemble(cfg: &SimConfig, core: ClientCore, plan: BroadcastPlan, trace_id: u64) -> Self {
        Self {
            core,
            plan,
            tuned: ChannelId(0),
            switch_slots: cfg.switch_slots,
            pull: cfg.pull,
            trace_id,
            spans: Vec::new(),
        }
    }

    /// Records one sampled request span: into the process span ring (which
    /// asserts the conservation invariant) and into this client's local
    /// span list for in-process consumers.
    fn emit_span(&mut self, requested_at: f64, no_switch: f64, expected: f64, received_at: f64) {
        let total = received_at - requested_at;
        // The simulator is lossless: the fallback periodic airing *is* the
        // expected arrival, so loss and credit are exactly zero.
        let phases =
            trace::attribute_wait(requested_at, no_switch, expected, received_at, received_at);
        let index = self.core.measured_count();
        let seq = trace::record_request(self.trace_id, index, total, phases);
        self.spans.push(Span {
            seq,
            kind: SpanKind::Request,
            client: self.trace_id,
            index,
            total,
            phases,
        });
    }

    /// The padding-fill pull prediction: the first empty slot of the
    /// page's home channel at or after `max(⌈t⌉ + 1, min_seq)`. A request
    /// issued during slot `⌈t⌉` reaches the arbiter that same tick (the
    /// lockstep drivers submit with `last_aired = ⌈t⌉`), so the earliest
    /// slot the arbiter can grant is `⌈t⌉ + 1` — and never before the
    /// client's own receive floor `min_seq` (the retune penalty). This is
    /// byte-for-byte the live client's `pull_arrival` with `base = 0`.
    fn pull_arrival(&self, page: PageId, requested_at: f64, min_seq: u64) -> Option<f64> {
        let home = self.plan.channel_of(page);
        let lb = (requested_at.ceil() + 1.0).max(min_seq as f64);
        self.plan.next_padding_arrival(home, lb)
    }

    /// Runs the Section 4.1 loop to completion and returns the outcome with
    /// the sampled wait-attribution spans.
    ///
    /// The server is a deterministic cycle, so the client is the only
    /// actor and the clock is a plain `f64`: a think advances it by the
    /// think delay, a miss jumps it to the page's arrival (never
    /// backwards).
    pub fn run(mut self) -> (SimOutcome, Vec<Span>) {
        let mut now = 0.0f64;
        loop {
            let page = self.core.next_request();
            // Sampling is decided at issue time: one request is in flight
            // and the measuring flag only flips inside complete_request,
            // so the index gate here matches the index the request is
            // recorded under.
            let traced = self.core.measuring() && trace::sampled(self.core.measured_count());
            let (response, location) = if self.core.contains(page) {
                self.core.on_hit(page, now);
                if traced {
                    // A cache hit waits on nothing: the all-zero span.
                    self.emit_span(now, now, now, now);
                }
                (0.0, AccessLocation::Cache)
            } else {
                let requested_at = now;
                let (arrival, no_switch) = self.arrival(page, now);
                now = arrival.max(now);
                self.core.insert(page, now);
                if traced {
                    // The anchors are pure plan arithmetic: tracing never
                    // draws from the RNG, so sampled and unsampled runs
                    // stay bit-identical.
                    self.emit_span(requested_at, no_switch, arrival, now);
                }
                (
                    now - requested_at,
                    AccessLocation::Disk(self.plan.disk_of(page)),
                )
            };
            if self.core.complete_request(response, location) {
                let outcome = self.core.finish(now).0;
                return (outcome, self.spans);
            }
            now += self.core.think_delay();
            debug_assert!(now.is_finite(), "virtual time must stay finite");
        }
    }

    /// When a miss on `page` at time `t` is served, and the no-switch
    /// anchor for wait attribution: `(arrival, no_switch)`.
    ///
    /// A miss on the tuned channel waits in place. A miss on another
    /// channel retunes (the single-tuner constraint): the slot in flight
    /// is forfeit and the switch penalty is paid; the no-switch anchor is
    /// what the wait would have been had the tuner already been on the
    /// page's channel, so the gap to the actual arrival is the switch
    /// cost. With pull on, the effective arrival is the earlier of the
    /// periodic airing and the pull service — the live client's
    /// arithmetic.
    fn arrival(&mut self, page: PageId, t: f64) -> (f64, f64) {
        let channel = self.plan.channel_of(page);
        let (min_seq, periodic, no_switch) = if channel == self.tuned {
            let periodic = self.plan.next_arrival(page, t);
            (0u64, periodic, periodic)
        } else {
            self.tuned = channel;
            let after = t.floor() + 1.0 + self.switch_slots;
            (
                after.ceil() as u64,
                self.plan.next_arrival(page, after),
                self.plan.next_arrival(page, t),
            )
        };
        let mut arrival = periodic;
        if self.pull {
            if let Some(pa) = self.pull_arrival(page, t, min_seq) {
                arrival = arrival.min(pa);
            }
        }
        (arrival, no_switch)
    }
}

/// Runs one full simulation: generates the broadcast plan for `layout`
/// (striped across `cfg.channels` channels; 1 reproduces the paper's
/// single-channel program bit for bit), drives the client to completion,
/// returns the steady-state outcome.
pub fn simulate(cfg: &SimConfig, layout: &DiskLayout, seed: u64) -> Result<SimOutcome, SimError> {
    let plan = BroadcastPlan::generate(layout, cfg.channels)?;
    simulate_plan(cfg, layout, plan, seed)
}

/// Like [`simulate`] but with a caller-supplied broadcast program (used for
/// the skewed/random baselines and to reuse a generated program across
/// seeds). Always single-channel: the program *is* the one channel.
pub fn simulate_program(
    cfg: &SimConfig,
    layout: &DiskLayout,
    program: BroadcastProgram,
    seed: u64,
) -> Result<SimOutcome, SimError> {
    run_client(ClientModel::new(cfg, layout, program, seed)?).map(|(outcome, _)| outcome)
}

/// Like [`simulate`] but with a caller-supplied multi-channel plan (used to
/// reuse one generated plan across seeds and by the live broker's
/// simulated-twin predictions).
pub fn simulate_plan(
    cfg: &SimConfig,
    layout: &DiskLayout,
    plan: BroadcastPlan,
    seed: u64,
) -> Result<SimOutcome, SimError> {
    run_client(ClientModel::new_plan(cfg, layout, plan, seed)?).map(|(outcome, _)| outcome)
}

/// Like [`simulate_plan`] but also returns the wait-attribution spans the
/// run sampled (empty unless [`bdisk_obs::trace::set_sample_every`] turned
/// sampling on). Tracing reads no randomness, so the outcome is
/// bit-identical to [`simulate_plan`]'s at any sampling rate.
pub fn simulate_plan_traced(
    cfg: &SimConfig,
    layout: &DiskLayout,
    plan: BroadcastPlan,
    seed: u64,
) -> Result<(SimOutcome, Vec<Span>), SimError> {
    run_client(ClientModel::new_plan(cfg, layout, plan, seed)?)
}

fn run_client(client: ClientModel) -> Result<(SimOutcome, Vec<Span>), SimError> {
    let (outcome, spans) = client.run();
    let m = crate::obs::metrics();
    m.runs.inc();
    m.measured_requests.add(outcome.measured_requests);
    m.virtual_time.set_max(outcome.end_time as i64);
    Ok((outcome, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk_cache::PolicyKind;

    fn small_cfg() -> SimConfig {
        SimConfig {
            access_range: 100,
            region_size: 5,
            cache_size: 1,
            offset: 0,
            noise: 0.0,
            policy: PolicyKind::Pix,
            requests: 4_000,
            warmup_requests: 200,
            ..SimConfig::default()
        }
    }

    #[test]
    fn flat_disk_response_is_half_db() {
        // Experiment 1 sanity: Δ=0, no cache → response ≈ ServerDBSize/2.
        let layout = DiskLayout::with_delta(&[100, 150, 250], 0).unwrap();
        let out = simulate(&small_cfg(), &layout, 1).unwrap();
        assert!(
            (out.mean_response_time - 250.0).abs() < 15.0,
            "mean {}",
            out.mean_response_time
        );
        assert_eq!(out.measured_requests, 4_000);
    }

    #[test]
    fn simulation_matches_analytic_expectation() {
        // No cache, no noise: the simulator must agree with the closed
        // form within a few percent.
        let layout = DiskLayout::with_delta(&[50, 150, 300], 3).unwrap();
        let program = BroadcastProgram::generate(&layout).unwrap();
        let zipf = RegionZipf::new(100, 5, 0.95);
        let analytic = BroadcastPlan::single(program).expected_delay(zipf.probs());
        let out = simulate(&small_cfg(), &layout, 42).unwrap();
        let rel = (out.mean_response_time - analytic).abs() / analytic;
        assert!(
            rel < 0.05,
            "sim {} vs analytic {analytic} ({}%)",
            out.mean_response_time,
            rel * 100.0
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let layout = DiskLayout::with_delta(&[50, 150, 300], 2).unwrap();
        let a = simulate(&small_cfg(), &layout, 9).unwrap();
        let b = simulate(&small_cfg(), &layout, 9).unwrap();
        assert_eq!(a.mean_response_time, b.mean_response_time);
        assert_eq!(a.hit_rate, b.hit_rate);
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn different_seeds_differ() {
        let layout = DiskLayout::with_delta(&[50, 150, 300], 2).unwrap();
        let a = simulate(&small_cfg(), &layout, 1).unwrap();
        let b = simulate(&small_cfg(), &layout, 2).unwrap();
        assert_ne!(a.mean_response_time, b.mean_response_time);
    }

    #[test]
    fn caching_improves_response_time() {
        let layout = DiskLayout::with_delta(&[50, 150, 300], 3).unwrap();
        let no_cache = simulate(&small_cfg(), &layout, 5).unwrap();
        let cached_cfg = SimConfig {
            cache_size: 50,
            offset: 50,
            ..small_cfg()
        };
        let cached = simulate(&cached_cfg, &layout, 5).unwrap();
        assert!(
            cached.mean_response_time < no_cache.mean_response_time,
            "cached {} vs uncached {}",
            cached.mean_response_time,
            no_cache.mean_response_time
        );
        assert!(cached.hit_rate > 0.3, "hit rate {}", cached.hit_rate);
    }

    #[test]
    fn access_fractions_sum_to_one() {
        let layout = DiskLayout::with_delta(&[50, 150, 300], 2).unwrap();
        let cfg = SimConfig {
            cache_size: 25,
            offset: 25,
            noise: 0.3,
            ..small_cfg()
        };
        let out = simulate(&cfg, &layout, 3).unwrap();
        let sum: f64 = out.access_fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(out.access_fractions.len(), 4); // cache + 3 disks
        assert_eq!(out.access_fractions[0], out.hit_rate);
    }

    #[test]
    fn percentiles_are_ordered() {
        let layout = DiskLayout::with_delta(&[50, 450], 3).unwrap();
        let out = simulate(&small_cfg(), &layout, 8).unwrap();
        assert!(out.p50 <= out.p95);
        assert!(out.p95 <= out.p99);
        assert!(out.p99 <= out.max_response_time + 1.0);
        assert!(out.max_response_time <= layout.total_pages() as f64 * 4.0);
    }

    #[test]
    fn invalid_config_rejected() {
        let layout = DiskLayout::with_delta(&[10, 40], 1).unwrap();
        let cfg = SimConfig {
            access_range: 100, // > 50 pages
            ..SimConfig::default()
        };
        assert!(simulate(&cfg, &layout, 0).is_err());
    }

    #[test]
    fn one_channel_plan_matches_program_path() {
        // The plan-based simulate() must be bit-identical to the original
        // program-based path when channels = 1 (the refactor's contract).
        let layout = DiskLayout::with_delta(&[50, 150, 300], 3).unwrap();
        let cfg = SimConfig {
            cache_size: 30,
            offset: 30,
            noise: 0.2,
            policy: PolicyKind::Lix,
            ..small_cfg()
        };
        let program = BroadcastProgram::generate(&layout).unwrap();
        let via_program = simulate_program(&cfg, &layout, program, 21).unwrap();
        let via_plan = simulate(&cfg, &layout, 21).unwrap();
        assert_eq!(via_plan.mean_response_time, via_program.mean_response_time);
        assert_eq!(via_plan.hit_rate, via_program.hit_rate);
        assert_eq!(via_plan.end_time, via_program.end_time);
        assert_eq!(via_plan.access_fractions, via_program.access_fractions);
    }

    #[test]
    fn more_channels_cut_response_at_zero_switch_cost() {
        let layout = DiskLayout::with_delta(&[50, 150, 300], 3).unwrap();
        let mut last = f64::INFINITY;
        for channels in [1usize, 2, 4] {
            let cfg = SimConfig {
                channels,
                ..small_cfg()
            };
            let out = simulate(&cfg, &layout, 17).unwrap();
            assert!(
                out.mean_response_time < last,
                "{channels} channels: {} not below {last}",
                out.mean_response_time
            );
            last = out.mean_response_time;
        }
    }

    #[test]
    fn switch_penalty_increases_response() {
        let layout = DiskLayout::with_delta(&[50, 150, 300], 3).unwrap();
        let free = SimConfig {
            channels: 2,
            switch_slots: 0.0,
            ..small_cfg()
        };
        let costly = SimConfig {
            channels: 2,
            switch_slots: 25.0,
            ..small_cfg()
        };
        let a = simulate(&free, &layout, 29).unwrap();
        let b = simulate(&costly, &layout, 29).unwrap();
        assert!(
            b.mean_response_time > a.mean_response_time,
            "switch penalty should cost: {} vs {}",
            b.mean_response_time,
            a.mean_response_time
        );
    }

    #[test]
    fn sampled_spans_conserve_and_pin_the_outcome_bit_exactly() {
        // Serialize use of the global sampling knob within this binary.
        static KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = KNOB.lock().unwrap_or_else(|e| e.into_inner());

        let layout = DiskLayout::with_delta(&[50, 150, 300], 3).unwrap();
        let cfg = SimConfig {
            cache_size: 30,
            offset: 30,
            noise: 0.2,
            channels: 2,
            switch_slots: 3.0,
            requests: 1_500,
            ..small_cfg()
        };
        let plan = BroadcastPlan::generate(&layout, cfg.channels).unwrap();

        bdisk_obs::trace::set_sample_every(1);
        let traced = simulate_plan_traced(&cfg, &layout, plan.clone(), 31).unwrap();
        bdisk_obs::trace::set_sample_every(0);
        let (outcome, spans) = traced;

        // Every measured request produced exactly one span, in order.
        assert_eq!(spans.len() as u64, outcome.measured_requests);
        let mut hits = 0u64;
        let mut switched = 0u64;
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(span.index, i as u64);
            assert_eq!(span.client, 31);
            // Conservation, bit-exact: the signed phase sum IS the total.
            assert_eq!(span.phase_sum().to_bits(), span.total.to_bits());
            // The simulator is lossless: no loss, no credit.
            assert_eq!(span.phases[2], 0.0);
            assert_eq!(span.phases[3], 0.0);
            hits += u64::from(span.total == 0.0);
            switched += u64::from(span.phases[1] > 0.0);
        }
        assert!(hits > 0, "the cached config must sample some hits");
        assert!(switched > 0, "two channels must sample some switch waits");

        // Replaying the span totals through the same running-statistics
        // machinery reproduces the outcome's mean bit for bit.
        let mut stats = bdesim::RunningStats::new();
        for span in &spans {
            stats.record(span.total);
        }
        assert_eq!(
            stats.mean().to_bits(),
            outcome.mean_response_time.to_bits(),
            "spans must pin SimOutcome bit-exactly"
        );

        // And sampling itself never perturbs the simulation.
        let plain = simulate_plan(&cfg, &layout, plan, 31).unwrap();
        assert_eq!(plain.mean_response_time, outcome.mean_response_time);
        assert_eq!(plain.end_time, outcome.end_time);
    }

    #[test]
    fn pull_padding_fill_cuts_response_time() {
        // The pull mirror only ever moves an arrival *earlier* (to a
        // padding slot before the periodic airing), so with padding in the
        // schedule the mean must strictly improve; with pull off the knob
        // must be a no-op (the default-config runs above pin that path).
        let layout = DiskLayout::with_delta(&[50, 150, 300], 3).unwrap();
        let plan = BroadcastPlan::generate(&layout, 1).unwrap();
        assert!(
            plan.next_padding_arrival(ChannelId(0), 0.0).is_some(),
            "layout must yield padding slots for this test to bite"
        );
        let push = simulate(&small_cfg(), &layout, 13).unwrap();
        let pulled_cfg = SimConfig {
            pull: true,
            ..small_cfg()
        };
        let pulled = simulate(&pulled_cfg, &layout, 13).unwrap();
        assert!(
            pulled.mean_response_time < push.mean_response_time,
            "pull {} vs push-only {}",
            pulled.mean_response_time,
            push.mean_response_time
        );
        // Determinism holds with the backchannel armed.
        let again = simulate(&pulled_cfg, &layout, 13).unwrap();
        assert_eq!(again.mean_response_time, pulled.mean_response_time);
        assert_eq!(again.end_time, pulled.end_time);
    }

    #[test]
    fn skewed_program_runs_and_pays_penalty() {
        // Drive the simulator with a skewed baseline program and confirm
        // the Bus Stop Paradox shows up end to end.
        let layout = DiskLayout::new(vec![500], vec![1]).unwrap();
        let copies: Vec<u64> = (0..500).map(|p| if p < 50 { 4 } else { 1 }).collect();
        let skewed = bdisk_sched::skewed_program(&copies).unwrap();
        let multi_layout = DiskLayout::new(vec![50, 450], vec![4, 1]).unwrap();
        let multi = BroadcastProgram::generate(&multi_layout).unwrap();

        let cfg = small_cfg();
        let skew_out = simulate_program(&cfg, &layout, skewed, 77).unwrap();
        let multi_out = simulate_program(&cfg, &multi_layout, multi, 77).unwrap();
        assert!(
            multi_out.mean_response_time < skew_out.mean_response_time,
            "multi {} vs skewed {}",
            multi_out.mean_response_time,
            skew_out.mean_response_time
        );
    }
}
