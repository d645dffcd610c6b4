//! `replan`: everything a broker does between a drift signal and being
//! ready to air the next epoch, for seeded 5000-page catalogs. One thread;
//! no simulator, no transport.

use std::time::Instant;

use bdisk_broker::PagePayloads;
use bdisk_code::{xor_into, ChannelCode};
use bdisk_sched::{optimize_layout, BroadcastPlan, ChannelId, CodingConfig, OptimizerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{fold, Repeat, Workload};
use crate::span::Tracer;

pub const PAGES: usize = 5000;
pub const PAGE_SIZE: usize = 1024;
/// Catalogs per repeat (about a second at the first baseline).
pub const CATALOGS: usize = 8;

const THETA_LO: f64 = 0.5;
const THETA_HI: f64 = 1.3;

/// Access probabilities of catalog `k` of `n`, hottest first. The skew
/// steps evenly over [0.5, 1.3] and the seed perturbs every page's weight
/// by up to ±10 %: each seed is a different catalog, yet the mean delay of
/// the chosen plans stays comparable from seed to seed, which a skew drawn
/// at random per catalog would not allow.
pub fn catalog(seed: u64, k: usize, n: usize) -> Vec<f64> {
    let theta = THETA_LO + (THETA_HI - THETA_LO) * k as f64 / (n - 1).max(1) as f64;
    let mut rng = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut w: Vec<f64> = (0..PAGES)
        .map(|i| {
            let wobble: f64 = rng.random_range(0.9..1.1);
            wobble / ((i + 1) as f64).powf(theta)
        })
        .collect();
    w.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = w.iter().sum();
    w.iter_mut().for_each(|p| *p /= total);
    w
}

pub struct Replanned {
    pub plan: BroadcastPlan,
    /// Fold of the chosen (sizes, delta, channels, plan_hash).
    pub digest: u64,
    /// Repair-payload bytes XORed (covered pages × page size).
    pub xor_bytes: u64,
}

/// One replan, a span per phase. `None` if any phase errs.
pub fn replan(
    probs: &[f64],
    payloads: &PagePayloads,
    code_seed: u64,
    tr: &mut Tracer,
) -> Option<Replanned> {
    let s = tr.enter("sched.optimize");
    let best = optimize_layout(
        probs,
        &OptimizerConfig {
            max_disks: 4,
            max_delta: 7,
            max_candidates: 48,
            max_channels: 4,
        },
    );
    tr.exit(s);
    let best = best.ok()?;

    let s = tr.enter("sched.generate");
    let plan = BroadcastPlan::generate(&best.layout, best.channels);
    tr.exit(s);

    let coding = CodingConfig::lt(0.25, 25, code_seed);
    let s = tr.enter("sched.with_coding");
    let plan = plan.ok().map(|p| p.with_coding(coding));
    tr.exit(s);
    let plan = plan?.ok()?;

    let mut xor_bytes = 0u64;
    for c in 0..plan.num_channels() {
        let ch = ChannelId(c as u16);
        let s = tr.enter("code.build");
        let code = ChannelCode::build(plan.program(ch), c as u16, &coding);
        tr.exit(s);
        let s = tr.enter("code.encode");
        for symbol in code.symbols() {
            let mut buf = vec![0u8; PAGE_SIZE];
            for &(_, local) in &symbol.covers {
                xor_into(&mut buf, payloads.page(plan.global_page(ch, local)));
            }
            xor_bytes += (symbol.covers.len() * PAGE_SIZE) as u64;
            std::hint::black_box(&buf);
        }
        tr.exit(s);
    }

    let s = tr.enter("sched.plan_hash");
    let hash = plan.plan_hash();
    tr.exit(s);

    let mut digest = 0u64;
    for &size in best.layout.sizes() {
        fold(&mut digest, size as u64);
    }
    fold(&mut digest, best.delta);
    fold(&mut digest, best.channels as u64);
    fold(&mut digest, hash);
    Some(Replanned {
        plan,
        digest,
        xor_bytes,
    })
}

pub struct Replan {
    pub seed: u64,
}

impl Workload for Replan {
    fn repeat(&mut self, tr: &mut Tracer) -> Repeat {
        let s = tr.enter("inputs");
        let catalogs: Vec<Vec<f64>> = (0..CATALOGS)
            .map(|k| catalog(self.seed, k, CATALOGS))
            .collect();
        let payloads = PagePayloads::generate(PAGES, PAGE_SIZE);
        tr.exit(s);

        let mut r = Repeat::default();
        let mut delay_sum = 0.0;
        for probs in &catalogs {
            let s = tr.enter("replan");
            let t0 = Instant::now();
            let done = replan(probs, &payloads, self.seed, tr);
            let took = t0.elapsed().as_secs_f64();
            tr.exit(s);
            r.timed_s += took;
            r.latency_us.push(took * 1e6);
            r.attempted += 1;
            match done {
                Some(done) => {
                    r.ops += 1;
                    fold(&mut r.digest, done.digest);
                    // Judged outside the timed region: the delay of the
                    // plan that would go on the air, not the optimizer's
                    // own estimate of it.
                    delay_sum += done.plan.expected_delay(probs);
                }
                None => r.failed += 1,
            }
        }
        r.delay_bu = delay_sum / r.ops.max(1) as f64;
        r
    }
}
