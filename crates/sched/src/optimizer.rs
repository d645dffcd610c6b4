//! Automated broadcast-program design.
//!
//! The paper leaves "the automatic determination of these parameters for a
//! given access probability distribution" as an open optimization problem
//! (Section 2.2) and asks for "concrete design principles for deciding how
//! many disks to use, what the best relative spinning speeds should be, and
//! how to segment the client access range" (Section 7). This module is that
//! extension: a direct search over the paper's own knob space —
//! number of disks, Δ, and partition boundaries — minimizing the *analytic*
//! no-cache expected delay
//!
//! ```text
//! E[delay] = Σ_p  prob(p) · period(channel(p)) / (2 · rel_freq(disk(p)))
//! ```
//!
//! which is exact for multi-disk programs because their per-page
//! inter-arrival times are fixed. The period accounts for chunk padding, so
//! configurations that waste many slots are penalized automatically.
//!
//! With [`OptimizerConfig::max_channels`] > 1 the search also considers
//! striping the layout across multiple broadcast channels (the
//! [`crate::BroadcastPlan`] generalization): each candidate is evaluated
//! per channel with the exact per-channel period the striped sub-layout
//! would produce, so the objective still matches the generated plan to
//! machine precision. Per-page frequency is then per-channel: a page's
//! airings per unit time are its disk's relative frequency over its *own
//! channel's* (shorter) period.
//!
//! # Exact bounded search
//!
//! A *leaf* is one fully specified configuration: channel count `C`, disk
//! count `K`, Δ, and `K − 1` partition boundaries from the candidate set
//! (517 219 leaves at 5000 pages, 4 disks, Δ ≤ 7, 48 candidates and 4
//! channels). A branch-and-bound over the boundaries, one disk per level,
//! returns exactly the leaf an exhaustive scan of them would:
//!
//! * **Bound.** Fix disks `0..ℓ`. On channel `c` their pages air
//!   `A_c = Σ count·f` times per period and weigh `W_c = Σ mass/(2f)`, so
//!   the channel costs `period_c · W_c`. Chunk padding only adds slots, so
//!   `period_c ≥ A_c + A'_c`, where an unplaced page `p` at frequency `f`
//!   adds `f` to `A'_c` and `p/(2f)` to `W'_c`. Cauchy–Schwarz gives
//!   `(A_c + A'_c)(W_c + W'_c) ≥ (√(A_c·W_c) + Σ_{p on c} √(p/2))²`, and
//!   once more over the channels, whatever frequencies and channels the
//!   unplaced pages get:
//!
//!   ```text
//!   E[delay] ≥ (Σ_c √(A_c·W_c) + S_rest)² / C,   S_rest = Σ_{unplaced p} √(p/2)
//!   ```
//!
//!   At the root this is the square-root rule's bound `(Σ_p √p)² / (2C)`,
//!   exported as [`sqrt_rule_bound`]. It holds only for non-negative
//!   weights, which both functions check.
//! * **Margin.** A subtree, or a whole channel-count pass, is pruned only
//!   when `bound·(1 − 1e-9) > incumbent·(1 + 1e-9)`. Every value compared is
//!   a sum of non-negative terms, so rounding moves it by far less than
//!   1e-9 relative: no leaf that could tie the incumbent is ever cut.
//! * **Screen.** Per-channel sums over the fixed disks are carried down the
//!   tree, so a leaf's delay costs O(C) instead of an LCM fold and three
//!   allocations. Only a leaf whose screen is within the margin of the
//!   incumbent reaches the exact evaluator, which alone decides. A leaf with
//!   a disk narrower than `C` (the disk misses a channel, which changes
//!   that channel's LCM) skips the screen and goes straight to it.
//! * **Order and ties.** Channel counts are visited from the most down,
//!   since more channels give the smallest delays and so an early strong
//!   incumbent. Within a count, leaves come in exhaustive order (K↑, Δ↑,
//!   boundaries lexicographic↑). Exact ties go to the earliest leaf of the
//!   exhaustive order (C↑, K↑, Δ↑, boundaries↑), the flat single-channel
//!   program first of all, so the result equals the scan's to the bit. The
//!   scan survives as a test oracle that pins this.

use crate::disk::DiskLayout;
use crate::error::SchedError;
use crate::lcm;

/// Search-space bounds for [`optimize_layout`].
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Largest number of disks to consider (the paper anticipates 2–5).
    pub max_disks: usize,
    /// Largest Δ to consider (the paper sweeps 0–7).
    pub max_delta: u64,
    /// Cap on candidate partition boundaries; when the page count exceeds
    /// this, boundaries are restricted to evenly spaced positions.
    pub max_candidates: usize,
    /// Largest broadcast-channel count to consider. 1 (the default)
    /// restricts the search to the paper's single-channel setting.
    pub max_channels: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            max_disks: 3,
            max_delta: 7,
            max_candidates: 48,
            max_channels: 1,
        }
    }
}

/// Result of a layout search.
#[derive(Debug, Clone)]
pub struct OptimizedLayout {
    /// The best layout found.
    pub layout: DiskLayout,
    /// The Δ that produced its frequencies.
    pub delta: u64,
    /// Number of broadcast channels the layout should be striped across
    /// (1 = the paper's single channel).
    pub channels: usize,
    /// Its analytic expected delay, in broadcast units.
    pub expected_delay: f64,
}

/// Relative margin of every prune and screen decision (see the module doc).
const MARGIN: f64 = 1e-9;

/// Whether a value known to be at least `lower` can neither beat nor tie
/// `incumbent`, with [`MARGIN`] to spare on both sides.
fn beaten(lower: f64, incumbent: f64) -> bool {
    lower * (1.0 - MARGIN) > incumbent * (1.0 + MARGIN)
}

/// Immutable inputs of one (channel count, disk count, Δ) search slice.
struct SearchCtx<'a> {
    candidates: &'a [usize],
    /// Plain prefix sums of probability mass (`prefix[x]` = mass of pages
    /// `0..x`).
    prefix: &'a [f64],
    /// For `channels > 1`: per-residue strided prefix sums —
    /// `stripes[r][x]` = mass of pages `p < x` with `p ≡ r (mod channels)`.
    stripes: Option<&'a [Vec<f64>]>,
    /// `root_tail[x]` = Σ √(p/2) over pages `x..n`: the bound's share of
    /// the pages not yet placed.
    root_tail: &'a [f64],
    channels: usize,
    freqs: &'a [u64],
    /// Chunk counts per disk (`max_chunks / freq`), for the single-channel
    /// evaluator and the leaf screen.
    num_chunks: &'a [u64],
    max_chunks: u64,
    delta: u64,
}

impl SearchCtx<'_> {
    /// Mass of the pages of a disk spanning `lo..hi` that land on channel
    /// `c` (in-disk offsets `≡ c (mod channels)`).
    fn channel_mass(&self, lo: usize, hi: usize, c: usize) -> f64 {
        match self.stripes {
            None => self.prefix[hi] - self.prefix[lo],
            Some(stripes) => {
                let r = (lo + c) % self.channels;
                stripes[r][hi] - stripes[r][lo]
            }
        }
    }
}

/// One channel's sums over the disks fixed so far.
#[derive(Debug, Clone, Copy, Default)]
struct Partial {
    /// Σ ⌈count/num_chunks⌉: the channel's minor-cycle length, valid while
    /// every fixed disk reaches every channel.
    minor: usize,
    /// `A_c` = Σ count·f: airings per period, a floor on the period.
    airings: f64,
    /// `W_c` = Σ mass/(2f): expected delay per slot of period.
    weight: f64,
}

impl Partial {
    /// These sums plus the pages that disk `disk`, spanning `lo..hi`,
    /// stripes onto channel `c`.
    fn plus(mut self, ctx: &SearchCtx<'_>, disk: usize, lo: usize, hi: usize, c: usize) -> Self {
        let size = hi - lo;
        if size > c {
            let f = ctx.freqs[disk];
            let count = (size - c).div_ceil(ctx.channels);
            self.minor += count.div_ceil(ctx.num_chunks[disk] as usize);
            self.airings += (count as u64 * f) as f64;
            self.weight += ctx.channel_mass(lo, hi, c) / (2.0 * f as f64);
        }
        self
    }
}

/// The module doc's lower bound on every leaf below a node: `fixed` holds
/// the placed disks' sums, one per channel; `tail` is Σ √(p/2) over the
/// unplaced pages.
fn bound(fixed: &[Partial], tail: f64) -> f64 {
    let s = fixed
        .iter()
        .map(|p| (p.airings * p.weight).sqrt())
        .sum::<f64>()
        + tail;
    s * s / fixed.len() as f64
}

/// Finds the layout (disk count, Δ, partition boundaries, and — when
/// `cfg.max_channels > 1` — channel count) minimizing the analytic no-cache
/// expected delay for the given per-page access probabilities.
///
/// `probs[p]` is the access probability of page `p` *in broadcast order*
/// (hottest first — the precondition of the Section 2.2 algorithm; pass a
/// sorted distribution). Probabilities need not sum to one; they are used
/// as weights, and each must be finite and non-negative
/// ([`SchedError::InvalidWeight`] otherwise).
///
/// The search is an exact branch-and-bound (see the module doc). A subtree
/// is pruned when the square-root lower bound
/// `(Σ_c √(A_c·W_c) + Σ_{unplaced p} √(p/2))² / C` exceeds the incumbent by
/// a relative margin of 1e-9 on each side, far above rounding, and the
/// exact evaluator decides every leaf that comes within that margin. Ties
/// go to the earliest configuration in (channels↑, disks↑, Δ↑,
/// boundaries lexicographic↑) order, with the flat single-channel program
/// first, so the result is bit-identical to scanning every configuration.
pub fn optimize_layout(
    probs: &[f64],
    cfg: &OptimizerConfig,
) -> Result<OptimizedLayout, SchedError> {
    if probs.is_empty() {
        return Err(SchedError::EmptyProgram);
    }
    check_inputs(probs, cfg.max_channels)?;
    let n = probs.len();
    let prefix = prefix_sums(probs);
    let root_tail = root_tail(probs);
    let candidates = boundary_candidates(n, cfg.max_candidates);

    let mut best = flat_layout(&prefix)?;
    for channels in (1..=cfg.max_channels.min(n)).rev() {
        let root = vec![Partial::default(); channels];
        if beaten(bound(&root, root_tail[0]), best.expected_delay) {
            continue;
        }
        let stripes = (channels > 1).then(|| stripe_tables(probs, channels));
        let flat = SearchCtx {
            candidates: &candidates,
            prefix: &prefix,
            stripes: stripes.as_deref(),
            root_tail: &root_tail,
            channels,
            freqs: &[1],
            num_chunks: &[1],
            max_chunks: 1,
            delta: 0,
        };
        if channels > 1 {
            // Flat layout striped across the channels (K = 1).
            offer(&flat, &[0, n], &mut best);
        }

        for k in 2..=cfg.max_disks.min(n) {
            for delta in 1..=cfg.max_delta {
                let (freqs, num_chunks, max_chunks) = delta_freqs(k, delta);
                let ctx = SearchCtx {
                    freqs: &freqs,
                    num_chunks: &num_chunks,
                    max_chunks,
                    delta,
                    ..flat
                };
                let mut bounds = vec![0usize; k + 1];
                bounds[k] = n;
                let mut sums = vec![Partial::default(); (k - 1) * channels];
                descend(&ctx, &mut bounds, 1, 0, &root, &mut sums, &mut best);
            }
        }
    }
    Ok(best)
}

/// The square-root rule's lower bound `(Σ_p √p)² / (2C)` on the expected
/// delay of every plan over `channels` channels: [`optimize_layout`]'s
/// bound at the root, before any disk is placed. Rejects the weights
/// [`optimize_layout`] rejects, and `channels = 0`.
pub fn sqrt_rule_bound(probs: &[f64], channels: usize) -> Result<f64, SchedError> {
    check_inputs(probs, channels)?;
    let root = vec![Partial::default(); channels];
    Ok(bound(&root, root_tail(probs)[0]))
}

/// At least one channel, and every weight finite and non-negative: the
/// bound assumes both.
fn check_inputs(probs: &[f64], channels: usize) -> Result<(), SchedError> {
    if channels == 0 {
        return Err(SchedError::NoChannels);
    }
    match probs.iter().position(|&p| !(p.is_finite() && p >= 0.0)) {
        Some(page) => Err(SchedError::InvalidWeight { page }),
        None => Ok(()),
    }
}

/// Prefix sums of probability mass for O(1) range mass.
fn prefix_sums(probs: &[f64]) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(probs.len() + 1);
    prefix.push(0.0);
    for &p in probs {
        prefix.push(prefix.last().unwrap() + p);
    }
    prefix
}

/// `root_tail[x]` = Σ √(p/2) over pages `x..n`, summed from the cold end.
fn root_tail(probs: &[f64]) -> Vec<f64> {
    let mut tail = vec![0.0; probs.len() + 1];
    for x in (0..probs.len()).rev() {
        tail[x] = tail[x + 1] + (probs[x] / 2.0).sqrt();
    }
    tail
}

/// Strided prefix sums for `c` channels: `tables[r][x]` = mass of pages
/// `p < x` with `p ≡ r (mod c)`.
fn stripe_tables(probs: &[f64], c: usize) -> Vec<Vec<f64>> {
    let n = probs.len();
    let mut tables = vec![vec![0.0; n + 1]; c];
    for (r, table) in tables.iter_mut().enumerate() {
        for x in 0..n {
            table[x + 1] = table[x] + if x % c == r { probs[x] } else { 0.0 };
        }
    }
    tables
}

/// Candidate boundaries (positions where one disk may end), excluding 0
/// and `n`: every interior position, or at most `max` of them evenly spaced
/// from the first to the last — the middle one for `max = 1`, none (no
/// multi-disk search) for `max = 0`.
fn boundary_candidates(n: usize, max: usize) -> Vec<usize> {
    let interior = n.saturating_sub(1);
    match max {
        m if interior <= m => (1..n).collect(),
        0 => Vec::new(),
        1 => vec![n / 2],
        m => (1..=m)
            .map(|i| 1 + (i - 1) * (interior - 1) / (m - 1))
            .collect(),
    }
}

/// Relative frequencies `(k − i)·Δ + 1` of disks `1..=k`, their chunk
/// counts, and the LCM of the frequencies.
fn delta_freqs(k: usize, delta: u64) -> (Vec<u64>, Vec<u64>, u64) {
    let freqs: Vec<u64> = (1..=k as u64).map(|i| (k as u64 - i) * delta + 1).collect();
    let max_chunks = freqs.iter().copied().fold(1u64, lcm);
    let num_chunks = freqs.iter().map(|&f| max_chunks / f).collect();
    (freqs, num_chunks, max_chunks)
}

/// The flat single-channel program (K = 1, C = 1): the first configuration
/// of the search order and the starting incumbent.
fn flat_layout(prefix: &[f64]) -> Result<OptimizedLayout, SchedError> {
    let n = prefix.len() - 1;
    Ok(OptimizedLayout {
        layout: DiskLayout::new(vec![n], vec![1])?,
        delta: 0,
        channels: 1,
        expected_delay: prefix[n] * n as f64 / 2.0,
    })
}

/// Chooses `bounds[level]`, the end of disk `level − 1`, from the
/// candidates at index `first` or later, in lexicographic order. `fixed`
/// holds the per-channel sums over disks `0..level − 1`; `scratch` holds
/// one such row per deeper level.
fn descend(
    ctx: &SearchCtx<'_>,
    bounds: &mut [usize],
    level: usize,
    first: usize,
    fixed: &[Partial],
    scratch: &mut [Partial],
    best: &mut OptimizedLayout,
) {
    let k = ctx.freqs.len();
    let chans = ctx.channels;
    let (lo, n) = (bounds[level - 1], bounds[k]);
    let narrow_above = bounds[..level].windows(2).any(|w| w[1] - w[0] < chans);
    let (sums, deeper) = scratch.split_at_mut(chans);
    for (ci, &b) in ctx.candidates.iter().enumerate().skip(first) {
        if b <= lo {
            continue;
        }
        if b >= n {
            break;
        }
        bounds[level] = b;
        for (c, s) in sums.iter_mut().enumerate() {
            *s = fixed[c].plus(ctx, level - 1, lo, b, c);
        }
        if level + 1 < k {
            if !beaten(bound(sums, ctx.root_tail[b]), best.expected_delay) {
                descend(ctx, bounds, level + 1, ci + 1, sums, deeper, best);
            }
        } else if narrow_above || b - lo < chans || n - b < chans {
            offer(ctx, bounds, best);
        } else {
            // The last disk spans b..n; every disk reaches every channel,
            // so each channel's period is max_chunks · minor.
            let screen: f64 = (0..chans)
                .map(|c| {
                    let s = sums[c].plus(ctx, k - 1, b, n, c);
                    (ctx.max_chunks as usize * s.minor) as f64 * s.weight
                })
                .sum();
            if !beaten(screen, best.expected_delay) {
                offer(ctx, bounds, best);
            }
        }
    }
}

/// Evaluates one configuration exactly and makes it the incumbent when it
/// is better, or equally good and earlier in the exhaustive order. Leaves
/// of one channel count arrive in that order, and counts run from the most
/// down, so an exact tie wins only with fewer channels.
fn offer(ctx: &SearchCtx<'_>, bounds: &[usize], best: &mut OptimizedLayout) {
    let Some(delay) = exact_delay(ctx, bounds) else {
        return;
    };
    if delay < best.expected_delay || (delay == best.expected_delay && ctx.channels < best.channels)
    {
        let sizes = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        if let Ok(layout) = DiskLayout::new(sizes, ctx.freqs.to_vec()) {
            *best = OptimizedLayout {
                layout,
                delta: ctx.delta,
                channels: ctx.channels,
                expected_delay: delay,
            };
        }
    }
}

/// The exact analytic delay of one configuration, or `None` when a disk or
/// a channel would be empty.
fn exact_delay(ctx: &SearchCtx<'_>, bounds: &[usize]) -> Option<f64> {
    if ctx.channels == 1 {
        evaluate(
            ctx.prefix,
            ctx.freqs,
            ctx.num_chunks,
            ctx.max_chunks,
            bounds,
        )
    } else {
        evaluate_channels(ctx, bounds)
    }
}

/// Analytic expected delay of a fully specified single-channel
/// configuration, or `None` when a disk would be empty.
fn evaluate(
    prefix: &[f64],
    freqs: &[u64],
    num_chunks: &[u64],
    max_chunks: u64,
    bounds: &[usize],
) -> Option<f64> {
    let k = freqs.len();
    // Period from padded chunk sizes, exactly as the generator computes it.
    let mut minor_len = 0usize;
    for i in 0..k {
        let size = bounds[i + 1] - bounds[i];
        if size == 0 {
            return None;
        }
        minor_len += size.div_ceil(num_chunks[i] as usize);
    }
    let period = max_chunks as usize * minor_len;

    let mut delay = 0.0;
    for i in 0..k {
        let mass = prefix[bounds[i + 1]] - prefix[bounds[i]];
        delay += mass * period as f64 / (2.0 * freqs[i] as f64);
    }
    Some(delay)
}

/// Analytic expected delay of a configuration striped across
/// `ctx.channels` channels, exactly mirroring
/// [`crate::BroadcastPlan::generate`]: channel `c` receives in-disk offsets
/// `≡ c (mod channels)` of every disk, disks that contribute no pages drop
/// out, and the channel's period comes from the LCM of the *remaining*
/// frequencies. `None` when a disk or a channel would be empty.
fn evaluate_channels(ctx: &SearchCtx<'_>, bounds: &[usize]) -> Option<f64> {
    let k = ctx.freqs.len();
    let chans = ctx.channels;
    let stripes = ctx.stripes.expect("stripes precomputed for channels > 1");
    for i in 0..k {
        if bounds[i + 1] == bounds[i] {
            return None;
        }
    }

    let mut delay = 0.0;
    let mut ch_freqs: Vec<u64> = Vec::with_capacity(k);
    let mut ch_counts: Vec<usize> = Vec::with_capacity(k);
    let mut ch_masses: Vec<f64> = Vec::with_capacity(k);
    for c in 0..chans {
        ch_freqs.clear();
        ch_counts.clear();
        ch_masses.clear();
        for i in 0..k {
            let size = bounds[i + 1] - bounds[i];
            if size <= c {
                continue; // disk too small to reach this channel
            }
            let count = (size - c).div_ceil(chans);
            let r = (bounds[i] + c) % chans;
            let mass = stripes[r][bounds[i + 1]] - stripes[r][bounds[i]];
            ch_freqs.push(ctx.freqs[i]);
            ch_counts.push(count);
            ch_masses.push(mass);
        }
        if ch_freqs.is_empty() {
            return None; // empty channel: plan generation would reject it
        }
        let max_chunks = ch_freqs.iter().copied().fold(1u64, lcm);
        let mut minor_len = 0usize;
        for (j, &f) in ch_freqs.iter().enumerate() {
            minor_len += ch_counts[j].div_ceil((max_chunks / f) as usize);
        }
        let period = max_chunks as usize * minor_len;
        for (j, &f) in ch_freqs.iter().enumerate() {
            delay += ch_masses[j] * period as f64 / (2.0 * f as f64);
        }
    }
    Some(delay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn zipf_probs(n: usize, theta: f64) -> Vec<f64> {
        let mut v: Vec<f64> = (1..=n).map(|i| (1.0 / i as f64).powf(theta)).collect();
        let s: f64 = v.iter().sum();
        v.iter_mut().for_each(|p| *p /= s);
        v
    }

    /// The exhaustive scan the bounded search replaced, kept as its oracle:
    /// every configuration in (C↑, K↑, Δ↑, boundaries lexicographic↑)
    /// order, evaluated exactly, the first strict improvement winning.
    fn exhaustive(probs: &[f64], cfg: &OptimizerConfig) -> OptimizedLayout {
        let n = probs.len();
        let prefix = prefix_sums(probs);
        let candidates = boundary_candidates(n, cfg.max_candidates);
        let mut best = flat_layout(&prefix).unwrap();
        for channels in 1..=cfg.max_channels.min(n) {
            let stripes = (channels > 1).then(|| stripe_tables(probs, channels));
            let flat = SearchCtx {
                candidates: &candidates,
                prefix: &prefix,
                stripes: stripes.as_deref(),
                root_tail: &[],
                channels,
                freqs: &[1],
                num_chunks: &[1],
                max_chunks: 1,
                delta: 0,
            };
            if channels > 1 {
                consider(&flat, &[0, n], &mut best);
            }
            for k in 2..=cfg.max_disks.min(n) {
                for delta in 1..=cfg.max_delta {
                    let (freqs, num_chunks, max_chunks) = delta_freqs(k, delta);
                    let ctx = SearchCtx {
                        freqs: &freqs,
                        num_chunks: &num_chunks,
                        max_chunks,
                        delta,
                        ..flat
                    };
                    let mut bounds = vec![0usize; k + 1];
                    bounds[k] = n;
                    search_boundaries(&ctx, &mut bounds, 1, 0, &mut |b| {
                        consider(&ctx, b, &mut best)
                    });
                }
            }
        }
        best
    }

    /// Visits every choice of `bounds[level..k]` from the candidate set in
    /// lexicographic order.
    fn search_boundaries(
        ctx: &SearchCtx<'_>,
        bounds: &mut Vec<usize>,
        level: usize,
        min_candidate_idx: usize,
        visit: &mut impl FnMut(&[usize]),
    ) {
        let k = ctx.freqs.len();
        if level == k {
            visit(bounds);
            return;
        }
        for (ci, &c) in ctx.candidates.iter().enumerate().skip(min_candidate_idx) {
            if c <= bounds[level - 1] {
                continue;
            }
            if c >= bounds[k] {
                break;
            }
            bounds[level] = c;
            search_boundaries(ctx, bounds, level + 1, ci + 1, visit);
        }
    }

    /// Replaces `best` when the configuration strictly improves on it.
    fn consider(ctx: &SearchCtx<'_>, bounds: &[usize], best: &mut OptimizedLayout) {
        if let Some(delay) = exact_delay(ctx, bounds) {
            if delay < best.expected_delay {
                let k = ctx.freqs.len();
                let sizes: Vec<usize> = (0..k).map(|i| bounds[i + 1] - bounds[i]).collect();
                if let Ok(layout) = DiskLayout::new(sizes, ctx.freqs.to_vec()) {
                    *best = OptimizedLayout {
                        layout,
                        delta: ctx.delta,
                        channels: ctx.channels,
                        expected_delay: delay,
                    };
                }
            }
        }
    }

    /// Everything a caller can observe of a result, the delay to the bit.
    fn key(best: &OptimizedLayout) -> (Vec<usize>, Vec<u64>, u64, usize, u64) {
        (
            best.layout.sizes().to_vec(),
            best.layout.freqs().to_vec(),
            best.delta,
            best.channels,
            best.expected_delay.to_bits(),
        )
    }

    /// How many configurations the exhaustive scan evaluates.
    fn leaf_count(n: usize, cfg: &OptimizerConfig) -> u64 {
        let m = boundary_candidates(n, cfg.max_candidates).len() as u64;
        let binomial = |r: u64| (0..r.min(m + 1)).fold(1, |acc, i| acc * (m - i) / (i + 1));
        let splits: u64 = (2..=cfg.max_disks.min(n) as u64)
            .map(|k| binomial(k - 1))
            .sum();
        cfg.max_channels.min(n) as u64 * (1 + cfg.max_delta * splits)
    }

    /// A replan-shaped catalog: Zipf(θ) with every weight wobbled ±10 %,
    /// sorted hottest first and normalized.
    fn wobbled_zipf(n: usize, theta: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w: Vec<f64> = (0..n)
            .map(|i| rng.random_range(0.9..1.1) / ((i + 1) as f64).powf(theta))
            .collect();
        w.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = w.iter().sum();
        w.iter_mut().for_each(|p| *p /= total);
        w
    }

    /// Catalogs of 1..=`max_pages` pages: random weights (a quarter of them
    /// zero, unsorted), uniform, a step function with a zero tail (exact
    /// ties), all zero, one hot page over a flat or an all-zero rest (a
    /// one-page fast disk, narrower than the channel count; exact ties
    /// across channel counts), and replan-shaped Zipf.
    fn catalog(max_pages: usize) -> impl Strategy<Value = Vec<f64>> {
        (1..=max_pages, 0u8..7, any::<u64>()).prop_map(|(n, kind, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            match kind {
                4 | 5 => {
                    let mut w = vec![(kind - 4) as f64; n];
                    w[0] = rng.random_range(1.0..n as f64 + 1.0);
                    w
                }
                0 => (0..n)
                    .map(|_| {
                        if rng.random_range(0u32..4) == 0 {
                            0.0
                        } else {
                            rng.random::<f64>()
                        }
                    })
                    .collect(),
                1 => vec![1.0; n],
                2 => (0..n)
                    .map(|i| [8.0, 4.0, 2.0, 1.0, 0.0][i * 5 / n])
                    .collect(),
                3 => vec![0.0; n],
                _ => wobbled_zipf(n, rng.random_range(0.0..1.5), seed),
            }
        })
    }

    #[test]
    fn uniform_access_prefers_flat() {
        // Fundamental constraint (Table 1, point 1): with uniform access a
        // flat disk is optimal.
        let probs = vec![0.1; 10];
        let best = optimize_layout(&probs, &OptimizerConfig::default()).unwrap();
        assert_eq!(best.layout.num_disks(), 1);
        assert_eq!(best.delta, 0);
        assert_eq!(best.channels, 1);
        assert!((best.expected_delay - 5.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_access_prefers_multi_disk() {
        let probs = zipf_probs(100, 0.95);
        let best = optimize_layout(&probs, &OptimizerConfig::default()).unwrap();
        assert!(best.layout.num_disks() >= 2, "layout = {:?}", best.layout);
        // Must beat flat (expected 50).
        assert!(
            best.expected_delay < 50.0,
            "delay = {}",
            best.expected_delay
        );
        // Fast disk should be smaller than slow disk.
        let sizes = best.layout.sizes();
        assert!(sizes[0] < sizes[sizes.len() - 1], "sizes = {sizes:?}");
    }

    #[test]
    fn extreme_skew_shrinks_fast_disk() {
        // One page takes 90% of accesses.
        let mut probs = vec![0.1 / 99.0; 100];
        probs[0] = 0.9;
        let best = optimize_layout(&probs, &OptimizerConfig::default()).unwrap();
        assert!(best.layout.num_disks() >= 2);
        assert!(
            best.layout.sizes()[0] <= 10,
            "sizes = {:?}",
            best.layout.sizes()
        );
        assert!(best.expected_delay < 25.0);
    }

    #[test]
    fn objective_matches_generated_program() {
        // The optimizer's analytic objective must equal the true expected
        // delay of the generated program.
        let probs = zipf_probs(60, 0.95);
        let cfg = OptimizerConfig {
            max_disks: 3,
            max_delta: 4,
            max_candidates: 20,
            max_channels: 1,
        };
        let best = optimize_layout(&probs, &cfg).unwrap();
        let program = crate::BroadcastProgram::generate(&best.layout).unwrap();
        let mut expect = 0.0;
        for (p, &pr) in probs.iter().enumerate() {
            let gap = program
                .gap(crate::PageId(p as u32))
                .expect("multi-disk programs have fixed gaps");
            expect += pr * gap / 2.0;
        }
        assert!(
            (expect - best.expected_delay).abs() < 1e-6,
            "analytic {} vs program {}",
            best.expected_delay,
            expect
        );
    }

    #[test]
    fn channel_objective_matches_generated_plan() {
        // With channels in the search space, the objective must equal the
        // true expected delay of the striped plan the winner generates.
        let probs = zipf_probs(60, 0.95);
        let cfg = OptimizerConfig {
            max_disks: 3,
            max_delta: 4,
            max_candidates: 20,
            max_channels: 3,
        };
        let best = optimize_layout(&probs, &cfg).unwrap();
        assert!(best.channels >= 2, "more channels should win: {best:?}");
        let plan = crate::BroadcastPlan::generate(&best.layout, best.channels).unwrap();
        let expect = plan.expected_delay(&probs);
        assert!(
            (expect - best.expected_delay).abs() < 1e-6,
            "analytic {} vs plan {}",
            best.expected_delay,
            expect
        );
    }

    #[test]
    fn more_channels_never_hurt() {
        // The C = 1 space is a subset of the C ≤ 4 space, and striping only
        // shrinks periods: the optimum must be non-increasing in
        // max_channels.
        let probs = zipf_probs(80, 0.95);
        let mut last = f64::INFINITY;
        for max_channels in 1..=4 {
            let cfg = OptimizerConfig {
                max_disks: 3,
                max_delta: 4,
                max_candidates: 16,
                max_channels,
            };
            let best = optimize_layout(&probs, &cfg).unwrap();
            assert!(
                best.expected_delay <= last + 1e-9,
                "max_channels {} worsened delay: {} > {}",
                max_channels,
                best.expected_delay,
                last
            );
            last = best.expected_delay;
        }
    }

    #[test]
    fn sqrt_rule_bound_never_beats_the_optimum() {
        for theta in [0.0, 0.5, 0.95, 1.5] {
            let probs = zipf_probs(80, theta);
            for channels in 1..=3 {
                let cfg = OptimizerConfig {
                    max_disks: 3,
                    max_delta: 4,
                    max_candidates: 16,
                    max_channels: channels,
                };
                let best = optimize_layout(&probs, &cfg).unwrap().expected_delay;
                let bound = sqrt_rule_bound(&probs, channels).unwrap();
                assert!(
                    bound <= best * (1.0 + 1e-12),
                    "θ {theta}, {channels} channels: bound {bound} above optimum {best}"
                );
            }
        }
    }

    #[test]
    fn empty_probs_rejected() {
        assert!(optimize_layout(&[], &OptimizerConfig::default()).is_err());
        let cfg = OptimizerConfig {
            max_channels: 0,
            ..OptimizerConfig::default()
        };
        assert_eq!(
            optimize_layout(&[1.0], &cfg).unwrap_err(),
            SchedError::NoChannels
        );
    }

    #[test]
    fn nan_weight_rejected() {
        assert_eq!(
            optimize_layout(&[0.5, f64::NAN, 0.1], &OptimizerConfig::default()).unwrap_err(),
            SchedError::InvalidWeight { page: 1 }
        );
        assert_eq!(
            sqrt_rule_bound(&[0.5, f64::NAN, 0.1], 1).unwrap_err(),
            SchedError::InvalidWeight { page: 1 }
        );
    }

    #[test]
    fn infinite_weight_rejected() {
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                optimize_layout(&[0.5, 0.3, inf], &OptimizerConfig::default()).unwrap_err(),
                SchedError::InvalidWeight { page: 2 }
            );
            assert_eq!(
                sqrt_rule_bound(&[0.5, 0.3, inf], 2).unwrap_err(),
                SchedError::InvalidWeight { page: 2 }
            );
        }
    }

    #[test]
    fn negative_weight_rejected() {
        assert_eq!(
            optimize_layout(&[-0.25, 0.5], &OptimizerConfig::default()).unwrap_err(),
            SchedError::InvalidWeight { page: 0 }
        );
        assert_eq!(
            sqrt_rule_bound(&[-0.25, 0.5], 1).unwrap_err(),
            SchedError::InvalidWeight { page: 0 }
        );
        assert_eq!(
            sqrt_rule_bound(&[0.5], 0).unwrap_err(),
            SchedError::NoChannels
        );
    }

    #[test]
    fn candidate_thinning_still_works() {
        let probs = zipf_probs(500, 0.95);
        let cfg = OptimizerConfig {
            max_disks: 2,
            max_delta: 3,
            max_candidates: 8,
            max_channels: 1,
        };
        let best = optimize_layout(&probs, &cfg).unwrap();
        assert!(best.expected_delay <= 250.0);
    }

    fn thinned(max_candidates: usize, max_channels: usize) -> OptimizerConfig {
        OptimizerConfig {
            max_disks: 4,
            max_delta: 7,
            max_candidates,
            max_channels,
        }
    }

    #[test]
    fn zero_candidates_search_no_multi_disk_layout() {
        assert!(boundary_candidates(100, 0).is_empty());
        let probs = zipf_probs(100, 0.95);
        for max_channels in [1, 3] {
            let best = optimize_layout(&probs, &thinned(0, max_channels)).unwrap();
            assert_eq!(best.layout.sizes(), &[100]);
            assert_eq!(
                key(&best),
                key(&exhaustive(&probs, &thinned(0, max_channels)))
            );
        }
    }

    #[test]
    fn one_candidate_splits_in_the_middle() {
        assert_eq!(boundary_candidates(3, 1), vec![1]);
        assert_eq!(boundary_candidates(100, 1), vec![50]);
        assert_eq!(boundary_candidates(101, 1), vec![50]);
        let probs = zipf_probs(100, 0.95);
        for max_channels in [1, 3] {
            let best = optimize_layout(&probs, &thinned(1, max_channels)).unwrap();
            assert_eq!(best.layout.sizes(), &[50, 50]);
            assert_eq!(
                key(&best),
                key(&exhaustive(&probs, &thinned(1, max_channels)))
            );
        }
    }

    #[test]
    fn two_candidates_are_the_ends() {
        assert_eq!(boundary_candidates(100, 2), vec![1, 99]);
        let probs = zipf_probs(100, 0.95);
        for max_channels in [1, 3] {
            let best = optimize_layout(&probs, &thinned(2, max_channels)).unwrap();
            assert!(best.layout.sizes()[0] == 1, "{:?}", best.layout);
            assert_eq!(
                key(&best),
                key(&exhaustive(&probs, &thinned(2, max_channels)))
            );
        }
    }

    /// One hot page over five cold ones: its best airing gap is 2 slots,
    /// first reached at one channel (disks [1, 5], Δ = 4) and tied at three
    /// and four. The search meets the ties in reverse and must keep the
    /// one-channel leaf.
    #[test]
    fn exact_ties_go_to_the_fewest_channels() {
        let probs = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let cfg = thinned(64, 4);
        let best = optimize_layout(&probs, &cfg).unwrap();
        assert_eq!((best.channels, best.delta), (1, 4));
        assert_eq!(best.layout.sizes(), &[1, 5]);
        assert_eq!(best.expected_delay, 1.0);
        assert_eq!(key(&best), key(&exhaustive(&probs, &cfg)));
    }

    /// When the winner has a disk narrower than its channel count, that
    /// disk misses a channel and changes its LCM; the O(C) screen would
    /// misjudge such a leaf.
    #[test]
    fn narrow_disk_winners_equal_exhaustive() {
        let mut narrow_wins = 0;
        for n in 3..24 {
            let mut probs = vec![1.0; n];
            probs[0] = n as f64;
            for max_channels in 2..=4 {
                let cfg = OptimizerConfig {
                    max_disks: 3,
                    ..thinned(64, max_channels)
                };
                let best = optimize_layout(&probs, &cfg).unwrap();
                assert_eq!(key(&best), key(&exhaustive(&probs, &cfg)), "n = {n}");
                narrow_wins += usize::from(best.layout.sizes().iter().any(|&s| s < best.channels));
            }
        }
        assert!(narrow_wins > 0, "no winner had a narrow disk");
    }

    /// The bounded search equals the oracle on two 5000-page catalogs
    /// shaped like the ledger's `replan` workload, at its configuration.
    #[test]
    fn replan_scale_catalogs_equal_exhaustive() {
        let cfg = OptimizerConfig {
            max_disks: 4,
            max_delta: 7,
            max_candidates: 48,
            max_channels: 4,
        };
        for (theta, seed) in [(0.5, 1), (1.3, 2)] {
            let probs = wobbled_zipf(5000, theta, seed);
            let best = optimize_layout(&probs, &cfg).unwrap();
            assert_eq!(key(&best), key(&exhaustive(&probs, &cfg)), "θ = {theta}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pruning and screening never change the answer: the result is
        /// the exhaustive scan's, delay bits included.
        #[test]
        fn bounded_search_equals_exhaustive(
            probs in catalog(300),
            max_disks in 0usize..=5,
            max_delta in 0u64..=7,
            max_candidates in 0usize..=64,
            max_channels in 1usize..=4,
        ) {
            let cfg = OptimizerConfig { max_disks, max_delta, max_candidates, max_channels };
            // Redraw the few cases whose oracle scan alone would take
            // seconds in a debug build; the 5000-page test covers scale.
            prop_assume!(leaf_count(probs.len(), &cfg) <= 1_000_000);
            let best = optimize_layout(&probs, &cfg).unwrap();
            prop_assert_eq!(key(&best), key(&exhaustive(&probs, &cfg)));
        }

        /// No node's bound exceeds the exact delay of any leaf beneath it:
        /// at every level of every leaf's path, root to leaf.
        #[test]
        fn subtree_bound_never_exceeds_a_leaf(
            probs in catalog(60),
            k in 2usize..=4,
            delta in 1u64..=7,
            max_candidates in 1usize..=16,
            channels in 1usize..=4,
        ) {
            let n = probs.len();
            let prefix = prefix_sums(&probs);
            let tail = root_tail(&probs);
            let candidates = boundary_candidates(n, max_candidates);
            let stripes = (channels > 1).then(|| stripe_tables(&probs, channels));
            let (freqs, num_chunks, max_chunks) = delta_freqs(k, delta);
            let ctx = SearchCtx {
                candidates: &candidates,
                prefix: &prefix,
                stripes: stripes.as_deref(),
                root_tail: &tail,
                channels,
                freqs: &freqs,
                num_chunks: &num_chunks,
                max_chunks,
                delta,
            };
            let mut bounds = vec![0usize; k + 1];
            bounds[k] = n;
            let mut worst: Option<(f64, f64, Vec<usize>)> = None;
            search_boundaries(&ctx, &mut bounds, 1, 0, &mut |b| {
                let Some(exact) = exact_delay(&ctx, b) else { return };
                let mut sums = vec![Partial::default(); channels];
                for level in 0..=k {
                    if level > 0 {
                        for (c, s) in sums.iter_mut().enumerate() {
                            *s = s.plus(&ctx, level - 1, b[level - 1], b[level], c);
                        }
                    }
                    let lower = bound(&sums, tail[b[level]]);
                    if lower > exact * (1.0 + 1e-12) {
                        worst = Some((lower, exact, b.to_vec()));
                    }
                }
            });
            prop_assert!(worst.is_none(), "bound above a leaf: {:?}", worst);
        }

        /// `evaluate` and `evaluate_channels` equal the generated plan's
        /// own expected delay, for any non-increasing frequencies and with
        /// disks narrower than the channel count (they drop out of later
        /// channels, or leave a channel empty: both sides then reject).
        #[test]
        fn evaluators_match_generated_plan(
            sizes in prop::collection::vec(1usize..=12, 1..=5),
            steps in prop::collection::vec(0u64..=3, 5),
            channels in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let k = sizes.len();
            let mut freqs = vec![1 + steps[k - 1]; k];
            for i in (0..k - 1).rev() {
                freqs[i] = freqs[i + 1] + steps[i];
            }
            let layout = DiskLayout::new(sizes.clone(), freqs.clone()).unwrap();
            let n = layout.total_pages();
            let mut rng = StdRng::seed_from_u64(seed);
            let probs: Vec<f64> = (0..n)
                .map(|_| if rng.random_range(0u32..5) == 0 { 0.0 } else { rng.random::<f64>() })
                .collect();
            let mut bounds = vec![0usize];
            for &s in &sizes {
                bounds.push(bounds.last().unwrap() + s);
            }
            let max_chunks = freqs.iter().copied().fold(1u64, lcm);
            let num_chunks: Vec<u64> = freqs.iter().map(|&f| max_chunks / f).collect();
            let prefix = prefix_sums(&probs);
            let stripes = stripe_tables(&probs, channels);
            let ctx = SearchCtx {
                candidates: &[],
                prefix: &prefix,
                stripes: Some(&stripes),
                root_tail: &[],
                channels,
                freqs: &freqs,
                num_chunks: &num_chunks,
                max_chunks,
                delta: 0,
            };
            let mut ours = vec![evaluate_channels(&ctx, &bounds)];
            if channels == 1 {
                ours.push(evaluate(&prefix, &freqs, &num_chunks, max_chunks, &bounds));
            }
            let plan = crate::BroadcastPlan::generate(&layout, channels);
            let sqrt_bound = sqrt_rule_bound(&probs, channels).unwrap();
            if let Ok(plan) = &plan {
                let delay = plan.expected_delay(&probs);
                prop_assert!(
                    sqrt_bound <= delay * (1.0 + 1e-12),
                    "square-root bound {} above plan {}", sqrt_bound, delay
                );
            }
            if channels == 1 {
                // The square-root rule as usually stated, kept as an oracle.
                let roots: f64 = probs.iter().map(|p| p.sqrt()).sum();
                let oracle = roots * roots / 2.0;
                prop_assert!(
                    (sqrt_bound - oracle).abs() <= 1e-12 * oracle,
                    "bound {} vs (Σ√p)²/2 = {}", sqrt_bound, oracle
                );
            }
            for delay in ours {
                match (delay, &plan) {
                    (Some(d), Ok(plan)) => {
                        let expect = plan.expected_delay(&probs);
                        prop_assert!(
                            (d - expect).abs() <= 1e-9 * expect.abs().max(d.abs()),
                            "evaluator {} vs plan {}", d, expect
                        );
                    }
                    (None, Err(SchedError::EmptyChannel { .. })) => {}
                    (d, p) => prop_assert!(false, "evaluator {:?} vs plan {:?}", d, p.as_ref().err()),
                }
            }
        }
    }
}
