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
//! * **Table.** Each channel-count pass tabulates, for every pair of
//!   candidate positions and every channel, the page count and mass that a
//!   disk spanning them stripes onto that channel. A node adds one cell per
//!   channel to its parent's sums: no division, no allocation.
//! * **Leaves.** Every leaf is first held to the bound with nothing left
//!   unplaced, which holds for every leaf. A survivor whose disks all reach
//!   every channel then gets the screen, its delay with each channel's
//!   period taken as `max_chunks · Σ ⌈count/num_chunks⌉`: the exact value
//!   up to rounding. A leaf with a disk narrower than `C` (the disk misses
//!   a channel, which changes that channel's LCM) cannot be screened; the
//!   bound alone filters it. Only a leaf within the margin of the incumbent
//!   reaches the exact evaluator, which alone decides.
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

#[cfg(test)]
thread_local! {
    /// Nodes visited and exact evaluations made on this thread: the work
    /// the tests pin.
    static WORK: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

#[cfg(test)]
fn tally(nodes: u64, exact: u64) {
    WORK.with(|w| {
        let (n, e) = w.get();
        w.set((n + nodes, e + exact));
    });
}

/// The pages one disk stripes onto one channel.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// How many pages.
    count: usize,
    /// Their probability mass.
    mass: f64,
}

/// One channel count's table of every disk the search can place. A disk
/// starts and ends at two of the positions, so a node's per-channel sums
/// cost one table read each and no division.
struct Segments {
    /// The page positions a disk may start or end at: 0, the candidate
    /// boundaries, and the page count, strictly increasing. The search
    /// works in indices into this list.
    positions: Vec<usize>,
    channels: usize,
    /// `cells[(lo·P + hi)·channels + c]`, `P = positions.len()`: what a
    /// disk spanning `positions[lo]..positions[hi]` puts on channel `c`
    /// (in-disk offsets `≡ c (mod channels)`).
    cells: Vec<Cell>,
}

impl Segments {
    fn new(probs: &[f64], candidates: &[usize], channels: usize) -> Self {
        let n = probs.len();
        let positions: Vec<usize> = std::iter::once(0)
            .chain(candidates.iter().copied())
            .chain(std::iter::once(n))
            .collect();
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        // `strided[i·channels + r]` = mass of the pages p < positions[i]
        // with p ≡ r (mod channels), summed in page order.
        let mut strided = Vec::with_capacity(positions.len() * channels);
        let mut sums = vec![0.0; channels];
        let (mut x, mut r) = (0, 0);
        for &to in &positions {
            for &p in &probs[x..to] {
                sums[r] += p;
                r = if r + 1 == channels { 0 } else { r + 1 };
            }
            x = to;
            strided.extend_from_slice(&sums);
        }
        let np = positions.len();
        let mut cells = vec![Cell::default(); np * np * channels];
        for (i, &lo) in positions.iter().enumerate() {
            for (j, &hi) in positions.iter().enumerate().skip(i + 1) {
                for c in 0..channels.min(hi - lo) {
                    let r = (lo + c) % channels;
                    cells[(i * np + j) * channels + c] = Cell {
                        count: (hi - lo - c).div_ceil(channels),
                        mass: strided[j * channels + r] - strided[i * channels + r],
                    };
                }
            }
        }
        Self {
            positions,
            channels,
            cells,
        }
    }

    /// One cell per channel for a disk spanning positions `lo..hi`.
    fn cells(&self, lo: usize, hi: usize) -> &[Cell] {
        let at = (lo * self.positions.len() + hi) * self.channels;
        &self.cells[at..at + self.channels]
    }
}

/// Immutable inputs of one (channel count, disk count, Δ) search slice.
struct SearchCtx<'a> {
    segments: &'a Segments,
    /// `root_tail[x]` = Σ √(p/2) over pages `x..n`: the bound's share of
    /// the pages not yet placed.
    root_tail: &'a [f64],
    freqs: &'a [u64],
    /// Chunk counts per disk (`max_chunks / freq`), for the leaf screen.
    num_chunks: &'a [u64],
    max_chunks: u64,
    delta: u64,
}

/// One channel's sums over the disks fixed so far.
#[derive(Debug, Clone, Copy, Default)]
struct Partial {
    /// `A_c` = Σ count·f: airings per period, a floor on the period.
    airings: f64,
    /// `W_c` = Σ mass/(2f): expected delay per slot of period.
    weight: f64,
}

impl Partial {
    /// These sums plus the pages `cell` of a disk at frequency `f`, where
    /// `half_inv` = 1/(2f).
    fn plus(self, cell: Cell, f: f64, half_inv: f64) -> Self {
        Self {
            airings: self.airings + cell.count as f64 * f,
            weight: self.weight + cell.mass * half_inv,
        }
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
    let root_tail = root_tail(probs);
    let candidates = boundary_candidates(n, cfg.max_candidates);

    let mut best = flat_layout(probs)?;
    for channels in (1..=cfg.max_channels.min(n)).rev() {
        let root = vec![Partial::default(); channels];
        if beaten(bound(&root, root_tail[0]), best.expected_delay) {
            continue;
        }
        let segments = Segments::new(probs, &candidates, channels);
        let last = segments.positions.len() - 1;
        let flat = SearchCtx {
            segments: &segments,
            root_tail: &root_tail,
            freqs: &[1],
            num_chunks: &[1],
            max_chunks: 1,
            delta: 0,
        };
        if channels > 1 {
            // Flat layout striped across the channels (K = 1).
            offer(&flat, &[0, last], &mut best);
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
                bounds[k] = last;
                let mut sums = vec![Partial::default(); k * channels];
                descend(&ctx, &mut bounds, 1, &root, &mut sums, &mut best);
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

/// `root_tail[x]` = Σ √(p/2) over pages `x..n`, summed from the cold end.
fn root_tail(probs: &[f64]) -> Vec<f64> {
    let mut tail = vec![0.0; probs.len() + 1];
    for x in (0..probs.len()).rev() {
        tail[x] = tail[x + 1] + (probs[x] / 2.0).sqrt();
    }
    tail
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
fn flat_layout(probs: &[f64]) -> Result<OptimizedLayout, SchedError> {
    let n = probs.len();
    Ok(OptimizedLayout {
        layout: DiskLayout::new(vec![n], vec![1])?,
        delta: 0,
        channels: 1,
        expected_delay: probs.iter().fold(0.0, |sum, &p| sum + p) * n as f64 / 2.0,
    })
}

/// A disk's frequency as `f64` and `1/(2f)`, the factors of its
/// [`Partial::plus`].
fn rates(ctx: &SearchCtx<'_>, disk: usize) -> (f64, f64) {
    let f = ctx.freqs[disk] as f64;
    (f, 0.5 / f)
}

/// Chooses `bounds[level]`, the end of disk `level − 1`, as a position
/// index after `bounds[level − 1]`, in increasing order. `fixed` holds the
/// per-channel sums over disks `0..level − 1`; `scratch` holds one such
/// row per deeper level, and one for the leaf.
fn descend(
    ctx: &SearchCtx<'_>,
    bounds: &mut [usize],
    level: usize,
    fixed: &[Partial],
    scratch: &mut [Partial],
    best: &mut OptimizedLayout,
) {
    let seg = ctx.segments;
    let pos = &seg.positions;
    let k = ctx.freqs.len();
    let chans = seg.channels;
    let (lo, end) = (bounds[level - 1], bounds[k]);
    let (f, half_inv) = rates(ctx, level - 1);
    let (f_last, half_inv_last) = rates(ctx, k - 1);
    let narrow_above = bounds[..level]
        .windows(2)
        .any(|w| pos[w[1]] - pos[w[0]] < chans);
    let (sums, deeper) = scratch.split_at_mut(chans);
    for b in lo + 1..end {
        bounds[level] = b;
        #[cfg(test)]
        tally(1, 0);
        for ((s, &p), &cell) in sums.iter_mut().zip(fixed).zip(seg.cells(lo, b)) {
            *s = p.plus(cell, f, half_inv);
        }
        if level + 1 < k {
            if !beaten(bound(sums, ctx.root_tail[pos[b]]), best.expected_delay) {
                descend(ctx, bounds, level + 1, sums, deeper, best);
            }
            continue;
        }
        // A leaf: the last disk spans b..end. Its bound is cheap and
        // holds for every leaf, narrow or not.
        let leaf = &mut deeper[..chans];
        for ((l, &s), &cell) in leaf.iter_mut().zip(&*sums).zip(seg.cells(b, end)) {
            *l = s.plus(cell, f_last, half_inv_last);
        }
        if beaten(bound(leaf, 0.0), best.expected_delay) {
            continue;
        }
        let narrow = narrow_above || pos[b] - pos[lo] < chans || pos[end] - pos[b] < chans;
        if narrow || !beaten(screen(ctx, bounds, leaf), best.expected_delay) {
            offer(ctx, bounds, best);
        }
    }
}

/// A leaf's delay when every disk reaches every channel, so that each
/// channel's period is `max_chunks · Σ ⌈count/num_chunks⌉`: the exact
/// evaluator's value up to rounding. `leaf` holds the leaf's sums.
fn screen(ctx: &SearchCtx<'_>, bounds: &[usize], leaf: &[Partial]) -> f64 {
    leaf.iter()
        .enumerate()
        .map(|(c, s)| {
            let minor: usize = bounds
                .windows(2)
                .zip(ctx.num_chunks)
                .map(|(w, &chunks)| {
                    ctx.segments.cells(w[0], w[1])[c]
                        .count
                        .div_ceil(chunks as usize)
                })
                .sum();
            (ctx.max_chunks as usize * minor) as f64 * s.weight
        })
        .sum()
}

/// Evaluates one configuration exactly and makes it the incumbent when it
/// is better, or equally good and earlier in the exhaustive order. Leaves
/// of one channel count arrive in that order, and counts run from the most
/// down, so an exact tie wins only with fewer channels.
fn offer(ctx: &SearchCtx<'_>, bounds: &[usize], best: &mut OptimizedLayout) {
    let Some(delay) = exact_delay(ctx, bounds) else {
        return;
    };
    if delay < best.expected_delay
        || (delay == best.expected_delay && ctx.segments.channels < best.channels)
    {
        let pos = &ctx.segments.positions;
        let sizes = bounds.windows(2).map(|w| pos[w[1]] - pos[w[0]]).collect();
        if let Ok(layout) = DiskLayout::new(sizes, ctx.freqs.to_vec()) {
            *best = OptimizedLayout {
                layout,
                delta: ctx.delta,
                channels: ctx.segments.channels,
                expected_delay: delay,
            };
        }
    }
}

/// The exact analytic delay of a configuration (disk `i` spans positions
/// `bounds[i]..bounds[i + 1]`), exactly mirroring
/// [`crate::BroadcastPlan::generate`]: channel `c` receives in-disk offsets
/// `≡ c (mod channels)` of every disk, disks that contribute no pages drop
/// out, and the channel's period comes from the LCM of the *remaining*
/// frequencies. `None` when a channel would be empty.
fn exact_delay(ctx: &SearchCtx<'_>, bounds: &[usize]) -> Option<f64> {
    #[cfg(test)]
    tally(0, 1);
    let seg = ctx.segments;
    let mut delay = 0.0;
    for c in 0..seg.channels {
        // The disks that reach channel c, with their frequencies.
        let disks = || {
            bounds
                .windows(2)
                .zip(ctx.freqs)
                .map(move |(w, &f)| (seg.cells(w[0], w[1])[c], f))
                .filter(|(cell, _)| cell.count > 0)
        };
        // An empty channel: plan generation would reject it.
        disks().next()?;
        let max_chunks = disks().fold(1u64, |l, (_, f)| lcm(l, f));
        let minor_len: usize = disks()
            .map(|(cell, f)| cell.count.div_ceil((max_chunks / f) as usize))
            .sum();
        let period = max_chunks as usize * minor_len;
        for (cell, f) in disks() {
            delay += cell.mass * period as f64 / (2.0 * f as f64);
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
        let candidates = boundary_candidates(n, cfg.max_candidates);
        let mut best = flat_layout(probs).unwrap();
        for channels in 1..=cfg.max_channels.min(n) {
            let segments = Segments::new(probs, &candidates, channels);
            let last = segments.positions.len() - 1;
            let flat = SearchCtx {
                segments: &segments,
                root_tail: &[],
                freqs: &[1],
                num_chunks: &[1],
                max_chunks: 1,
                delta: 0,
            };
            if channels > 1 {
                consider(&flat, &[0, last], &mut best);
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
                    bounds[k] = last;
                    search_boundaries(&mut bounds, 1, &mut |b| consider(&ctx, b, &mut best));
                }
            }
        }
        best
    }

    /// Visits every choice of the position indices `bounds[level..k]`
    /// between `bounds[0]` and `bounds[k]`, strictly increasing, in
    /// lexicographic order.
    fn search_boundaries(bounds: &mut [usize], level: usize, visit: &mut impl FnMut(&[usize])) {
        let k = bounds.len() - 1;
        if level == k {
            visit(bounds);
            return;
        }
        for b in bounds[level - 1] + 1..bounds[k] {
            bounds[level] = b;
            search_boundaries(bounds, level + 1, visit);
        }
    }

    /// Replaces `best` when the configuration strictly improves on it.
    fn consider(ctx: &SearchCtx<'_>, bounds: &[usize], best: &mut OptimizedLayout) {
        if let Some(delay) = exact_delay(ctx, bounds) {
            if delay < best.expected_delay {
                let pos = &ctx.segments.positions;
                let sizes: Vec<usize> = bounds.windows(2).map(|w| pos[w[1]] - pos[w[0]]).collect();
                if let Ok(layout) = DiskLayout::new(sizes, ctx.freqs.to_vec()) {
                    *best = OptimizedLayout {
                        layout,
                        delta: ctx.delta,
                        channels: ctx.segments.channels,
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
    /// The node counts are pinned: bounding leaves must not change which
    /// nodes the search visits. At most 300 leaves per call may reach the
    /// exact evaluator.
    #[test]
    fn replan_scale_catalogs_equal_exhaustive() {
        let cfg = OptimizerConfig {
            max_disks: 4,
            max_delta: 7,
            max_candidates: 48,
            max_channels: 4,
        };
        for (theta, seed, nodes) in [(0.5, 1, 43_866), (1.3, 2, 10_235)] {
            let probs = wobbled_zipf(5000, theta, seed);
            WORK.with(|w| w.set((0, 0)));
            let best = optimize_layout(&probs, &cfg).unwrap();
            let (visited, exact) = WORK.with(|w| w.get());
            assert_eq!(visited, nodes, "θ = {theta}: nodes visited");
            assert!(exact <= 300, "θ = {theta}: {exact} exact evaluations");
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
            let tail = root_tail(&probs);
            let candidates = boundary_candidates(n, max_candidates);
            let segments = Segments::new(&probs, &candidates, channels);
            let (freqs, num_chunks, max_chunks) = delta_freqs(k, delta);
            let ctx = SearchCtx {
                segments: &segments,
                root_tail: &tail,
                freqs: &freqs,
                num_chunks: &num_chunks,
                max_chunks,
                delta,
            };
            let mut bounds = vec![0usize; k + 1];
            bounds[k] = segments.positions.len() - 1;
            let mut worst: Option<(f64, f64, Vec<usize>)> = None;
            search_boundaries(&mut bounds, 1, &mut |b| {
                let Some(exact) = exact_delay(&ctx, b) else { return };
                let mut sums = vec![Partial::default(); channels];
                for level in 0..=k {
                    if level > 0 {
                        let (f, half_inv) = rates(&ctx, level - 1);
                        for (s, &cell) in sums.iter_mut().zip(segments.cells(b[level - 1], b[level])) {
                            *s = s.plus(cell, f, half_inv);
                        }
                    }
                    let lower = bound(&sums, tail[segments.positions[b[level]]]);
                    if lower > exact * (1.0 + 1e-12) {
                        worst = Some((lower, exact, b.to_vec()));
                    }
                }
            });
            prop_assert!(worst.is_none(), "bound above a leaf: {:?}", worst);
        }

        /// `exact_delay` equals the generated plan's own expected delay,
        /// for any non-increasing frequencies and with disks narrower than
        /// the channel count (they drop out of later channels, or leave a
        /// channel empty: both sides then reject).
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
            let segments = Segments::new(&probs, &bounds[1..k], channels);
            let ctx = SearchCtx {
                segments: &segments,
                root_tail: &[],
                freqs: &freqs,
                num_chunks: &num_chunks,
                max_chunks,
                delta: 0,
            };
            let ours = exact_delay(&ctx, &(0..=k).collect::<Vec<_>>());
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
            match (ours, &plan) {
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
