//! Erasure coding over the broadcast cycle: repair symbols that let a
//! client reconstruct a missed page in a few slots instead of waiting a
//! full period for its next airing.
//!
//! The scheduler ([`bdisk_sched::BroadcastPlan::with_coding`]) places
//! [`Slot::Repair`] slots into each channel's period; this crate defines
//! what those slots *carry*. A repair symbol is the XOR of the payloads of
//! some of the pages in its coverage window — the last `group` distinct
//! multi-airing pages aired before it (once-per-period pages are uncoded
//! by design; see [`BroadcastProgram::coverage_window`]). Which
//! subset is a pure function of `(coding seed, channel, repair id)`, so the
//! server-side encoder and every client derive identical compositions with
//! no side channel: that determinism contract is the whole design.
//!
//! The plan's [`CodecKind`] chooses the selection:
//!
//! * [`CodecKind::Xor`] — systematic parity: the symbol combines the
//!   *entire* window, so any single loss inside the window is repaired by
//!   the next covering symbol.
//! * [`CodecKind::Lt`] — LT/fountain coding: the symbol combines a random
//!   subset of the window, its degree drawn from a windowed soliton
//!   profile (dense ~0.6·`group` checks plus a light soliton tail).
//!   Individual symbols repair less, but overlapping symbols of mixed
//!   degree let the belief-propagation peeling decoder ([`DecodeWindow`])
//!   recover multiple losses — including patterns whole-window parity can
//!   never untangle, because interval XORs are prefix-sum constraints and
//!   lose rank under clustered losses.
//!
//! [`ChannelCode::build`] compiles a channel's program + config into the
//! per-symbol composition table both ends work from; [`DecodeWindow`] is
//! the client-side bounded ring that tracks heard/lost data slots and
//! peels repair symbols as they arrive.

#![warn(missing_docs)]

use bdisk_sched::{BroadcastProgram, CodecKind, CodingConfig, PageId, RepairId, Slot};

mod window;

pub use window::{DecodeWindow, Decoded};

/// The entries of `window` that symbol `id` of `channel` combines, in
/// window order: all of them under [`CodecKind::Xor`]. Under
/// [`CodecKind::Lt`] the symbol's degree `d` is drawn from a windowed
/// soliton profile over the window size, then `d` distinct window entries
/// are picked — all draws seeded by `(seed, channel, id)`, so the server
/// and every client select the same subset, forever. `picks` is scratch.
///
/// The profile is *not* the classic robust soliton. That distribution is
/// tuned for the fountain regime — the receiver collects ~`k` symbols and
/// block-decodes — whereas a broadcast channel airs only a handful of
/// symbols per window span and the decoder peels them online. Streaming
/// repair wants moderately *dense* checks (about 0.6·k) so every slot sits
/// under several independent equations, plus a light soliton tail whose
/// degree-1/2 symbols give the peeler somewhere to start. Whole-window
/// parity is no substitute: interval XORs are prefix-sum constraints and
/// go rank-deficient under multiple losses, which is exactly when coding
/// is supposed to earn its airtime.
fn compose(
    codec: CodecKind,
    window: &[(u32, PageId)],
    channel: u16,
    id: RepairId,
    seed: u64,
    picks: &mut Vec<usize>,
) -> Vec<(u32, PageId)> {
    let k = window.len();
    if codec == CodecKind::Xor || k <= 2 {
        return window.to_vec();
    }
    let mut rng = SplitMix::new(mix64(
        seed ^ 0x4c54_c0de // domain tag: LT composition
            ^ ((channel as u64) << 32)
            ^ id.0 as u64,
    ));
    let d = windowed_degree(k, rng.next_f64(), rng.next_f64());
    // Partial Fisher-Yates: pick d distinct indices, then restore window
    // order so compositions read most-recent-first.
    picks.clear();
    picks.extend(0..k);
    for i in 0..d {
        let j = i + (rng.next_u64() as usize) % (k - i);
        picks.swap(i, j);
    }
    let picked = &mut picks[..d];
    picked.sort_unstable();
    picked.iter().map(|&i| window[i]).collect()
}

/// Light-tail mass of the windowed profile: the fraction of symbols drawn
/// from the ideal soliton (degrees mostly 1–2) rather than the dense band.
const LIGHT_MASS: f64 = 0.15;

/// Draws a degree from the windowed soliton profile over a `k`-entry
/// window given two uniform draws. With probability [`LIGHT_MASS`] the
/// degree comes from the ideal soliton (CDF `F(1) = 1/k`,
/// `F(d) = 1/k + 1 − 1/d`, inverted in closed form) — these light symbols
/// repair isolated losses on the spot and seed the peeling cascade. The
/// rest are dense checks, uniform over `[⌈k/2⌉, ⌈k/2⌉ + k/5]` clamped to
/// `k`: at a repair spacing of a few slots this puts each data slot under
/// ~3 independent equations, the operating point where online peeling at
/// 2–3× overhead drains an i.i.d. 10% erasure pattern nearly completely.
fn windowed_degree(k: usize, u_kind: f64, u_val: f64) -> usize {
    debug_assert!(k >= 2);
    if u_kind < LIGHT_MASS {
        let kf = k as f64;
        if u_val < 1.0 / kf {
            return 1;
        }
        // Invert F(d) = 1/k + 1 − 1/d for d ≥ 2.
        let d = (1.0 / (1.0 - (u_val - 1.0 / kf))).ceil() as usize;
        return d.clamp(2, k);
    }
    let lo = k.div_ceil(2);
    let hi = (lo + k / 5).min(k);
    lo + (u_val * (hi - lo + 1) as f64) as usize
}

/// One repair symbol's compiled composition: where it sits in the period
/// and exactly which data airings it combines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolSpec {
    /// Period offset of the repair slot.
    pub offset: u32,
    /// The symbol's id (its index among the channel's repair slots).
    pub id: RepairId,
    /// The combined data airings as `(period offset, page)` pairs —
    /// channel-local page ids, one entry per distinct page.
    pub covers: Vec<(u32, PageId)>,
}

/// A channel's compiled code: the composition of every repair symbol in
/// its period. Built identically (from the plan + config alone) by the
/// server-side encoder and each client.
#[derive(Debug, Clone)]
pub struct ChannelCode {
    period: u32,
    symbols: Vec<SymbolSpec>,
}

impl ChannelCode {
    /// Compiles `program`'s repair slots under `cfg`. `channel` seeds the
    /// LT codec so different channels get independent compositions.
    pub fn build(program: &BroadcastProgram, channel: u16, cfg: &CodingConfig) -> Self {
        let mut walker = program.coverage_walker();
        let mut window = Vec::with_capacity(cfg.group);
        let mut picks = Vec::with_capacity(cfg.group);
        let mut symbols = Vec::with_capacity(program.repair_slots());
        for (off, slot) in program.slots().iter().enumerate() {
            if let Slot::Repair(id) = *slot {
                // The scheduler assigns ids in offset order; the encoder
                // and decoder index this table by id, so verify it.
                debug_assert_eq!(id.index(), symbols.len(), "repair ids out of order");
                walker.window(off as u32, cfg.group, &mut window);
                symbols.push(SymbolSpec {
                    offset: off as u32,
                    id,
                    covers: compose(cfg.codec, &window, channel, id, cfg.seed, &mut picks),
                });
            }
        }
        Self {
            period: program.period() as u32,
            symbols,
        }
    }

    /// The channel's period in slots.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// All symbols, in offset (= id) order.
    pub fn symbols(&self) -> &[SymbolSpec] {
        &self.symbols
    }

    /// The composition of symbol `id`, or `None` for an unknown id.
    pub fn symbol(&self, id: RepairId) -> Option<&SymbolSpec> {
        self.symbols.get(id.index())
    }

    /// The absolute slot sequences a symbol aired at `seq` covers, paired
    /// with the covered (channel-local) pages. A symbol covers only slots
    /// *before* its own: for each covered period offset the distance back
    /// is `(offset − o) mod period ∈ [1, period)`.
    pub fn covered_seqs(&self, id: RepairId, seq: u64) -> Option<Vec<(u64, PageId)>> {
        let spec = self.symbol(id)?;
        debug_assert_eq!(seq % self.period as u64, spec.offset as u64);
        let mut out = Vec::with_capacity(spec.covers.len());
        for &(o, page) in &spec.covers {
            let delta = (spec.offset + self.period - o) % self.period;
            debug_assert!(delta > 0);
            let delta = delta as u64;
            if seq < delta {
                // The covered airing predates the start of the broadcast
                // (only possible in the very first period).
                return None;
            }
            out.push((seq - delta, page));
        }
        Some(out)
    }
}

/// XORs `src` into `dst` (the byte-wise group operation every codec and
/// the decoder share). Panics if lengths differ — payload sizes are fixed
/// per run by the engine config.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "payload size mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

/// `splitmix64`'s finalizer: a fast, well-mixed 64-bit hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Minimal splitmix64 stream — deterministic, dependency-free, and stable
/// across platforms (part of the determinism contract, so we do not reach
/// for an external RNG whose stream might change).
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk_sched::{BroadcastPlan, DiskLayout};
    use proptest::prelude::*;

    fn coded_plan(rate: f64, group: usize, codec: CodecKind) -> BroadcastPlan {
        let layout = DiskLayout::with_delta(&[6, 18, 24], 3).unwrap();
        let cfg = CodingConfig {
            rate,
            group,
            codec,
            seed: 0xC0DE,
        };
        BroadcastPlan::generate(&layout, 2)
            .unwrap()
            .with_coding(cfg)
            .unwrap()
    }

    /// The window rule and codec selection `ChannelCode::build` compiled
    /// before it walked a once-built list of coded slots: one backward
    /// walk over the period per repair slot, deduplicated by search, then
    /// the codec's draw over that window. Kept as the oracle.
    fn oracle_build(
        program: &BroadcastProgram,
        channel: u16,
        cfg: &CodingConfig,
    ) -> Vec<SymbolSpec> {
        let period = program.period() as u32;
        let slots = program.slots();
        let airings = slots.iter().filter(|s| matches!(s, Slot::Page(_))).count();
        let hot_only = airings > program.num_pages();
        let mut symbols = Vec::new();
        for (off, slot) in slots.iter().enumerate() {
            let Slot::Repair(id) = *slot else { continue };
            let mut pages: Vec<PageId> = Vec::new();
            let mut window: Vec<u32> = Vec::new();
            for d in 1..period {
                let o = (off as u32 + period - d) % period;
                if let Slot::Page(p) = slots[o as usize] {
                    if hot_only && program.frequency(p) < 2 {
                        continue;
                    }
                    if !pages.contains(&p) {
                        pages.push(p);
                        window.push(o);
                        if window.len() == cfg.group {
                            break;
                        }
                    }
                }
            }
            let k = window.len();
            let picked: Vec<u32> = if cfg.codec == CodecKind::Xor || k <= 2 {
                window
            } else {
                let mut rng = SplitMix::new(mix64(
                    cfg.seed ^ 0x4c54_c0de ^ ((channel as u64) << 32) ^ id.0 as u64,
                ));
                let d = windowed_degree(k, rng.next_f64(), rng.next_f64());
                let mut idx: Vec<usize> = (0..k).collect();
                for i in 0..d {
                    let j = i + (rng.next_u64() as usize) % (k - i);
                    idx.swap(i, j);
                }
                let mut picked = idx[..d].to_vec();
                picked.sort_unstable();
                picked.into_iter().map(|i| window[i]).collect()
            };
            let covers = picked
                .into_iter()
                .map(|o| match slots[o as usize] {
                    Slot::Page(p) => (o, p),
                    other => unreachable!("window offset {o} holds {other:?}"),
                })
                .collect();
            symbols.push(SymbolSpec {
                offset: off as u32,
                id,
                covers,
            });
        }
        symbols
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every composition `ChannelCode::build` compiles equals the
        /// oracle's, on every channel of random coded plans.
        #[test]
        fn build_equals_the_window_walk_oracle(
            sizes in prop::collection::vec(1usize..=60, 1..=4),
            delta in 0u64..=4,
            channels in 1usize..=4,
            rate in 0.01f64..0.5,
            group in 1usize..=32,
            lt in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let layout = DiskLayout::with_delta(&sizes, delta).unwrap();
            let cfg = CodingConfig {
                rate,
                group,
                codec: if lt { CodecKind::Lt } else { CodecKind::Xor },
                seed,
            };
            let plan = BroadcastPlan::generate(&layout, channels).and_then(|p| p.with_coding(cfg));
            prop_assume!(plan.is_ok());
            let plan = plan.unwrap();
            for c in 0..plan.num_channels() {
                let prog = plan.program(bdisk_sched::ChannelId(c as u16));
                let code = ChannelCode::build(prog, c as u16, &cfg);
                prop_assert_eq!(code.symbols(), &oracle_build(prog, c as u16, &cfg)[..]);
            }
        }
    }

    #[test]
    fn build_is_deterministic_and_ordered() {
        for kind in [CodecKind::Xor, CodecKind::Lt] {
            let plan = coded_plan(0.1, 8, kind);
            let cfg = *plan.coding().unwrap();
            for c in 0..2u16 {
                let prog = plan.program(bdisk_sched::ChannelId(c));
                let a = ChannelCode::build(prog, c, &cfg);
                let b = ChannelCode::build(prog, c, &cfg);
                assert_eq!(a.symbols(), b.symbols());
                assert_eq!(a.symbols().len(), prog.repair_slots());
                for (i, s) in a.symbols().iter().enumerate() {
                    assert_eq!(s.id.index(), i);
                    assert!(!s.covers.is_empty());
                    // Covers are distinct pages at distinct offsets.
                    for (j, &(o1, p1)) in s.covers.iter().enumerate() {
                        for &(o2, p2) in &s.covers[j + 1..] {
                            assert_ne!(o1, o2);
                            assert_ne!(p1, p2);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn xor_covers_whole_window_lt_subset() {
        let plan = coded_plan(0.1, 8, CodecKind::Xor);
        let cfg = *plan.coding().unwrap();
        let prog = plan.program(bdisk_sched::ChannelId(0));
        let code = ChannelCode::build(prog, 0, &cfg);
        for s in code.symbols() {
            let window = prog.coverage_window(s.offset, cfg.group);
            assert_eq!(s.covers.len(), window.len());
        }

        let plan = coded_plan(0.1, 8, CodecKind::Lt);
        let cfg = *plan.coding().unwrap();
        let prog = plan.program(bdisk_sched::ChannelId(0));
        let code = ChannelCode::build(prog, 0, &cfg);
        let mut degrees: Vec<usize> = Vec::new();
        for s in code.symbols() {
            let window = prog.coverage_window(s.offset, cfg.group);
            assert!(s.covers.len() <= window.len());
            // Every cover comes from the window.
            for &(o, _) in &s.covers {
                assert!(window.contains(&o));
            }
            degrees.push(s.covers.len());
        }
        // Soliton sampling mixes degrees (mostly small, some large).
        if degrees.len() >= 4 {
            let distinct: std::collections::HashSet<_> = degrees.iter().collect();
            assert!(distinct.len() > 1, "all LT degrees equal: {degrees:?}");
        }
    }

    #[test]
    fn covered_seqs_point_strictly_backwards() {
        let plan = coded_plan(0.15, 6, CodecKind::Xor);
        let cfg = *plan.coding().unwrap();
        let prog = plan.program(bdisk_sched::ChannelId(1));
        let code = ChannelCode::build(prog, 1, &cfg);
        let period = prog.period() as u64;
        for s in code.symbols() {
            let seq = 5 * period + s.offset as u64;
            let covered = code.covered_seqs(s.id, seq).unwrap();
            for &(cs, page) in &covered {
                assert!(cs < seq && seq - cs < period);
                assert_eq!(prog.slot_at(cs), Slot::Page(page));
            }
        }
    }

    #[test]
    fn windowed_degrees_mix_light_and_dense() {
        let k = 20;
        let (mut light, mut dense) = (0, 0);
        for i in 0..1000 {
            let u_kind = (i as f64 + 0.5) / 1000.0;
            for j in 0..20 {
                let u_val = (j as f64 + 0.5) / 20.0;
                let d = windowed_degree(k, u_kind, u_val);
                assert!((1..=k).contains(&d), "degree {d} out of range");
                if u_kind < LIGHT_MASS {
                    light += 1;
                } else {
                    // Dense checks stay in the [k/2, k/2 + k/5] band.
                    assert!((10..=14).contains(&d), "dense degree {d}");
                    dense += 1;
                }
            }
        }
        // The light tail exists (peeling needs somewhere to start) but the
        // bulk of symbols are dense checks.
        assert!(
            light > 0 && dense > 4 * light,
            "light={light} dense={dense}"
        );
    }

    #[test]
    fn xor_into_is_involutive() {
        let a: Vec<u8> = (0..32).collect();
        let b: Vec<u8> = (0..32).map(|i| i * 7 + 3).collect();
        let mut s = a.clone();
        xor_into(&mut s, &b);
        xor_into(&mut s, &b);
        assert_eq!(s, a);
    }
}
