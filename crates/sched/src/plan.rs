//! Multi-channel broadcast plans.
//!
//! The paper superimposes its disks on **one** broadcast channel; a
//! [`BroadcastPlan`] lifts that assumption. A plan is a [`ChannelId`]-indexed
//! set of [`BroadcastProgram`]s driven off one slot clock (slot `k` airs one
//! page per channel) plus a total page → (channel, disk) assignment: every
//! page is broadcast on exactly one channel, so a single-tuner client that
//! misses its cache retunes to the page's channel and waits for its next
//! periodic broadcast there.
//!
//! Generation stripes each disk's pages round-robin across the channels
//! (page `j` of a disk goes to channel `j mod C`), so hot disks are spread
//! first and no channel is all-cold: every channel receives an
//! approximately `1/C`-sized copy of the layout with the *same* relative
//! frequencies, and its Section 2.2 program therefore has roughly `1/C` of
//! the single-channel period. Expected delay shrinks accordingly, which the
//! channel-count search in [`crate::optimizer`] exploits.
//!
//! With `channels = 1` the striping is the identity: the plan wraps the
//! exact [`BroadcastProgram`] the single-channel generator produces, slot
//! for slot, so every existing single-channel result is unchanged.
//!
//! Each channel's program uses *channel-local* page ids (dense, as
//! [`BroadcastProgram::from_slots`] requires); the plan owns the
//! local ↔ global translation and exposes only global [`PageId`]s.

use crate::disk::DiskLayout;
use crate::error::SchedError;
use crate::program::{BroadcastProgram, PageId, RepairId, Slot};

/// Identifier of a broadcast channel (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u16);

impl ChannelId {
    /// The channel id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Which erasure codec composes repair symbols (implemented in the
/// `bdisk-code` crate; the plan only records the choice so server and
/// client derive the same composition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Systematic XOR parity: each repair symbol is the XOR of every page
    /// in its coverage window, repairing any single loss in the window.
    Xor,
    /// LT/fountain coding: each symbol XORs a soliton-sampled subset of
    /// its window; overlapping symbols peel multiple losses.
    Lt,
}

/// Coding configuration for a [`BroadcastPlan`]: how much of each channel's
/// period carries repair symbols, and how those symbols are composed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodingConfig {
    /// Ceiling on the fraction of each channel's period spent on repair
    /// slots: at most `⌊rate·period⌋` of them. Empty (padding) slots are
    /// converted first; if they do not reach the ceiling, duplicate
    /// airings of hot pages are stolen, under a discipline that protects
    /// some airings (never a page's last one, never two adjacent ones).
    /// Stealing stops when every remaining airing is protected, so the
    /// achieved share can fall well short of `rate` — see
    /// [`BroadcastPlan::repair_slots_of`] for what a plan actually airs.
    /// `0.0` disables coding entirely (the identity transformation).
    pub rate: f64,
    /// Coverage-window size: each repair symbol protects the last `group`
    /// distinct pages aired before it on its channel
    /// (see [`BroadcastProgram::coverage_window`]).
    pub group: usize,
    /// The codec composing symbols from their coverage windows.
    pub codec: CodecKind,
    /// Seed from which symbol composition is derived on both ends —
    /// server and client agree with no side channel.
    pub seed: u64,
}

impl CodingConfig {
    /// XOR parity at `rate` with window size `group`.
    pub fn xor(rate: f64, group: usize, seed: u64) -> Self {
        Self {
            rate,
            group,
            codec: CodecKind::Xor,
            seed,
        }
    }

    /// LT/fountain coding at `rate` with window size `group`.
    pub fn lt(rate: f64, group: usize, seed: u64) -> Self {
        Self {
            rate,
            group,
            codec: CodecKind::Lt,
            seed,
        }
    }
}

/// Per-channel slot census of a [`BroadcastPlan`]: how each channel's
/// period splits into data, padding, and repair slots. The per-channel
/// empty-slot count (not just the aggregate) is what drives coding-rate
/// selection — dead air is where repair symbols are free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// The channel these counts describe.
    pub channel: ChannelId,
    /// The channel's period in slots.
    pub period: usize,
    /// Slots carrying a page.
    pub data_slots: usize,
    /// Unused padding slots (dead air).
    pub empty_slots: usize,
    /// Coded repair slots.
    pub repair_slots: usize,
}

impl ChannelStats {
    /// Fraction of the channel's bandwidth that is dead air.
    pub fn dead_air(&self) -> f64 {
        self.empty_slots as f64 / self.period as f64
    }
}

/// A multi-channel broadcast plan: one [`BroadcastProgram`] per channel and
/// a total assignment of every page to exactly one (channel, disk) pair.
#[derive(Debug, Clone)]
pub struct BroadcastPlan {
    /// Per-channel programs over channel-local page ids.
    programs: Vec<BroadcastProgram>,
    /// Global page → channel that broadcasts it.
    page_channel: Vec<u16>,
    /// Global page → its local id on its channel's program.
    page_local: Vec<u32>,
    /// Per channel: local id → global page.
    global_of: Vec<Vec<u32>>,
    /// Global page → disk (layout-level, shared by all channels).
    page_disk: Vec<u16>,
    /// Relative frequency of each disk in the source layout.
    disk_freqs: Vec<u64>,
    /// Repair-slot coding, when enabled (see [`BroadcastPlan::with_coding`]).
    coding: Option<CodingConfig>,
    /// Plan epoch: which generation of the server's reconfiguration loop
    /// this plan belongs to. Epoch 0 is the original, never-swapped plan;
    /// the live engine only hot-swaps to a plan with a *strictly larger*
    /// epoch, and the wire carries the epoch so tuners can tell plans
    /// apart (see `bdisk-broker`).
    epoch: u32,
}

impl BroadcastPlan {
    /// Generates a plan that stripes `layout` across `channels` channels.
    ///
    /// Page `j` of each disk goes to channel `j mod channels`, preserving
    /// hottest-first order within every (disk, channel) cell; a channel's
    /// layout keeps the relative frequencies of the disks that reach it.
    /// `channels = 1` produces a plan whose single program is identical to
    /// [`BroadcastProgram::generate`] for the same layout.
    pub fn generate(layout: &DiskLayout, channels: usize) -> Result<Self, SchedError> {
        if channels == 0 {
            return Err(SchedError::NoChannels);
        }
        let total = layout.total_pages();
        let mut page_channel = vec![0u16; total];
        let mut page_local = vec![0u32; total];
        let mut global_of: Vec<Vec<u32>> = vec![Vec::new(); channels];
        let mut programs = Vec::with_capacity(channels);

        for (c, globals) in global_of.iter_mut().enumerate() {
            // Strided sub-layout: every disk contributes its pages at
            // in-disk offsets ≡ c (mod channels); disks smaller than the
            // channel count drop out of the later channels.
            let mut sizes = Vec::new();
            let mut freqs = Vec::new();
            for disk in 0..layout.num_disks() {
                let range = layout.page_range(disk);
                let mut count = 0u32;
                for p in (range.start + c..range.end).step_by(channels) {
                    page_channel[p] = c as u16;
                    page_local[p] = globals.len() as u32 + count;
                    count += 1;
                }
                if count > 0 {
                    for p in (range.start + c..range.end).step_by(channels) {
                        globals.push(p as u32);
                    }
                    sizes.push(count as usize);
                    freqs.push(layout.freqs()[disk]);
                }
            }
            if sizes.is_empty() {
                return Err(SchedError::EmptyChannel { channel: c });
            }
            let sub = DiskLayout::new(sizes, freqs)?;
            programs.push(BroadcastProgram::generate(&sub)?);
        }

        let page_disk = (0..total)
            .map(|p| layout.disk_of(PageId(p as u32)) as u16)
            .collect();
        Ok(Self {
            programs,
            page_channel,
            page_local,
            global_of,
            page_disk,
            disk_freqs: layout.freqs().to_vec(),
            coding: None,
            epoch: 0,
        })
    }

    /// Wraps an existing single-channel program as a 1-channel plan.
    ///
    /// The page-id spaces coincide (local = global), so the plan is a
    /// zero-cost view: every query delegates straight to `program`.
    pub fn single(program: BroadcastProgram) -> Self {
        let n = program.num_pages();
        let page_disk = (0..n)
            .map(|p| program.disk_of(PageId(p as u32)) as u16)
            .collect();
        let disk_freqs = program.disk_frequencies().to_vec();
        Self {
            page_channel: vec![0; n],
            page_local: (0..n as u32).collect(),
            global_of: vec![(0..n as u32).collect()],
            page_disk,
            disk_freqs,
            programs: vec![program],
            coding: None,
            epoch: 0,
        }
    }

    /// Tags the plan with a reconfiguration epoch (builder-style). Epoch 0
    /// is the default and means "the original plan"; the live engine
    /// hot-swaps only to strictly larger epochs.
    pub fn with_epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// The plan's reconfiguration epoch (0 = original, never swapped).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// A structural fingerprint of the plan: a 64-bit hash folding every
    /// channel's slot sequence, the page↔channel assignment, the disk
    /// frequencies, the coding config, and the epoch. Two plans hash equal
    /// iff a client driving one would see the identical slot feed under
    /// the other — the broker checkpoints this so a restarted engine can
    /// refuse to resume a checkpoint against a different plan book.
    pub fn plan_hash(&self) -> u64 {
        #[inline]
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut h = mix(self.epoch as u64 ^ 0xB0AD_CA57);
        let mut fold = |v: u64| h = mix(h ^ mix(v));
        for prog in &self.programs {
            fold(prog.period() as u64);
            for s in prog.slots() {
                fold(match s {
                    Slot::Page(p) => p.0 as u64,
                    Slot::Empty => u64::MAX,
                    Slot::Repair(r) => (1u64 << 32) | r.0 as u64,
                    Slot::EpochFence => 1u64 << 33,
                    Slot::Pull(p) => (1u64 << 34) | p.0 as u64,
                });
            }
        }
        for (&ch, &local) in self.page_channel.iter().zip(&self.page_local) {
            fold(((ch as u64) << 32) | local as u64);
        }
        for &f in &self.disk_freqs {
            fold(f);
        }
        if let Some(c) = &self.coding {
            fold(c.rate.to_bits());
            fold(c.group as u64);
            fold(match c.codec {
                CodecKind::Xor => 1,
                CodecKind::Lt => 2,
            });
            fold(c.seed);
        }
        h
    }

    /// Adds coded repair slots to every channel, per `cfg`.
    ///
    /// Each channel converts `floor(rate · period)` slots to
    /// [`Slot::Repair`], preferring the channel's [`Slot::Empty`] padding
    /// (earliest offsets first) and, when padding falls short, stealing
    /// duplicate airings of hot pages round-robin — never a page's last
    /// airing, so every page still airs at least once per period and the
    /// period itself is untouched (no timing arithmetic changes). Repair
    /// ids are assigned `0..R` in offset order.
    ///
    /// The placement is a pure function of the plan and `cfg`, and lower
    /// rates choose a prefix of the slots a higher rate chooses, so sweeps
    /// across rates are nested. `rate = 0` is the identity: the plan is
    /// returned unchanged with no coding metadata, keeping every
    /// downstream path byte-identical to the uncoded plan.
    pub fn with_coding(mut self, cfg: CodingConfig) -> Result<Self, SchedError> {
        if !cfg.rate.is_finite() || !(0.0..1.0).contains(&cfg.rate) {
            return Err(SchedError::InvalidCoding {
                reason: "rate must be in [0, 1)",
            });
        }
        if cfg.group == 0 {
            return Err(SchedError::InvalidCoding {
                reason: "group must be at least 1",
            });
        }
        if cfg.rate == 0.0 {
            self.coding = None;
            return Ok(self);
        }
        for prog in &mut self.programs {
            *prog = coded_program(prog, cfg.rate)?;
        }
        self.coding = Some(cfg);
        Ok(self)
    }

    /// The coding configuration, when repair slots are enabled.
    pub fn coding(&self) -> Option<&CodingConfig> {
        self.coding.as_ref()
    }

    /// Per-channel slot census: period, data, empty, and repair counts for
    /// every channel (the aggregate alone hides which channels have the
    /// dead air that coding can spend).
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.programs
            .iter()
            .enumerate()
            .map(|(c, prog)| ChannelStats {
                channel: ChannelId(c as u16),
                period: prog.period(),
                data_slots: prog.period() - prog.empty_slots() - prog.repair_slots(),
                empty_slots: prog.empty_slots(),
                repair_slots: prog.repair_slots(),
            })
            .collect()
    }

    /// Number of empty (padding) slots per period on `channel`.
    pub fn empty_slots_of(&self, channel: ChannelId) -> usize {
        self.programs[channel.index()].empty_slots()
    }

    /// Number of coded repair slots per period on `channel`.
    pub fn repair_slots_of(&self, channel: ChannelId) -> usize {
        self.programs[channel.index()].repair_slots()
    }

    /// Human-readable per-channel summary, one line per channel, e.g.
    /// `ch0: period=12 data=10 empty=1 (8.3% dead air) repair=1`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in self.channel_stats() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!(
                "{}: period={} data={} empty={} ({:.1}% dead air) repair={}",
                s.channel,
                s.period,
                s.data_slots,
                s.empty_slots,
                100.0 * s.dead_air(),
                s.repair_slots,
            ));
        }
        out
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.programs.len()
    }

    /// Total number of distinct pages across all channels.
    pub fn num_pages(&self) -> usize {
        self.page_channel.len()
    }

    /// Number of disks in the source layout.
    pub fn num_disks(&self) -> usize {
        self.disk_freqs.len().max(1)
    }

    /// Relative frequency of each disk in the source layout.
    pub fn disk_frequencies(&self) -> &[u64] {
        &self.disk_freqs
    }

    /// The channel that broadcasts `page`.
    pub fn channel_of(&self, page: PageId) -> ChannelId {
        ChannelId(self.page_channel[page.index()])
    }

    /// The disk (0-based, layout-level) that holds `page`.
    pub fn disk_of(&self, page: PageId) -> usize {
        self.page_disk[page.index()] as usize
    }

    /// The program for `channel` (page ids are channel-local; prefer the
    /// plan-level queries, which speak global ids).
    pub fn program(&self, channel: ChannelId) -> &BroadcastProgram {
        &self.programs[channel.index()]
    }

    /// Period of `channel`'s program, in slots.
    pub fn period_of(&self, channel: ChannelId) -> usize {
        self.programs[channel.index()].period()
    }

    /// The longest channel period — an upper bound on any page's
    /// inter-arrival time under this plan.
    pub fn max_period(&self) -> usize {
        self.programs.iter().map(|p| p.period()).max().unwrap_or(0)
    }

    /// The slot aired on `channel` at absolute slot sequence `seq`
    /// (wrapping the channel's period), with the page translated to its
    /// global id.
    pub fn slot_at(&self, channel: ChannelId, seq: u64) -> Slot {
        match self.programs[channel.index()].slot_at(seq) {
            Slot::Page(local) => Slot::Page(self.global_page(channel, local)),
            other => other,
        }
    }

    /// Translates a channel-local page id back to its global id.
    pub fn global_page(&self, channel: ChannelId, local: PageId) -> PageId {
        PageId(self.global_of[channel.index()][local.index()])
    }

    /// Broadcasts of `page` per period *of its channel*.
    pub fn frequency(&self, page: PageId) -> u64 {
        let ch = self.page_channel[page.index()] as usize;
        self.programs[ch].frequency(PageId(self.page_local[page.index()]))
    }

    /// The fixed inter-arrival gap of `page` on its channel, or `None` if
    /// its broadcasts are not evenly spaced.
    pub fn gap(&self, page: PageId) -> Option<f64> {
        let ch = self.page_channel[page.index()] as usize;
        self.programs[ch].gap(PageId(self.page_local[page.index()]))
    }

    /// The absolute time (slot start) at which `page` is next broadcast at
    /// or after time `t`, on its assigned channel.
    ///
    /// Pages live on exactly one channel, so the cross-channel minimum the
    /// single-tuner client needs is just this channel's `O(log f)` lookup.
    pub fn next_arrival(&self, page: PageId, t: f64) -> f64 {
        let ch = self.page_channel[page.index()] as usize;
        self.programs[ch].next_arrival(PageId(self.page_local[page.index()]), t)
    }

    /// The absolute time (slot start) of the next empty padding slot on
    /// `channel` at or after time `t`, or `None` if the channel's program
    /// has no padding.
    ///
    /// A padding-fill pull arbiter services a queued request for a page at
    /// the first padding slot of the page's home channel once the request
    /// is eligible; this query is the simulator-side mirror of that
    /// decision (see `bdisk-broker`'s `SlotArbiter`).
    pub fn next_padding_arrival(&self, channel: ChannelId, t: f64) -> Option<f64> {
        self.programs[channel.index()].next_empty_arrival(t)
    }

    /// Analytic expected delay (broadcast units) of a request stream with
    /// per-page weights `probs`, for a client already tuned to each page's
    /// channel: `Σ_p probs[p] ·` [`BroadcastProgram::expected_delay`], which
    /// reduces to `probs[p] · gap/2` for the fixed-gap programs this crate
    /// generates. Pages beyond `probs.len()` are never requested; more
    /// weights than the plan has pages is a panic.
    pub fn expected_delay(&self, probs: &[f64]) -> f64 {
        self.check_access_range(probs);
        let mut delay = 0.0;
        for (p, &pr) in probs.iter().enumerate() {
            let ch = self.page_channel[p] as usize;
            delay += pr * self.programs[ch].expected_delay(PageId(self.page_local[p]));
        }
        delay
    }

    /// Panics unless every weight in `probs` names a page of the plan.
    fn check_access_range(&self, probs: &[f64]) {
        let (weights, pages) = (probs.len(), self.num_pages());
        assert!(
            weights <= pages,
            "access range larger than the broadcast ({weights} > {pages})"
        );
    }

    /// Analytic expected delay under an i.i.d. per-slot erasure rate
    /// `loss`, crediting the plan's repair slots.
    ///
    /// Per page: the lossless Bus-Stop base
    /// [`BroadcastProgram::expected_delay`], plus, with
    /// probability `loss`, the cost of a missed airing. A missed airing is
    /// repaired by the next covering repair symbol at mean distance `r̄`
    /// with probability `s = q·σ`, where `q` is the fraction of the page's
    /// airings covered by some symbol and `σ` is the peeling decoder's
    /// per-loss success probability. `σ` is the least fixed point of the
    /// density-evolution recursion for a sparse erasure code whose checks
    /// cover `k` slots (the window size, a conservative upper bound on the
    /// symbol degree) with mean coverage multiplicity `λ` (symbols per
    /// covered slot, measured from the plan itself):
    ///
    /// `σ = 1 − (1 − (1−loss) · (1 − loss·(1−σ))^(k−1))^λ`
    ///
    /// — a symbol rescues the loss if it arrived and its other members are
    /// each either heard or themselves peeled; the loss is rescued if any
    /// of its `λ` symbols does. Iterating from `σ = 0` reproduces belief
    /// propagation's waterfall: below the code's threshold σ → ~1, above
    /// it the recursion stalls near 0. If no repair fires, the client
    /// waits the mean gap `ḡ` for the next airing, which may itself be
    /// lost, giving the recurrence `X = s·r̄ + (1−s)·(ḡ + loss·X)`:
    ///
    /// `E[delay] = Σ_p pr_p · (base_p + loss · (s·r̄ + (1−s)·ḡ) / (1 − (1−s)·loss))`
    ///
    /// With no coding (`s = 0`) this reduces to `base + loss·ḡ/(1−loss)`,
    /// and at `loss = 0` it equals [`BroadcastPlan::expected_delay`].
    pub fn expected_delay_lossy(&self, probs: &[f64], loss: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&loss),
            "loss rate must be in [0, 1), got {loss}"
        );
        if loss == 0.0 {
            return self.expected_delay(probs);
        }
        self.check_access_range(probs);
        // Per channel: for each data-slot offset, the distance (in slots)
        // to the nearest repair symbol covering it, if any — plus the
        // peeling success probability σ from the mean coverage
        // multiplicity λ (how many symbols cover a covered slot).
        let group = self.coding.map(|c| c.group);
        let cover: Vec<(Vec<Option<u32>>, f64)> = self
            .programs
            .iter()
            .map(|prog| {
                let period = prog.period() as u32;
                let mut dist: Vec<Option<u32>> = vec![None; period as usize];
                let mut pairs = 0u64;
                if let Some(group) = group {
                    let mut walker = prog.coverage_walker();
                    let mut window = Vec::with_capacity(group);
                    for (off, s) in prog.slots().iter().enumerate() {
                        if matches!(s, Slot::Repair(_)) {
                            walker.window(off as u32, group, &mut window);
                            for &(o, _) in &window {
                                let d = (off as u32 + period - o) % period;
                                pairs += 1;
                                match &mut dist[o as usize] {
                                    Some(e) if *e <= d => {}
                                    e => *e = Some(d),
                                }
                            }
                        }
                    }
                }
                let covered = dist.iter().flatten().count();
                let lambda = if covered == 0 {
                    0.0
                } else {
                    pairs as f64 / covered as f64
                };
                let sigma = group
                    .map(|k| peeling_success(loss, k as f64, lambda))
                    .unwrap_or(0.0);
                (dist, sigma)
            })
            .collect();

        let mut delay = 0.0;
        for (p, &pr) in probs.iter().enumerate() {
            if pr == 0.0 {
                continue;
            }
            let ch = self.page_channel[p] as usize;
            let prog = &self.programs[ch];
            let local = PageId(self.page_local[p]);
            let period = prog.period() as f64;
            let base = prog.expected_delay(local);
            let starts = prog.page_starts(local);
            let covered: Vec<u32> = starts
                .iter()
                .filter_map(|&o| cover[ch].0[o as usize])
                .collect();
            let freq = starts.len() as f64;
            let q = covered.len() as f64 / freq;
            let r_bar = if covered.is_empty() {
                0.0
            } else {
                covered.iter().map(|&d| d as f64).sum::<f64>() / covered.len() as f64
            };
            let s = q * cover[ch].1;
            let g_bar = period / freq;
            let x = (s * r_bar + (1.0 - s) * g_bar) / (1.0 - (1.0 - s) * loss);
            delay += pr * (base + loss * x);
        }
        delay
    }
}

/// Least fixed point of the peeling (belief-propagation) recursion for a
/// sparse erasure code: the probability that a lost slot covered by `lambda`
/// symbols of degree ≤ `k` is eventually reconstructed under i.i.d. slot
/// loss `loss`. The map is monotone increasing in σ, so iterating from 0
/// converges to the least fixed point — below the code's threshold it
/// climbs to ~1 (the waterfall), above it it stalls near 0, which is the
/// real bistability of iterative erasure decoding.
fn peeling_success(loss: f64, k: f64, lambda: f64) -> f64 {
    if lambda == 0.0 || k < 1.0 {
        return 0.0;
    }
    let mut sigma = 0.0f64;
    for _ in 0..256 {
        let member_known = 1.0 - loss * (1.0 - sigma);
        let symbol_useful = (1.0 - loss) * member_known.powf(k - 1.0);
        let next = 1.0 - (1.0 - symbol_useful).powf(lambda);
        if (next - sigma).abs() < 1e-12 {
            return next;
        }
        sigma = next;
    }
    sigma
}

/// Rewrites one channel's program with `floor(rate · period)` repair
/// slots: empty slots first (offset order), then stolen duplicate airings
/// spread evenly across the period (the spare airing nearest each evenly
/// spaced anchor, never a page's last airing). Spreading matters: the
/// spare airings cluster where the hot disks' chunks sit, and converting
/// them in place would leave the cold disks' segments — exactly where
/// clients wait longest after a loss — outside every coverage window.
/// The period is preserved and page positions are recomputed, so every
/// timing query (`next_arrival`, `gaps`, …) stays correct automatically.
fn coded_program(prog: &BroadcastProgram, rate: f64) -> Result<BroadcastProgram, SchedError> {
    let period = prog.period();
    let target = (rate * period as f64).floor() as usize;
    let mut slots = prog.slots().to_vec();
    let mut chosen: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Slot::Empty))
        .map(|(i, _)| i)
        .take(target)
        .collect();
    let deficit = target - chosen.len();
    if deficit > 0 {
        let mut taken = vec![false; period];
        for &i in &chosen {
            taken[i] = true;
        }
        // Stealing discipline: a page gives up at most ⌊(freq−1)/2⌋ of its
        // airings, and never two adjacent ones, so no surviving gap more
        // than doubles. Without it a page can be hollowed out to a single
        // airing per period — its recovery wait then *grows* with the code
        // rate, which is exactly backwards.
        let mut stolen: Vec<u64> = vec![0; prog.num_pages()];
        // Anchors follow the van der Corput (bit-reversal) sequence: every
        // prefix of it is evenly spread over the period, so rates *nest* —
        // a lower rate's stolen offsets are exactly the prefix of a higher
        // rate's walk through the same anchor order.
        'anchors: for k in 0..deficit {
            let ideal = (van_der_corput(k as u64 + 1) * period as f64) as usize % period;
            for d in 0..period {
                for off in [(ideal + d) % period, (ideal + period - d % period) % period] {
                    if taken[off] {
                        continue;
                    }
                    if let Slot::Page(p) = slots[off] {
                        if stolen[p.0 as usize] >= prog.frequency(p).saturating_sub(1) / 2 {
                            continue;
                        }
                        // Fixed-gap programs expose the page's neighboring
                        // airings directly; refuse a steal next to one.
                        if let Some(gap) = prog.gap(p) {
                            let gap = gap as usize % period;
                            let prev = (off + period - gap) % period;
                            let next = (off + gap) % period;
                            let hit =
                                |o: usize| taken[o] && matches!(slots[o], Slot::Page(q) if q == p);
                            if hit(prev) || hit(next) {
                                continue;
                            }
                        }
                        taken[off] = true;
                        stolen[p.0 as usize] += 1;
                        chosen.push(off);
                        continue 'anchors;
                    }
                }
            }
            break; // every remaining airing is protected — stop short
        }
    }
    chosen.sort_unstable();
    for (rid, &off) in chosen.iter().enumerate() {
        slots[off] = Slot::Repair(RepairId(rid as u32));
    }
    let disk_of = |p: PageId| prog.disk_of(p) as u16;
    BroadcastProgram::from_slots(slots, Some(&disk_of), prog.disk_frequencies().to_vec())
}

/// The base-2 van der Corput value of `k`: `k`'s binary digits mirrored
/// about the binary point. Every prefix of the sequence is low-discrepancy
/// over `[0, 1)`.
fn van_der_corput(mut k: u64) -> f64 {
    let mut v = 0.0;
    let mut half = 0.5;
    while k > 0 {
        if k & 1 == 1 {
            v += half;
        }
        half *= 0.5;
        k >>= 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d_small() -> DiskLayout {
        DiskLayout::new(vec![4, 6, 8], vec![4, 2, 1]).unwrap()
    }

    #[test]
    fn one_channel_plan_is_the_program() {
        let layout = d_small();
        let plan = BroadcastPlan::generate(&layout, 1).unwrap();
        let program = BroadcastProgram::generate(&layout).unwrap();
        assert_eq!(plan.num_channels(), 1);
        assert_eq!(plan.program(ChannelId(0)).slots(), program.slots());
        for p in 0..layout.total_pages() as u32 {
            let page = PageId(p);
            assert_eq!(plan.channel_of(page), ChannelId(0));
            assert_eq!(plan.disk_of(page), layout.disk_of(page));
            assert_eq!(plan.frequency(page), program.frequency(page));
            for t in [0.0, 3.5, 17.0, 100.25] {
                assert_eq!(plan.next_arrival(page, t), program.next_arrival(page, t));
            }
        }
    }

    #[test]
    fn single_wraps_program_identically() {
        let layout = d_small();
        let program = BroadcastProgram::generate(&layout).unwrap();
        let plan = BroadcastPlan::single(program.clone());
        assert_eq!(plan.num_channels(), 1);
        assert_eq!(plan.num_pages(), program.num_pages());
        for seq in 0..2 * program.period() as u64 {
            assert_eq!(plan.slot_at(ChannelId(0), seq), program.slot_at(seq));
        }
        assert_eq!(plan.disk_frequencies(), program.disk_frequencies());
    }

    #[test]
    #[should_panic(expected = "access range larger")]
    fn response_time_rejects_oversized_range() {
        let flat = crate::flat_program(2).unwrap();
        let _ = BroadcastPlan::single(flat).expected_delay(&[0.3, 0.3, 0.4]);
    }

    #[test]
    #[should_panic(expected = "access range larger")]
    fn lossy_delay_rejects_oversized_range() {
        let flat = crate::flat_program(2).unwrap();
        let _ = BroadcastPlan::single(flat).expected_delay_lossy(&[0.3, 0.3, 0.4], 0.1);
    }

    #[test]
    fn uncoded_lossy_delay_adds_the_mean_gap_per_loss() {
        // With no repair symbols a missed airing costs the mean gap ḡ, and
        // each retry is lost again with probability `loss`.
        let program = crate::skewed_program(&[3, 1, 2]).unwrap();
        let probs = [0.5, 0.2, 0.3];
        let loss = 0.2;
        let expect: f64 = probs
            .iter()
            .enumerate()
            .map(|(p, &pr)| {
                let page = PageId(p as u32);
                let g_bar = program.period() as f64 / program.frequency(page) as f64;
                pr * (program.expected_delay(page) + loss * g_bar / (1.0 - loss))
            })
            .sum();
        let lossy = BroadcastPlan::single(program).expected_delay_lossy(&probs, loss);
        assert!((lossy - expect).abs() < 1e-12, "{lossy} vs {expect}");
    }

    #[test]
    fn pages_partition_across_channels() {
        let layout = d_small();
        for channels in 1..=4 {
            let plan = BroadcastPlan::generate(&layout, channels).unwrap();
            assert_eq!(plan.num_channels(), channels);
            // Every page lands on exactly one channel; the per-channel
            // global translations partition the page set.
            let mut seen = vec![false; layout.total_pages()];
            for c in 0..channels {
                let ch = ChannelId(c as u16);
                let prog = plan.program(ch);
                for local in 0..prog.num_pages() as u32 {
                    let g = plan.global_page(ch, PageId(local));
                    assert!(!seen[g.index()], "page {g} on two channels");
                    seen[g.index()] = true;
                    assert_eq!(plan.channel_of(g), ch);
                }
            }
            assert!(seen.iter().all(|&s| s), "some page on no channel");
        }
    }

    #[test]
    fn striping_spreads_hot_disk_first() {
        // Disk 1 has 4 pages; with 2 channels each channel gets 2 of them.
        let layout = d_small();
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        assert_eq!(plan.channel_of(PageId(0)), ChannelId(0));
        assert_eq!(plan.channel_of(PageId(1)), ChannelId(1));
        assert_eq!(plan.channel_of(PageId(2)), ChannelId(0));
        assert_eq!(plan.channel_of(PageId(3)), ChannelId(1));
        // Hot pages keep their high frequency on their channel.
        assert_eq!(plan.frequency(PageId(0)), 4);
        assert_eq!(plan.frequency(PageId(1)), 4);
    }

    #[test]
    fn more_channels_shrink_expected_delay() {
        let layout = DiskLayout::with_delta(&[8, 24, 32], 3).unwrap();
        let n = layout.total_pages();
        let probs = vec![1.0 / n as f64; n];
        let mut last = f64::INFINITY;
        for channels in 1..=4 {
            let plan = BroadcastPlan::generate(&layout, channels).unwrap();
            let d = plan.expected_delay(&probs);
            assert!(
                d <= last + 1e-9,
                "delay increased at {channels} channels: {d} > {last}"
            );
            last = d;
        }
    }

    #[test]
    fn small_disks_drop_out_of_late_channels() {
        // Disk 1 has a single page: channel 1 gets only disks 2 and 3.
        let layout = DiskLayout::new(vec![1, 2, 8], vec![4, 2, 1]).unwrap();
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        assert_eq!(plan.channel_of(PageId(0)), ChannelId(0));
        let ch1 = plan.program(ChannelId(1));
        assert_eq!(ch1.num_pages(), 5); // pages 2, 4, 6, 8, 10
        assert_eq!(plan.disk_of(PageId(2)), 1);
        // The dropped disk does not distort disk accounting.
        assert_eq!(plan.num_disks(), 3);
    }

    #[test]
    fn too_many_channels_rejected() {
        let layout = DiskLayout::new(vec![1, 1], vec![2, 1]).unwrap();
        assert_eq!(
            BroadcastPlan::generate(&layout, 3).unwrap_err(),
            SchedError::EmptyChannel { channel: 1 }
        );
        assert_eq!(
            BroadcastPlan::generate(&layout, 0).unwrap_err(),
            SchedError::NoChannels
        );
    }

    #[test]
    fn slot_at_translates_to_global_ids() {
        let layout = d_small();
        let plan = BroadcastPlan::generate(&layout, 3).unwrap();
        for c in 0..3u16 {
            let ch = ChannelId(c);
            for seq in 0..plan.period_of(ch) as u64 {
                if let Slot::Page(g) = plan.slot_at(ch, seq) {
                    assert_eq!(plan.channel_of(g), ch);
                    assert!(g.index() < plan.num_pages());
                }
            }
        }
    }

    #[test]
    fn coding_rate_zero_is_identity() {
        let layout = d_small();
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        let coded = plan
            .clone()
            .with_coding(CodingConfig::xor(0.0, 4, 42))
            .unwrap();
        assert!(coded.coding().is_none());
        for c in 0..2u16 {
            let ch = ChannelId(c);
            assert_eq!(coded.program(ch).slots(), plan.program(ch).slots());
        }
    }

    #[test]
    fn coding_preserves_period_and_every_page() {
        let layout = DiskLayout::with_delta(&[8, 24, 32], 3).unwrap();
        for channels in 1..=3 {
            let plan = BroadcastPlan::generate(&layout, channels).unwrap();
            for rate in [0.05, 0.1, 0.25] {
                let coded = plan
                    .clone()
                    .with_coding(CodingConfig::xor(rate, 8, 7))
                    .unwrap();
                for c in 0..channels as u16 {
                    let ch = ChannelId(c);
                    let before = plan.program(ch);
                    let after = coded.program(ch);
                    assert_eq!(after.period(), before.period());
                    let target = (rate * before.period() as f64).floor() as usize;
                    assert_eq!(after.repair_slots(), target, "rate {rate} {ch}");
                    // Every page still airs at least once per period.
                    for p in 0..before.num_pages() as u32 {
                        assert!(after.frequency(PageId(p)) >= 1);
                    }
                }
                // Timing queries still agree with the slot feed.
                for p in 0..layout.total_pages() as u32 {
                    let page = PageId(p);
                    let t = coded.next_arrival(page, 3.5);
                    assert_eq!(
                        coded.slot_at(coded.channel_of(page), t as u64),
                        Slot::Page(page)
                    );
                }
            }
        }
    }

    #[test]
    fn coding_converts_padding_before_stealing() {
        // A layout whose program has padding: conversions must hit the
        // empty slots first, so low rates cost no data airings at all.
        let layout = DiskLayout::new(vec![1, 5], vec![3, 1]).unwrap();
        let plan = BroadcastPlan::generate(&layout, 1).unwrap();
        let prog = plan.program(ChannelId(0));
        let empties = prog.empty_slots();
        if empties > 0 {
            let rate = empties as f64 / prog.period() as f64 - 1e-9;
            let coded = plan
                .clone()
                .with_coding(CodingConfig::xor(rate, 4, 1))
                .unwrap();
            let after = coded.program(ChannelId(0));
            for p in 0..prog.num_pages() as u32 {
                assert_eq!(after.frequency(PageId(p)), prog.frequency(PageId(p)));
            }
        }
        // Past the padding, stealing kicks in but never drops a page.
        let coded = plan.with_coding(CodingConfig::xor(0.3, 4, 1)).unwrap();
        let after = coded.program(ChannelId(0));
        for p in 0..after.num_pages() as u32 {
            assert!(after.frequency(PageId(p)) >= 1);
        }
        assert!(after.repair_slots() > empties);
    }

    #[test]
    fn coding_rates_nest() {
        let layout = DiskLayout::with_delta(&[8, 24, 32], 3).unwrap();
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        let lo = plan
            .clone()
            .with_coding(CodingConfig::xor(0.05, 8, 7))
            .unwrap();
        let hi = plan.with_coding(CodingConfig::xor(0.2, 8, 7)).unwrap();
        for c in 0..2u16 {
            let ch = ChannelId(c);
            for (i, s) in lo.program(ch).slots().iter().enumerate() {
                if matches!(s, Slot::Repair(_)) {
                    assert!(
                        matches!(hi.program(ch).slots()[i], Slot::Repair(_)),
                        "slot {i} on {ch} repaired at rate 0.05 but not 0.2"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_coding_rejected() {
        let plan = BroadcastPlan::generate(&d_small(), 1).unwrap();
        for bad in [-0.1, 1.0, f64::NAN] {
            assert!(matches!(
                plan.clone().with_coding(CodingConfig::xor(bad, 4, 0)),
                Err(SchedError::InvalidCoding { .. })
            ));
        }
        assert!(matches!(
            plan.clone().with_coding(CodingConfig::xor(0.1, 0, 0)),
            Err(SchedError::InvalidCoding { .. })
        ));
    }

    #[test]
    fn channel_stats_split_per_channel() {
        let layout = DiskLayout::with_delta(&[8, 24, 32], 3).unwrap();
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        let stats = plan.channel_stats();
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert_eq!(s.period, plan.period_of(s.channel));
            assert_eq!(s.data_slots + s.empty_slots + s.repair_slots, s.period);
            assert_eq!(s.empty_slots, plan.empty_slots_of(s.channel));
            assert_eq!(s.repair_slots, 0);
        }
        let coded = plan.with_coding(CodingConfig::xor(0.1, 8, 7)).unwrap();
        for s in coded.channel_stats() {
            assert_eq!(s.repair_slots, coded.repair_slots_of(s.channel));
            assert!(s.repair_slots > 0);
        }
        let summary = coded.summary();
        assert!(summary.contains("ch0:") && summary.contains("ch1:"));
        assert!(summary.contains("repair="));
    }

    #[test]
    fn lossy_delay_reduces_and_improves_with_rate() {
        let layout = DiskLayout::with_delta(&[8, 24, 32], 3).unwrap();
        let n = layout.total_pages();
        let probs = vec![1.0 / n as f64; n];
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        // loss = 0 equals the lossless model.
        assert!(
            (plan.expected_delay_lossy(&probs, 0.0) - plan.expected_delay(&probs)).abs() < 1e-12
        );
        // Without coding, loss strictly hurts.
        let lossless = plan.expected_delay(&probs);
        let lossy = plan.expected_delay_lossy(&probs, 0.1);
        assert!(lossy > lossless);
        // Higher coding rate strictly helps at fixed loss until hot-slot
        // coverage saturates (the base delay grows slightly from stolen
        // airings, and cold frequency-1 slots are uncoverable, so past
        // saturation extra symbols only cost airings).
        let mut last = lossy;
        for rate in [0.05, 0.1] {
            let coded = plan
                .clone()
                .with_coding(CodingConfig::xor(rate, 8, 7))
                .unwrap();
            let d = coded.expected_delay_lossy(&probs, 0.1);
            assert!(d < last, "rate {rate}: {d} !< {last}");
            last = d;
        }
        // Past saturation: still strictly better than no coding at all.
        let saturated = plan
            .clone()
            .with_coding(CodingConfig::xor(0.2, 8, 7))
            .unwrap()
            .expected_delay_lossy(&probs, 0.1);
        assert!(
            saturated < lossy,
            "saturated {saturated} !< uncoded {lossy}"
        );
    }

    #[test]
    fn epoch_tags_and_hash_distinguish_plans() {
        let layout = d_small();
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        assert_eq!(plan.epoch(), 0);
        let e3 = plan.clone().with_epoch(3);
        assert_eq!(e3.epoch(), 3);
        // Same structure, same epoch → same hash; epoch, coding, or layout
        // changes move it.
        assert_eq!(plan.plan_hash(), plan.clone().plan_hash());
        assert_ne!(plan.plan_hash(), e3.plan_hash());
        let coded = plan
            .clone()
            .with_coding(CodingConfig::xor(0.1, 4, 9))
            .unwrap();
        assert_ne!(plan.plan_hash(), coded.plan_hash());
        let other = BroadcastPlan::generate(&layout, 1).unwrap();
        assert_ne!(plan.plan_hash(), other.plan_hash());
    }

    #[test]
    fn next_arrival_matches_slot_feed() {
        let layout = d_small();
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        for c in 0..2u16 {
            let ch = ChannelId(c);
            for seq in 0..2 * plan.period_of(ch) as u64 {
                if let Slot::Page(g) = plan.slot_at(ch, seq) {
                    assert_eq!(plan.next_arrival(g, seq as f64), seq as f64);
                }
            }
        }
    }
}
