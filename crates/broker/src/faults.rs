//! Deterministic fault injection for the broadcast path.
//!
//! The paper's broadcast medium is unreliable by nature — satellite and
//! wireless downlinks drop and corrupt frames — and the periodic program
//! *is* the recovery mechanism: a client that misses page `p` simply waits
//! one period for its next broadcast. This module makes that failure mode
//! first-class and, crucially, **reproducible**:
//!
//! * a [`FaultPlan`] is a seeded *schedule* of faults, not a random
//!   process: every decision is a pure hash of `(seed, fault kind, slot,
//!   client)`, so the same plan replays the identical fault sequence on
//!   every run, on every transport, in any evaluation order;
//! * erasure thresholds are *coupled* across loss rates — for a fixed seed,
//!   the slots erased at rate `r1` are a subset of those erased at any
//!   `r2 > r1` — so degradation sweeps are monotone by construction, not by
//!   statistical luck;
//! * a [`FaultInjector`] is the single choke point both transports drive:
//!   the in-memory bus and the TCP writer consult the same per-slot
//!   [`ChannelFault`] decisions, so a client sees the same gaps whichever
//!   medium carries the broadcast.
//!
//! Fault taxonomy (per the erasure-broadcast literature):
//!
//! | fault      | scope      | models                                     |
//! |------------|------------|--------------------------------------------|
//! | erase      | per slot   | frame lost on the channel                  |
//! | corrupt    | per slot   | bit flips in flight (CRC-detected)         |
//! | delay      | per slot   | late delivery / reorder by a few slots     |
//! | kill       | per client | receiver connection lost (TCP reconnects)  |
//! | overrun    | per slot   | server misses its slot deadline            |

use std::sync::OnceLock;

use bdisk_obs::journal::{event, EventKind};

use crate::transport::Frame;

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny seeded generator for client-side jitter (reconnect backoff).
/// SplitMix64 stream; deterministic per seed, no external dependency.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniformly mixed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Domain tags keeping the per-kind hash streams independent: the erasure
/// decision at slot `s` never changes when the corruption rate moves.
mod domain {
    pub const ERASE: u64 = 0x45;
    pub const CORRUPT: u64 = 0xC0;
    pub const DELAY: u64 = 0xDE;
    pub const KILL: u64 = 0x4B;
    pub const OVERRUN: u64 = 0x0E;
    pub const ENTROPY: u64 = 0xEE;
}

/// What the channel does to the frame of one broadcast slot. Decided once
/// per slot (channel-level, identical for every receiver), by priority
/// erase > corrupt > delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelFault {
    /// The frame goes out intact.
    Deliver,
    /// The frame is lost entirely.
    Erase,
    /// The frame is delivered with bit damage; `entropy` seeds which bit
    /// flips (the transport reduces it modulo the wire length).
    Corrupt {
        /// Raw 64-bit entropy for choosing the damaged bit.
        entropy: u64,
    },
    /// The frame arrives `slots` slots late (after newer frames: reorder).
    Delay {
        /// How many slots late the frame is delivered (>= 1).
        slots: u64,
    },
}

impl ChannelFault {
    /// Stable code for journal events (`b` operand of `FaultInjected`).
    pub fn code(self) -> u64 {
        match self {
            ChannelFault::Deliver => u64::MAX,
            ChannelFault::Erase => 0,
            ChannelFault::Corrupt { .. } => 1,
            ChannelFault::Delay { .. } => 2,
        }
    }
}

/// Journal code for a per-client connection kill.
pub const FAULT_CODE_KILL: u64 = 3;
/// Journal code for an engine slot-deadline overrun.
pub const FAULT_CODE_OVERRUN: u64 = 4;

/// A seeded, reproducible schedule of injectable faults.
///
/// All rates are probabilities in `[0, 1]` evaluated independently per
/// slot (or per `(slot, client)` for `kill`). [`FaultPlan::none`] is the
/// do-nothing plan; transports skip the fault path entirely when
/// [`FaultPlan::is_none`] holds, so a zero plan is bit-identical to no
/// plan at all (`tests/fault_properties.rs` pins this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault schedule; same seed, same faults, every run.
    pub seed: u64,
    /// Per-slot probability the frame is erased (dropped on the channel).
    pub erasure: f64,
    /// Per-slot probability the frame is bit-corrupted in flight.
    pub corruption: f64,
    /// Per-slot probability the frame is delayed (reordered).
    pub delay: f64,
    /// Upper bound on the delay, in slots (draws land in `1..=max`).
    pub max_delay_slots: u64,
    /// Per-slot, per-client probability the client's connection is killed.
    pub kill: f64,
    /// Per-slot probability the engine oversleeps its slot deadline.
    pub overrun: f64,
    /// Deterministic workload-drift cadence: every this-many slots the
    /// client fleet rotates its hot set one phase (0 = no drift). Not a
    /// random fault — part of the schedule so adaptive and control runs
    /// drift identically.
    pub drift_every_slots: u64,
    /// Deterministic broker crash: the engine stops dead at this slot seq
    /// (0 = never), leaving its checkpoint for a restarted engine to
    /// resume from.
    pub broker_kill_slot: u64,
}

impl FaultPlan {
    /// The empty plan: no faults, ever.
    pub fn none() -> Self {
        Self {
            seed: 0,
            erasure: 0.0,
            corruption: 0.0,
            delay: 0.0,
            max_delay_slots: 4,
            kill: 0.0,
            overrun: 0.0,
            drift_every_slots: 0,
            broker_kill_slot: 0,
        }
    }

    /// A pure erasure channel: frames are lost at `rate`, nothing else.
    pub fn erasure_only(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            erasure: rate,
            ..Self::none()
        }
    }

    /// True when every fault rate is zero — the fast path that leaves both
    /// transports bit-identical to having no plan at all.
    pub fn is_none(&self) -> bool {
        self.erasure == 0.0
            && self.corruption == 0.0
            && self.delay == 0.0
            && self.kill == 0.0
            && self.overrun == 0.0
    }

    /// Panics if any rate is outside `[0, 1]` or the delay bound is zero.
    pub fn validate(&self) {
        for (name, rate) in [
            ("erasure", self.erasure),
            ("corruption", self.corruption),
            ("delay", self.delay),
            ("kill", self.kill),
            ("overrun", self.overrun),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "fault rate {name}={rate} outside [0, 1]"
            );
        }
        assert!(self.max_delay_slots >= 1, "max_delay_slots must be >= 1");
    }

    /// Uniform `[0, 1)` draw for one `(domain, slot, extra)` decision.
    #[inline]
    fn unit(&self, dom: u64, seq: u64, extra: u64) -> f64 {
        let h = mix64(self.seed ^ mix64(dom) ^ mix64(seq).rotate_left(17) ^ mix64(extra));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The channel's decision for the frame of slot `seq` on broadcast
    /// channel 0 — shorthand for [`FaultPlan::channel_fault_on`], kept
    /// because single-channel deployments are the common case.
    pub fn channel_fault(&self, seq: u64) -> ChannelFault {
        self.channel_fault_on(seq, 0)
    }

    /// The decision for the frame of slot `seq` on broadcast channel
    /// `channel`. Pure in `(self, seq, channel)`: both transports, and any
    /// replay, get the same answer. Because each kind draws from its own
    /// hash stream and fires when the draw falls below the rate, raising
    /// one rate only *adds* faults — it never moves or removes the faults
    /// of a lower rate (coupled sampling). Channel 0 draws are bit-identical
    /// to the pre-multi-channel schedule (the channel term vanishes), so
    /// single-channel fault replays are stable across versions.
    pub fn channel_fault_on(&self, seq: u64, channel: u16) -> ChannelFault {
        // Zero for channel 0 — keeps the legacy single-channel stream.
        let ch = (channel as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if self.erasure > 0.0 && self.unit(domain::ERASE, seq, ch) < self.erasure {
            return ChannelFault::Erase;
        }
        if self.corruption > 0.0 && self.unit(domain::CORRUPT, seq, ch) < self.corruption {
            return ChannelFault::Corrupt {
                entropy: mix64(self.seed ^ mix64(domain::ENTROPY) ^ seq ^ ch),
            };
        }
        if self.delay > 0.0 && self.unit(domain::DELAY, seq, ch) < self.delay {
            let span = self.max_delay_slots.max(1);
            let slots = 1 + mix64(self.seed ^ mix64(domain::DELAY) ^ mix64(seq) ^ ch) % span;
            return ChannelFault::Delay { slots };
        }
        ChannelFault::Deliver
    }

    /// True when client `client`'s connection is killed at slot `seq`.
    pub fn kills_client(&self, seq: u64, client: u64) -> bool {
        self.kill > 0.0 && self.unit(domain::KILL, seq, client) < self.kill
    }

    /// True when the engine oversleeps the deadline of slot `seq`.
    pub fn overrun_at(&self, seq: u64) -> bool {
        self.overrun > 0.0 && self.unit(domain::OVERRUN, seq, 0) < self.overrun
    }
}

/// Running totals of faults an injector has applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames erased on the channel.
    pub erased: u64,
    /// Frames delivered with injected bit damage.
    pub corrupted: u64,
    /// Frames delivered late (reordered).
    pub delayed: u64,
    /// Client connections killed.
    pub killed: u64,
    /// Engine slot deadlines overrun.
    pub overruns: u64,
}

impl FaultCounts {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.erased + self.corrupted + self.delayed + self.killed + self.overruns
    }

    /// Adds another injector's totals into this one (aggregating across
    /// channels or transports).
    pub fn absorb(&mut self, other: FaultCounts) {
        self.erased += other.erased;
        self.corrupted += other.corrupted;
        self.delayed += other.delayed;
        self.killed += other.killed;
        self.overruns += other.overruns;
    }
}

/// One slot's worth of injector output: the frame plus, when the channel
/// corrupted it, the entropy selecting the damaged bit.
#[derive(Debug, Clone)]
pub struct InjectedFrame {
    /// The frame to put on the wire (payload intact; damage is applied at
    /// the transport's encoding, where a CRC can catch it).
    pub frame: Frame,
    /// `Some(entropy)` when the channel corrupted this frame in flight.
    pub corrupt: Option<u64>,
}

/// The choke point both transports drive: applies a [`FaultPlan`]'s
/// channel faults to the slot stream, holding delayed frames until due.
///
/// The injector is deliberately transport-agnostic: it decides *what*
/// happens to each slot's frame; the transport decides what that means on
/// its medium (the TCP writer flips a real bit under the CRC, the bus —
/// which has no wire form — models the receiver's CRC discard by
/// withholding the frame, producing the same client-visible gap).
pub struct FaultInjector {
    plan: FaultPlan,
    /// Broadcast channel this injector's decisions are keyed to.
    channel: u16,
    /// Per-channel injected-fault counter
    /// (`bd_fault_injected_by_channel_total{channel=...}`).
    by_channel: &'static bdisk_obs::Counter,
    /// Frames the channel is holding back: `(due_seq, frame)`.
    delayed: Vec<(u64, Frame)>,
    /// Faults applied so far.
    pub counts: FaultCounts,
}

impl FaultInjector {
    /// An injector executing `plan` on broadcast channel 0 (validated).
    pub fn new(plan: FaultPlan) -> Self {
        Self::for_channel(plan, 0)
    }

    /// An injector executing `plan` keyed to broadcast channel `channel`:
    /// every slot decision hashes the channel in, so channels with the same
    /// plan still fault independently (and channel 0 replays the legacy
    /// single-channel schedule bit-for-bit).
    pub fn for_channel(plan: FaultPlan, channel: u16) -> Self {
        plan.validate();
        Self {
            plan,
            channel,
            by_channel: crate::obs::fault_channel_counter(channel),
            delayed: Vec::new(),
            counts: FaultCounts::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The broadcast channel this injector is keyed to.
    pub fn channel(&self) -> u16 {
        self.channel
    }

    /// Applies the channel fault for slot `frame.seq` and releases any
    /// held frames that are now due, pushing everything the medium should
    /// carry this slot into `out` (possibly nothing: erasure or delay).
    /// Current-slot output precedes newly due held frames, so a delayed
    /// frame always lands *after* newer traffic — a true reorder.
    pub fn step(&mut self, frame: Frame, out: &mut Vec<InjectedFrame>) {
        let seq = frame.seq;
        let fault = self.plan.channel_fault_on(seq, self.channel);
        match fault {
            ChannelFault::Deliver => out.push(InjectedFrame {
                frame,
                corrupt: None,
            }),
            ChannelFault::Erase => {
                self.counts.erased += 1;
                metrics().erased.inc();
                self.by_channel.inc();
                event(EventKind::FaultInjected, seq, fault.code());
            }
            ChannelFault::Corrupt { entropy } => {
                self.counts.corrupted += 1;
                metrics().corrupted.inc();
                self.by_channel.inc();
                event(EventKind::FaultInjected, seq, fault.code());
                out.push(InjectedFrame {
                    frame,
                    corrupt: Some(entropy),
                });
            }
            ChannelFault::Delay { slots } => {
                self.counts.delayed += 1;
                metrics().delayed.inc();
                self.by_channel.inc();
                event(EventKind::FaultInjected, seq, fault.code());
                self.delayed.push((seq + slots, frame));
            }
        }
        if !self.delayed.is_empty() {
            let mut i = 0;
            while i < self.delayed.len() {
                if self.delayed[i].0 <= seq {
                    let (_, frame) = self.delayed.remove(i);
                    out.push(InjectedFrame {
                        frame,
                        corrupt: None,
                    });
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Records a client kill at slot `seq` (the transport does the actual
    /// eviction; this books the fault).
    pub fn record_kill(&mut self, seq: u64, client: u64) {
        self.counts.killed += 1;
        metrics().killed.inc();
        self.by_channel.inc();
        event(EventKind::FaultInjected, seq, FAULT_CODE_KILL);
        let _ = client;
    }

    /// Records an engine slot-deadline overrun at slot `seq`.
    pub fn record_overrun(&mut self, seq: u64) {
        self.counts.overruns += 1;
        metrics().overruns.inc();
        self.by_channel.inc();
        event(EventKind::FaultInjected, seq, FAULT_CODE_OVERRUN);
    }

    /// Frames the channel is still holding (undelivered delays). The
    /// transport's `finish` may flush or drop them; the broadcast medium
    /// makes no delivery promise for frames in flight at shutdown.
    pub fn in_flight(&self) -> usize {
        self.delayed.len()
    }
}

/// One channel's lazily-resolved fault choke point.
enum ChannelInjector {
    /// No frame seen on this channel yet.
    Unresolved,
    /// Resolved: this channel runs fault-free.
    Clean,
    /// Resolved: this channel's frames pass through an injector.
    Faulty(FaultInjector),
}

/// Routes each broadcast channel's frames to its own [`FaultInjector`]:
/// a default plan applies to every channel, with optional per-channel
/// overrides (real multi-channel media degrade per transponder, not
/// uniformly). Injectors materialize on a channel's first frame and key
/// their decisions to the channel, so channels sharing one plan still
/// fault independently — and channel 0 replays the legacy single-channel
/// schedule bit-for-bit.
pub(crate) struct FaultSwitchboard {
    default_plan: Option<FaultPlan>,
    channel_plans: Vec<Option<FaultPlan>>,
    injectors: Vec<ChannelInjector>,
    /// True when any installed plan can fault; guards the whole fault
    /// path, keeping a zero plan bit- and allocation-identical to none.
    active: bool,
}

impl FaultSwitchboard {
    pub fn new() -> Self {
        Self {
            default_plan: None,
            channel_plans: Vec::new(),
            injectors: Vec::new(),
            active: false,
        }
    }

    /// Installs (or, with [`FaultPlan::is_none`], removes) the default
    /// plan on every channel, clearing per-channel overrides and resetting
    /// materialized injectors.
    pub fn set_default(&mut self, plan: FaultPlan) {
        plan.validate();
        self.default_plan = if plan.is_none() { None } else { Some(plan) };
        self.channel_plans.clear();
        self.injectors.clear();
        self.refresh_active();
    }

    /// Overrides the plan for one channel (other channels keep the
    /// default, or run clean without one).
    pub fn set_channel(&mut self, channel: u16, plan: FaultPlan) {
        plan.validate();
        let idx = channel as usize;
        if self.channel_plans.len() <= idx {
            self.channel_plans.resize(idx + 1, None);
        }
        self.channel_plans[idx] = Some(plan);
        if self.injectors.len() > idx {
            self.injectors[idx] = ChannelInjector::Unresolved;
        }
        self.refresh_active();
    }

    fn refresh_active(&mut self) {
        self.active = self.default_plan.is_some()
            || self
                .channel_plans
                .iter()
                .any(|p| p.map(|p| !p.is_none()).unwrap_or(false));
    }

    /// True when at least one channel has a plan that can fault.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Faults injected so far, summed over every channel's injector.
    pub fn counts(&self) -> FaultCounts {
        let mut total = FaultCounts::default();
        for slot in &self.injectors {
            if let ChannelInjector::Faulty(inj) = slot {
                total.absorb(inj.counts);
            }
        }
        total
    }

    /// The injector for `channel` (materializing it on first use), or
    /// `None` when the channel runs fault-free.
    pub fn injector_mut(&mut self, channel: u16) -> Option<&mut FaultInjector> {
        let idx = channel as usize;
        while self.injectors.len() <= idx {
            self.injectors.push(ChannelInjector::Unresolved);
        }
        if matches!(self.injectors[idx], ChannelInjector::Unresolved) {
            let plan = self
                .channel_plans
                .get(idx)
                .copied()
                .flatten()
                .or(self.default_plan);
            self.injectors[idx] = match plan {
                Some(p) if !p.is_none() => {
                    ChannelInjector::Faulty(FaultInjector::for_channel(p, channel))
                }
                _ => ChannelInjector::Clean,
            };
        }
        match &mut self.injectors[idx] {
            ChannelInjector::Faulty(inj) => Some(inj),
            _ => None,
        }
    }
}

/// Encodes `frame` and flips one bit of the body chosen by `entropy` —
/// never a length-prefix bit, so framing stays intact and the damage is
/// the CRC's to catch. Both TCP transports (threaded and evented) corrupt
/// through this one function, so a fault plan's corruption schedule is
/// byte-identical across them.
pub(crate) fn encode_corrupted(
    frame: &crate::transport::Frame,
    entropy: u64,
) -> std::sync::Arc<[u8]> {
    use crate::transport::LEN_PREFIX;
    let mut bytes = frame.encode();
    let body_bits = (bytes.len() - LEN_PREFIX) * 8;
    let bit = (entropy % body_bits as u64) as usize;
    bytes[LEN_PREFIX + bit / 8] ^= 1 << (bit % 8);
    std::sync::Arc::from(bytes)
}

/// Per-kind injected-fault counters (`bd_fault_injected_total{kind=...}`).
pub(crate) struct FaultMetrics {
    pub erased: &'static bdisk_obs::Counter,
    pub corrupted: &'static bdisk_obs::Counter,
    pub delayed: &'static bdisk_obs::Counter,
    pub killed: &'static bdisk_obs::Counter,
    pub overruns: &'static bdisk_obs::Counter,
}

pub(crate) fn metrics() -> &'static FaultMetrics {
    static M: OnceLock<FaultMetrics> = OnceLock::new();
    const HELP: &str = "Faults injected into the broadcast, by kind";
    M.get_or_init(|| FaultMetrics {
        erased: bdisk_obs::counter_labeled("bd_fault_injected_total", HELP, "kind", "erase"),
        corrupted: bdisk_obs::counter_labeled("bd_fault_injected_total", HELP, "kind", "corrupt"),
        delayed: bdisk_obs::counter_labeled("bd_fault_injected_total", HELP, "kind", "delay"),
        killed: bdisk_obs::counter_labeled("bd_fault_injected_total", HELP, "kind", "kill"),
        overruns: bdisk_obs::counter_labeled("bd_fault_injected_total", HELP, "kind", "overrun"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk_sched::Slot;

    #[test]
    fn same_seed_replays_identical_fault_sequence() {
        let plan = FaultPlan {
            seed: 42,
            erasure: 0.1,
            corruption: 0.05,
            delay: 0.05,
            max_delay_slots: 6,
            kill: 0.01,
            overrun: 0.02,
            drift_every_slots: 0,
            broker_kill_slot: 0,
        };
        for seq in 0..2_000u64 {
            assert_eq!(plan.channel_fault(seq), plan.channel_fault(seq));
            for client in 0..4 {
                assert_eq!(
                    plan.kills_client(seq, client),
                    plan.kills_client(seq, client)
                );
            }
            assert_eq!(plan.overrun_at(seq), plan.overrun_at(seq));
        }
    }

    #[test]
    fn fault_rates_land_near_target() {
        let plan = FaultPlan::erasure_only(7, 0.10);
        let erased = (0..100_000u64)
            .filter(|&s| plan.channel_fault(s) == ChannelFault::Erase)
            .count();
        let rate = erased as f64 / 100_000.0;
        assert!((rate - 0.10).abs() < 0.01, "observed erasure rate {rate}");
    }

    #[test]
    fn erasures_are_coupled_across_rates() {
        // Same seed: every slot erased at 5% is also erased at 20%.
        let low = FaultPlan::erasure_only(99, 0.05);
        let high = FaultPlan::erasure_only(99, 0.20);
        let mut low_count = 0;
        for seq in 0..50_000u64 {
            if low.channel_fault(seq) == ChannelFault::Erase {
                low_count += 1;
                assert_eq!(
                    high.channel_fault(seq),
                    ChannelFault::Erase,
                    "slot {seq} erased at 5% but not at 20%"
                );
            }
        }
        assert!(low_count > 0, "5% of 50k slots must erase something");
    }

    #[test]
    fn none_plan_never_faults() {
        let plan = FaultPlan {
            seed: 123,
            ..FaultPlan::none()
        };
        assert!(plan.is_none());
        for seq in 0..10_000u64 {
            assert_eq!(plan.channel_fault(seq), ChannelFault::Deliver);
            assert!(!plan.kills_client(seq, seq % 7));
            assert!(!plan.overrun_at(seq));
        }
    }

    #[test]
    fn delayed_frames_come_out_late_and_in_due_order() {
        // A plan that (at this seed) delays at least one early slot.
        let plan = FaultPlan {
            seed: 5,
            delay: 0.3,
            max_delay_slots: 3,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        let mut out = Vec::new();
        let mut seen: Vec<u64> = Vec::new();
        for seq in 0..200u64 {
            out.clear();
            inj.step(Frame::bare(seq, Slot::Empty), &mut out);
            for f in &out {
                seen.push(f.frame.seq);
            }
        }
        assert!(inj.counts.delayed > 0, "seed must trigger delays");
        // Every delayed frame eventually appears, after newer traffic.
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "no duplicates");
        assert_ne!(seen, sorted, "delays must reorder the stream");
        // Nothing is lost under pure delay once the horizon passes.
        assert!(seen.len() as u64 + inj.in_flight() as u64 == 200);
    }

    #[test]
    fn splitmix_jitter_is_deterministic() {
        let mut a = SplitMix::new(11);
        let mut b = SplitMix::new(11);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let x = SplitMix::new(1).next_f64();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_rate_is_rejected() {
        FaultInjector::new(FaultPlan {
            erasure: 1.5,
            ..FaultPlan::none()
        });
    }
}
