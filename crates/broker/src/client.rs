//! A live client: the simulator's protocol driven by real frames.
//!
//! [`LiveClient`] wraps the same [`ClientCore`] as the simulator's
//! `ClientModel`, but instead of jumping a virtual clock to a page's next
//! arrival it watches the broadcast go by one frame at a time. Frame `seq`
//! places the client at virtual time `seq` (broadcast units), so all
//! response times are directly comparable to — and, on a lossless feed with
//! jitter-free think times, bit-identical to — the simulator's.
//!
//! ## Multi-channel tuning
//!
//! Against a multi-channel [`BroadcastPlan`] the client models the paper's
//! single-tuner receiver exactly like the simulator: a miss on a page that
//! lives on the currently-tuned channel waits in place; a miss on another
//! channel retunes, forfeiting the slot in flight and paying the switch
//! penalty — the earliest receivable slot starts at `⌊t⌋ + 1 +
//! switch_slots`, anchored on the request time. Because the engine airs
//! every channel's slot for a given `seq` in channel order, and (with a
//! positive think time) a request-issuing chain always begins on the first
//! frame of a sequence number, the live decision point sees exactly the
//! frames the simulator's `next_arrival` assumes are still receivable. (At
//! `think_time == 0` a chain can begin mid-sequence and the live client may
//! observe one fewer same-`seq` slot than the model; the paper's default
//! think time is 2.0.)

use std::sync::Arc;

use bdisk_cache::PolicyContext;
use bdisk_code::{ChannelCode, DecodeWindow, Decoded};
use bdisk_obs::journal::{event, EventKind};
use bdisk_obs::trace::{self, Span, SpanKind};
use bdisk_sched::{BroadcastPlan, BroadcastProgram, ChannelId, DiskLayout, PageId, Slot};
use bdisk_sim::{
    AccessLocation, ClientCore, Mapping, Measurements, SimConfig, SimError, SimOutcome,
};

use crate::transport::{Frame, PullRequest};

/// One plan epoch as a client sees it: the plan itself plus the policy
/// context (physical page probabilities, page→disk map, disk frequencies)
/// the cache should re-score under when this epoch takes the air. Built
/// once per fleet and shared by `Arc` — adoption clones the plan, never
/// the context.
pub struct ClientEpoch {
    /// The plan aired during this epoch.
    pub plan: BroadcastPlan,
    /// Policy context matching this epoch's workload/plan.
    pub ctx: PolicyContext,
}

/// A deterministic client-side drift schedule: every `every_slots` slots
/// the workload's logical→physical mapping advances one phase. Applied
/// identically by adaptive and control fleets (zero RNG draws), so the
/// only difference between those runs is whether the *broadcast* adapts.
pub struct DriftBook {
    /// Slots per drift phase.
    pub every_slots: u64,
    /// Mapping for phase `p` (cumulative — each entry is the full mapping,
    /// not a delta). Phases past the end hold at the last entry.
    pub mappings: Vec<Mapping>,
    /// Last phase applied.
    cur_phase: usize,
}

impl DriftBook {
    /// A drift schedule stepping through `mappings` every `every_slots`
    /// slots (phase 0 must already be the client's construction mapping).
    pub fn new(every_slots: u64, mappings: Vec<Mapping>) -> Self {
        assert!(every_slots > 0, "drift cadence must be nonzero");
        assert!(!mappings.is_empty(), "drift book must hold phase 0");
        Self {
            every_slots,
            mappings,
            cur_phase: 0,
        }
    }
}

/// Final results of one live client: the summarized outcome plus the raw
/// measurements for fleet-wide aggregation.
pub struct LiveClientResult {
    /// Summarized steady-state outcome (same type the simulator produces).
    pub outcome: SimOutcome,
    /// Raw measurement accumulators, mergeable across clients.
    pub measurements: Measurements,
    /// Frames this client consumed before finishing.
    pub frames_seen: u64,
    /// Contiguous frame-sequence gaps this client observed (lost frames,
    /// however caused: erasure, CRC discard, or an outage).
    pub gaps: u64,
    /// Total slots swallowed by those gaps.
    pub gap_slots: u64,
    /// Stale (reordered/delayed) frames discarded because virtual time
    /// never rewinds.
    pub late_frames: u64,
    /// Pending pages whose broadcast was lost and that were recovered at a
    /// later periodic broadcast.
    pub recoveries: u64,
    /// Longest recovery wait (slots from the lost broadcast to the
    /// periodic reappearance that recovered it). At most one broadcast
    /// period per consecutive loss of the same page.
    pub max_recovery_wait: u64,
    /// Of those recoveries, how many completed early from a decoded repair
    /// symbol rather than waiting for the page's next periodic broadcast.
    pub recoveries_coded: u64,
    /// Repair symbols that decoded at least one lost page at this client.
    pub symbols_decoded: u64,
    /// Every recovery wait, in slots — raw samples for fleet-wide
    /// percentile aggregation (p99, max). Empty on a lossless feed.
    pub recovery_waits: Vec<u64>,
    /// Sampled wait-attribution spans, in completion order. Empty unless
    /// [`bdisk_obs::trace::set_sample_every`] turned span sampling on.
    pub spans: Vec<Span>,
    /// Plan epochs this client adopted mid-run (hot swaps survived).
    pub epoch_swaps: u64,
    /// Frames discarded for carrying a non-current (older) plan epoch.
    pub stale_epoch_frames: u64,
    /// Per-window mean miss delay while measuring: `(sum, count)` of
    /// response times bucketed by completion slot. Empty unless
    /// [`LiveClient::with_delay_buckets`] was set.
    pub delay_buckets: Vec<(f64, u64)>,
}

/// Client-side decode state for a coded plan: the per-channel symbol
/// compositions and a bounded window of recent tuned-channel slots. `None`
/// on uncoded plans, so `rate = 0` leaves every frame path untouched.
struct CodedState {
    /// Symbol specs per channel (indexed by channel id).
    codes: Vec<ChannelCode>,
    /// Recent tuned-channel slots, heard (with payload) or known-lost.
    window: DecodeWindow,
    /// Evictions already flushed to `bd_decode_window_evictions_total`.
    evictions_seen: u64,
}

/// One client of the live broadcast: seeded request stream, cache policy,
/// warm-up, and measurement — fed by frames instead of a virtual clock.
pub struct LiveClient {
    core: ClientCore,
    plan: BroadcastPlan,
    /// Channel the single tuner is currently listening to.
    tuned: u16,
    /// Retune penalty in broadcast units (from [`SimConfig::switch_slots`]).
    switch_slots: f64,
    /// Earliest sequence the pending page may be received at — past the
    /// retune penalty window after a cross-channel miss (0 otherwise).
    min_receive_seq: u64,
    /// Virtual time at which the next request becomes due.
    next_due: f64,
    /// A missed request waiting for its page: `(page, requested_at)`.
    pending: Option<(PageId, f64)>,
    /// Wait-attribution anchors `(no_switch, expected)` for the pending
    /// request, when it was sampled at issue time (`None` otherwise).
    /// Computed with pure plan arithmetic only — tracing never touches the
    /// frame protocol or the RNG.
    pending_trace: Option<(f64, f64)>,
    /// The slot at which the pending page's broadcast was lost in a gap,
    /// if it was — the anchor for recovery-wait accounting.
    pending_missed_at: Option<u64>,
    /// Next frame sequence this client expects on the tuned channel
    /// (`None` before any frame and right after a retune).
    expected_seq: Option<u64>,
    gaps: u64,
    gap_slots: u64,
    late_frames: u64,
    recoveries: u64,
    max_recovery_wait: u64,
    recoveries_coded: u64,
    symbols_decoded: u64,
    recovery_waits: Vec<u64>,
    /// Decode state when the plan carries repair slots (`None` at rate 0).
    coded: Option<CodedState>,
    /// Plan epoch currently adopted; frames of other epochs are dropped.
    epoch: u32,
    /// Absolute seq where the adopted epoch's slot clock starts (0 for
    /// epoch 0, so single-plan runs do identical arithmetic to before).
    base: u64,
    /// An announced-but-not-yet-active swap: `(epoch, base)` from a fence
    /// whose boundary is still ahead. Activated at the first frame with
    /// `seq >= base`.
    pending_swap: Option<(u32, u64)>,
    /// Per-epoch plans and policy contexts; `None` locks the client to
    /// its construction plan (fences still track `base` on restart).
    epoch_book: Option<Arc<Vec<ClientEpoch>>>,
    /// Deterministic workload drift, if the run schedules one.
    drift: Option<DriftBook>,
    epoch_swaps: u64,
    stale_epoch_frames: u64,
    /// Bucket width (slots) for windowed delay means; 0 = off.
    bucket_every: u64,
    delay_buckets: Vec<(f64, u64)>,
    done: bool,
    end_time: f64,
    frames_seen: u64,
    /// Span identity: the seed this client was built with.
    trace_id: u64,
    /// Sampled wait-attribution spans, in completion order.
    spans: Vec<Span>,
    /// When `Some(user)`, every miss that goes pending also queues an
    /// upstream [`PullRequest`] under that user id (drained by the feed
    /// via [`LiveClient::drain_pull_requests`]). `None` = push-only.
    pull_user: Option<u32>,
    /// Requests queued since the last drain.
    pull_outbox: Vec<PullRequest>,
}

impl LiveClient {
    /// Builds the client for `cfg` with the given seed, listening to the
    /// single-channel broadcast of `program`. Identical seeds and configs
    /// produce the exact request stream of `bdisk_sim::simulate`.
    pub fn new(
        cfg: &SimConfig,
        layout: &DiskLayout,
        program: BroadcastProgram,
        seed: u64,
    ) -> Result<Self, SimError> {
        Self::with_plan(cfg, layout, BroadcastPlan::single(program), seed)
    }

    /// Like [`LiveClient::new`] but against a multi-channel
    /// [`BroadcastPlan`]. A 1-channel plan is bit-identical to [`new`]
    /// with the wrapped program; the tuner starts on channel 0.
    ///
    /// [`new`]: LiveClient::new
    pub fn with_plan(
        cfg: &SimConfig,
        layout: &DiskLayout,
        plan: BroadcastPlan,
        seed: u64,
    ) -> Result<Self, SimError> {
        let core = ClientCore::new_plan(cfg, layout, &plan, seed)?;
        // A coded plan gets a decode window spanning one (largest) period:
        // a repair symbol only ever covers slots within its own period, so
        // anything older can no longer be repaired anyway.
        let coded = plan.coding().map(|cfg| CodedState {
            codes: (0..plan.num_channels())
                .map(|c| ChannelCode::build(plan.program(ChannelId(c as u16)), c as u16, cfg))
                .collect(),
            window: DecodeWindow::new(plan.max_period()),
            evictions_seen: 0,
        });
        Ok(Self {
            core,
            plan,
            tuned: 0,
            switch_slots: cfg.switch_slots,
            min_receive_seq: 0,
            next_due: 0.0,
            pending: None,
            pending_trace: None,
            pending_missed_at: None,
            expected_seq: None,
            gaps: 0,
            gap_slots: 0,
            late_frames: 0,
            recoveries: 0,
            max_recovery_wait: 0,
            recoveries_coded: 0,
            symbols_decoded: 0,
            recovery_waits: Vec::new(),
            coded,
            epoch: 0,
            base: 0,
            pending_swap: None,
            epoch_book: None,
            drift: None,
            epoch_swaps: 0,
            stale_epoch_frames: 0,
            bucket_every: 0,
            delay_buckets: Vec::new(),
            done: false,
            end_time: 0.0,
            frames_seen: 0,
            trace_id: seed,
            spans: Vec::new(),
            pull_user: None,
            pull_outbox: Vec::new(),
        })
    }

    /// Arms the client to survive plan hot-swaps: when an epoch fence
    /// announces epoch `e`, the client re-scores its cache under
    /// `book[e].ctx` and continues against `book[e].plan`. Entry 0 should
    /// match the construction plan.
    pub fn with_epoch_book(mut self, book: Arc<Vec<ClientEpoch>>) -> Self {
        assert!(!book.is_empty(), "epoch book must hold epoch 0");
        self.epoch_book = Some(book);
        self
    }

    /// Installs a deterministic workload-drift schedule (see [`DriftBook`]).
    pub fn with_drift(mut self, drift: DriftBook) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Turns on windowed delay means: responses completed while measuring
    /// accumulate into buckets of `every` slots (by completion time).
    pub fn with_delay_buckets(mut self, every: u64) -> Self {
        assert!(every > 0, "bucket width must be nonzero");
        self.bucket_every = every;
        self
    }

    /// Arms the upstream backchannel: every miss that goes pending also
    /// queues a [`PullRequest`] under `user`, with `min_seq` set to the
    /// earliest slot this tuner could actually receive (the retune
    /// penalty boundary on a cross-channel miss). The feed is expected to
    /// [`drain_pull_requests`](LiveClient::drain_pull_requests) after each
    /// frame and relay them upstream.
    pub fn with_pull_requests(mut self, user: u32) -> Self {
        self.pull_user = Some(user);
        self
    }

    /// Moves every pull request queued since the last drain into `out`.
    pub fn drain_pull_requests(&mut self, out: &mut Vec<PullRequest>) {
        out.append(&mut self.pull_outbox);
    }

    /// Plan epoch currently adopted.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Plan hot-swaps this client has adopted so far.
    pub fn epoch_swaps(&self) -> u64 {
        self.epoch_swaps
    }

    /// The active plan's slot on `ch` at absolute seq `s`, under the
    /// adopted epoch's base offset. Slots before the epoch began read as
    /// padding (they belong to a plan this client no longer tracks).
    fn slot_on(&self, ch: ChannelId, s: u64) -> Slot {
        if s < self.base {
            Slot::Empty
        } else {
            self.plan.slot_at(ch, s - self.base)
        }
    }

    /// The page's next arrival at or after absolute time `t`, in absolute
    /// slots — [`BroadcastPlan::next_arrival`] shifted by the epoch base.
    fn arrival(&self, page: PageId, t: f64) -> f64 {
        let base = self.base as f64;
        base + self.plan.next_arrival(page, (t - base).max(0.0))
    }

    /// Predicted service slot of a pull request issued at `requested_at`
    /// under an uncontended padding-fill arbiter: the first padding slot
    /// on the page's home channel the tuner can hear. The request reaches
    /// the broker on the tick it was issued, so service starts the tick
    /// after; a retune pushes the bound to the penalty boundary. `None`
    /// when the channel's program has no padding.
    fn pull_arrival(&self, page: PageId, requested_at: f64, min_seq: u64) -> Option<f64> {
        let home = self.plan.channel_of(page);
        let lb = (requested_at.ceil() + 1.0).max(min_seq as f64);
        let base = self.base as f64;
        self.plan
            .next_padding_arrival(home, (lb - base).max(0.0))
            .map(|a| a + base)
    }

    /// Adopts plan epoch `epoch` with its slot clock starting at `base`.
    /// `now` is the seq of the frame that triggered adoption (anchors the
    /// retune penalty if the pending page moved channels). Residency
    /// survives; eviction ranking is re-scored under the new epoch's
    /// context; the decode window restarts (old-epoch symbols cover
    /// nothing in the new layout).
    fn adopt(&mut self, epoch: u32, base: u64, now: u64) {
        self.pending_swap = None;
        if epoch == self.epoch && base == self.base {
            return;
        }
        if let Some(book) = self.epoch_book.clone() {
            let idx = (epoch as usize).min(book.len() - 1);
            let entry = &book[idx];
            self.plan = entry.plan.clone();
            self.core.rescore(&entry.ctx);
        }
        self.epoch = epoch;
        self.base = base;
        self.coded = self.plan.coding().map(|cfg| CodedState {
            codes: (0..self.plan.num_channels())
                .map(|c| ChannelCode::build(self.plan.program(ChannelId(c as u16)), c as u16, cfg))
                .collect(),
            window: DecodeWindow::new(self.plan.max_period()),
            evictions_seen: 0,
        });
        // The pending page may live on a different channel under the new
        // layout: retune (paying the switch penalty) so the wait resumes
        // against the airing that will actually happen. Recovery anchors
        // and trace anchors from the old plan are meaningless now.
        if let Some((page, _)) = self.pending {
            let home = self.plan.channel_of(page);
            if home.0 != self.tuned {
                self.tuned = home.0;
                self.expected_seq = None;
                self.min_receive_seq = (now as f64 + 1.0 + self.switch_slots).ceil() as u64;
            }
        }
        self.pending_missed_at = None;
        self.pending_trace = None;
        self.epoch_swaps += 1;
        event(EventKind::EpochSwap, epoch as u64, base);
    }

    /// Accumulates one measured response into its completion-time bucket.
    fn record_bucket(&mut self, completed_at: f64, response: f64) {
        if self.bucket_every == 0 {
            return;
        }
        let idx = (completed_at as u64 / self.bucket_every) as usize;
        if self.delay_buckets.len() <= idx {
            self.delay_buckets.resize(idx + 1, (0.0, 0));
        }
        let (sum, n) = &mut self.delay_buckets[idx];
        *sum += response;
        *n += 1;
    }

    /// Processes one broadcast frame; returns `true` once the measurement
    /// target is reached (further frames are ignored).
    ///
    /// The protocol per frame, in order:
    /// 1. Resync on the frame's absolute sequence number — only against
    ///    frames of the tuned channel, since every channel numbers the same
    ///    slot clock: a jump forward is a *gap* (lost frames — erased,
    ///    CRC-discarded, or an outage); a jump backward is a stale
    ///    reordered frame and is dropped, because virtual time never
    ///    rewinds. A retune resets the expectation — switching channels is
    ///    not a loss.
    /// 2. If a missed request is pending and this slot carries its page
    ///    (which implies the frame is on the page's channel — page ids
    ///    partition across channels), complete it (response = now − request
    ///    time) unless the slot is still inside the retune penalty window.
    /// 3. Issue every request that has come due by now. Cache hits complete
    ///    immediately (response 0, as in the simulator); a miss retunes
    ///    first if the page lives on another channel; a miss satisfied by
    ///    this very slot (and past any penalty) completes now; any other
    ///    miss becomes pending.
    ///
    /// Recovery is the paper's: nothing is retransmitted. A client whose
    /// pending page was lost in a gap simply keeps listening — the page
    /// comes around again within one broadcast period, and the extra wait
    /// is attributed to loss (`bd_recovery_wait_slots`, `Recovery` event).
    pub fn on_frame(&mut self, frame: &Frame) -> bool {
        if self.done {
            return true;
        }
        self.frames_seen += 1;
        crate::obs::client().frames_seen.inc();
        let (seq, slot) = (frame.seq, frame.slot);
        // Epoch protocol, before any seq bookkeeping. Fences are
        // out-of-band markers: a fence for a *future* epoch whose boundary
        // has arrived adopts it now, one still ahead is stashed until its
        // boundary passes; refresh fences for the current epoch are
        // no-ops. Data frames of a non-current epoch are dropped — by
        // epoch tag, not seq heuristics — so a tuner never maps a page
        // arrival against the wrong plan. Epoch-0 single-plan runs see no
        // fences and every comparison below is `0 == 0`.
        if slot == Slot::EpochFence {
            if let Some(fence_base) = frame.fence_base() {
                if frame.epoch > self.epoch
                    || (frame.epoch == self.epoch && fence_base != self.base)
                {
                    if seq >= fence_base {
                        self.adopt(frame.epoch, fence_base, seq);
                    } else {
                        self.pending_swap = Some((frame.epoch, fence_base));
                    }
                }
            }
            return false;
        }
        if let Some((e, b)) = self.pending_swap {
            if seq >= b {
                self.adopt(e, b, seq);
            }
        }
        if frame.epoch != self.epoch {
            if frame.epoch < self.epoch {
                self.stale_epoch_frames += 1;
                crate::obs::epoch_metrics().stale_frames.inc();
            }
            // A frame from an epoch we haven't adopted yet (its fence was
            // lost): drop it and wait for the next refresh fence, at most
            // one cycle away.
            return false;
        }
        // Deterministic workload drift: phase crossings move the request
        // stream's physical mapping (no RNG draws, so adaptive and
        // control fleets drift bit-identically).
        if let Some(d) = self.drift.as_mut() {
            let phase = (seq / d.every_slots) as usize;
            if phase > d.cur_phase {
                d.cur_phase = phase;
                let m = d.mappings[phase.min(d.mappings.len() - 1)].clone();
                self.core.set_mapping(m);
            }
        }
        if frame.channel == self.tuned {
            if let Some(expected) = self.expected_seq {
                if seq < expected {
                    self.late_frames += 1;
                    return false;
                }
                if seq > expected {
                    let gap_len = seq - expected;
                    self.gaps += 1;
                    self.gap_slots += gap_len;
                    crate::obs::recovery().gaps.inc();
                    event(EventKind::FrameGap, expected, gap_len);
                    if let Some(state) = self.coded.as_mut() {
                        // Mark the gap's receivable data slots known-lost:
                        // a later repair symbol covering one reconstructs
                        // it. Slots more than a period back are beyond any
                        // symbol's coverage, so a long outage only replays
                        // the last period.
                        let tuned = ChannelId(self.tuned);
                        let horizon = seq.saturating_sub(self.plan.period_of(tuned) as u64);
                        let start = expected.max(self.min_receive_seq).max(horizon);
                        for s in start..seq {
                            if s < self.base {
                                continue; // pre-swap slots: old plan, unrepairable
                            }
                            if let Slot::Page(p) = self.plan.slot_at(tuned, s - self.base) {
                                state.window.push_lost(s, p);
                            }
                        }
                    }
                    if let Some((page, _)) = self.pending {
                        if self.pending_missed_at.is_none() {
                            // Did the gap swallow the pending page's
                            // broadcast? Every page airs at least once per
                            // period on its channel, so scanning the gap's
                            // first period of receivable slots finds the
                            // earliest lost occurrence if there is one.
                            let tuned = ChannelId(self.tuned);
                            let start = expected.max(self.min_receive_seq);
                            let scan_end = (expected + self.plan.period_of(tuned) as u64).min(seq);
                            for s in start..scan_end {
                                if self.slot_on(tuned, s) == Slot::Page(page) {
                                    self.pending_missed_at = Some(s);
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            self.expected_seq = Some(seq + 1);
        }
        let t = seq as f64;

        // Coded path: mirror this receivable tuned-channel slot into the
        // decode window; a repair symbol may reconstruct known-lost pages
        // on the spot. Uncoded plans (`rate = 0`) skip all of this.
        let mut decoded: Vec<Decoded> = Vec::new();
        if frame.channel == self.tuned && seq >= self.min_receive_seq {
            if let Some(state) = self.coded.as_mut() {
                match slot {
                    Slot::Page(p) => {
                        state.window.push_heard(seq, p, Arc::clone(&frame.payload));
                    }
                    Slot::Repair(id) => {
                        let ch = ChannelId(frame.channel);
                        // Symbol coverage is plan-local arithmetic: shift
                        // the airing seq into the epoch's clock and the
                        // covered seqs back out to absolute.
                        let base = self.base;
                        if let Some(covers) = state.codes[ch.index()].covered_seqs(id, seq - base) {
                            let covers = covers
                                .into_iter()
                                .map(|(s, local)| (s + base, self.plan.global_page(ch, local)))
                                .collect();
                            decoded = state.window.on_repair(covers, &frame.payload);
                            if !decoded.is_empty() {
                                self.symbols_decoded += 1;
                                crate::obs::repair().symbols_decoded.inc();
                            }
                        }
                    }
                    // A pull airing substitutes a padding slot on coded
                    // plans (the arbiter never steals data slots there),
                    // so the decode window sees exactly what a push-only
                    // feed would: nothing.
                    Slot::Empty | Slot::Pull(_) => {}
                    Slot::EpochFence => unreachable!("fences are handled before the coded path"),
                }
                let ev = state.window.evictions();
                if ev > state.evictions_seen {
                    crate::obs::repair()
                        .window_evictions
                        .add(ev - state.evictions_seen);
                    state.evictions_seen = ev;
                }
            }
        }
        for d in decoded {
            // A decoded page completes the pending request early only when
            // it reconstructs the airing the request actually missed (or a
            // later one). Decodes of airings that predate the request stay
            // in the window as data, never become a response.
            let Some((page, requested_at)) = self.pending else {
                break;
            };
            let Some(missed) = self.pending_missed_at else {
                break;
            };
            if d.page == page && d.seq >= missed {
                self.pending = None;
                self.min_receive_seq = 0;
                self.pending_missed_at = None;
                self.record_recovery(page, (t as u64).saturating_sub(missed), true);
                // The fallback airing the decode beat: the page's first
                // airing after now (everything earlier was lost or
                // forfeit) — the coded-repair credit anchor. Pure plan
                // arithmetic, computed only for sampled requests.
                let fallback = if self.pending_trace.is_some() {
                    self.arrival(page, t)
                } else {
                    t
                };
                if self.complete_miss(page, requested_at, t, fallback) {
                    return true;
                }
            }
        }

        if let Some((page, requested_at)) = self.pending {
            // An on-demand airing delivers the page exactly like a
            // scheduled one — same payload, same receive-time rule.
            let delivers = slot == Slot::Page(page) || slot == Slot::Pull(page);
            if !delivers || seq < self.min_receive_seq {
                return false; // still waiting for the page
            }
            self.pending = None;
            self.min_receive_seq = 0;
            if self.receive(page, requested_at, t) {
                return true;
            }
        }

        while self.next_due <= t {
            let requested_at = self.next_due;
            let page = self.core.next_request();
            // Sampling is decided at issue time, exactly as the simulator
            // does: one request is in flight and the measuring flag flips
            // only inside complete_request, so the index gate here matches
            // the index the request completes with — twin runs sample
            // identical request sets.
            let traced = self.core.measuring() && trace::sampled(self.core.measured_count());
            if self.core.contains(page) {
                self.core.on_hit(page, requested_at);
                if traced {
                    // A cache hit waits on nothing: the all-zero span.
                    self.emit_span(
                        requested_at,
                        requested_at,
                        requested_at,
                        requested_at,
                        requested_at,
                    );
                }
                if self.core.measuring() {
                    self.record_bucket(requested_at, 0.0);
                }
                if self.core.complete_request(0.0, AccessLocation::Cache) {
                    return self.finish_at(requested_at);
                }
                self.next_due = requested_at + self.core.think_delay();
            } else {
                let home = self.plan.channel_of(page);
                let min_seq = if home.0 == self.tuned {
                    0
                } else {
                    // Single-tuner constraint, mirroring the simulator:
                    // retuning forfeits the slot in flight and pays the
                    // switch penalty — the earliest receivable slot starts
                    // at ⌊t⌋ + 1 + switch_slots, anchored on the request
                    // time.
                    self.tuned = home.0;
                    self.expected_seq = None;
                    if let Some(state) = self.coded.as_mut() {
                        // The window holds the old channel's slots; no
                        // symbol of the new channel covers them. Start
                        // clean (a retune is not an eviction).
                        state.window.reset();
                    }
                    (requested_at.floor() + 1.0 + self.switch_slots).ceil() as u64
                };
                // Wait-attribution anchors for sampled requests: what the
                // wait would have been without a retune, and the arrival
                // actually expected past any switch penalty. Pure plan
                // arithmetic — identical to the simulator's anchors.
                self.pending_trace = if traced {
                    let no_switch = self.arrival(page, requested_at);
                    let mut expected = if min_seq == 0 {
                        no_switch
                    } else {
                        self.arrival(page, requested_at.floor() + 1.0 + self.switch_slots)
                    };
                    if self.pull_user.is_some() {
                        // With the backchannel armed the expected arrival
                        // is the earlier of the periodic airing and the
                        // pull service (padding-fill prediction) — same
                        // arithmetic as the simulator's pull mirror.
                        if let Some(pa) = self.pull_arrival(page, requested_at, min_seq) {
                            expected = expected.min(pa);
                        }
                    }
                    Some((no_switch, expected))
                } else {
                    None
                };
                if (slot == Slot::Page(page) || slot == Slot::Pull(page)) && seq >= min_seq {
                    // The slot currently on the air is the page we need.
                    if self.receive(page, requested_at, t) {
                        return true;
                    }
                } else {
                    self.min_receive_seq = min_seq;
                    self.pending = Some((page, requested_at));
                    if let Some(user) = self.pull_user {
                        // Ask the broker for the page. `min_seq` tells the
                        // arbiter the earliest slot this tuner can hear
                        // (now, or past the retune penalty), so an airing
                        // we'd forfeit is never burned on us.
                        self.pull_outbox.push(PullRequest {
                            user,
                            page,
                            min_seq: (requested_at.ceil() as u64).max(min_seq),
                        });
                    }
                    break;
                }
            }
        }
        false
    }

    /// Records one sampled request span, into the process ring (which
    /// asserts the conservation invariant) and this client's local list.
    /// Mirrors the simulator's span emission so twin runs produce
    /// bit-identical span sets.
    fn emit_span(
        &mut self,
        requested_at: f64,
        no_switch: f64,
        expected: f64,
        next_periodic: f64,
        received_at: f64,
    ) {
        let total = received_at - requested_at;
        let phases = trace::attribute_wait(
            requested_at,
            no_switch,
            expected,
            next_periodic,
            received_at,
        );
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

    /// Completes a missed request with the page arriving at time `t`.
    fn receive(&mut self, page: PageId, requested_at: f64, t: f64) -> bool {
        if let Some(missed) = self.pending_missed_at.take() {
            // The page's earlier broadcast was lost; this periodic
            // reappearance is the recovery. Attribute the extra wait.
            self.record_recovery(page, (t as u64).saturating_sub(missed), false);
        }
        // Whether lossless or a periodic recovery, the airing received is
        // itself the fallback periodic airing: credit is zero, and any
        // wait past the expected arrival is the loss phase.
        self.complete_miss(page, requested_at, t, t)
    }

    /// Accounts one loss recovery, split by how the page came back:
    /// `coded` recoveries decoded a repair symbol, periodic ones waited
    /// out the broadcast cycle. Both feed the same wait histogram — the
    /// collapse of `bd_recovery_wait_slots` under a rising code rate is
    /// what the repair subsystem buys.
    fn record_recovery(&mut self, page: PageId, wait: u64, coded: bool) {
        self.recoveries += 1;
        let rm = crate::obs::repair();
        if coded {
            self.recoveries_coded += 1;
            rm.recoveries_coded.inc();
        } else {
            rm.recoveries_periodic.inc();
        }
        self.max_recovery_wait = self.max_recovery_wait.max(wait);
        self.recovery_waits.push(wait);
        crate::obs::recovery().recovery_wait.record(wait);
        bdisk_cache::obs::record_loss_delayed_miss();
        event(EventKind::Recovery, page.0 as u64, wait);
    }

    /// Inserts the received (or reconstructed) page and completes the
    /// outstanding request against it. `next_periodic` is the fallback
    /// periodic airing for wait attribution: the receive time itself
    /// except on a coded recovery, where it is the later airing the decode
    /// beat (the difference is the repair credit).
    fn complete_miss(
        &mut self,
        page: PageId,
        requested_at: f64,
        t: f64,
        next_periodic: f64,
    ) -> bool {
        self.core.insert(page, t);
        if let Some((no_switch, expected)) = self.pending_trace.take() {
            self.emit_span(requested_at, no_switch, expected, next_periodic, t);
        }
        let disk = self.plan.disk_of(page);
        if self.core.measuring() {
            self.record_bucket(t, t - requested_at);
        }
        if self
            .core
            .complete_request(t - requested_at, AccessLocation::Disk(disk))
        {
            return self.finish_at(t);
        }
        self.next_due = t + self.core.think_delay();
        false
    }

    fn finish_at(&mut self, t: f64) -> bool {
        self.done = true;
        self.end_time = t;
        crate::obs::client().finished.inc();
        true
    }

    /// True once the measurement target has been reached.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True once warm-up has ended and requests are being measured.
    pub fn measuring(&self) -> bool {
        self.core.measuring()
    }

    /// Contiguous frame-sequence gaps observed so far.
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// Loss-delayed recoveries completed so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Consumes the client, producing its results.
    pub fn into_results(self) -> LiveClientResult {
        let frames_seen = self.frames_seen;
        let (outcome, measurements) = self.core.finish(self.end_time);
        LiveClientResult {
            outcome,
            measurements,
            frames_seen,
            gaps: self.gaps,
            gap_slots: self.gap_slots,
            late_frames: self.late_frames,
            recoveries: self.recoveries,
            max_recovery_wait: self.max_recovery_wait,
            recoveries_coded: self.recoveries_coded,
            symbols_decoded: self.symbols_decoded,
            recovery_waits: self.recovery_waits,
            spans: self.spans,
            epoch_swaps: self.epoch_swaps,
            stale_epoch_frames: self.stale_epoch_frames,
            delay_buckets: self.delay_buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk_cache::PolicyKind;
    use bdisk_sim::{simulate, simulate_plan, simulate_plan_traced};

    /// Serializes tests that flip the process-wide span-sampling knob.
    static TRACE_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn setup(policy: PolicyKind) -> (SimConfig, DiskLayout, BroadcastProgram) {
        let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
        let program = BroadcastProgram::generate(&layout).unwrap();
        let cfg = SimConfig {
            access_range: 100,
            region_size: 5,
            cache_size: 20,
            offset: 20,
            noise: 0.3,
            policy,
            requests: 500,
            warmup_requests: 100,
            ..SimConfig::default()
        };
        (cfg, layout, program)
    }

    /// The heart of the tentpole: a live client fed every slot in order
    /// reproduces the simulator bit for bit.
    #[test]
    fn live_client_matches_simulator_exactly() {
        for policy in [
            PolicyKind::Lru,
            PolicyKind::L,
            PolicyKind::Lix,
            PolicyKind::Pix,
        ] {
            let (cfg, layout, program) = setup(policy);
            let sim = simulate(&cfg, &layout, 11).unwrap();
            let mut live = LiveClient::new(&cfg, &layout, program.clone(), 11).unwrap();
            for (seq, slot) in program.slots_from(0) {
                if live.on_frame(&Frame::bare(seq, slot)) {
                    break;
                }
                assert!(seq < 10_000_000, "live client never finished");
            }
            let out = live.into_results().outcome;
            assert_eq!(
                out.mean_response_time, sim.mean_response_time,
                "{policy:?} mean diverged"
            );
            assert_eq!(out.hit_rate, sim.hit_rate, "{policy:?} hit rate diverged");
            assert_eq!(out.end_time, sim.end_time, "{policy:?} end time diverged");
            assert_eq!(out.access_fractions, sim.access_fractions);
            assert_eq!(out.p999, sim.p999, "{policy:?} p999 diverged");
        }
    }

    /// The multi-channel acceptance criterion: a live client fed every
    /// channel's frames in engine order (per sequence number, channels
    /// ascending) reproduces `simulate_plan` bit for bit — including the
    /// single-tuner retune penalty — and a lossless feed with retunes
    /// records no gaps or stale frames.
    #[test]
    fn two_channel_live_client_matches_simulator_exactly() {
        for (policy, switch_slots) in [
            (PolicyKind::Pix, 0.0),
            (PolicyKind::Lix, 0.0),
            (PolicyKind::Lru, 2.0),
            (PolicyKind::Pix, 3.5),
        ] {
            let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
            let plan = BroadcastPlan::generate(&layout, 2).unwrap();
            let cfg = SimConfig {
                access_range: 100,
                region_size: 5,
                cache_size: 20,
                offset: 20,
                noise: 0.3,
                policy,
                requests: 500,
                warmup_requests: 100,
                channels: 2,
                switch_slots,
                ..SimConfig::default()
            };
            let sim = simulate_plan(&cfg, &layout, plan.clone(), 11).unwrap();
            let mut live = LiveClient::with_plan(&cfg, &layout, plan.clone(), 11).unwrap();
            let mut done = false;
            'feed: for seq in 0..10_000_000u64 {
                for c in 0..plan.num_channels() as u16 {
                    let slot = plan.slot_at(ChannelId(c), seq);
                    if live.on_frame(&Frame::bare_on(seq, c, slot)) {
                        done = true;
                        break 'feed;
                    }
                }
            }
            assert!(done, "{policy:?}/switch={switch_slots}: never finished");
            let results = live.into_results();
            assert_eq!(results.gaps, 0, "{policy:?}: retunes counted as gaps");
            assert_eq!(results.late_frames, 0, "{policy:?}: spurious staleness");
            let out = results.outcome;
            assert_eq!(
                out.mean_response_time, sim.mean_response_time,
                "{policy:?}/switch={switch_slots}: mean diverged"
            );
            assert_eq!(out.hit_rate, sim.hit_rate, "{policy:?}: hit rate diverged");
            assert_eq!(out.end_time, sim.end_time, "{policy:?}: end time diverged");
            assert_eq!(out.access_fractions, sim.access_fractions);
            assert_eq!(out.p999, sim.p999, "{policy:?}: p999 diverged");
        }
    }

    /// The coded acceptance criterion: enabling repair coding on a
    /// 2-channel plan leaves a lossless live client bit-identical to
    /// `simulate_plan` on the same coded plan. Repair slots displace
    /// padding and duplicate airings, never data timing the simulator
    /// doesn't also see — and a lossless feed never decodes (every
    /// symbol resolves with zero losses), so the coded machinery is
    /// observably inert.
    #[test]
    fn coded_two_channel_live_client_matches_simulator_exactly() {
        use bdisk_sched::CodingConfig;
        for (codec_cfg, switch_slots) in [
            (CodingConfig::xor(0.2, 4, 5), 0.0),
            (CodingConfig::lt(0.15, 6, 9), 2.0),
        ] {
            let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
            let plan = BroadcastPlan::generate(&layout, 2)
                .unwrap()
                .with_coding(codec_cfg)
                .unwrap();
            assert!(plan.coding().is_some(), "rate must be high enough to code");
            let cfg = SimConfig {
                access_range: 100,
                region_size: 5,
                cache_size: 20,
                offset: 20,
                noise: 0.3,
                policy: PolicyKind::Pix,
                requests: 500,
                warmup_requests: 100,
                channels: 2,
                switch_slots,
                ..SimConfig::default()
            };
            let sim = simulate_plan(&cfg, &layout, plan.clone(), 11).unwrap();
            let mut live = LiveClient::with_plan(&cfg, &layout, plan.clone(), 11).unwrap();
            let mut done = false;
            'feed: for seq in 0..10_000_000u64 {
                for c in 0..plan.num_channels() as u16 {
                    let slot = plan.slot_at(ChannelId(c), seq);
                    if live.on_frame(&Frame::bare_on(seq, c, slot)) {
                        done = true;
                        break 'feed;
                    }
                }
            }
            assert!(done, "coded live client never finished");
            let results = live.into_results();
            assert_eq!(results.gaps, 0);
            assert_eq!(results.recoveries, 0, "lossless feed must not recover");
            assert_eq!(results.recoveries_coded, 0);
            assert_eq!(results.symbols_decoded, 0, "lossless feed must not decode");
            assert!(results.recovery_waits.is_empty());
            let out = results.outcome;
            assert_eq!(out.mean_response_time, sim.mean_response_time);
            assert_eq!(out.hit_rate, sim.hit_rate);
            assert_eq!(out.end_time, sim.end_time);
            assert_eq!(out.access_fractions, sim.access_fractions);
        }
    }

    /// A lost pending page on a coded plan is reconstructed by the next
    /// covering repair symbol — a *coded* recovery, strictly earlier than
    /// the page's next periodic airing would have been.
    #[test]
    fn coded_plan_recovers_lost_pending_page_early() {
        use bdisk_code::ChannelCode;
        use bdisk_sched::CodingConfig;
        let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
        let coding = CodingConfig::xor(0.25, 4, 5);
        let plan = BroadcastPlan::generate(&layout, 1)
            .unwrap()
            .with_coding(coding)
            .unwrap();
        let ch = ChannelId(0);
        let prog = plan.program(ch);
        assert!(prog.repair_slots() > 0);
        let code = ChannelCode::build(prog, 0, plan.coding().unwrap());
        let period = prog.period() as u64;
        let cfg = SimConfig {
            access_range: 100,
            region_size: 5,
            cache_size: 20,
            offset: 20,
            noise: 0.3,
            policy: PolicyKind::Lru,
            requests: 500,
            warmup_requests: 100,
            ..SimConfig::default()
        };
        let mut live = LiveClient::with_plan(&cfg, &layout, plan.clone(), 7).unwrap();

        // Walk the feed until a request goes pending on a page whose next
        // airing, if lost, is covered by a repair symbol airing *before*
        // the page comes around again. Then lose exactly that airing.
        let mut seq = 0u64;
        let (lost_at, repair_at) = 'hunt: loop {
            assert!(
                !live.on_frame(&Frame::bare(seq, prog.slot_at(seq))),
                "client finished before a coverable loss was found"
            );
            if let Some((page, _)) = live.pending {
                let next_airing = (seq + 1..=seq + period)
                    .find(|&s| prog.slot_at(s) == Slot::Page(page))
                    .expect("page airs within one period");
                let next_after = (next_airing + 1..=next_airing + period)
                    .find(|&s| prog.slot_at(s) == Slot::Page(page))
                    .unwrap();
                // Does a repair symbol between the loss and the page's
                // following airing cover the lost slot?
                let covering = (next_airing + 1..next_after).find(|&s| {
                    matches!(prog.slot_at(s), Slot::Repair(id)
                        if code.covered_seqs(id, s)
                            .is_some_and(|c| c.iter().any(|&(cs, _)| cs == next_airing)))
                });
                if let Some(r) = covering {
                    break 'hunt (next_airing, r);
                }
            }
            seq += 1;
            assert!(seq < 10_000_000, "no coverable pending loss ever arose");
        };

        // Feed up to the lost airing (exclusive), skip it, and continue:
        // the covering repair slot must complete the request.
        for s in seq + 1..lost_at {
            assert!(!live.on_frame(&Frame::bare(s, prog.slot_at(s))));
        }
        for s in lost_at + 1..=repair_at {
            assert!(!live.on_frame(&Frame::bare(s, prog.slot_at(s))));
        }
        assert!(
            live.pending.is_none(),
            "repair symbol did not complete the request"
        );
        let results = live.into_results();
        assert_eq!(results.recoveries, 1);
        assert_eq!(
            results.recoveries_coded, 1,
            "recovery must be coded, not periodic"
        );
        assert_eq!(results.symbols_decoded, 1);
        assert_eq!(results.recovery_waits, vec![repair_at - lost_at]);
        assert!(
            results.max_recovery_wait < period,
            "coded recovery must beat the periodic wait"
        );
    }

    /// A cross-channel miss pays the retune penalty: an airing of the
    /// wanted page inside the penalty window is forfeit, and the first
    /// airing at or past `⌈⌊requested_at⌋ + 1 + switch_slots⌉` completes
    /// the request.
    #[test]
    fn retune_penalty_defers_reception() {
        let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        let cfg = SimConfig {
            access_range: 100,
            region_size: 5,
            cache_size: 20,
            offset: 20,
            noise: 0.3,
            policy: PolicyKind::Lru,
            requests: 500,
            warmup_requests: 100,
            channels: 2,
            switch_slots: 8.0,
            ..SimConfig::default()
        };
        let mut live = LiveClient::with_plan(&cfg, &layout, plan.clone(), 7).unwrap();

        // Feed engine-ordered frames until a miss retunes to the other
        // channel. With an 8-slot penalty the earliest receivable slot is
        // always in the future, so the request must go pending.
        let mut retuned_at = None;
        'feed: for seq in 0..1_000_000u64 {
            for c in 0..plan.num_channels() as u16 {
                let before = live.tuned;
                let slot = plan.slot_at(ChannelId(c), seq);
                assert!(!live.on_frame(&Frame::bare_on(seq, c, slot)));
                if live.tuned != before && live.pending.is_some() {
                    retuned_at = Some(seq);
                    break 'feed;
                }
            }
        }
        let seq = retuned_at.expect("a cross-channel miss went pending");
        let (page, _) = live.pending.unwrap();
        let min = live.min_receive_seq;
        assert!(min > seq, "penalty must push reception past the present");

        // An airing inside the penalty window is forfeit...
        assert!(!live.on_frame(&Frame::bare_on(min - 1, live.tuned, Slot::Page(page))));
        assert!(live.pending.is_some(), "received inside the penalty window");
        // ...and the first one at the window boundary completes it.
        assert!(!live.on_frame(&Frame::bare_on(min, live.tuned, Slot::Page(page))));
        assert!(
            live.pending.is_none(),
            "airing past the penalty not received"
        );
    }

    /// Satellite: a dropped frame produces exactly one gap event — a
    /// contiguous run of lost slots is one gap (of that length), not one
    /// gap per slot, and a stale reordered frame is not a gap at all.
    #[test]
    fn dropped_frame_produces_exactly_one_gap() {
        let (cfg, layout, program) = setup(PolicyKind::Lru);
        let mut live = LiveClient::new(&cfg, &layout, program.clone(), 7).unwrap();
        let f = |seq: u64| Frame::bare(seq, program.slot_at(seq));

        live.on_frame(&f(0));
        live.on_frame(&f(1));
        assert_eq!(live.gaps(), 0);

        live.on_frame(&f(3)); // slot 2 lost: one gap of one slot
        assert_eq!(live.gaps(), 1);

        live.on_frame(&f(7)); // slots 4..6 lost: ONE gap of three slots
        assert_eq!(live.gaps(), 2);

        live.on_frame(&f(5)); // stale reordered frame: dropped, no gap
        assert_eq!(live.gaps(), 2);

        live.on_frame(&f(8)); // back in sequence: no gap
        assert_eq!(live.gaps(), 2);

        let results = live.into_results();
        assert_eq!(results.gaps, 2);
        assert_eq!(results.gap_slots, 1 + 3);
        assert_eq!(results.late_frames, 1);
    }

    /// A gap that swallows the pending page's broadcast is recovered at
    /// the page's next periodic appearance, and the wait is attributed.
    #[test]
    fn lost_pending_page_recovers_at_next_period() {
        let (cfg, layout, program) = setup(PolicyKind::Lru);
        let period = program.period() as u64;
        let mut live = LiveClient::new(&cfg, &layout, program.clone(), 7).unwrap();

        // Walk frames until a request goes pending on some page, then find
        // that page's next broadcast slot and skip past it (lose it).
        let mut seq = 0u64;
        let lost_at = loop {
            assert!(
                !live.on_frame(&Frame::bare(seq, program.slot_at(seq))),
                "client finished before a miss went pending"
            );
            if let Some((page, _)) = live.pending {
                let miss = (seq + 1..seq + 1 + period)
                    .find(|&s| program.slot_at(s) == Slot::Page(page))
                    .expect("page airs within one period");
                break miss;
            }
            seq += 1;
            assert!(seq < 10_000_000, "no request ever went pending");
        };

        // Resume the feed just past the lost broadcast.
        let mut t = lost_at + 1;
        while live.recoveries() == 0 {
            live.on_frame(&Frame::bare(t, program.slot_at(t)));
            t += 1;
            assert!(
                t < lost_at + 2 + 2 * period,
                "pending page not recovered within the next period"
            );
        }
        let results = live.into_results();
        assert_eq!(results.recoveries, 1);
        assert!(results.max_recovery_wait >= 1);
        assert!(
            results.max_recovery_wait <= period,
            "single lost broadcast must recover within one period \
             (waited {} of period {})",
            results.max_recovery_wait,
            period
        );
    }

    /// The tracing acceptance criterion: with sampling on, a live client
    /// emits the *same spans* as its simulated twin — same request
    /// indices, bit-identical totals and phase decompositions — and every
    /// span conserves (the ring asserts it again on record).
    #[test]
    fn live_spans_match_simulator_spans_bit_exactly() {
        let _g = TRACE_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
        let plan = BroadcastPlan::generate(&layout, 2).unwrap();
        let cfg = SimConfig {
            access_range: 100,
            region_size: 5,
            cache_size: 20,
            offset: 20,
            noise: 0.3,
            policy: PolicyKind::Pix,
            requests: 500,
            warmup_requests: 100,
            channels: 2,
            switch_slots: 3.5,
            ..SimConfig::default()
        };
        bdisk_obs::trace::set_sample_every(4);
        let (sim, sim_spans) = simulate_plan_traced(&cfg, &layout, plan.clone(), 11).unwrap();
        let mut live = LiveClient::with_plan(&cfg, &layout, plan.clone(), 11).unwrap();
        'feed: for seq in 0..10_000_000u64 {
            for c in 0..plan.num_channels() as u16 {
                let slot = plan.slot_at(ChannelId(c), seq);
                if live.on_frame(&Frame::bare_on(seq, c, slot)) {
                    break 'feed;
                }
            }
        }
        bdisk_obs::trace::set_sample_every(0);
        let results = live.into_results();
        assert_eq!(results.outcome.p999, sim.p999);
        assert!(!sim_spans.is_empty(), "1-in-4 sampling must catch spans");
        assert_eq!(results.spans.len(), sim_spans.len());
        for (live_span, sim_span) in results.spans.iter().zip(&sim_spans) {
            assert_eq!(live_span.client, 11);
            assert_eq!(live_span.index, sim_span.index);
            assert_eq!(live_span.total.to_bits(), sim_span.total.to_bits());
            for p in 0..4 {
                assert_eq!(
                    live_span.phases[p].to_bits(),
                    sim_span.phases[p].to_bits(),
                    "phase {p} of request {} diverged",
                    sim_span.index
                );
            }
            // Conservation, bit-exact, on the live side too.
            assert_eq!(live_span.phase_sum().to_bits(), live_span.total.to_bits());
        }
        let switched = results.spans.iter().filter(|s| s.phases[1] > 0.0).count();
        assert!(switched > 0, "two channels must sample some switch waits");
    }

    /// A lost airing recovered at the next periodic appearance shows up in
    /// the span as a pure *loss* phase — credit stays zero, and the span
    /// still conserves exactly.
    #[test]
    fn loss_spans_attribute_recovery_wait() {
        let _g = TRACE_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let (cfg, layout, program) = setup(PolicyKind::Lru);
        let period = program.period() as u64;
        bdisk_obs::trace::set_sample_every(1);
        let mut live = LiveClient::new(&cfg, &layout, program.clone(), 7).unwrap();

        // Hunt for a *measured* (hence sampled) pending request, then lose
        // its page's next airing.
        let mut seq = 0u64;
        let lost_at = loop {
            assert!(
                !live.on_frame(&Frame::bare(seq, program.slot_at(seq))),
                "client finished before a measured miss went pending"
            );
            if live.measuring() {
                if let Some((page, _)) = live.pending {
                    let miss = (seq + 1..seq + 1 + period)
                        .find(|&s| program.slot_at(s) == Slot::Page(page))
                        .expect("page airs within one period");
                    break miss;
                }
            }
            seq += 1;
            assert!(seq < 10_000_000, "no measured request ever went pending");
        };
        assert!(
            live.pending_trace.is_some(),
            "a measured pending request must carry anchors at 1-in-1 sampling"
        );

        let spans_before = live.spans.len();
        let mut t = lost_at + 1;
        while live.recoveries() == 0 {
            live.on_frame(&Frame::bare(t, program.slot_at(t)));
            t += 1;
            assert!(t < lost_at + 2 + 2 * period, "pending page not recovered");
        }
        bdisk_obs::trace::set_sample_every(0);
        let span = live.spans[spans_before];
        assert!(span.phases[2] > 0.0, "recovery must be attributed to loss");
        assert_eq!(span.phases[3], 0.0, "periodic recovery earns no credit");
        assert_eq!(span.phase_sum().to_bits(), span.total.to_bits());
        assert!(
            span.phases[2] <= period as f64,
            "one lost airing costs at most a period"
        );
    }

    /// A coded recovery's span carries *credit*: the request completed at
    /// the repair symbol, earlier than the periodic airing it would have
    /// waited for — and the span still conserves exactly.
    #[test]
    fn coded_credit_spans_beat_the_periodic_wait() {
        use bdisk_code::ChannelCode;
        use bdisk_sched::CodingConfig;
        let _g = TRACE_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
        let coding = CodingConfig::xor(0.25, 4, 5);
        let plan = BroadcastPlan::generate(&layout, 1)
            .unwrap()
            .with_coding(coding)
            .unwrap();
        let prog = plan.program(ChannelId(0));
        let code = ChannelCode::build(prog, 0, plan.coding().unwrap());
        let period = prog.period() as u64;
        let cfg = SimConfig {
            access_range: 100,
            region_size: 5,
            cache_size: 20,
            offset: 20,
            noise: 0.3,
            policy: PolicyKind::Lru,
            requests: 500,
            warmup_requests: 100,
            ..SimConfig::default()
        };
        bdisk_obs::trace::set_sample_every(1);
        let mut live = LiveClient::with_plan(&cfg, &layout, plan.clone(), 7).unwrap();

        // Hunt for a measured pending request whose next airing, if lost,
        // is covered by a repair symbol airing before the page's following
        // airing — then lose exactly that airing.
        let mut seq = 0u64;
        let (lost_at, repair_at) = 'hunt: loop {
            assert!(
                !live.on_frame(&Frame::bare(seq, prog.slot_at(seq))),
                "client finished before a measured coverable loss was found"
            );
            if live.measuring() {
                if let Some((page, _)) = live.pending {
                    let next_airing = (seq + 1..=seq + period)
                        .find(|&s| prog.slot_at(s) == Slot::Page(page))
                        .expect("page airs within one period");
                    let next_after = (next_airing + 1..=next_airing + period)
                        .find(|&s| prog.slot_at(s) == Slot::Page(page))
                        .unwrap();
                    let covering = (next_airing + 1..next_after).find(|&s| {
                        matches!(prog.slot_at(s), Slot::Repair(id)
                            if code.covered_seqs(id, s)
                                .is_some_and(|c| c.iter().any(|&(cs, _)| cs == next_airing)))
                    });
                    if let Some(r) = covering {
                        break 'hunt (next_airing, r);
                    }
                }
            }
            seq += 1;
            assert!(seq < 10_000_000, "no measured coverable loss ever arose");
        };

        let spans_before = live.spans.len();
        for s in seq + 1..lost_at {
            assert!(!live.on_frame(&Frame::bare(s, prog.slot_at(s))));
        }
        for s in lost_at + 1..=repair_at {
            assert!(!live.on_frame(&Frame::bare(s, prog.slot_at(s))));
        }
        bdisk_obs::trace::set_sample_every(0);
        assert!(live.pending.is_none(), "repair symbol must complete it");
        assert!(live.spans.len() > spans_before, "recovery span missing");
        let span = live.spans[spans_before];
        assert!(span.phases[3] > 0.0, "coded recovery must earn credit");
        assert!(
            span.phases[2] >= span.phases[3],
            "credit can't exceed the loss it repaid"
        );
        assert_eq!(span.phase_sum().to_bits(), span.total.to_bits());
        assert!(
            span.phases[3] < period as f64,
            "credit is bounded by one period"
        );
    }

    #[test]
    fn frames_after_done_are_ignored() {
        let (cfg, layout, program) = setup(PolicyKind::Lru);
        let mut live = LiveClient::new(&cfg, &layout, program.clone(), 3).unwrap();
        let mut finished_at = None;
        for (seq, slot) in program.slots_from(0).take(10_000_000) {
            if live.on_frame(&Frame::bare(seq, slot)) {
                finished_at = Some(seq);
                break;
            }
        }
        let end = finished_at.expect("client finished");
        assert!(live.on_frame(&Frame::bare(end + 1, program.slot_at(end + 1))));
        let results = live.into_results();
        assert_eq!(results.outcome.measured_requests, 500);
        assert!(results.frames_seen <= end + 1);
    }
}
