//! The broadcast engine: walks a broadcast plan's slot sequence on a
//! wall-clock ticker and fans each slot out through a [`Transport`] — one
//! frame per channel per slot tick, all channels phase-locked to the same
//! clock.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdisk_code::ChannelCode;
use bdisk_obs::journal::{event, EventKind};
use bdisk_obs::trace;
use bdisk_sched::{BroadcastPlan, BroadcastProgram, ChannelId, Slot};

use crate::arbiter::{PullConfig, PullMode, PullStats, SlotArbiter};
use crate::faults::{FaultPlan, FAULT_CODE_OVERRUN};
use crate::transport::{DeliveryStats, Frame, PagePayloads, PullRequest, Transport, REPAIR_FLAG};

/// Per-channel repair-symbol payloads, precomputed once per run: channel
/// `c`'s entry `r` is the XOR of the covered pages' payloads for repair
/// symbol `r`. A symbol's page set is fixed per period offset, so the
/// composition never changes across cycles — airing a repair slot is the
/// same refcount bump a page slot pays.
fn repair_tables(plan: &BroadcastPlan, payloads: &PagePayloads) -> Option<Vec<Vec<Arc<[u8]>>>> {
    let cfg = plan.coding()?;
    let tables = (0..plan.num_channels())
        .map(|c| {
            let ch = ChannelId(c as u16);
            let code = ChannelCode::build(plan.program(ch), c as u16, cfg);
            code.symbols()
                .iter()
                .map(|sym| {
                    let mut buf = vec![0u8; payloads.page_size()];
                    for &(_, local) in &sym.covers {
                        let global = plan.global_page(ch, local);
                        bdisk_code::xor_into(&mut buf, payloads.page(global));
                    }
                    Arc::from(buf)
                })
                .collect()
        })
        .collect();
    Some(tables)
}

/// Engine run parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum slots to broadcast before stopping.
    pub max_slots: u64,
    /// Wall-clock duration of one slot. `Duration::ZERO` free-runs the
    /// broadcast as fast as the transport accepts frames.
    pub slot_duration: Duration,
    /// Stop early once every client has disconnected (or finished).
    pub stop_when_no_clients: bool,
    /// With [`Self::stop_when_no_clients`], keep broadcasting this many
    /// consecutive zero-client slots before actually stopping. Under fault
    /// plans that kill connections, a momentarily empty client set is
    /// usually a fleet mid-reconnect — the slot clock must keep ticking so
    /// rejoining clients resync into an unperturbed schedule. 0 (the
    /// default) stops at the first zero-client observation, the pre-fault
    /// behavior.
    pub no_client_grace_slots: u64,
    /// Bytes of page payload carried by each page frame (`PageSize`,
    /// paper Table 2). Payloads are generated once per run and shared by
    /// refcount across every subscriber. 0 sends bare frames.
    pub page_size: usize,
    /// Engine-level fault schedule: the `overrun` rate and the
    /// deterministic `broker_kill_slot` apply here (channel faults live in
    /// the transport's injector — see `InMemoryBus::set_fault_plan` /
    /// `EventedTcpTransport::set_fault_plan`). An overrun slot is broadcast
    /// one extra slot-duration late; slot deadlines are absolute
    /// (`start + seq * slot_duration`), so the delay never accumulates
    /// into clock drift.
    pub fault_plan: FaultPlan,
    /// Resume point from a prior run's [`EngineCheckpoint`] snapshot: the
    /// engine picks the plan book up at this epoch and slot clock instead
    /// of slot 0 (broker restart recovery). `None` starts fresh.
    pub resume: Option<EngineResume>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_slots: u64::MAX,
            slot_duration: Duration::ZERO,
            stop_when_no_clients: true,
            no_client_grace_slots: 0,
            page_size: 64,
            fault_plan: FaultPlan::none(),
            resume: None,
        }
    }
}

/// A crash-survivable engine position: everything a restarted broker
/// needs to resume airing the current epoch at the right phase. Produced
/// by [`EngineCheckpoint::snapshot`], consumed via
/// [`EngineConfig::resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineResume {
    /// Plan-book index the engine was airing.
    pub epoch: u32,
    /// Next slot seq to air (the global slot clock never resets).
    pub seq: u64,
    /// Absolute seq where `epoch`'s slot clock starts.
    pub base: u64,
    /// [`BroadcastPlan::plan_hash`] of the epoch's plan — resume validates
    /// this against the book it was handed, so a restart with a different
    /// plan file fails loudly instead of airing a mislabeled schedule.
    pub plan_hash: u64,
}

/// The engine's live checkpoint: updated with relaxed atomic stores on
/// every slot tick, snapshot-able from any thread at any time. Holding a
/// clone of the `Arc` across an engine crash (or a deliberate kill) is
/// what lets the experiment layer restart a broker mid-run.
#[derive(Debug, Default)]
pub struct EngineCheckpoint {
    epoch: AtomicU32,
    next_seq: AtomicU64,
    base: AtomicU64,
    plan_hash: AtomicU64,
}

impl EngineCheckpoint {
    /// The resume point as of the most recently aired slot.
    pub fn snapshot(&self) -> EngineResume {
        EngineResume {
            epoch: self.epoch.load(Ordering::Relaxed),
            seq: self.next_seq.load(Ordering::Relaxed),
            base: self.base.load(Ordering::Relaxed),
            plan_hash: self.plan_hash.load(Ordering::Relaxed),
        }
    }

    fn store(&self, epoch: u32, next_seq: u64, base: u64, plan_hash: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.next_seq.store(next_seq, Ordering::Relaxed);
        self.base.store(base, Ordering::Relaxed);
        self.plan_hash.store(plan_hash, Ordering::Relaxed);
    }
}

/// What the engine did: slot throughput and aggregate delivery accounting.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Slots broadcast before stopping.
    pub slots_sent: u64,
    /// Broadcast periods completed: the slots aired under each epoch
    /// divided by that epoch's own period, summed over the epochs this
    /// run put on the air (`slots_sent / period` on a single-plan run).
    pub major_cycles: u64,
    /// Frames successfully enqueued to clients, summed over slots.
    pub frames_delivered: u64,
    /// Frames dropped at full client buffers.
    pub frames_dropped: u64,
    /// Clients disconnected (evicted as slow, finished, or died).
    pub clients_disconnected: u64,
    /// Wire bytes enqueued to clients (header + payload per frame).
    pub bytes_sent: u64,
    /// Largest per-client backlog observed at any point (frames).
    pub max_client_lag: usize,
    /// Slot deadlines overrun by injected engine faults.
    pub overruns: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Broadcast rate actually achieved.
    pub slots_per_sec: f64,
    /// Slot-arbiter accounting (all zero on push-only runs).
    pub pull: PullStats,
}

/// Feeds one broadcast's delivery accounting into the engine counters.
/// The absorbed [`DeliveryStats`] are authoritative (the bus and TCP
/// layers report their own queue-level views separately), so frames are
/// never double-counted.
#[inline]
fn record_delivery(m: &crate::obs::EngineMetrics, stats: &DeliveryStats) {
    m.frames_delivered.add(stats.delivered);
    m.frames_dropped.add(stats.dropped);
    m.disconnects.add(stats.disconnected);
    m.bytes.add(stats.bytes);
}

/// Wall-clock deadline of the slot `slots` ticks after `start`, computed in
/// u128 nanoseconds with saturation, so no slot count wraps a deadline
/// back into the past (a `u32` slot multiplier wraps after 2³² slots,
/// about 24 h at 20 µs slots).
fn slot_deadline(start: Instant, slot_duration: Duration, slots: u64) -> Instant {
    let nanos = slot_duration.as_nanos().saturating_mul(u128::from(slots));
    let secs = u64::try_from(nanos / 1_000_000_000).unwrap_or(u64::MAX);
    let offset = Duration::new(secs, (nanos % 1_000_000_000) as u32);
    start
        .checked_add(offset)
        .expect("slot deadline beyond the range of the monotonic clock")
}

/// How many slots before an epoch boundary the engine starts airing
/// announce fences (one per channel per tick), so every tuner — even one
/// straddling a channel switch — sees the swap coming.
const DEFAULT_FENCE_LEAD: u64 = 8;

/// Drives a [`BroadcastPlan`] over a transport in real time. Slot tick
/// `seq` airs one frame per channel (channel `c`'s frame is tagged with
/// `c` on the wire), so a `C`-channel plan moves `C` frames per tick.
///
/// With a plan *book* ([`BroadcastEngine::with_plan_book`]) the engine
/// hot-swaps to the next plan every `swap_every_cycles` broadcast cycles:
/// the swap lands exactly on a cycle boundary, is announced `fence_lead`
/// slots ahead by out-of-band [`Slot::EpochFence`] frames, and every data
/// frame is tagged with its plan epoch on the wire so clients never
/// mis-map a page-to-slot arrival across the boundary. A single-plan
/// engine (epoch 0 forever) airs no fences and stays byte-identical to
/// the pre-epoch wire.
pub struct BroadcastEngine {
    plans: Vec<BroadcastPlan>,
    swap_every_cycles: u64,
    fence_lead: u64,
    cfg: EngineConfig,
    pull: PullConfig,
    checkpoint: Arc<EngineCheckpoint>,
}

impl BroadcastEngine {
    /// Creates a single-channel engine for `program` with the given run
    /// parameters — identical to wrapping it in a one-channel plan.
    pub fn new(program: BroadcastProgram, cfg: EngineConfig) -> Self {
        Self::with_plan(BroadcastPlan::single(program), cfg)
    }

    /// Creates an engine broadcasting every channel of `plan` (a plan
    /// book of one: epoch 0 forever).
    pub fn with_plan(plan: BroadcastPlan, cfg: EngineConfig) -> Self {
        Self::with_plan_book(vec![plan], u64::MAX, cfg)
    }

    /// Creates an engine that airs `plans[0]`, then hot-swaps to each
    /// successive plan every `swap_every_cycles` cycles of the plan then
    /// current. Plan `i` is re-tagged with epoch `i` (the book is
    /// positional), so callers building plans out of a re-optimizer need
    /// not pre-assign epochs.
    pub fn with_plan_book(
        plans: Vec<BroadcastPlan>,
        swap_every_cycles: u64,
        cfg: EngineConfig,
    ) -> Self {
        assert!(!plans.is_empty(), "plan book must hold at least one plan");
        assert!(swap_every_cycles > 0, "swap cadence must be nonzero");
        let plans: Vec<BroadcastPlan> = plans
            .into_iter()
            .enumerate()
            .map(|(i, p)| p.with_epoch(i as u32))
            .collect();
        Self {
            plans,
            swap_every_cycles,
            fence_lead: DEFAULT_FENCE_LEAD,
            cfg,
            pull: PullConfig::default(),
            checkpoint: Arc::new(EngineCheckpoint::default()),
        }
    }

    /// Overrides the announce-fence lead (slots before a swap boundary).
    pub fn with_fence_lead(mut self, fence_lead: u64) -> Self {
        self.fence_lead = fence_lead;
        self
    }

    /// Enables hybrid push/pull: each tick the scheduled slot is routed
    /// through a [`SlotArbiter`] that may substitute on-demand
    /// [`Slot::Pull`] airings serviced from the transport's upstream
    /// request queue. [`PullMode::Off`] (the default) bypasses the
    /// arbiter entirely — the wire output is byte-identical to a
    /// pull-less engine, and the transport's request path is never
    /// polled.
    pub fn with_pull(mut self, pull: PullConfig) -> Self {
        self.pull = pull;
        self
    }

    /// The live checkpoint handle. Clone the `Arc` before `run` and
    /// [`EngineCheckpoint::snapshot`] it after a crash/kill to build the
    /// [`EngineConfig::resume`] for a replacement engine.
    pub fn checkpoint(&self) -> Arc<EngineCheckpoint> {
        Arc::clone(&self.checkpoint)
    }

    /// Channel 0's program (the whole broadcast on a single-channel plan).
    pub fn program(&self) -> &BroadcastProgram {
        self.plans[0].program(ChannelId(0))
    }

    /// The initial (epoch-0) plan.
    pub fn plan(&self) -> &BroadcastPlan {
        &self.plans[0]
    }

    /// Broadcasts slots until `max_slots` is reached or (when configured)
    /// no clients remain, then finishes the transport. Slot `seq` is sent
    /// at wall-clock time `start + seq * slot_duration`; if the transport
    /// is slower than the slot rate the engine runs behind rather than
    /// skipping slots (every client still sees a gap-free feed).
    ///
    /// A paced engine that reaches a slot before its deadline calls
    /// [`Transport::flush`] before sleeping, so a batching transport puts
    /// each slot on the air within its own slot time (a pull is answered
    /// in slots, not in flush intervals). A free-running engine, and a
    /// paced one running behind, never calls it: the transport keeps its
    /// own batching cadence.
    ///
    /// With pull on, a tick runs: flush → wait for the deadline → read
    /// the backchannel ([`Transport::take_requests`], once per tick) →
    /// arbitrate → broadcast. A request that arrives before slot `s`'s
    /// deadline can therefore air at `s`. The arbiter's waits
    /// ([`PullStats::max_wait`], the `bd_pull_*` metrics) count from the
    /// last aired slot when the request was read, `s - 1`.
    ///
    /// With a multi-plan book, epoch `e+1` takes over from epoch `e` at
    /// the cycle boundary `base_e + swap_every_cycles * period_e`; the
    /// engine airs announce fences for `fence_lead` slots beforehand and
    /// a refresh fence at every cycle start while the active epoch is
    /// nonzero (late joiners resync within one cycle). A resumed run
    /// ([`EngineConfig::resume`]) continues the global slot clock from
    /// the checkpoint instead of slot 0.
    pub fn run<T: Transport>(&self, transport: &mut T) -> EngineReport {
        let start = Instant::now();
        let mut totals = DeliveryStats::default();
        let mut slots_sent = 0u64;
        let mut overruns = 0u64;
        let mut no_client_slots = 0u64;
        let mut killed = false;
        let m = crate::obs::engine();
        let em = crate::obs::epoch_metrics();
        // One payload buffer per page for the whole run; every frame (and
        // every subscriber) shares it by refcount. Pages are plan-global,
        // so one buffer set serves every channel and every epoch.
        let max_pages = self.plans.iter().map(|p| p.num_pages()).max().unwrap();
        let payloads = PagePayloads::generate(max_pages, self.cfg.page_size);
        // Coded plans air parity symbols from a precomputed table (one
        // shared buffer per symbol per channel per epoch); uncoded plans
        // never touch this path.
        let repair_by_epoch: Vec<_> = self
            .plans
            .iter()
            .map(|p| repair_tables(p, &payloads))
            .collect();
        let rm = crate::obs::repair();
        let channels = self.plans[0].num_channels();
        assert!(
            self.plans.iter().all(|p| p.num_channels() == channels),
            "every plan in the book must use the same channel count"
        );
        // Per-channel slot counters, materialized before the loop so the
        // steady state never touches the registry (or the allocator).
        let by_channel: Vec<_> = (0..channels as u16)
            .map(crate::obs::slots_by_channel)
            .collect();
        let stage_m = crate::obs::stage();
        // `plan_hash` folds over a plan's whole schedule: hash the book once
        // here, for resume validation and the per-tick checkpoint store.
        let plan_hashes: Vec<u64> = self.plans.iter().map(|p| p.plan_hash()).collect();

        // Epoch cursor: which plan is on the air and where its slot clock
        // starts. A resume picks the cursor up from the checkpoint.
        let (mut epoch, start_seq, mut base) = match self.cfg.resume {
            Some(r) => {
                assert!(
                    (r.epoch as usize) < self.plans.len(),
                    "resume epoch {} outside plan book of {}",
                    r.epoch,
                    self.plans.len()
                );
                assert_eq!(
                    plan_hashes[r.epoch as usize], r.plan_hash,
                    "resume checkpoint was taken against a different plan"
                );
                (r.epoch as usize, r.seq, r.base)
            }
            None => (0, 0, 0),
        };
        let mut cur = &self.plans[epoch];
        // Completed cycles of the epochs already swapped out, and the seq
        // where this run started airing the current one.
        let (mut major_cycles, mut epoch_first_seq) = (0u64, start_seq);
        let mut next_boundary = (epoch + 1 < self.plans.len())
            .then(|| base + self.swap_every_cycles * cur.max_period() as u64);
        // The slot arbiter only exists when pull is on: push-only runs
        // take the exact pre-pull code path (no request polling, no
        // per-slot arbitration) and stay byte-identical on the wire.
        let mut arbiter = (self.pull.mode != PullMode::Off).then(|| {
            let mut a = SlotArbiter::new(self.pull, channels);
            a.on_plan_change(cur.coding().is_some());
            a
        });
        let mut req_buf: Vec<PullRequest> = Vec::new();
        em.plan_epoch.set(epoch as i64);
        self.checkpoint
            .store(epoch as u32, start_seq, base, plan_hashes[epoch]);
        // A nonzero-epoch start (resume after a mid-book crash) installs
        // the current fence as the transport hello so reconnecting
        // clients learn (epoch, base) before their first data frame.
        // Epoch-0 fresh starts install nothing: byte-identical wire.
        if epoch > 0 {
            transport.set_hello(Some(Frame::fence(start_seq, 0, epoch as u32, base)));
        }

        for seq in start_seq.. {
            if seq - start_seq >= self.cfg.max_slots {
                break;
            }
            if self.cfg.stop_when_no_clients {
                if transport.active_clients() == 0 {
                    if no_client_slots >= self.cfg.no_client_grace_slots {
                        break;
                    }
                    no_client_slots += 1;
                } else {
                    no_client_slots = 0;
                }
            }
            // A deterministic broker kill: stop mid-air, leaving the
            // checkpoint pointing at this (never-aired) slot. The
            // experiment layer restarts a fresh engine from the snapshot.
            if self.cfg.fault_plan.broker_kill_slot != 0
                && seq == self.cfg.fault_plan.broker_kill_slot
            {
                event(
                    EventKind::FaultInjected,
                    seq,
                    crate::faults::FAULT_CODE_KILL,
                );
                killed = true;
                break;
            }
            // Hot-swap on the cycle boundary: the new epoch's clock
            // starts exactly here, and the refresh fence below (cycle
            // start of the new epoch) is the swap signal on the wire.
            if next_boundary == Some(seq) {
                major_cycles += (seq - epoch_first_seq) / cur.max_period() as u64;
                epoch_first_seq = seq;
                epoch += 1;
                base = seq;
                cur = &self.plans[epoch];
                next_boundary = (epoch + 1 < self.plans.len())
                    .then(|| base + self.swap_every_cycles * cur.max_period() as u64);
                em.plan_epoch.set(epoch as i64);
                em.swaps.inc();
                event(EventKind::EpochSwap, epoch as u64, base);
                transport.set_hello(Some(Frame::fence(seq, 0, epoch as u32, base)));
                // Queued pull requests may reference pages that moved (or
                // vanished) under the new plan; drop them — clients
                // recover via the periodic schedule or by re-requesting.
                if let Some(a) = arbiter.as_mut() {
                    a.on_plan_change(cur.coding().is_some());
                }
            }
            if !self.cfg.slot_duration.is_zero() {
                let deadline = slot_deadline(start, self.cfg.slot_duration, seq - start_seq);
                // Idle before this slot is due: put what the transport has
                // batched on the air first, so each slot leaves in its own
                // slot time. A late engine skips the flush and lets the
                // transport batch.
                if Instant::now() < deadline {
                    let stats = transport.flush();
                    record_delivery(m, &stats);
                    totals.absorb(stats);
                    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                }
            }
            if self.cfg.fault_plan.overrun_at(seq) {
                // Miss this slot's deadline by one slot duration (a fixed
                // sliver when free-running). Deadlines are absolute, so
                // later slots re-align instead of inheriting the drift.
                overruns += 1;
                crate::faults::metrics().overruns.inc();
                event(EventKind::FaultInjected, seq, FAULT_CODE_OVERRUN);
                let stall = if self.cfg.slot_duration.is_zero() {
                    Duration::from_micros(100)
                } else {
                    self.cfg.slot_duration
                };
                std::thread::sleep(stall);
            }
            // Drain the upstream backchannel into the arbiter at the slot
            // deadline, after the idle flush and the sleep: a request sent
            // in reply to the frame that flush aired is arbitrated for this
            // very slot. `seq - 1` is the look-back horizon: everything up
            // to the previous tick is on the air.
            if let Some(a) = arbiter.as_mut() {
                transport.take_requests(&mut req_buf);
                for r in req_buf.drain(..) {
                    a.submit(r, cur, base, seq.saturating_sub(1));
                }
            }
            // Out-of-band fences, aired per channel *before* this tick's
            // data frames and sharing its seq. Refresh fences re-announce
            // the active (nonzero) epoch at every cycle start; announce
            // fences advertise the upcoming epoch for the last fence_lead
            // slots before its boundary. Epoch-0 single-plan runs skip
            // both branches entirely.
            let cycle_start = epoch > 0 && (seq - base) % cur.max_period() as u64 == 0;
            let announcing = next_boundary.is_some_and(|b| b - seq <= self.fence_lead && seq < b);
            if cycle_start || announcing {
                let (f_epoch, f_base) = if announcing {
                    ((epoch + 1) as u32, next_boundary.unwrap())
                } else {
                    (epoch as u32, base)
                };
                for c in 0..channels as u16 {
                    let stats = transport.broadcast(Frame::fence(seq, c, f_epoch, f_base));
                    record_delivery(m, &stats);
                    totals.absorb(stats);
                }
                em.fences.inc();
            }
            // Stage profile for sampled slots: tick jitter against the
            // absolute deadline, encode/enqueue split per channel below,
            // the transport's writev drain folded in at record time. One
            // relaxed load per slot when tracing is off; the clock is
            // only read on sampled slots.
            let stage_jitter = trace::sampled(seq).then(|| {
                if self.cfg.slot_duration.is_zero() {
                    0.0
                } else {
                    let deadline = slot_deadline(start, self.cfg.slot_duration, seq - start_seq);
                    Instant::now()
                        .checked_duration_since(deadline)
                        .map_or(0.0, |late| late.as_secs_f64() * 1e6)
                }
            });
            let (mut encode_us, mut enqueue_us) = (0.0f64, 0.0f64);
            m.slots.inc();
            let repair = &repair_by_epoch[epoch];
            for (c, counter) in by_channel.iter().enumerate() {
                let scheduled = cur.slot_at(ChannelId(c as u16), seq - base);
                let slot = match arbiter.as_mut() {
                    Some(a) => a.arbitrate(scheduled, ChannelId(c as u16), seq),
                    None => scheduled,
                };
                let encode_start = stage_jitter.is_some().then(Instant::now);
                let frame = match (slot, repair) {
                    (Slot::Repair(r), Some(tables)) => {
                        rm.slots_aired.inc();
                        Frame {
                            seq,
                            channel: c as u16,
                            slot,
                            epoch: epoch as u32,
                            payload: Arc::clone(&tables[c][r.index()]),
                        }
                    }
                    _ => payloads
                        .frame_on(seq, c as u16, slot)
                        .with_epoch(epoch as u32),
                };
                let enqueue_start = encode_start.map(|t0| {
                    let now = Instant::now();
                    encode_us += now.duration_since(t0).as_secs_f64() * 1e6;
                    now
                });
                let stats = transport.broadcast(frame);
                if let Some(t0) = enqueue_start {
                    enqueue_us += t0.elapsed().as_secs_f64() * 1e6;
                }
                counter.inc();
                record_delivery(m, &stats);
                event(
                    EventKind::SlotTick,
                    seq,
                    match slot {
                        Slot::Page(page) => page.0 as u64,
                        Slot::Empty => u64::MAX,
                        // Distinct from both page ids and the empty
                        // sentinel: the wire encoding of the repair id.
                        Slot::Repair(r) => (REPAIR_FLAG | r.0) as u64,
                        // Never produced by a plan (fences are out of
                        // band), but the match stays total.
                        Slot::EpochFence => (1u64 << 33) | u32::MAX as u64,
                        // On-demand airing: same tag space as plan_hash.
                        Slot::Pull(page) => (1u64 << 34) | page.0 as u64,
                    },
                );
                totals.absorb(stats);
            }
            self.checkpoint
                .store(epoch as u32, seq + 1, base, plan_hashes[epoch]);
            if let Some(jitter_us) = stage_jitter {
                // Drain micros accumulated since the previous sampled slot
                // (socket flushes happen inside and between broadcasts, so
                // the attribution is to the sampling window, not this slot
                // alone).
                let drain_us = trace::take_drain_micros() as f64;
                stage_m.jitter.record(jitter_us as u64);
                stage_m.encode.record(encode_us as u64);
                stage_m.enqueue.record(enqueue_us as u64);
                stage_m.drain.record(drain_us as u64);
                trace::record_stage(seq, [jitter_us, encode_us, enqueue_us, drain_us]);
            }
            m.active_clients.set(transport.active_clients() as i64);
            slots_sent = seq + 1 - start_seq;
        }
        // A batching transport may hold undelivered frames; their stats
        // arrive with the final flush. A *killed* broker vanishes
        // mid-stream instead: no flush, no teardown — the transport stays
        // live for the restart harness to sever connections and hand to a
        // resumed engine (a crashed process never runs its shutdown path).
        let tail = if killed {
            DeliveryStats::default()
        } else {
            transport.finish()
        };
        record_delivery(m, &tail);
        totals.absorb(tail);
        m.active_clients.set(transport.active_clients() as i64);
        m.max_client_lag.set_max(totals.max_queue as i64);

        major_cycles += (start_seq + slots_sent - epoch_first_seq) / cur.max_period() as u64;
        let elapsed = start.elapsed();
        EngineReport {
            slots_sent,
            major_cycles,
            frames_delivered: totals.delivered,
            frames_dropped: totals.dropped,
            clients_disconnected: totals.disconnected,
            bytes_sent: totals.bytes,
            max_client_lag: totals.max_queue,
            overruns,
            elapsed,
            slots_per_sec: if elapsed.as_secs_f64() > 0.0 {
                slots_sent as f64 / elapsed.as_secs_f64()
            } else {
                f64::INFINITY
            },
            pull: arbiter.map(|a| a.stats()).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::InMemoryBus;
    use bdisk_sched::{DiskLayout, PageId};

    fn program() -> BroadcastProgram {
        let layout = DiskLayout::with_delta(&[4, 8, 12], 2).unwrap();
        BroadcastProgram::generate(&layout).unwrap()
    }

    /// Three single-channel plans with pairwise different periods (and so
    /// pairwise different hashes): a book whose swaps are visible in both.
    fn book() -> Vec<BroadcastPlan> {
        let plans: Vec<BroadcastPlan> = [(&[4, 8, 12], 2), (&[6, 6, 12], 1), (&[2, 10, 12], 3)]
            .into_iter()
            .map(|(sizes, delta): (&[usize; 3], u64)| {
                BroadcastPlan::generate(&DiskLayout::with_delta(sizes, delta).unwrap(), 1).unwrap()
            })
            .collect();
        let periods: Vec<usize> = plans.iter().map(|p| p.max_period()).collect();
        assert!(periods[0] != periods[1] && periods[1] != periods[2] && periods[0] != periods[2]);
        plans
    }

    /// Records every frame the engine airs, reporting it delivered to its
    /// one client; with a checkpoint handle it also snapshots the
    /// checkpoint as each frame goes out.
    #[derive(Default)]
    struct Recorder {
        frames: Vec<Frame>,
        checkpoint: Option<Arc<EngineCheckpoint>>,
        snapshots: Vec<EngineResume>,
    }

    impl Transport for Recorder {
        fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
            if let Some(cp) = &self.checkpoint {
                self.snapshots.push(cp.snapshot());
            }
            let stats = DeliveryStats {
                delivered: 1,
                bytes: frame.wire_len() as u64,
                ..DeliveryStats::default()
            };
            self.frames.push(frame);
            stats
        }

        fn active_clients(&self) -> usize {
            1
        }
    }

    #[test]
    fn checkpoint_hash_follows_the_epoch_across_hot_swaps() {
        let plans = book();
        let boundary1 = 2 * plans[0].max_period() as u64;
        let boundary2 = boundary1 + 2 * plans[1].max_period() as u64;
        let engine = BroadcastEngine::with_plan_book(
            plans.clone(),
            2,
            EngineConfig {
                max_slots: boundary2 + plans[2].max_period() as u64,
                ..EngineConfig::default()
            },
        );
        let mut rec = Recorder {
            checkpoint: Some(engine.checkpoint()),
            ..Recorder::default()
        };
        engine.run(&mut rec);
        // While seq's frames go out the checkpoint still names seq as the
        // next slot to air, under the epoch that aired seq - 1.
        let mut epochs_seen = [false; 3];
        for (frame, snap) in rec.frames.iter().zip(&rec.snapshots) {
            assert_eq!(snap.seq, frame.seq);
            let on_air = match frame.seq {
                s if s <= boundary1 => 0,
                s if s <= boundary2 => 1,
                _ => 2,
            };
            assert_eq!(snap.epoch, on_air, "seq {}", frame.seq);
            assert_eq!(
                snap.plan_hash,
                plans[on_air as usize]
                    .clone()
                    .with_epoch(on_air)
                    .plan_hash(),
                "seq {}",
                frame.seq
            );
            epochs_seen[on_air as usize] = true;
        }
        assert_eq!(epochs_seen, [true; 3]);
        // After the last tick: the final epoch, one past the last seq.
        let last = engine.checkpoint().snapshot();
        assert_eq!((last.epoch, last.base), (2, boundary2));
        assert_eq!(last.plan_hash, plans[2].clone().with_epoch(2).plan_hash());
    }

    #[test]
    #[should_panic(expected = "different plan")]
    fn resume_against_a_different_plan_panics() {
        let plans = book();
        // A checkpoint taken at epoch 1 of some other book: right shape,
        // wrong schedule.
        let resume = EngineResume {
            epoch: 1,
            seq: 100,
            base: 96,
            plan_hash: plans[2].clone().with_epoch(1).plan_hash(),
        };
        let engine = BroadcastEngine::with_plan_book(
            plans,
            2,
            EngineConfig {
                max_slots: 10,
                resume: Some(resume),
                ..EngineConfig::default()
            },
        );
        engine.run(&mut Recorder::default());
    }

    #[test]
    fn kill_snapshot_resume_airs_the_uninterrupted_sequence() {
        let plans = book();
        let boundary1 = 2 * plans[0].max_period() as u64;
        let boundary2 = boundary1 + 2 * plans[1].max_period() as u64;
        let total = boundary2 + plans[2].max_period() as u64;
        let run = |cfg: EngineConfig, rec: &mut Recorder| {
            let engine = BroadcastEngine::with_plan_book(plans.clone(), 2, cfg);
            let checkpoint = engine.checkpoint();
            engine.run(rec);
            checkpoint.snapshot()
        };
        let mut whole = Recorder::default();
        run(
            EngineConfig {
                max_slots: total,
                ..EngineConfig::default()
            },
            &mut whole,
        );
        // Kills mid-epoch, one slot either side of a swap, and exactly on
        // one (the resumed engine then swaps on its first tick).
        for kill in [5, boundary1 - 1, boundary1, boundary1 + 1, boundary2 + 3] {
            let mut rec = Recorder::default();
            let snap = run(
                EngineConfig {
                    max_slots: total,
                    fault_plan: FaultPlan {
                        broker_kill_slot: kill,
                        ..FaultPlan::none()
                    },
                    ..EngineConfig::default()
                },
                &mut rec,
            );
            assert_eq!(snap.seq, kill, "checkpoint stops at the never-aired slot");
            run(
                EngineConfig {
                    max_slots: total - kill,
                    resume: Some(snap),
                    ..EngineConfig::default()
                },
                &mut rec,
            );
            assert_eq!(rec.frames, whole.frames, "kill at {kill}");
        }
    }

    #[test]
    fn major_cycles_count_each_epoch_by_its_own_period() {
        let mut plans = book();
        plans.truncate(2);
        let (p0, p1) = (plans[0].max_period() as u64, plans[1].max_period() as u64);
        // Two cycles of epoch 0, then three and a bit of epoch 1.
        let max_slots = 2 * p0 + 3 * p1 + 1;
        assert_ne!(
            max_slots / p0,
            5,
            "periods too alike to tell the counts apart"
        );
        let engine = BroadcastEngine::with_plan_book(
            plans,
            2,
            EngineConfig {
                max_slots,
                ..EngineConfig::default()
            },
        );
        let report = engine.run(&mut Recorder::default());
        assert_eq!(report.slots_sent, max_slots);
        assert_eq!(report.major_cycles, 5);
    }

    #[test]
    fn free_run_sends_exactly_max_slots() {
        let program = program();
        let period = program.period() as u64;
        let engine = BroadcastEngine::new(
            program,
            EngineConfig {
                max_slots: period * 3,
                stop_when_no_clients: false,
                ..EngineConfig::default()
            },
        );
        let mut bus = InMemoryBus::new(vec![]);
        let report = engine.run(&mut bus);
        assert_eq!(report.slots_sent, period * 3);
        assert_eq!(report.major_cycles, 3);
        assert_eq!(report.frames_delivered, 0); // no subscribers
        assert!(report.slots_per_sec > 0.0);
    }

    #[test]
    fn stops_when_last_client_leaves() {
        let layout = DiskLayout::with_delta(&[4, 8, 12], 2).unwrap();
        let cfg = bdisk_sim::SimConfig {
            access_range: 24,
            region_size: 2,
            requests: 20,
            warmup_requests: 5,
            ..bdisk_sim::SimConfig::default()
        };
        let client = crate::LiveClient::new(&cfg, &layout, program(), 3).unwrap();
        let engine = BroadcastEngine::new(program(), EngineConfig::default());
        let mut bus = InMemoryBus::new(vec![client]);
        let report = engine.run(&mut bus);
        assert_eq!(report.clients_disconnected, 1);
        // The engine stops on the very frame that finished the client.
        let frames_seen = bus.into_results()[0].frames_seen;
        assert_eq!(report.slots_sent, frames_seen);
        assert_eq!(report.frames_delivered, frames_seen);
    }

    #[test]
    fn frames_carry_shared_page_payloads() {
        let program = program();
        let engine = BroadcastEngine::new(
            program,
            EngineConfig {
                max_slots: 10,
                stop_when_no_clients: false,
                page_size: 32,
                ..EngineConfig::default()
            },
        );
        let mut rec = Recorder::default();
        let report = engine.run(&mut rec);
        assert_eq!(report.slots_sent, 10);
        let mut bytes = 0u64;
        for frame in rec.frames {
            match frame.slot {
                bdisk_sched::Slot::Page(_) => {
                    assert_eq!(frame.payload.len(), 32, "page frames carry PageSize bytes")
                }
                bdisk_sched::Slot::Empty | bdisk_sched::Slot::Repair(_) => {
                    assert!(frame.payload.is_empty())
                }
                bdisk_sched::Slot::EpochFence => unreachable!("single-plan runs air no fences"),
                bdisk_sched::Slot::Pull(_) => unreachable!("pull is off by default"),
            }
            bytes += frame.wire_len() as u64;
        }
        assert_eq!(report.bytes_sent, bytes);
        assert!(bytes > 0);
    }

    #[test]
    fn repair_frames_carry_symbol_xor_payloads() {
        use bdisk_sched::CodingConfig;
        let layout = DiskLayout::with_delta(&[4, 8, 12], 2).unwrap();
        let plan = BroadcastPlan::generate(&layout, 1)
            .unwrap()
            .with_coding(CodingConfig::xor(0.15, 4, 7))
            .unwrap();
        assert!(plan.repair_slots_of(ChannelId(0)) > 0);
        let period = plan.max_period() as u64;
        let engine = BroadcastEngine::with_plan(
            plan.clone(),
            EngineConfig {
                max_slots: period,
                stop_when_no_clients: false,
                page_size: 32,
                ..EngineConfig::default()
            },
        );
        let mut rec = Recorder::default();
        let report = engine.run(&mut rec);
        assert_eq!(report.slots_sent, period);

        let payloads = PagePayloads::generate(plan.num_pages(), 32);
        let ch = ChannelId(0);
        let code = ChannelCode::build(plan.program(ch), 0, plan.coding().unwrap());
        let mut repair_frames = 0usize;
        for frame in rec.frames {
            if let Slot::Repair(id) = frame.slot {
                let spec = code.symbol(id).unwrap();
                let mut expect = vec![0u8; 32];
                for &(_, local) in &spec.covers {
                    bdisk_code::xor_into(&mut expect, payloads.page(plan.global_page(ch, local)));
                }
                assert_eq!(&frame.payload[..], &expect[..]);
                repair_frames += 1;
            }
        }
        assert_eq!(repair_frames, plan.repair_slots_of(ch));
    }

    #[test]
    fn grace_slots_keep_broadcasting_through_zero_clients() {
        let engine = BroadcastEngine::new(
            program(),
            EngineConfig {
                no_client_grace_slots: 5,
                ..EngineConfig::default()
            },
        );
        // No subscribers at all: the engine still ticks out the grace
        // window before concluding the fleet is gone for good.
        let mut bus = InMemoryBus::new(vec![]);
        let report = engine.run(&mut bus);
        assert_eq!(report.slots_sent, 5);
        assert_eq!(report.overruns, 0);
    }

    #[test]
    fn overruns_delay_slots_without_drifting_the_clock() {
        use crate::faults::FaultPlan;
        let engine = BroadcastEngine::new(
            program(),
            EngineConfig {
                max_slots: 10,
                slot_duration: Duration::from_millis(1),
                stop_when_no_clients: false,
                fault_plan: FaultPlan {
                    seed: 9,
                    overrun: 1.0,
                    ..FaultPlan::none()
                },
                ..EngineConfig::default()
            },
        );
        let mut bus = InMemoryBus::new(vec![]);
        let report = engine.run(&mut bus);
        assert_eq!(report.slots_sent, 10);
        assert_eq!(report.overruns, 10);
        // Every slot stalls one extra slot-duration past its absolute
        // deadline, but deadlines never compound: the run takes about 2x
        // the schedule, not quadratically more.
        assert!(report.elapsed >= Duration::from_millis(10));
        assert!(report.elapsed < Duration::from_millis(250));
    }

    #[test]
    fn paced_run_takes_wall_clock_time() {
        let program = program();
        let engine = BroadcastEngine::new(
            program,
            EngineConfig {
                max_slots: 20,
                slot_duration: Duration::from_millis(1),
                stop_when_no_clients: false,
                ..EngineConfig::default()
            },
        );
        let mut bus = InMemoryBus::new(vec![]);
        let report = engine.run(&mut bus);
        assert_eq!(report.slots_sent, 20);
        // Slot 19 is sent no earlier than 19ms in.
        assert!(report.elapsed >= Duration::from_millis(19));
        assert!(report.slots_per_sec <= 1100.0);
    }

    #[test]
    fn slot_deadlines_do_not_wrap_after_two_to_the_32_slots() {
        let start = Instant::now();
        let slot = Duration::from_micros(20);
        let first = slot_deadline(start, slot, 1);
        let wrapped = slot_deadline(start, slot, (1u64 << 32) + 1);
        assert_eq!(first, start + slot);
        assert!(wrapped > first, "deadline of slot 2^32 + 1 wrapped");
        assert_eq!(
            wrapped - start,
            Duration::from_nanos(20_000 * ((1 << 32) + 1))
        );
    }

    /// Counts `flush` calls on the way to a [`Recorder`]; sleeps `stall`
    /// per broadcast to model a transport slower than the slot rate.
    #[derive(Default)]
    struct FlushCounter {
        inner: Recorder,
        stall: Duration,
        flushes: usize,
    }

    impl Transport for FlushCounter {
        fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
            std::thread::sleep(self.stall);
            self.inner.broadcast(frame)
        }

        fn active_clients(&self) -> usize {
            self.inner.active_clients()
        }

        fn flush(&mut self) -> DeliveryStats {
            self.flushes += 1;
            self.inner.flush()
        }
    }

    fn flushes(slot_duration: Duration, stall: Duration) -> usize {
        let engine = BroadcastEngine::new(
            program(),
            EngineConfig {
                max_slots: 10,
                slot_duration,
                ..EngineConfig::default()
            },
        );
        let mut t = FlushCounter {
            stall,
            ..FlushCounter::default()
        };
        assert_eq!(engine.run(&mut t).slots_sent, 10);
        t.flushes
    }

    #[test]
    fn free_running_engine_never_flushes_early() {
        assert_eq!(flushes(Duration::ZERO, Duration::ZERO), 0);
    }

    #[test]
    fn paced_engine_flushes_when_idle() {
        assert!(flushes(Duration::from_millis(1), Duration::ZERO) >= 1);
    }

    #[test]
    fn late_paced_engine_never_flushes_early() {
        assert_eq!(
            flushes(Duration::from_millis(1), Duration::from_millis(2)),
            0
        );
    }

    /// A one-tuner closed loop over a paced engine. Each `flush` "airs"
    /// the latest frame and, when no request is outstanding and `asks`
    /// accepts the next seq, stages a request `(user 0, page, min_seq =
    /// aired seq + 1)` that the next `take_requests` hands over. A frame
    /// carrying the page at or after `min_seq` answers it.
    struct ClosedLoop {
        page: PageId,
        asks: Box<dyn Fn(u64) -> bool + Send>,
        last_seq: Option<u64>,
        staged: Option<PullRequest>,
        outstanding: Option<u64>,
        /// `(min_seq, seq, slot)` of every answered request.
        answered: Vec<(u64, u64, Slot)>,
    }

    impl ClosedLoop {
        fn new(page: u32, asks: impl Fn(u64) -> bool + Send + 'static) -> Self {
            Self {
                page: PageId(page),
                asks: Box::new(asks),
                last_seq: None,
                staged: None,
                outstanding: None,
                answered: Vec::new(),
            }
        }
    }

    impl Transport for ClosedLoop {
        fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
            self.last_seq = Some(frame.seq);
            let carries = matches!(frame.slot, Slot::Page(p) | Slot::Pull(p) if p == self.page);
            if let Some(min_seq) = self.outstanding.filter(|&m| carries && frame.seq >= m) {
                self.answered.push((min_seq, frame.seq, frame.slot));
                self.outstanding = None;
            }
            DeliveryStats::default()
        }

        fn active_clients(&self) -> usize {
            1
        }

        fn flush(&mut self) -> DeliveryStats {
            let min_seq = self.last_seq.map(|s| s + 1);
            if let Some(min_seq) = min_seq.filter(|&m| self.outstanding.is_none() && (self.asks)(m))
            {
                self.staged = Some(PullRequest {
                    user: 0,
                    page: self.page,
                    min_seq,
                });
                self.outstanding = Some(min_seq);
            }
            DeliveryStats::default()
        }

        fn take_requests(&mut self, out: &mut Vec<PullRequest>) {
            out.extend(self.staged.take());
        }
    }

    /// Runs `plan` paced at 1 ms under `mode` against `tuner` and returns
    /// its answered requests, requiring at least 20 of them. A late tick
    /// skips `flush` and so stages nothing: host load thins the sample
    /// but cannot bend a single answer.
    fn closed_loop(
        plan: BroadcastPlan,
        mode: PullMode,
        mut tuner: ClosedLoop,
    ) -> Vec<(u64, u64, Slot)> {
        let engine = BroadcastEngine::with_plan(
            plan,
            EngineConfig {
                max_slots: 300,
                slot_duration: Duration::from_millis(1),
                ..EngineConfig::default()
            },
        )
        .with_pull(PullConfig {
            mode,
            max_queue: 64,
        });
        engine.run(&mut tuner);
        assert!(
            tuner.answered.len() >= 20,
            "only {} requests answered",
            tuner.answered.len()
        );
        tuner.answered
    }

    #[test]
    fn adaptive_pull_read_at_the_deadline_airs_one_slot_later() {
        // No padding; the cold page 2 airs once per 20 slots.
        let slots = (0..20)
            .map(|i| Slot::Page(PageId(if i == 0 { 2 } else { i % 2 })))
            .collect();
        let plan =
            BroadcastPlan::single(BroadcastProgram::from_slots(slots, None, vec![]).unwrap());
        let far = plan.clone();
        let tuner = ClosedLoop::new(2, move |m| {
            far.next_arrival(PageId(2), m as f64) > (m + 2) as f64
        });
        let mode = PullMode::Adaptive {
            max_ratio: 0.5,
            depth_target: 1,
        };
        // Read at min_seq's own tick, the request earns half a steal there
        // and the whole one a tick later.
        for (min_seq, seq, slot) in closed_loop(plan, mode, tuner) {
            assert_eq!(
                (seq, slot),
                (min_seq + 1, Slot::Pull(PageId(2))),
                "min_seq {min_seq}"
            );
        }
    }

    #[test]
    fn padding_fill_answers_a_request_due_on_padding_in_that_slot() {
        // `A B - A C -`: pages 0, 1, 2 with padding at offsets 2 and 5.
        let slots = vec![
            Slot::Page(PageId(0)),
            Slot::Page(PageId(1)),
            Slot::Empty,
            Slot::Page(PageId(0)),
            Slot::Page(PageId(2)),
            Slot::Empty,
        ];
        let plan =
            BroadcastPlan::single(BroadcastProgram::from_slots(slots, None, vec![]).unwrap());
        let on_padding = |m: u64| plan.slot_at(ChannelId(0), m) == Slot::Empty;
        let answered = closed_loop(
            plan.clone(),
            PullMode::PaddingFill,
            ClosedLoop::new(1, |_| true),
        );
        let due_on_padding: Vec<_> = answered.iter().filter(|a| on_padding(a.0)).collect();
        assert!(
            due_on_padding.len() >= 5,
            "only {} due on padding",
            due_on_padding.len()
        );
        for &&(min_seq, seq, slot) in &due_on_padding {
            assert_eq!(
                (seq, slot),
                (min_seq, Slot::Pull(PageId(1))),
                "min_seq {min_seq}"
            );
        }
    }
}
