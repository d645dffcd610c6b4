//! The in-memory broadcast bus: pre-sized per-subscriber frame queues fed
//! in batches on the broadcasting thread.
//!
//! This is the transport for in-process experiments — `repro live` runs 16+
//! clients on it. With [`Backpressure::Block`] every subscriber sees every
//! frame in order (lossless), which is the setting under which a live
//! client's measurements are bit-identical to the simulator's.
//!
//! # Fan-out architecture
//!
//! The naive shape — one channel send per subscriber per slot — costs two
//! lock acquisitions and up to two condvar wakeups per subscriber per slot,
//! which is what made slot throughput degrade linearly with client count.
//! This bus instead:
//!
//! * **batches**: `broadcast` accumulates frames into a pending batch
//!   ([`BusTuning::batch`] frames) and flushes the whole batch into each
//!   subscriber queue under a single lock, with one wakeup per batch;
//! * **swap-drains**: a subscriber's `recv` takes every queued frame in one
//!   lock by swapping the queue's buffer with its drained local buffer, so
//!   the consumer side also pays ~one lock per batch;
//! * **keeps frames zero-copy**: queue entries are [`Frame`]s whose payload
//!   is a shared `Arc<[u8]>` — fan-out never copies page bytes;
//! * **allocates nothing in steady state**: subscriber buffers are
//!   pre-sized to the bus capacity, eviction uses in-place `swap_remove`
//!   instead of rebuilding the subscriber list, and batch flushes reuse the
//!   pending buffer.
//!
//! Delivery order per subscriber is identical for every batch size — only
//! the timing of stats reporting moves from per-slot to per-flush.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bdisk_obs::journal::{event, EventKind};

use crate::faults::{FaultCounts, FaultPlan, FaultSwitchboard, InjectedFrame};
use crate::transport::{Backpressure, DeliveryStats, Frame, Transport};

/// Process-wide queue-id source, so journal events can name the subscriber
/// queue they concern.
static NEXT_QUEUE_ID: AtomicU64 = AtomicU64::new(0);

/// One subscriber's bounded frame queue. The bus side pushes whole batches
/// under one lock; the subscriber side drains everything available in one
/// lock via buffer swap.
struct FrameQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Stable id for journal events about this queue.
    id: u64,
}

struct QueueState {
    buf: VecDeque<Frame>,
    /// Subscriber dropped its end; pushes report the client gone.
    rx_closed: bool,
    /// Bus closed the feed; the subscriber drains what is queued, then
    /// sees the end of the stream.
    tx_closed: bool,
}

/// Outcome of pushing one batch into one subscriber queue.
#[derive(Default)]
struct QueuePush {
    delivered: u64,
    dropped: u64,
    bytes: u64,
    max_backlog: usize,
    /// The subscriber must be removed (reader gone, or the Disconnect
    /// policy fired on a full buffer).
    evicted: bool,
}

impl FrameQueue {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(QueueState {
                buf: VecDeque::with_capacity(capacity),
                rx_closed: false,
                tx_closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            id: NEXT_QUEUE_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Pushes `frames` in order under one lock, applying `bp` to overflow.
    /// Backlog is sampled *before* each enqueue (and before any blocking
    /// wait), so `max_backlog` reports true peak lag: a full buffer under
    /// [`Backpressure::Block`] counts the queued frames plus the one in
    /// flight.
    fn push_batch(&self, frames: &[Frame], bp: Backpressure) -> QueuePush {
        let mut out = QueuePush::default();
        let mut st = self.state.lock().expect("bus queue poisoned");
        'frames: for frame in frames {
            if st.rx_closed {
                out.evicted = true;
                break;
            }
            let backlog = st.buf.len();
            match bp {
                Backpressure::Block => {
                    let mut stalled = false;
                    while st.buf.len() == self.capacity {
                        if st.rx_closed {
                            out.evicted = true;
                            break 'frames;
                        }
                        if !stalled {
                            stalled = true;
                            crate::obs::bus().stalls.inc();
                            event(EventKind::BackpressureStall, self.id, backlog as u64);
                        }
                        // About to sleep on the consumer: make sure it can
                        // see everything pushed so far.
                        self.not_empty.notify_one();
                        st = self.not_full.wait(st).expect("bus queue poisoned");
                    }
                    if st.rx_closed {
                        out.evicted = true;
                        break;
                    }
                    st.buf.push_back(frame.clone());
                    out.delivered += 1;
                    out.bytes += frame.wire_len() as u64;
                    out.max_backlog = out.max_backlog.max(backlog + 1);
                }
                Backpressure::DropNewest => {
                    if st.buf.len() == self.capacity {
                        out.dropped += 1;
                        out.max_backlog = out.max_backlog.max(backlog);
                    } else {
                        st.buf.push_back(frame.clone());
                        out.delivered += 1;
                        out.bytes += frame.wire_len() as u64;
                        out.max_backlog = out.max_backlog.max(backlog + 1);
                    }
                }
                Backpressure::Disconnect => {
                    if st.buf.len() == self.capacity {
                        out.evicted = true;
                        break;
                    }
                    st.buf.push_back(frame.clone());
                    out.delivered += 1;
                    out.bytes += frame.wire_len() as u64;
                    out.max_backlog = out.max_backlog.max(backlog + 1);
                }
            }
        }
        drop(st);
        self.not_empty.notify_one();
        out
    }

    /// Ends the feed from the bus side; the subscriber drains the rest.
    fn close_tx(&self) {
        self.state.lock().expect("bus queue poisoned").tx_closed = true;
        self.not_empty.notify_all();
    }

    /// Marks the subscriber gone; pending and future pushes fail.
    fn close_rx(&self) {
        self.state.lock().expect("bus queue poisoned").rx_closed = true;
        self.not_full.notify_all();
    }

    fn queued(&self) -> usize {
        self.state.lock().expect("bus queue poisoned").buf.len()
    }
}

/// A subscriber's end of the bus: an ordered frame feed.
///
/// Frames are drained from the shared queue in whole batches (one lock per
/// batch) into a local buffer that `recv` pops from.
pub struct BusSubscription {
    queue: Arc<FrameQueue>,
    local: VecDeque<Frame>,
}

impl BusSubscription {
    /// Blocks for the next frame; `None` once the bus shuts down and the
    /// backlog is drained.
    pub fn recv(&mut self) -> Option<Frame> {
        if let Some(frame) = self.local.pop_front() {
            return Some(frame);
        }
        let mut st = self.queue.state.lock().expect("bus queue poisoned");
        loop {
            if !st.buf.is_empty() {
                // Take the whole backlog in one lock: swap the queue's
                // buffer with our drained local one (both keep their
                // allocations, so steady-state receives allocate nothing).
                std::mem::swap(&mut st.buf, &mut self.local);
                drop(st);
                self.queue.not_full.notify_one();
                return self.local.pop_front();
            }
            if st.tx_closed {
                return None;
            }
            st = self.queue.not_empty.wait(st).expect("bus queue poisoned");
        }
    }

    /// Frames currently queued (the subscriber's lag behind the engine),
    /// including locally buffered frames not yet popped.
    pub fn lag(&self) -> usize {
        self.local.len() + self.queue.queued()
    }
}

impl Drop for BusSubscription {
    fn drop(&mut self) {
        self.queue.close_rx();
    }
}

/// Fan-out tuning: flush batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTuning {
    /// Frames accumulated before a flush (>= 1). With 1, every `broadcast`
    /// flushes immediately and stats are reported per slot.
    pub batch: usize,
}

impl Default for BusTuning {
    fn default() -> Self {
        Self { batch: 1 }
    }
}

impl BusTuning {
    /// Throughput-oriented tuning: batched flushes.
    pub fn throughput() -> Self {
        Self { batch: 32 }
    }
}

/// Batched broadcast bus, delivering on the broadcasting thread.
pub struct InMemoryBus {
    capacity: usize,
    backpressure: Backpressure,
    batch: usize,
    pending: Vec<Frame>,
    /// Live subscriber queues; evicted ones leave at the flush that finds
    /// them gone.
    subs: Vec<Arc<FrameQueue>>,
    /// Per-channel fault choke points (default plan + overrides).
    faults: FaultSwitchboard,
    /// Reusable injector output buffer (fault path only).
    fault_out: Vec<InjectedFrame>,
    /// Per-channel fan-out counters, cached so steady state never touches
    /// the registry.
    channel_frames: crate::obs::ChannelCounters,
}

/// Delivers one batch to every queue, evicting in place (`swap_remove`, no
/// list rebuild, no allocation).
fn deliver(subs: &mut Vec<Arc<FrameQueue>>, frames: &[Frame], bp: Backpressure) -> DeliveryStats {
    let mut stats = DeliveryStats::default();
    let mut i = 0;
    while i < subs.len() {
        let push = subs[i].push_batch(frames, bp);
        stats.delivered += push.delivered;
        stats.dropped += push.dropped;
        stats.bytes += push.bytes;
        stats.max_queue = stats.max_queue.max(push.max_backlog);
        if push.delivered > 0 {
            event(EventKind::Enqueue, subs[i].id, push.delivered);
        }
        if push.dropped > 0 {
            event(EventKind::Drop, subs[i].id, push.dropped);
        }
        if push.evicted {
            // Close the feed so an evicted-but-alive reader drains what is
            // already queued, then sees the end of its stream.
            event(
                EventKind::Disconnect,
                subs[i].id,
                u64::from(bp == Backpressure::Disconnect),
            );
            subs[i].close_tx();
            subs.swap_remove(i);
            stats.disconnected += 1;
        } else {
            i += 1;
        }
    }
    stats
}

impl InMemoryBus {
    /// Creates a bus whose per-subscriber buffers hold `capacity` frames,
    /// with `backpressure` applied when a buffer is full. Uses the default
    /// tuning (flush every slot) — see [`Self::with_tuning`] for the
    /// batched fast path.
    pub fn new(capacity: usize, backpressure: Backpressure) -> Self {
        Self::with_tuning(capacity, backpressure, BusTuning::default())
    }

    /// Creates a bus with explicit fan-out tuning.
    pub fn with_tuning(capacity: usize, backpressure: Backpressure, tuning: BusTuning) -> Self {
        assert!(capacity > 0, "bus needs buffer capacity");
        assert!(tuning.batch > 0, "flush batch must hold at least one frame");
        Self {
            capacity,
            backpressure,
            batch: tuning.batch,
            pending: Vec::with_capacity(tuning.batch),
            subs: Vec::new(),
            faults: FaultSwitchboard::new(),
            fault_out: Vec::new(),
            channel_frames: crate::obs::ChannelCounters::new(crate::obs::fanout_by_channel),
        }
    }

    /// Installs (or, with [`FaultPlan::is_none`], removes) the fault plan
    /// this bus's broadcasts run under, on **every** channel — clearing any
    /// per-channel overrides. A zero plan leaves the broadcast path
    /// bit-identical — and allocation-identical — to never having called
    /// this. Channel `c`'s injector keys its decisions to `c`, so channels
    /// sharing one plan still fault independently.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults.set_default(plan);
    }

    /// Overrides the fault plan for one broadcast channel (other channels
    /// keep the [`Self::set_fault_plan`] default, or run clean without
    /// one).
    pub fn set_channel_fault_plan(&mut self, channel: u16, plan: FaultPlan) {
        self.faults.set_channel(channel, plan);
    }

    /// Faults injected so far, summed over every channel's injector.
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.counts()
    }

    /// Adds a subscriber; call before starting the engine (frames sent
    /// before subscription are not replayed).
    pub fn subscribe(&mut self) -> BusSubscription {
        let queue = FrameQueue::new(self.capacity);
        let sub = BusSubscription {
            queue: Arc::clone(&queue),
            local: VecDeque::with_capacity(self.capacity),
        };
        self.subs.push(queue);
        crate::obs::bus().subscribers.add(1);
        sub
    }

    /// Delivers the pending batch, returning its stats (empty if nothing
    /// was pending).
    fn flush_pending(&mut self) -> DeliveryStats {
        if self.pending.is_empty() {
            return DeliveryStats::default();
        }
        let m = crate::obs::bus();
        m.flushes.inc();
        m.batch_occupancy.record(self.pending.len() as u64);
        let stats = deliver(&mut self.subs, &self.pending, self.backpressure);
        self.pending.clear();
        m.subscribers.add(-(stats.disconnected as i64));
        stats
    }

    /// Closes every feed without flushing pending frames.
    fn close(&mut self) {
        crate::obs::bus().subscribers.add(-(self.subs.len() as i64));
        for queue in self.subs.drain(..) {
            queue.close_tx();
        }
    }
}

impl Transport for InMemoryBus {
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
        self.channel_frames.get(frame.channel).inc();
        if self.faults.active() {
            let mut out = std::mem::take(&mut self.fault_out);
            out.clear();
            if let Some(inj) = self.faults.injector_mut(frame.channel) {
                inj.step(frame, &mut out);
                for injected in out.drain(..) {
                    // The bus has no wire encoding, so in-flight bit damage
                    // is modeled at its observable effect: the receiver's
                    // CRC check discards the frame, i.e. it is withheld
                    // here. A client sees the identical sequence gap either
                    // way.
                    if injected.corrupt.is_none() {
                        self.pending.push(injected.frame);
                    }
                }
            } else {
                self.pending.push(frame);
            }
            self.fault_out = out;
        } else {
            self.pending.push(frame);
        }
        if self.pending.len() >= self.batch {
            self.flush_pending()
        } else {
            DeliveryStats::default()
        }
    }

    fn active_clients(&self) -> usize {
        self.subs.len()
    }

    fn flush(&mut self) -> DeliveryStats {
        self.flush_pending()
    }

    fn finish(&mut self) -> DeliveryStats {
        let stats = self.flush_pending();
        self.close();
        stats
    }
}

impl Drop for InMemoryBus {
    fn drop(&mut self) {
        // Close without flushing: a flush could block on a full queue with
        // no consumer, and anyone who cares about tail stats calls
        // `finish` explicitly (the engine always does).
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk_sched::{PageId, Slot};

    fn frame(seq: u64) -> Frame {
        Frame::bare(seq, Slot::Page(PageId(seq as u32 % 3)))
    }

    fn drain(mut sub: BusSubscription) -> Vec<u64> {
        std::iter::from_fn(|| sub.recv()).map(|f| f.seq).collect()
    }

    #[test]
    fn every_subscriber_sees_every_frame_in_order() {
        let mut bus = InMemoryBus::new(16, Backpressure::Block);
        let a = bus.subscribe();
        let b = bus.subscribe();
        for seq in 0..5 {
            let stats = bus.broadcast(frame(seq));
            assert_eq!(stats.delivered, 2);
            assert_eq!(stats.dropped, 0);
        }
        bus.finish();
        for sub in [a, b] {
            assert_eq!(drain(sub), vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn drop_newest_loses_frames_but_keeps_client() {
        let mut bus = InMemoryBus::new(2, Backpressure::DropNewest);
        let sub = bus.subscribe();
        let mut dropped = 0;
        for seq in 0..5 {
            dropped += bus.broadcast(frame(seq)).dropped;
        }
        assert_eq!(dropped, 3); // buffer holds 2 of 5
        assert_eq!(bus.active_clients(), 1);
        bus.finish();
        assert_eq!(drain(sub), vec![0, 1]);
    }

    #[test]
    fn disconnect_evicts_slow_subscriber() {
        let mut bus = InMemoryBus::new(1, Backpressure::Disconnect);
        let _sub = bus.subscribe();
        assert_eq!(bus.broadcast(frame(0)).delivered, 1);
        let stats = bus.broadcast(frame(1)); // buffer full -> evicted
        assert_eq!(stats.disconnected, 1);
        assert_eq!(bus.active_clients(), 0);
    }

    #[test]
    fn dead_receiver_is_removed() {
        let mut bus = InMemoryBus::new(4, Backpressure::Block);
        let sub = bus.subscribe();
        drop(sub);
        let stats = bus.broadcast(frame(0));
        assert_eq!(stats.disconnected, 1);
        assert_eq!(bus.active_clients(), 0);
    }

    #[test]
    fn lag_reports_backlog() {
        let mut bus = InMemoryBus::new(8, Backpressure::Block);
        let mut sub = bus.subscribe();
        for seq in 0..3 {
            bus.broadcast(frame(seq));
        }
        assert_eq!(sub.lag(), 3);
        sub.recv();
        assert_eq!(sub.lag(), 2);
    }

    #[test]
    fn batched_bus_reports_stats_at_flush_boundaries() {
        let mut bus = InMemoryBus::with_tuning(64, Backpressure::Block, BusTuning { batch: 4 });
        let sub = bus.subscribe();
        let mut per_slot = Vec::new();
        for seq in 0..6 {
            per_slot.push(bus.broadcast(frame(seq)).delivered);
        }
        // Slots 0..3 buffered, flushed together at slot 3; 4..5 pending.
        assert_eq!(per_slot, vec![0, 0, 0, 4, 0, 0]);
        let tail = bus.finish();
        assert_eq!(tail.delivered, 2);
        assert_eq!(drain(sub), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn flush_delivers_a_partial_batch() {
        let mut bus = InMemoryBus::with_tuning(64, Backpressure::Block, BusTuning { batch: 4 });
        let sub = bus.subscribe();
        for seq in 0..3 {
            assert_eq!(bus.broadcast(frame(seq)).delivered, 0);
        }
        assert_eq!(sub.lag(), 0, "a partial batch waits for its flush");
        let stats = bus.flush();
        assert_eq!((stats.delivered, stats.max_queue), (3, 3));
        assert_eq!(stats.bytes, 3 * frame(0).wire_len() as u64);
        assert_eq!(sub.lag(), 3);
        assert_eq!(bus.flush(), DeliveryStats::default());
        bus.finish();
        assert_eq!(drain(sub), vec![0, 1, 2]);
    }

    /// Satellite fix: `max_queue` is sampled before the enqueue, so a
    /// blocked send reports the true peak lag (full buffer plus the frame
    /// in flight) instead of whatever remains after the consumer drains.
    #[test]
    fn max_queue_samples_backlog_before_blocking_enqueue() {
        let mut bus = InMemoryBus::new(1, Backpressure::Block);
        let mut sub = bus.subscribe();
        let first = bus.broadcast(frame(0));
        assert_eq!(first.max_queue, 1);

        let consumer = std::thread::spawn(move || {
            // Let the second broadcast block on the full buffer first.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let mut seen = Vec::new();
            while let Some(f) = sub.recv() {
                seen.push(f.seq);
            }
            seen
        });
        // Buffer full (frame 0 queued): peak lag is 1 queued + 1 in
        // flight. Sampling after the blocking send returns would race the
        // consumer and could report as little as 0.
        let second = bus.broadcast(frame(1));
        assert_eq!(second.max_queue, 2);
        bus.finish();
        assert_eq!(consumer.join().unwrap(), vec![0, 1]);
    }

    #[test]
    fn erasure_plan_withholds_exactly_the_planned_slots() {
        use crate::faults::ChannelFault;
        let plan = FaultPlan::erasure_only(21, 0.25);
        let mut bus = InMemoryBus::new(64, Backpressure::Block);
        bus.set_fault_plan(plan);
        let sub = bus.subscribe();
        for seq in 0..40 {
            bus.broadcast(frame(seq));
        }
        bus.finish();
        let expect: Vec<u64> = (0..40)
            .filter(|&s| plan.channel_fault(s) == ChannelFault::Deliver)
            .collect();
        assert!(expect.len() < 40, "seed must erase something");
        assert_eq!(drain(sub), expect);
        assert_eq!(bus.fault_counts().erased, 40 - expect.len() as u64);
    }

    #[test]
    fn none_plan_is_inert() {
        let mut bus = InMemoryBus::new(16, Backpressure::Block);
        bus.set_fault_plan(FaultPlan::none());
        let sub = bus.subscribe();
        for seq in 0..5 {
            bus.broadcast(frame(seq));
        }
        bus.finish();
        assert_eq!(drain(sub), vec![0, 1, 2, 3, 4]);
        assert_eq!(bus.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn evicted_reader_still_drains_backlog() {
        let mut bus = InMemoryBus::new(1, Backpressure::Disconnect);
        let sub = bus.subscribe();
        bus.broadcast(frame(0));
        bus.broadcast(frame(1)); // full -> evicted, feed closed
        assert_eq!(bus.active_clients(), 0);
        assert_eq!(drain(sub), vec![0]);
    }
}
