//! The in-memory broadcast medium for in-process experiments: the bus owns
//! its [`LiveClient`]s and hands each frame to every unfinished one, in
//! order, on the engine thread.
//!
//! In the paper a client is a passive listener: it hears each slot as it
//! goes by and never pushes back on the server. [`LiveClient::on_frame`]
//! is a deterministic state machine, so calling it inline is that medium
//! exactly — lossless, in order, and the same on every run. With no fault
//! plan, a live client's measurements are bit-identical to its simulated
//! twin's (`repro live` checks this).
//!
//! A client that finishes leaves the bus on the frame that finished it and
//! is reported as `disconnected`. Once the last one has left,
//! [`Transport::active_clients`] reads 0, so an engine with
//! `stop_when_no_clients` stops right after that frame.
//!
//! Frames are zero-copy: every client reads the same [`Frame`], whose
//! payload is a shared `Arc<[u8]>`.

use bdisk_obs::journal::{event, EventKind};

use crate::client::{LiveClient, LiveClientResult};
use crate::faults::{FaultCounts, FaultPlan, FaultSwitchboard, InjectedFrame};
use crate::transport::{DeliveryStats, Frame, Transport};

/// Inline broadcast medium: delivers each frame to its clients on the
/// broadcasting thread.
pub struct InMemoryBus {
    clients: Vec<LiveClient>,
    /// Clients that have not finished yet.
    active: usize,
    /// Per-channel fault choke points (default plan + overrides).
    faults: FaultSwitchboard,
    /// Reusable injector output buffer (fault path only).
    fault_out: Vec<InjectedFrame>,
    /// Per-channel fan-out counters, cached so steady state never touches
    /// the registry.
    channel_frames: crate::obs::ChannelCounters,
}

impl InMemoryBus {
    /// A bus feeding `clients`, each from the first frame aired.
    pub fn new(clients: Vec<LiveClient>) -> Self {
        Self {
            active: clients.iter().filter(|c| !c.is_done()).count(),
            clients,
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

    /// Consumes the bus, producing each client's results in the order the
    /// clients were given.
    pub fn into_results(self) -> Vec<LiveClientResult> {
        self.clients
            .into_iter()
            .map(LiveClient::into_results)
            .collect()
    }

    /// Hands `frame` to every unfinished client.
    fn deliver(&mut self, frame: &Frame, stats: &mut DeliveryStats) {
        let wire_len = frame.wire_len() as u64;
        for (id, client) in self.clients.iter_mut().enumerate() {
            if client.is_done() {
                continue;
            }
            stats.delivered += 1;
            stats.bytes += wire_len;
            stats.max_queue = 1;
            if client.on_frame(frame) {
                event(EventKind::Disconnect, id as u64, 0);
                stats.disconnected += 1;
                self.active -= 1;
            }
        }
    }
}

impl Transport for InMemoryBus {
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
        self.channel_frames.get(frame.channel).inc();
        let mut stats = DeliveryStats::default();
        if !self.faults.active() {
            self.deliver(&frame, &mut stats);
            return stats;
        }
        let mut out = std::mem::take(&mut self.fault_out);
        match self.faults.injector_mut(frame.channel) {
            Some(inj) => inj.step(frame, &mut out),
            None => out.push(InjectedFrame {
                frame,
                corrupt: None,
            }),
        }
        for injected in out.drain(..) {
            // The bus has no wire encoding, so in-flight bit damage is
            // modeled at its observable effect: the receiver's CRC check
            // discards the frame, i.e. it is withheld here. A client sees
            // the identical sequence gap either way.
            if injected.corrupt.is_none() {
                self.deliver(&injected.frame, &mut stats);
            }
        }
        self.fault_out = out;
        stats
    }

    fn active_clients(&self) -> usize {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ChannelFault;
    use bdisk_sched::{BroadcastProgram, DiskLayout, Slot};
    use bdisk_sim::SimConfig;

    fn program() -> (DiskLayout, BroadcastProgram) {
        let layout = DiskLayout::with_delta(&[20, 80, 100], 2).unwrap();
        let program = BroadcastProgram::generate(&layout).unwrap();
        (layout, program)
    }

    /// A bus of `n` clients, each finishing after `requests` measured
    /// requests (no warm-up).
    fn bus(n: u64, requests: u64) -> InMemoryBus {
        let (layout, program) = program();
        let cfg = SimConfig {
            access_range: 100,
            region_size: 5,
            requests,
            warmup_requests: 0,
            ..SimConfig::default()
        };
        let clients = (0..n)
            .map(|seed| LiveClient::new(&cfg, &layout, program.clone(), seed).unwrap())
            .collect();
        InMemoryBus::new(clients)
    }

    /// Airs the program's first `frames` slots; returns the summed stats
    /// and the wire bytes of the frames aired.
    fn air(bus: &mut InMemoryBus, frames: usize) -> (DeliveryStats, u64) {
        let mut totals = DeliveryStats::default();
        let mut bytes = 0;
        for (seq, slot) in program().1.slots_from(0).take(frames) {
            let frame = Frame::bare(seq, slot);
            bytes += frame.wire_len() as u64;
            totals.absorb(bus.broadcast(frame));
        }
        (totals, bytes)
    }

    #[test]
    fn every_subscriber_sees_every_frame_in_order() {
        let mut bus = bus(2, 500);
        let (stats, bytes) = air(&mut bus, 40);
        assert_eq!((stats.delivered, stats.bytes), (2 * 40, 2 * bytes));
        assert_eq!(bus.active_clients(), 2);
        for r in bus.into_results() {
            assert_eq!((r.frames_seen, r.gaps, r.late_frames), (40, 0, 0));
        }
    }

    #[test]
    fn dead_receiver_is_removed() {
        let mut bus = bus(1, 1);
        let mut finished_at = None;
        for (seq, slot) in program().1.slots_from(0).take(10_000) {
            let stats = bus.broadcast(Frame::bare(seq, slot));
            if stats.disconnected == 1 {
                finished_at = Some(seq);
                break;
            }
            assert_eq!(bus.active_clients(), 1);
        }
        let finished_at = finished_at.expect("one request finishes within a few periods");
        // Removed on the frame that finished it: later frames reach no one.
        assert_eq!(bus.active_clients(), 0);
        let after = bus.broadcast(Frame::bare(finished_at + 1, Slot::Empty));
        assert_eq!(after, DeliveryStats::default());
        assert_eq!(bus.into_results()[0].frames_seen, finished_at + 1);
    }

    #[test]
    fn erasure_plan_withholds_exactly_the_planned_slots() {
        let plan = FaultPlan::erasure_only(21, 0.25);
        let mut bus = bus(1, 500);
        bus.set_fault_plan(plan);
        let (stats, _) = air(&mut bus, 40);
        let expect: Vec<u64> = (0..40)
            .filter(|&s| plan.channel_fault(s) == ChannelFault::Deliver)
            .collect();
        assert!(expect.len() < 40, "seed must erase something");
        assert_eq!(stats.delivered, expect.len() as u64);
        assert_eq!(bus.fault_counts().erased, 40 - expect.len() as u64);
        // Every withheld slot between the first and last delivered frame
        // shows up as a gap at the client.
        let (first, last) = (expect[0], *expect.last().unwrap());
        let inner_erased = (first..=last).filter(|s| !expect.contains(s)).count() as u64;
        let r = &bus.into_results()[0];
        assert_eq!(r.frames_seen, expect.len() as u64);
        assert_eq!(r.gap_slots, inner_erased);
    }

    #[test]
    fn none_plan_is_inert() {
        let mut bus = bus(1, 500);
        bus.set_fault_plan(FaultPlan::none());
        assert_eq!(air(&mut bus, 5).0.delivered, 5);
        assert_eq!(bus.fault_counts(), FaultCounts::default());
        let r = &bus.into_results()[0];
        assert_eq!((r.frames_seen, r.gaps), (5, 0));
    }
}
