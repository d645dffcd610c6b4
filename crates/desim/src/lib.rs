//! # bdesim — a minimal discrete-event simulation kernel
//!
//! The Broadcast Disks paper (Acharya et al., SIGMOD 1995) evaluates its
//! design with a simulator written on top of CSIM, a proprietary
//! process-oriented simulation library for C. This crate is the Rust
//! substitute: a small, deterministic discrete-event kernel with
//!
//! * a virtual clock measured in **broadcast units** (the time to broadcast
//!   one page — the paper's unit of time, see Section 4.1),
//! * a priority event queue with deterministic FIFO tie-breaking, and
//! * statistics collectors (running moments, histograms, batch means) used
//!   by the measurement layer in `bdisk-sim`.
//!
//! The kernel is intentionally synchronous and single-threaded. The
//! paper's model is one client and one deterministic cyclic server, so the
//! simulator itself (`bdisk-sim`) needs no event queue at all: it drives
//! its client with a plain loop over plan arithmetic and uses this crate
//! for its statistics collectors only.
//!
//! ## Example
//!
//! ```
//! use bdesim::{Simulation, Time};
//!
//! let mut sim: Simulation<&'static str> = Simulation::new();
//! sim.schedule_at(Time::from(3.0), "c");
//! sim.schedule_at(Time::from(1.0), "a");
//! sim.schedule_in(Time::from(1.0), "b"); // now = 0, so fires at t=1 after "a"
//!
//! let mut order = Vec::new();
//! while let Some(ev) = sim.next_event() {
//!     order.push((sim.now().as_f64(), ev));
//! }
//! assert_eq!(order, vec![(1.0, "a"), (1.0, "b"), (3.0, "c")]);
//! ```

#![warn(missing_docs)]

pub mod queue;
pub mod stats;
pub mod time;

pub use queue::EventQueue;
pub use stats::{BatchMeans, Counter, Histogram, RunningStats};
pub use time::{Duration, Time};

/// A discrete-event simulation: a clock plus an event queue.
///
/// Events are opaque payloads of type `E`; the caller interprets them as it
/// pops them.
#[derive(Debug, Clone)]
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: Time,
    processed: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation with the clock at time zero.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: Time::ZERO,
            processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Timestamp of the next pending event without removing it.
    pub fn queue_peek(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — discrete-event
    /// simulations must never schedule into the past.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?}, now={:?}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` after a delay of `delay` from the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        let at = self.now + delay;
        self.queue.push(at, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty (simulation over).
    pub fn next_event(&mut self) -> Option<E> {
        let (at, event) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue produced a past event");
        self.now = at;
        self.processed += 1;
        Some(event)
    }

    /// Runs `handler` for every event until the queue drains or `handler`
    /// returns `false`.
    pub fn run_until_empty(&mut self, mut handler: impl FnMut(&mut Self, E) -> bool) {
        while let Some(ev) = self.next_event() {
            if !handler(self, ev) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let sim: Simulation<()> = Simulation::new();
        assert_eq!(sim.now(), Time::ZERO);
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.processed(), 0);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut sim = Simulation::new();
        sim.schedule_at(Time::from(5.0), 5);
        sim.schedule_at(Time::from(2.0), 2);
        sim.schedule_at(Time::from(9.0), 9);
        let mut got = Vec::new();
        while let Some(e) = sim.next_event() {
            got.push(e);
        }
        assert_eq!(got, vec![2, 5, 9]);
        assert_eq!(sim.processed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut sim = Simulation::new();
        for i in 0..100 {
            sim.schedule_at(Time::from(1.0), i);
        }
        let mut got = Vec::new();
        while let Some(e) = sim.next_event() {
            got.push(e);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim = Simulation::new();
        sim.schedule_at(Time::from(10.0), "first");
        assert_eq!(sim.next_event(), Some("first"));
        sim.schedule_in(Duration::from(2.5), "second");
        assert_eq!(sim.next_event(), Some("second"));
        assert_eq!(sim.now(), Time::from(12.5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(Time::from(10.0), 1);
        sim.next_event();
        sim.schedule_at(Time::from(5.0), 2);
    }

    #[test]
    fn run_until_empty_can_stop_early() {
        let mut sim = Simulation::new();
        for i in 0..10 {
            sim.schedule_at(Time::from(i as f64), i);
        }
        let mut seen = 0;
        sim.run_until_empty(|_, _| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
        assert_eq!(sim.pending(), 7);
    }

    #[test]
    fn handler_may_schedule_more_events() {
        // A self-perpetuating "clock tick" process.
        let mut sim = Simulation::new();
        sim.schedule_at(Time::ZERO, ());
        let mut ticks = 0;
        sim.run_until_empty(|sim, ()| {
            ticks += 1;
            if ticks < 5 {
                sim.schedule_in(Duration::from(1.0), ());
            }
            true
        });
        assert_eq!(ticks, 5);
        assert_eq!(sim.now(), Time::from(4.0));
    }
}
