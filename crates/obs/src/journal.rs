//! Bounded ring-buffer event journal.
//!
//! The journal records small structured [`Event`]s (slot ticks, enqueues,
//! drops, disconnects, cache admissions/evictions, backpressure stalls)
//! into a fixed-capacity ring of atomic cells. Writers **never block** and
//! never allocate: a writer claims a monotone sequence number with one
//! `fetch_add`, then publishes its fields into the slot `seq % capacity`
//! with a seqlock-style commit word. When the ring wraps, the oldest
//! events are overwritten and readers are told exactly how many they
//! missed — overflow is explicit, not silent.
//!
//! Readers ([`Journal::since`]) copy events out by validating the commit
//! word before and after reading the fields, so a torn read (a writer
//! lapped the reader mid-copy) is detected and the slot skipped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default ring capacity (events). Power of two; ~64 KiB of cells.
pub const DEFAULT_CAPACITY: usize = 8192;

/// The kind of a journal event. Discriminants are stable (serialized into
/// CSV/JSON by number and name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// The engine broadcast one slot (`a` = slot sequence, `b` = page id).
    SlotTick = 0,
    /// A client disconnected, was force-disconnected, or finished on the
    /// in-memory bus (`a` = connection id or bus client index, `b` = 1 if
    /// forced by backpressure policy).
    Disconnect = 3,
    /// A page was admitted to a client cache (`a` = client id,
    /// `b` = page id).
    CacheAdmit = 4,
    /// A page was evicted from a client cache (`a` = client id,
    /// `b` = page id).
    CacheEvict = 5,
    /// A fault was injected into the broadcast (`a` = slot sequence,
    /// `b` = fault code: 0 erase, 1 corrupt, 2 delay, 3 kill, 4 overrun).
    FaultInjected = 7,
    /// A client detected a gap in the frame sequence (`a` = first missed
    /// slot sequence, `b` = gap length in slots).
    FrameGap = 8,
    /// A client recovered a lost page at its next periodic broadcast
    /// (`a` = page id, `b` = slots waited since the missed broadcast).
    Recovery = 9,
    /// A TCP client feed reconnected after losing its connection
    /// (`a` = feed id, `b` = connect attempts this outage).
    Reconnect = 10,
    /// A receiver adopted a new broadcast-plan epoch at a fence
    /// (`a` = new epoch id, `b` = the epoch's slot-clock base).
    EpochSwap = 11,
}

impl EventKind {
    /// Stable lower-snake name (used in CSV/JSON output).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SlotTick => "slot_tick",
            EventKind::Disconnect => "disconnect",
            EventKind::CacheAdmit => "cache_admit",
            EventKind::CacheEvict => "cache_evict",
            EventKind::FaultInjected => "fault_injected",
            EventKind::FrameGap => "frame_gap",
            EventKind::Recovery => "recovery",
            EventKind::Reconnect => "reconnect",
            EventKind::EpochSwap => "epoch_swap",
        }
    }

    /// The kind for a stable wire discriminant, if `v` is one.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => EventKind::SlotTick,
            3 => EventKind::Disconnect,
            4 => EventKind::CacheAdmit,
            5 => EventKind::CacheEvict,
            7 => EventKind::FaultInjected,
            8 => EventKind::FrameGap,
            9 => EventKind::Recovery,
            10 => EventKind::Reconnect,
            11 => EventKind::EpochSwap,
            _ => return None,
        })
    }
}

/// One journal event: a kind and two kind-specific operands (see the
/// [`EventKind`] variants for what `a`/`b` mean per kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number assigned at record time.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// First operand (kind-specific).
    pub a: u64,
    /// Second operand (kind-specific).
    pub b: u64,
}

/// One ring slot. `commit` is a seqlock word: `0` = never written,
/// `u64::MAX` = write in progress, `seq + 1` = slot holds event `seq`.
struct Cell {
    commit: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// The bounded, overwrite-oldest event ring.
pub struct Journal {
    cells: Box<[Cell]>,
    /// Next sequence number to assign (== total events ever recorded).
    head: AtomicU64,
    mask: u64,
}

/// The result of a [`Journal::since`] read: the events that are still in
/// the ring at or after the requested sequence, plus how many the ring had
/// already overwritten (or the reader had torn-skipped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventBatch {
    /// Recovered events, in sequence order.
    pub events: Vec<Event>,
    /// Events in `[since, head)` that could not be returned because the
    /// ring overwrote them (or a concurrent writer tore the read).
    pub dropped: u64,
    /// The next sequence to pass as `since` to continue tailing.
    pub next_seq: u64,
}

impl Journal {
    /// A journal with `capacity` slots, rounded up to a power of two.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let cells = (0..cap)
            .map(|_| Cell {
                commit: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        Self {
            cells,
            head: AtomicU64::new(0),
            mask: (cap - 1) as u64,
        }
    }

    /// Records an event. Never blocks, never allocates; overwrites the
    /// oldest event when the ring is full. Callers gate on
    /// [`crate::tracing_enabled`] *before* building the event.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let cell = &self.cells[(seq & self.mask) as usize];
        // Seqlock write: mark in-progress, publish fields, commit seq+1.
        cell.commit.store(u64::MAX, Ordering::Release);
        cell.kind.store(kind as u64, Ordering::Relaxed);
        cell.a.store(a, Ordering::Relaxed);
        cell.b.store(b, Ordering::Relaxed);
        cell.commit.store(seq + 1, Ordering::Release);
        seq
    }

    /// Total events ever recorded (the next sequence number).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Reads every event with `seq >= since` still present in the ring.
    ///
    /// Events older than `head - capacity` have been overwritten; they are
    /// counted in [`EventBatch::dropped`] rather than silently elided.
    pub fn since(&self, since: u64) -> EventBatch {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.cells.len() as u64;
        let oldest = head.saturating_sub(cap);
        let start = since.max(oldest);
        let mut dropped = start - since; // events already overwritten
        let mut events = Vec::with_capacity(head.saturating_sub(start) as usize);
        for seq in start..head {
            let cell = &self.cells[(seq & self.mask) as usize];
            let before = cell.commit.load(Ordering::Acquire);
            if before != seq + 1 {
                // Overwritten by a newer event or mid-write: lost.
                dropped += 1;
                continue;
            }
            let kind = cell.kind.load(Ordering::Relaxed);
            let a = cell.a.load(Ordering::Relaxed);
            let b = cell.b.load(Ordering::Relaxed);
            let after = cell.commit.load(Ordering::Acquire);
            if after != seq + 1 {
                dropped += 1;
                continue;
            }
            match EventKind::from_u8(kind as u8) {
                Some(kind) => events.push(Event { seq, kind, a, b }),
                None => dropped += 1,
            }
        }
        EventBatch {
            events,
            dropped,
            next_seq: head,
        }
    }
}

static JOURNAL: OnceLock<Journal> = OnceLock::new();

/// The process-wide journal, materialized on first use (call this — e.g.
/// via [`crate::set_tracing_enabled`]`(true)` — outside hot paths so the
/// one-time ring allocation never lands in an allocation-free section).
pub fn journal() -> &'static Journal {
    JOURNAL.get_or_init(|| Journal::with_capacity(DEFAULT_CAPACITY))
}

/// Records `kind(a, b)` into the process journal if tracing is enabled.
/// One relaxed load when disabled; lock- and allocation-free when enabled.
#[inline]
pub fn event(kind: EventKind, a: u64, b: u64) {
    if crate::tracing_enabled() {
        journal().record(kind, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_in_order() {
        let j = Journal::with_capacity(16);
        for i in 0..5 {
            j.record(EventKind::SlotTick, i, i * 10);
        }
        let batch = j.since(0);
        assert_eq!(batch.dropped, 0);
        assert_eq!(batch.next_seq, 5);
        assert_eq!(batch.events.len(), 5);
        for (i, e) in batch.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, EventKind::SlotTick);
            assert_eq!(e.a, i as u64);
            assert_eq!(e.b, i as u64 * 10);
        }
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let j = Journal::with_capacity(8);
        for i in 0..20 {
            j.record(EventKind::SlotTick, i, 0);
        }
        let batch = j.since(0);
        // Ring holds the last 8 of 20; 12 were overwritten.
        assert_eq!(batch.dropped, 12);
        assert_eq!(batch.events.len(), 8);
        assert_eq!(batch.events.first().unwrap().seq, 12);
        assert_eq!(batch.events.last().unwrap().seq, 19);
        assert_eq!(batch.next_seq, 20);
    }

    #[test]
    fn since_resumes_from_cursor() {
        let j = Journal::with_capacity(16);
        for i in 0..4 {
            j.record(EventKind::FrameGap, i, 1);
        }
        let first = j.since(0);
        assert_eq!(first.events.len(), 4);
        let again = j.since(first.next_seq);
        assert!(again.events.is_empty());
        assert_eq!(again.dropped, 0);
        j.record(EventKind::FrameGap, 99, 1);
        let tail = j.since(first.next_seq);
        assert_eq!(tail.events.len(), 1);
        assert_eq!(tail.events[0].a, 99);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Journal::with_capacity(100).capacity(), 128);
        assert_eq!(Journal::with_capacity(0).capacity(), 2);
    }

    #[test]
    fn concurrent_writers_keep_sequences_unique() {
        use std::sync::Arc;
        let j = Arc::new(Journal::with_capacity(1024));
        let mut handles = Vec::new();
        for t in 0..4 {
            let j = Arc::clone(&j);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    j.record(EventKind::SlotTick, t, i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let batch = j.since(0);
        assert_eq!(batch.events.len() as u64 + batch.dropped, 800);
        let mut seqs: Vec<u64> = batch.events.iter().map(|e| e.seq).collect();
        let len = seqs.len();
        seqs.dedup();
        assert_eq!(seqs.len(), len, "sequence numbers must be unique");
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::SlotTick.name(), "slot_tick");
        assert_eq!(EventKind::Disconnect.name(), "disconnect");
        assert_eq!(EventKind::FaultInjected.name(), "fault_injected");
        assert_eq!(EventKind::FrameGap.name(), "frame_gap");
        assert_eq!(EventKind::Recovery.name(), "recovery");
        assert_eq!(EventKind::Reconnect.name(), "reconnect");
        assert_eq!(EventKind::EpochSwap.name(), "epoch_swap");
        assert_eq!(EventKind::from_u8(4), Some(EventKind::CacheAdmit));
        assert_eq!(EventKind::from_u8(7), Some(EventKind::FaultInjected));
        assert_eq!(EventKind::from_u8(10), Some(EventKind::Reconnect));
        assert_eq!(EventKind::from_u8(11), Some(EventKind::EpochSwap));
        assert_eq!(EventKind::from_u8(200), None);
        // Retired kinds keep their discriminants unused.
        for retired in [1, 2, 6] {
            assert_eq!(EventKind::from_u8(retired), None);
        }
    }
}
