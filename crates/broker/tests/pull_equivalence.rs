//! Hybrid push/pull invariants (satellites of the slot-arbiter tentpole):
//!
//! * **Pull-off byte-identity, pinned by proptest**: for any plan shape,
//!   slot budget, and page size, an engine with pull explicitly `Off` —
//!   and even an engine with an *armed but idle* arbiter (pull enabled,
//!   zero upstream requests) — produces the byte-identical wire stream of
//!   an engine that never heard of pull. The arbiter in the slot path
//!   must be invisible until it actually serves something.
//! * **Upstream fidelity**: the TCP transport drains exactly the request
//!   sequence each connection's upstream byte stream encodes — including
//!   per-connection FIFO order, interleaved garbage, and writes
//!   fragmented down to single bytes (the event loop's readable-drain
//!   must reassemble records across arbitrarily many readable turns).
//! * **Garbage never kills**: flooding the backchannel with seeded junk
//!   neither panics nor disconnects the transport; a valid request
//!   sent after the flood still parses, and the downstream broadcast
//!   still reaches the abusive client intact.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bdisk_broker::{
    encode_request, Backpressure, BroadcastEngine, DeliveryStats, EngineConfig,
    EventedTcpTransport, Frame, PagePayloads, PullConfig, PullMode, PullRequest,
    TcpTransportConfig, Transport,
};
use bdisk_sched::{BroadcastPlan, DiskLayout, PageId};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Pull-off byte-identity
// ---------------------------------------------------------------------------

/// A downstream-only transport that records the exact wire bytes of the
/// broadcast. One capture stands in for every subscriber: the transports
/// are broadcast-once, so a single canonical stream *is* the wire.
#[derive(Default)]
struct CaptureWire {
    bytes: Vec<u8>,
}

impl Transport for CaptureWire {
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
        self.bytes.extend_from_slice(&frame.encode());
        DeliveryStats::default()
    }

    fn active_clients(&self) -> usize {
        1
    }
}

/// Runs one engine over a capture transport and returns the wire bytes.
fn capture_run(layout: &DiskLayout, channels: usize, cfg: EngineConfig, pull: PullMode) -> Vec<u8> {
    let plan = BroadcastPlan::generate(layout, channels).expect("test layout is valid");
    let engine = BroadcastEngine::with_plan(plan, cfg).with_pull(PullConfig {
        mode: pull,
        ..PullConfig::default()
    });
    let mut wire = CaptureWire::default();
    engine.run(&mut wire);
    wire.bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pull_off_engine_is_byte_identical_on_the_wire(
        layout_pick in 0usize..3,
        delta in 0u64..4,
        channels in 1usize..3,
        max_slots in 1u64..160,
        page_size in 0usize..48,
    ) {
        let sizes: &[usize] = [&[6_usize, 18][..], &[4, 10, 16][..], &[12][..]][layout_pick];
        let layout = DiskLayout::with_delta(sizes, delta).expect("test layout is valid");
        let cfg = EngineConfig {
            max_slots,
            stop_when_no_clients: false,
            page_size,
            ..EngineConfig::default()
        };

        let baseline = {
            // No `with_pull` at all: the path every pre-pull caller takes.
            let plan = BroadcastPlan::generate(&layout, channels).expect("test layout is valid");
            let mut wire = CaptureWire::default();
            BroadcastEngine::with_plan(plan, cfg.clone()).run(&mut wire);
            wire.bytes
        };
        let explicit_off = capture_run(&layout, channels, cfg.clone(), PullMode::Off);
        let armed_idle = capture_run(&layout, channels, cfg, PullMode::PaddingFill);

        prop_assert_eq!(&explicit_off, &baseline, "PullMode::Off perturbed the wire");
        prop_assert_eq!(
            &armed_idle, &baseline,
            "an armed arbiter with no queued requests perturbed the wire"
        );
    }
}

// ---------------------------------------------------------------------------
// Upstream fidelity
// ---------------------------------------------------------------------------

fn test_config() -> TcpTransportConfig {
    TcpTransportConfig {
        queue_capacity: 64,
        backpressure: Backpressure::DropNewest,
        ..TcpTransportConfig::default()
    }
}

/// Polls `take_requests` until `expected` requests arrive (or panics
/// after a generous deadline — requests must never be silently lost).
fn drain_requests(transport: &mut EventedTcpTransport, expected: usize) -> Vec<PullRequest> {
    let mut out = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    while out.len() < expected {
        transport.take_requests(&mut out);
        assert!(
            Instant::now() < deadline,
            "drained only {}/{expected} upstream requests in time",
            out.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // One more turn: anything *beyond* expected is a duplication bug.
    std::thread::sleep(Duration::from_millis(20));
    transport.take_requests(&mut out);
    assert_eq!(out.len(), expected, "transport produced surplus requests");
    out
}

/// An upstream byte stream and the requests it encodes: valid records
/// interleaved with junk that cannot contain the record magic.
fn upstream_script(user_base: u32, requests: u32) -> (Vec<u8>, Vec<PullRequest>) {
    let mut bytes = Vec::new();
    let mut expected = Vec::new();
    for i in 0..requests {
        if i % 3 == 1 {
            // Magic-free junk between records: the parser must resync.
            bytes.extend_from_slice(&[0xFF; 7]);
        }
        let req = PullRequest {
            user: user_base + i,
            page: PageId(i % 11),
            min_seq: u64::from(i) * 5,
        };
        bytes.extend_from_slice(&encode_request(req.user, req.page, req.min_seq));
        expected.push(req);
    }
    (bytes, expected)
}

/// Sends two connections' upstream scripts — one written whole, one
/// fragmented byte-by-byte — and checks that the transport drains exactly
/// each script's requests in order. Keeps the streams alive until the
/// drain completes so no bytes race a disconnect.
#[test]
fn evented_drains_each_upstream_stream_in_order() {
    let mut transport = EventedTcpTransport::bind(test_config()).expect("bind evented");
    let addr = transport.local_addr();
    let mut whole = TcpStream::connect(addr).expect("connect whole-writer");
    let mut fragmented = TcpStream::connect(addr).expect("connect fragmented-writer");
    assert!(
        transport.wait_for_clients(2, Duration::from_secs(10)),
        "upstream writers failed to connect"
    );

    let (bytes_a, expected_a) = upstream_script(0, 24);
    let (bytes_b, expected_b) = upstream_script(1000, 24);
    whole.write_all(&bytes_a).expect("whole write");
    whole.flush().expect("whole flush");
    // The fragmented writer stresses the readable-drain: every byte may
    // arrive as its own readable turn and records must reassemble across
    // all of them.
    for chunk in bytes_b.chunks(1) {
        fragmented.write_all(chunk).expect("fragmented write");
    }
    fragmented.flush().expect("fragmented flush");

    let drained = drain_requests(&mut transport, expected_a.len() + expected_b.len());

    // Per-connection FIFO order must survive the shared drain queue;
    // cross-connection interleaving is free.
    let from_a: Vec<PullRequest> = drained.iter().filter(|r| r.user < 1000).copied().collect();
    let from_b: Vec<PullRequest> = drained.iter().filter(|r| r.user >= 1000).copied().collect();
    assert_eq!(
        from_a, expected_a,
        "whole-writer requests reordered or lost"
    );
    assert_eq!(
        from_b, expected_b,
        "fragmented-writer requests reordered or lost"
    );
}

// ---------------------------------------------------------------------------
// Garbage never kills
// ---------------------------------------------------------------------------

/// 64 KiB of deterministic junk with the record magic's first byte mapped
/// away, so the flood contains zero valid records and the parser resyncs
/// through all of it.
fn garbage_flood() -> Vec<u8> {
    let mut state = 0x2545F4914F6CDD1Du64;
    (0..64 * 1024)
        .map(|_| {
            // xorshift* keeps the test dependency-free and seeded.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let b = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8;
            if b == b'B' {
                0u8
            } else {
                b
            }
        })
        .collect()
}

#[test]
fn upstream_garbage_never_kills_the_evented_transport() {
    let mut transport = EventedTcpTransport::bind(test_config()).expect("bind evented");
    let mut abuser = TcpStream::connect(transport.local_addr()).expect("connect abuser");
    assert!(
        transport.wait_for_clients(1, Duration::from_secs(10)),
        "abuser failed to connect"
    );

    abuser.write_all(&garbage_flood()).expect("garbage write");
    // A valid record after the flood: the parser must have resynced.
    abuser
        .write_all(&encode_request(42, PageId(7), 99))
        .expect("post-garbage request write");
    abuser.flush().expect("abuser flush");

    let drained = drain_requests(&mut transport, 1);
    assert_eq!(
        drained,
        vec![PullRequest {
            user: 42,
            page: PageId(7),
            min_seq: 99
        }],
        "the post-flood request did not survive the garbage"
    );
    assert_eq!(
        transport.active_clients(),
        1,
        "garbage killed the connection"
    );

    // Downstream must still flow to the abusive client, CRC-intact.
    let payloads = PagePayloads::generate(8, 32);
    transport.broadcast(payloads.frame(0, bdisk_sched::Slot::Page(PageId(3))));
    transport.finish();
    let mut wire = Vec::new();
    abuser.read_to_end(&mut wire).expect("read downstream");
    let frame = Frame::decode(&wire[4..]).expect("downstream frame survived the flood");
    assert_eq!(frame.seq, 0);
    assert_eq!(frame.slot, bdisk_sched::Slot::Page(PageId(3)));
}
