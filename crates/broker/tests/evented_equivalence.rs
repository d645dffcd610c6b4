//! Property test: the TCP transport puts **exactly the modelled bytes** on
//! every connection. For any multi-channel frame sequence (pages, repair
//! slots, padding) under any seeded fault plan (erasure, corruption,
//! delay — kills excluded, accept order makes per-connection kill draws
//! racy), every connection's raw byte stream equals a pure model of the
//! wire, and the summed `DeliveryStats` equal `clients ×` the model's frame
//! and byte counts.
//!
//! The model uses public API only: one [`FaultInjector`] per faulty
//! channel, [`Frame::encode`] for clean frames, and a restatement of the
//! corruption bit flip. Runs are lossless by capacity (the queue holds
//! every frame, so `DropNewest` never fires) and `max_queue` is zeroed
//! before comparing: queue depth depends on how much each socket accepted
//! per flush, while the delivered stream must not.

use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bdisk_broker::faults::InjectedFrame;
use bdisk_broker::{
    Backpressure, DeliveryStats, EventedTcpTransport, FaultInjector, FaultPlan, Frame,
    PagePayloads, TcpTransportConfig, Transport,
};
use bdisk_sched::{PageId, RepairId, Slot};
use proptest::prelude::*;

/// Bytes of length prefix ahead of each frame body on the wire.
const LEN_PREFIX: usize = 4;

/// A reader that slurps its connection's entire wire stream until the
/// server closes it. Comparing raw bytes is the strongest equivalence:
/// framing, header encoding, corruption bit-flips, and delay reordering
/// all have to match, not just frame counts.
fn spawn_reader(addr: SocketAddr) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("reader connect");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("reader drain");
        bytes
    })
}

/// A deterministic multi-channel "coded plan" slot stream: pages striped
/// over `channels`, a repair slot closing each 8-frame parity group, and
/// periodic padding.
fn build_frames(payloads: &PagePayloads, frames: usize, channels: u16) -> Vec<Frame> {
    let symbol: Arc<[u8]> = payloads.frame(0, Slot::Page(PageId(0))).payload;
    (0..frames as u64)
        .map(|seq| {
            let slot = match seq % 8 {
                7 => Slot::Repair(RepairId((seq / 8) as u32)),
                5 => Slot::Empty,
                r => Slot::Page(PageId(r as u32)),
            };
            let mut frame = payloads.frame(seq, slot);
            if matches!(slot, Slot::Repair(_)) {
                frame.payload = Arc::clone(&symbol);
            }
            frame.channel = (seq % channels as u64) as u16;
            frame
        })
        .collect()
}

/// The corruption fault's damage: one bit of the frame body, chosen by
/// `entropy`, never a length-prefix bit.
fn flip_bit(wire: &mut [u8], entropy: u64) {
    let body_bits = (wire.len() - LEN_PREFIX) * 8;
    let bit = (entropy % body_bits as u64) as usize;
    wire[LEN_PREFIX + bit / 8] ^= 1 << (bit % 8);
}

/// The byte stream every connection must receive, and how many frames it
/// carries. A channel runs through its own injector when its plan (the
/// override if set, the default otherwise) can fault, and clean otherwise.
fn model_wire(
    frames: &[Frame],
    default_plan: FaultPlan,
    chan_plan: Option<(u16, FaultPlan)>,
) -> (Vec<u8>, u64) {
    let mut injectors: BTreeMap<u16, Option<FaultInjector>> = BTreeMap::new();
    let mut out: Vec<InjectedFrame> = Vec::new();
    let mut wire = Vec::new();
    let mut count = 0u64;
    for frame in frames {
        let channel = frame.channel;
        let injector = injectors.entry(channel).or_insert_with(|| {
            let plan = match chan_plan {
                Some((c, plan)) if c == channel => plan,
                _ => default_plan,
            };
            (!plan.is_none()).then(|| FaultInjector::for_channel(plan, channel))
        });
        out.clear();
        match injector {
            Some(inj) => inj.step(frame.clone(), &mut out),
            None => out.push(InjectedFrame {
                frame: frame.clone(),
                corrupt: None,
            }),
        }
        for injected in &out {
            let mut bytes = injected.frame.encode();
            if let Some(entropy) = injected.corrupt {
                flip_bit(&mut bytes, entropy);
            }
            wire.extend_from_slice(&bytes);
            count += 1;
        }
    }
    (wire, count)
}

/// Broadcasts `frames` to `clients` concurrent readers and returns every
/// connection's raw byte stream plus the summed stats (`max_queue`
/// zeroed — see module docs).
fn run_server(
    clients: usize,
    frames: &[Frame],
    default_plan: FaultPlan,
    chan_plan: Option<(u16, FaultPlan)>,
) -> (Vec<Vec<u8>>, DeliveryStats) {
    let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
        queue_capacity: frames.len() + 8,
        backpressure: Backpressure::DropNewest,
        max_coalesce: 16,
        ..TcpTransportConfig::default()
    })
    .expect("bind evented");
    transport.set_fault_plan(default_plan);
    if let Some((channel, plan)) = chan_plan {
        transport.set_channel_fault_plan(channel, plan);
    }
    let addr = transport.local_addr();
    let readers: Vec<_> = (0..clients).map(|_| spawn_reader(addr)).collect();
    assert!(
        transport.wait_for_clients(clients, Duration::from_secs(10)),
        "readers failed to connect"
    );
    let mut stats = DeliveryStats::default();
    for frame in frames {
        stats.absorb(transport.broadcast(frame.clone()));
    }
    stats.absorb(transport.finish());
    stats.max_queue = 0;
    let streams = readers
        .into_iter()
        .map(|r| r.join().expect("reader panicked"))
        .collect();
    (streams, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn evented_transport_matches_the_wire_model_bit_for_bit(
        clients in 1usize..5,
        frames in 1usize..120,
        channels in 1u16..4,
        page_size in 0usize..48,
        seed in 0u64..1000,
        faulty in 0u8..2,
    ) {
        let payloads = PagePayloads::generate(8, page_size);
        let specs = build_frames(&payloads, frames, channels);
        let default_plan = if faulty == 1 {
            FaultPlan {
                seed,
                erasure: 0.15,
                corruption: 0.10,
                delay: 0.05,
                max_delay_slots: 3,
                ..FaultPlan::none()
            }
        } else {
            FaultPlan::none()
        };
        // Channel 0 gets its own (differently seeded) plan, so the
        // per-channel switchboard path is modelled too.
        let chan_plan = (faulty == 1 && channels > 1).then(|| {
            (0u16, FaultPlan { seed: seed ^ 0xABCD, erasure: 0.3, ..FaultPlan::none() })
        });

        let (model, model_frames) = model_wire(&specs, default_plan, chan_plan);
        let (streams, stats) = run_server(clients, &specs, default_plan, chan_plan);

        // Broadcast-once: every connection carries the modelled stream
        // (accept order is racy, so no connection is special).
        for (i, stream) in streams.iter().enumerate() {
            prop_assert_eq!(stream, &model, "conn {} diverged from the wire model", i);
        }
        let clients = clients as u64;
        prop_assert_eq!(
            stats,
            DeliveryStats {
                delivered: clients * model_frames,
                bytes: clients * model.len() as u64,
                ..DeliveryStats::default()
            }
        );
    }
}
