//! # bdisk-broker — the live broadcast engine
//!
//! Everything else in this workspace *simulates* a broadcast disk; this
//! crate *runs* one. A [`BroadcastEngine`] walks a
//! [`bdisk_sched::BroadcastProgram`] slot by slot on a wall-clock ticker
//! and fans each page out to N concurrent clients over a pluggable
//! [`Transport`]:
//!
//! * [`InMemoryBus`] — the in-process medium: it owns its
//!   [`LiveClient`]s and calls each one's `on_frame` inline on the engine
//!   thread, lossless and in order unless a fault plan withholds a frame;
//! * [`EventedTcpTransport`] — real `std::net` sockets on a
//!   single-threaded epoll event loop: length-prefixed page frames
//!   encoded once per slot and shared by every connection's backlog,
//!   coalesced vectored writes resumed across partial writes,
//!   slow-consumer detection, and drop-or-disconnect backpressure. One
//!   thread serves 10k+ concurrent tuners, so the server's cost does not
//!   grow a thread per listener. The client half is [`TcpFrameReader`]
//!   and the self-healing [`TcpClientFeed`]; [`TunerFleet`] is the
//!   benchmark receive side: thousands of CRC-checking tuners drained by
//!   one thread. Every receiver frames the wire with the one sans-IO
//!   parser, [`FrameStream`], which bounds the untrusted length prefix
//!   by [`MAX_FRAME_LEN`] and yields borrowed, CRC-checked
//!   [`FrameView`]s.
//!
//! Frames carry real page payloads ([`PagePayloads`], sized by
//! `EngineConfig::page_size` — the paper's `PageSize` knob) as shared
//! `Arc<[u8]>` buffers: fan-out to any number of subscribers never copies
//! page bytes.
//!
//! Each [`LiveClient`] embeds the same [`bdisk_sim::ClientCore`] the
//! simulator uses — same seeded request stream, same cache policy, same
//! warm-up and measurement rules — so a live run is directly comparable to
//! a simulator prediction. With a lossless transport and a jitter-free
//! think time, a live client's measurements are **bit-identical** to its
//! simulated twin: both operate on the integer slot lattice and the shared
//! core consumes random draws in the same order (`repro live` demonstrates
//! this at the paper's Figure 13 operating point).
//!
//! Time discipline: slot `seq` of the broadcast covers broadcast-unit time
//! `[seq, seq+1)`; a client that receives frame `seq` is at virtual time
//! `seq`. Response times are therefore reported in broadcast units, just
//! like the simulator and the paper.

#![warn(missing_docs)]

pub mod arbiter;
pub mod bus;
pub mod client;
pub mod crc;
pub mod engine;
pub mod faults;
pub mod fleet;
pub mod metrics;
pub mod obs;
pub mod tcp_client;
pub mod tcp_evented;
pub mod transport;
pub mod upstream;

// A 10k-tuner loopback fleet needs ~2 descriptors per connection, which
// outgrows default `ulimit -n`; benches raise it through this re-export.
pub use mini_mio::raise_nofile_limit;

pub use arbiter::{PullConfig, PullMode, PullStats, SlotArbiter, UserPullStats};
pub use bus::InMemoryBus;
pub use client::{ClientEpoch, DriftBook, LiveClient, LiveClientResult};
pub use crc::crc32;
pub use engine::{BroadcastEngine, EngineCheckpoint, EngineConfig, EngineReport, EngineResume};
pub use faults::{ChannelFault, FaultCounts, FaultInjector, FaultPlan};
pub use fleet::{FleetReport, RequesterConfig, TunerFleet, TunerStats};
pub use metrics::{aggregate, LiveReport};
pub use obs::register_metrics;
pub use tcp_client::{backoff_delay, ReconnectPolicy, TcpClientFeed, TcpFrameReader};
pub use tcp_evented::{EventedTcpTransport, TcpTransportConfig};
pub use transport::{
    Backpressure, DeliveryStats, Frame, FrameError, FrameStream, FrameView, PagePayloads,
    PullRequest, Transport, MAX_FRAME_LEN,
};
pub use upstream::{encode_request, UpstreamParser};
