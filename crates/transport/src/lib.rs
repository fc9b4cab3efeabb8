//! Real-socket transport for the PeerTrack daemon.
//!
//! The simulator moves messages as Rust values through an event queue;
//! this crate is the first layer where they cross a process boundary
//! for real. It is deliberately tiny and std-only (hermetic policy —
//! no tokio, no mio): nonblocking accepted connections polled by one
//! event-loop thread, cached outbound `TcpStream`s, and a 4-byte
//! big-endian length prefix around each [`peertrack::codec`]-encoded
//! payload.
//!
//! Three pieces:
//!
//! * [`frame`] — `write_frame`/`read_frame` with a [`frame::MAX_FRAME_BYTES`]
//!   guard mirroring the codec's own `MAX_VECTOR_LEN` hardening: a
//!   hostile length prefix is rejected by arithmetic before any
//!   allocation is sized from it.
//! * [`conn`] — [`conn::ConnCache`], a per-peer cache of outbound
//!   connections with reconnect + exponential backoff
//!   ([`conn::Backoff`], the same `timeout · factor^(attempt−1)` shape
//!   as `peertrack::RetryConfig`), plus blocking request/response.
//! * [`nio`] — nonblocking building blocks ([`nio::NbListener`],
//!   [`nio::NbConn`], [`nio::FrameAccum`]) for the daemon's
//!   readiness-driven event loop: many frames in flight per
//!   connection, explicit write buffering for backpressure.

pub mod conn;
pub mod frame;
pub mod nio;

pub use conn::{Backoff, ConnCache};
pub use frame::{read_frame, write_frame, MAX_FRAME_BYTES};
pub use nio::{FrameAccum, NbConn, NbListener};
