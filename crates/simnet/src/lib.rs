//! A deterministic discrete-event network simulator.
//!
//! The paper evaluates on **OverSim** (§V, \[3\]), a C++ overlay-network
//! simulator. This crate is the Rust substitute: it provides exactly the
//! facilities the paper's experiments consume —
//!
//! * a virtual clock and an event queue with deterministic tie-breaking
//!   ([`Sim`]), so every run with the same seed produces identical
//!   message counts and timings;
//! * message delivery with a configurable latency model
//!   ([`latency::LatencyModel`]; the paper charges a constant 5 ms of T1
//!   latency per overlay hop, §V-B);
//! * per-node timers, needed for the adaptive indexing windows
//!   (`Tmax` in §IV-A.1);
//! * message/byte/hop accounting ([`metrics::Metrics`]) — "indexing cost,
//!   measured by the total volume of messages transferred over the
//!   network" (§V-A) — with an atomic aggregate ([`metrics::SharedMetrics`])
//!   for multi-threaded experiment sweeps;
//! * an optional, separately-seeded fault plane ([`fault::FaultPlane`])
//!   that can drop, duplicate and jitter-delay deliveries or crash nodes
//!   mid-protocol, with byte-identical replay of every faulty execution;
//! * an optional WAN latency plane ([`geoplane::GeoPlane`]) that charges
//!   a `geo::Topology`'s per-region-pair wire costs on every delivery
//!   and models region-cut partitions (park-and-release, never drop),
//!   equally replayable from its own seed.
//!
//! The engine is deliberately protocol-agnostic: protocols implement
//! [`World`] and own all node state; the simulator owns time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod fault;
pub mod geoplane;
pub mod latency;
pub mod metrics;
pub mod shard;
pub mod sim;
pub mod time;
pub mod trace;

pub use calendar::CalendarQueue;
pub use fault::{FaultConfig, FaultPlane, FaultStats, LinkFaults};
pub use geoplane::{GeoConfig, GeoPlane};
pub use latency::{ConstantPerHop, LatencyModel, UniformJitter};
pub use metrics::{Metrics, MsgClass, SharedMetrics};
pub use shard::{ShardConfig, ShardCtx, ShardRun, ShardWorld};
pub use sim::{NodeIndex, Sim, SimConfig, TimerId, World};
pub use time::SimTime;
pub use trace::{EventId, SpanId, TraceEvent, TraceKind, TraceSink};
