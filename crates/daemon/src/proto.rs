//! Daemon wire protocol: everything that crosses a socket between
//! `peertrackd` nodes (and between the cluster harness and a node).
//!
//! One [`Frame`] per transport frame. Three families:
//!
//! * **Protocol** — an asynchronous PeerTrack message (`GroupIndex`,
//!   `SetTo`, `SetFrom`, …), the payload encoded by the canonical
//!   [`peertrack::codec`] and wrapped in an envelope carrying the
//!   sender, the *model* hop count the simulator would have charged,
//!   and a wall-clock send timestamp for receiver-side latency
//!   histograms. Fire-and-forget: no reply.
//! * **RPCs** — node↔node request/response pairs driven by a query or
//!   routing origin: a Chord lookup step, gateway/IOP probes, IOP
//!   record fetches. Replied on the originating connection.
//! * **Control** — harness/operator→node requests: capture injection,
//!   window flush, locate/trace, status, shutdown.
//!
//! Encoding reuses `peertrack::bytebuf` (big-endian, hand-rolled —
//! hermetic policy) and mirrors the codec's conventions: options as a
//! presence byte over a fixed-width body, `u32` length-prefixed
//! vectors bounded by arithmetic before any allocation.

use chord::StepAnswer;
use ids::{Id, ID_BYTES};
use moods::{ObjectId, Path, SiteId, Visit};
use peertrack::bytebuf::{ByteBuf, Bytes};
use peertrack::codec::{self, get_object, get_opt_link, get_time};
use peertrack::codec::{put_object, put_opt_link, put_time};
use peertrack::messages::Wire;
use peertrack::query::QueryCost;
use peertrack::store::{IopRecord, Link};
use simnet::SimTime;

/// Decode failures (wraps the codec's for embedded protocol payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame shorter than its structure requires.
    Truncated,
    /// Unknown frame kind byte.
    BadKind(u8),
    /// A length prefix exceeds the sanity bound.
    TooLong(u32),
    /// Embedded `peertrack::codec` payload failed to decode.
    Codec(codec::DecodeError),
    /// A string field is not UTF-8.
    BadString,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::TooLong(n) => write!(f, "length {n} exceeds bound"),
            ProtoError::Codec(e) => write!(f, "embedded payload: {e}"),
            ProtoError::BadString => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// The shared `peertrack::codec` field decoders fail as a frame would.
impl From<codec::DecodeError> for ProtoError {
    fn from(e: codec::DecodeError) -> ProtoError {
        match e {
            codec::DecodeError::Truncated => ProtoError::Truncated,
            codec::DecodeError::TooLong(n) => ProtoError::TooLong(n),
            other => ProtoError::Codec(other),
        }
    }
}

/// Query cost triple as carried in responses: the *model* accounting
/// the origin charged, echoed so harnesses can cross-check it against
/// the simulator without touching the node's metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostWire {
    /// Model messages.
    pub messages: u64,
    /// Model overlay hops.
    pub hops: u64,
    /// Model payload bytes.
    pub bytes: u64,
}

impl From<QueryCost> for CostWire {
    fn from(c: QueryCost) -> CostWire {
        CostWire { messages: c.messages, hops: c.hops, bytes: c.bytes }
    }
}

/// Everything that crosses a daemon socket.
#[derive(Clone, Debug)]
pub enum Frame {
    // -------------------------------------------------- protocol plane
    /// Asynchronous PeerTrack message. `hops` is the model hop count
    /// charged at the sender; `sent_us` the sender's wall clock (µs
    /// since `UNIX_EPOCH`) for the receiver's latency histogram.
    Protocol {
        /// Sending site.
        sender: SiteId,
        /// Model overlay hops this delivery was charged.
        hops: u32,
        /// Sender wall clock, µs since `UNIX_EPOCH`.
        sent_us: u64,
        /// The protocol payload (codec-encoded on the wire).
        wire: Wire,
    },

    // -------------------------------------------------- membership
    /// "Let me in": sent to the bootstrap node, replied with
    /// [`Frame::JoinResp`]; the bootstrap then broadcasts
    /// [`Frame::PeerJoined`] to every existing member.
    JoinReq {
        /// Joining site.
        site: SiteId,
        /// Its listener address (`host:port`).
        addr: String,
    },
    /// Bootstrap's reply: the full membership it now knows (itself and
    /// the joiner included).
    JoinResp {
        /// `(site, listener address)` pairs.
        peers: Vec<(SiteId, String)>,
    },
    /// Bootstrap→member broadcast: a new peer arrived.
    PeerJoined {
        /// The new site.
        site: SiteId,
        /// Its listener address.
        addr: String,
    },
    /// Harness→member broadcast: `site` is **permanently dead** (the
    /// kill-forever fault model). Receivers drop it from the
    /// membership, fail over its key ranges to the heir and
    /// re-establish replica placement. Replied with Ack.
    PeerDead {
        /// The dead site.
        site: SiteId,
    },

    // -------------------------------------------------- control plane
    /// Inject a capture at virtual instant `at` (the cluster drives
    /// virtual time explicitly; DESIGN.md §11). Replied with Ack after
    /// the capture is absorbed.
    Capture {
        /// Virtual capture instant.
        at: SimTime,
        /// Captured objects.
        objects: Vec<ObjectId>,
    },
    /// Flush the open capture window as if `Tmax` fired at `now`.
    /// Replied with Ack after the indexing messages are sent.
    Flush {
        /// Virtual flush instant.
        now: SimTime,
    },
    /// `L(o, t)` with the receiving node as query origin.
    Locate {
        /// The object.
        object: ObjectId,
        /// The instant asked about.
        t: SimTime,
    },
    /// `TR(o, t0, t1)` with the receiving node as query origin.
    Trace {
        /// The object.
        object: ObjectId,
        /// Window start.
        t0: SimTime,
        /// Window end.
        t1: SimTime,
    },
    /// Liveness/progress probe.
    Status,
    /// Orderly shutdown request. Replied with Ack, then the node exits.
    Shutdown,
    /// Abrupt-death request (fault injection): replied with Ack, then
    /// the node exits **without** flushing, snapshotting or closing
    /// anything — volatile state is abandoned exactly as a `kill -9`
    /// would abandon it. Recovery must come from the data dir alone.
    Crash,
    /// Dump the node's canonical state encoding (addresses excluded, so
    /// dumps compare equal across a restart onto a new port). Replied
    /// with [`Frame::StateResp`].
    StateDump,
    /// Read the node's query-load accounting: per-site served-locate
    /// attribution from queries this node originated, plus its
    /// locate-cache counters (DESIGN.md §15). Engine-side volatile
    /// state — a restarted node reports zeros. Replied with
    /// [`Frame::QueryLoadResp`].
    QueryLoad,
    /// "What listener address do you have for `site`?" — harnesses poll
    /// this to watch a restarted peer's new address propagate. Replied
    /// with [`Frame::AddrResp`].
    Resolve {
        /// The site being resolved.
        site: SiteId,
    },
    /// WAN fault injection: sever the region pair `(a, b)` of the
    /// node's configured topology. Protocol frames whose destination
    /// lies across the severed pair are **parked** at the sender (not
    /// dropped, not counted sent) until the matching
    /// [`Frame::RegionHeal`] releases them in original order — mirroring
    /// the simulator's park-and-release `GeoPlane::sever`. Replied with
    /// Ack; a no-op on nodes without a topology.
    RegionCut {
        /// One region of the severed pair.
        a: u16,
        /// The other region (order-insensitive; `a == b` is rejected by
        /// the harness, not the wire).
        b: u16,
    },
    /// Heal the region pair `(a, b)`: parked frames for the pair are
    /// re-sent in the order they were parked (per-destination sequence
    /// order preserved, so duplicate suppression and in-order gateway
    /// updates behave as if the frames had merely been delayed).
    /// Replied with Ack.
    RegionHeal {
        /// One region of the healed pair.
        a: u16,
        /// The other region.
        b: u16,
    },

    // -------------------------------------------------- rpc plane
    /// One iterative-lookup step: "where next for `key`, from your
    /// routing state?" — the remote half of [`chord::answer_step`].
    LookupStep {
        /// The key being routed.
        key: Id,
    },
    /// Gateway probe: does your current-`Lp` shard index `object`?
    GatewayProbe {
        /// The object.
        object: ObjectId,
    },
    /// Does your IOP repository know `object` at all?
    IopKnows {
        /// The object.
        object: ObjectId,
    },
    /// Fetch the IOP record whose arrival time is exactly `time`.
    RecAt {
        /// The object.
        object: ObjectId,
        /// Exact arrival time of the wanted record.
        time: SimTime,
    },
    /// Fetch the latest IOP record with arrival ≤ `t`.
    RecLatestAtOrBefore {
        /// The object.
        object: ObjectId,
        /// Upper bound on arrival.
        t: SimTime,
    },
    /// Fetch the earliest IOP record.
    RecFirst {
        /// The object.
        object: ObjectId,
    },
    /// Fetch the latest IOP record.
    RecLatest {
        /// The object.
        object: ObjectId,
    },
    /// Replica probe: fetch, from the receiver's **replica copy** of
    /// dead `primary`'s repository, the IOP record whose arrival time
    /// is exactly `time`. Queries fall back to this when a trace walks
    /// through a permanently-lost site. Replied with [`Frame::RecResp`].
    ReplRecAt {
        /// The dead primary whose replica copy is being probed.
        primary: SiteId,
        /// The object.
        object: ObjectId,
        /// Exact arrival time of the wanted record.
        time: SimTime,
    },

    // -------------------------------------------------- responses
    /// Generic acknowledgement.
    Ack,
    /// Reply to [`Frame::Locate`].
    LocateResp {
        /// The answer (`None` = unknown object / incomplete data).
        answer: Option<SiteId>,
        /// Model cost charged at the origin.
        cost: CostWire,
        /// False when traversal hit missing data.
        complete: bool,
    },
    /// Reply to [`Frame::Trace`].
    TraceResp {
        /// The visits overlapping the window.
        path: Path,
        /// Model cost charged at the origin.
        cost: CostWire,
        /// False when traversal hit missing data.
        complete: bool,
    },
    /// Reply to [`Frame::Status`].
    StatusResp {
        /// The answering site.
        site: SiteId,
        /// Members it currently knows (itself included).
        members: u32,
        /// Protocol-plane frames sent to other nodes so far.
        sent: u64,
        /// Protocol-plane frames received and processed so far.
        received: u64,
    },
    /// Reply to [`Frame::LookupStep`].
    StepResp(StepAnswer),
    /// Reply to [`Frame::GatewayProbe`]: the latest-state link on hit.
    LinkResp(Option<Link>),
    /// Reply to [`Frame::IopKnows`].
    BoolResp(bool),
    /// Reply to the `Rec*` fetches.
    RecResp(Option<IopRecord>),
    /// Reply to [`Frame::QueryLoad`]. `loads` attributes each locate
    /// this node originated to the site that answered it (gateway or
    /// record holder; cache hits go to the origin itself) — merging
    /// every node's slice reproduces the simulator's per-site
    /// `query_load` tally.
    QueryLoadResp {
        /// `(answering site, locates attributed)` pairs, site-sorted.
        loads: Vec<(SiteId, u64)>,
        /// Locate-cache hits (0 when no cache is configured).
        hits: u64,
        /// Locate-cache misses (0 when no cache is configured).
        misses: u64,
    },
    /// Reply to [`Frame::StateDump`]: the opaque canonical encoding.
    StateResp(Vec<u8>),
    /// Reply to [`Frame::Resolve`]: the listener address on file.
    AddrResp(Option<String>),
}

const K_PROTOCOL: u8 = 1;
const K_JOIN_REQ: u8 = 2;
const K_JOIN_RESP: u8 = 3;
const K_PEER_JOINED: u8 = 4;
const K_CAPTURE: u8 = 5;
const K_FLUSH: u8 = 6;
const K_LOCATE: u8 = 7;
const K_TRACE: u8 = 8;
const K_STATUS: u8 = 9;
const K_SHUTDOWN: u8 = 10;
const K_LOOKUP_STEP: u8 = 11;
const K_GATEWAY_PROBE: u8 = 12;
const K_IOP_KNOWS: u8 = 13;
const K_REC_AT: u8 = 14;
const K_REC_LAOB: u8 = 15;
const K_REC_FIRST: u8 = 16;
const K_REC_LATEST: u8 = 17;
const K_CRASH: u8 = 18;
const K_STATE_DUMP: u8 = 19;
const K_RESOLVE: u8 = 20;
const K_PEER_DEAD: u8 = 21;
const K_REPL_REC_AT: u8 = 22;
const K_QUERY_LOAD: u8 = 23;
const K_REGION_CUT: u8 = 24;
const K_REGION_HEAL: u8 = 25;
const K_ACK: u8 = 32;
const K_LOCATE_RESP: u8 = 33;
const K_TRACE_RESP: u8 = 34;
const K_STATUS_RESP: u8 = 35;
const K_STEP_RESP: u8 = 36;
const K_LINK_RESP: u8 = 37;
const K_BOOL_RESP: u8 = 38;
const K_REC_RESP: u8 = 39;
const K_STATE_RESP: u8 = 40;
const K_ADDR_RESP: u8 = 41;
const K_QUERY_LOAD_RESP: u8 = 42;

fn put_id(buf: &mut ByteBuf, id: &Id) {
    buf.put_slice(&id.0);
}

pub(crate) fn put_str(buf: &mut ByteBuf, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_cost(buf: &mut ByteBuf, c: &CostWire) {
    buf.put_u64(c.messages);
    buf.put_u64(c.hops);
    buf.put_u64(c.bytes);
}

impl Frame {
    /// Serialize to a transport payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(64);
        match self {
            Frame::Protocol { sender, hops, sent_us, wire } => {
                buf.put_u8(K_PROTOCOL);
                buf.put_u32(sender.0);
                buf.put_u32(*hops);
                buf.put_u64(*sent_us);
                let payload = codec::encode(&wire.msg, wire.seq);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload.as_slice());
            }
            Frame::JoinReq { site, addr } => {
                buf.put_u8(K_JOIN_REQ);
                buf.put_u32(site.0);
                put_str(&mut buf, addr);
            }
            Frame::JoinResp { peers } => {
                buf.put_u8(K_JOIN_RESP);
                buf.put_u32(peers.len() as u32);
                for (site, addr) in peers {
                    buf.put_u32(site.0);
                    put_str(&mut buf, addr);
                }
            }
            Frame::PeerJoined { site, addr } => {
                buf.put_u8(K_PEER_JOINED);
                buf.put_u32(site.0);
                put_str(&mut buf, addr);
            }
            Frame::PeerDead { site } => {
                buf.put_u8(K_PEER_DEAD);
                buf.put_u32(site.0);
            }
            Frame::Capture { at, objects } => {
                buf.put_u8(K_CAPTURE);
                put_time(&mut buf, *at);
                buf.put_u32(objects.len() as u32);
                for o in objects {
                    put_object(&mut buf, o);
                }
            }
            Frame::Flush { now } => {
                buf.put_u8(K_FLUSH);
                put_time(&mut buf, *now);
            }
            Frame::Locate { object, t } => {
                buf.put_u8(K_LOCATE);
                put_object(&mut buf, object);
                put_time(&mut buf, *t);
            }
            Frame::Trace { object, t0, t1 } => {
                buf.put_u8(K_TRACE);
                put_object(&mut buf, object);
                put_time(&mut buf, *t0);
                put_time(&mut buf, *t1);
            }
            Frame::Status => buf.put_u8(K_STATUS),
            Frame::QueryLoad => buf.put_u8(K_QUERY_LOAD),
            Frame::Shutdown => buf.put_u8(K_SHUTDOWN),
            Frame::Crash => buf.put_u8(K_CRASH),
            Frame::StateDump => buf.put_u8(K_STATE_DUMP),
            Frame::Resolve { site } => {
                buf.put_u8(K_RESOLVE);
                buf.put_u32(site.0);
            }
            Frame::RegionCut { a, b } => {
                buf.put_u8(K_REGION_CUT);
                buf.put_u32(*a as u32);
                buf.put_u32(*b as u32);
            }
            Frame::RegionHeal { a, b } => {
                buf.put_u8(K_REGION_HEAL);
                buf.put_u32(*a as u32);
                buf.put_u32(*b as u32);
            }
            Frame::LookupStep { key } => {
                buf.put_u8(K_LOOKUP_STEP);
                put_id(&mut buf, key);
            }
            Frame::GatewayProbe { object } => {
                buf.put_u8(K_GATEWAY_PROBE);
                put_object(&mut buf, object);
            }
            Frame::IopKnows { object } => {
                buf.put_u8(K_IOP_KNOWS);
                put_object(&mut buf, object);
            }
            Frame::RecAt { object, time } => {
                buf.put_u8(K_REC_AT);
                put_object(&mut buf, object);
                put_time(&mut buf, *time);
            }
            Frame::RecLatestAtOrBefore { object, t } => {
                buf.put_u8(K_REC_LAOB);
                put_object(&mut buf, object);
                put_time(&mut buf, *t);
            }
            Frame::RecFirst { object } => {
                buf.put_u8(K_REC_FIRST);
                put_object(&mut buf, object);
            }
            Frame::RecLatest { object } => {
                buf.put_u8(K_REC_LATEST);
                put_object(&mut buf, object);
            }
            Frame::ReplRecAt { primary, object, time } => {
                buf.put_u8(K_REPL_REC_AT);
                buf.put_u32(primary.0);
                put_object(&mut buf, object);
                put_time(&mut buf, *time);
            }
            Frame::Ack => buf.put_u8(K_ACK),
            Frame::LocateResp { answer, cost, complete } => {
                buf.put_u8(K_LOCATE_RESP);
                match answer {
                    Some(s) => {
                        buf.put_u8(1);
                        buf.put_u32(s.0);
                    }
                    None => buf.put_bytes(0, 5),
                }
                put_cost(&mut buf, cost);
                buf.put_u8(u8::from(*complete));
            }
            Frame::TraceResp { path, cost, complete } => {
                buf.put_u8(K_TRACE_RESP);
                buf.put_u32(path.len() as u32);
                for v in path {
                    buf.put_u32(v.site.0);
                    put_time(&mut buf, v.arrived);
                    match v.departed {
                        Some(d) => {
                            buf.put_u8(1);
                            put_time(&mut buf, d);
                        }
                        None => buf.put_bytes(0, 9),
                    }
                }
                put_cost(&mut buf, cost);
                buf.put_u8(u8::from(*complete));
            }
            Frame::StatusResp { site, members, sent, received } => {
                buf.put_u8(K_STATUS_RESP);
                buf.put_u32(site.0);
                buf.put_u32(*members);
                buf.put_u64(*sent);
                buf.put_u64(*received);
            }
            Frame::QueryLoadResp { loads, hits, misses } => {
                buf.put_u8(K_QUERY_LOAD_RESP);
                buf.put_u32(loads.len() as u32);
                for (site, count) in loads {
                    buf.put_u32(site.0);
                    buf.put_u64(*count);
                }
                buf.put_u64(*hits);
                buf.put_u64(*misses);
            }
            Frame::StepResp(answer) => {
                buf.put_u8(K_STEP_RESP);
                match answer {
                    StepAnswer::Owner(id) => {
                        buf.put_u8(1);
                        put_id(&mut buf, id);
                    }
                    StepAnswer::Forward(id) => {
                        buf.put_u8(0);
                        put_id(&mut buf, id);
                    }
                }
            }
            Frame::LinkResp(link) => {
                buf.put_u8(K_LINK_RESP);
                put_opt_link(&mut buf, link);
            }
            Frame::BoolResp(v) => {
                buf.put_u8(K_BOOL_RESP);
                buf.put_u8(u8::from(*v));
            }
            Frame::RecResp(rec) => {
                buf.put_u8(K_REC_RESP);
                match rec {
                    Some(r) => {
                        buf.put_u8(1);
                        put_time(&mut buf, r.arrived);
                        put_opt_link(&mut buf, &r.from);
                        put_opt_link(&mut buf, &r.to);
                    }
                    None => buf.put_u8(0),
                }
            }
            Frame::StateResp(state) => {
                buf.put_u8(K_STATE_RESP);
                buf.put_u32(state.len() as u32);
                buf.put_slice(state);
            }
            Frame::AddrResp(addr) => {
                buf.put_u8(K_ADDR_RESP);
                match addr {
                    Some(a) => {
                        buf.put_u8(1);
                        put_str(&mut buf, a);
                    }
                    None => buf.put_u8(0),
                }
            }
        }
        buf.freeze().as_slice().to_vec()
    }

    /// Deserialize from a transport payload.
    pub fn decode(raw: &[u8]) -> Result<Frame, ProtoError> {
        let mut buf = Bytes::from(raw.to_vec());
        let kind = get_u8(&mut buf)?;
        let frame = match kind {
            K_PROTOCOL => {
                let sender = SiteId(get_u32(&mut buf)?);
                let hops = get_u32(&mut buf)?;
                let sent_us = get_u64(&mut buf)?;
                let n = get_len(&mut buf, 1)?;
                let payload = buf.slice(..n);
                let (msg, seq) = codec::decode(payload).map_err(ProtoError::Codec)?;
                Frame::Protocol { sender, hops, sent_us, wire: Wire { seq, msg } }
            }
            K_JOIN_REQ => {
                let site = SiteId(get_u32(&mut buf)?);
                let addr = get_str(&mut buf)?;
                Frame::JoinReq { site, addr }
            }
            K_JOIN_RESP => {
                let n = get_len(&mut buf, 8)?;
                let mut peers = Vec::with_capacity(n);
                for _ in 0..n {
                    let site = SiteId(get_u32(&mut buf)?);
                    let addr = get_str(&mut buf)?;
                    peers.push((site, addr));
                }
                Frame::JoinResp { peers }
            }
            K_PEER_JOINED => {
                let site = SiteId(get_u32(&mut buf)?);
                let addr = get_str(&mut buf)?;
                Frame::PeerJoined { site, addr }
            }
            K_PEER_DEAD => Frame::PeerDead { site: SiteId(get_u32(&mut buf)?) },
            K_CAPTURE => {
                let at = get_time(&mut buf)?;
                let n = get_len(&mut buf, ID_BYTES)?;
                let mut objects = Vec::with_capacity(n);
                for _ in 0..n {
                    objects.push(get_object(&mut buf)?);
                }
                Frame::Capture { at, objects }
            }
            K_FLUSH => Frame::Flush { now: get_time(&mut buf)? },
            K_LOCATE => {
                Frame::Locate { object: get_object(&mut buf)?, t: get_time(&mut buf)? }
            }
            K_TRACE => Frame::Trace {
                object: get_object(&mut buf)?,
                t0: get_time(&mut buf)?,
                t1: get_time(&mut buf)?,
            },
            K_STATUS => Frame::Status,
            K_QUERY_LOAD => Frame::QueryLoad,
            K_SHUTDOWN => Frame::Shutdown,
            K_CRASH => Frame::Crash,
            K_STATE_DUMP => Frame::StateDump,
            K_RESOLVE => Frame::Resolve { site: SiteId(get_u32(&mut buf)?) },
            K_REGION_CUT => Frame::RegionCut {
                a: get_u32(&mut buf)? as u16,
                b: get_u32(&mut buf)? as u16,
            },
            K_REGION_HEAL => Frame::RegionHeal {
                a: get_u32(&mut buf)? as u16,
                b: get_u32(&mut buf)? as u16,
            },
            K_LOOKUP_STEP => Frame::LookupStep { key: get_id(&mut buf)? },
            K_GATEWAY_PROBE => Frame::GatewayProbe { object: get_object(&mut buf)? },
            K_IOP_KNOWS => Frame::IopKnows { object: get_object(&mut buf)? },
            K_REC_AT => {
                Frame::RecAt { object: get_object(&mut buf)?, time: get_time(&mut buf)? }
            }
            K_REC_LAOB => Frame::RecLatestAtOrBefore {
                object: get_object(&mut buf)?,
                t: get_time(&mut buf)?,
            },
            K_REC_FIRST => Frame::RecFirst { object: get_object(&mut buf)? },
            K_REC_LATEST => Frame::RecLatest { object: get_object(&mut buf)? },
            K_REPL_REC_AT => Frame::ReplRecAt {
                primary: SiteId(get_u32(&mut buf)?),
                object: get_object(&mut buf)?,
                time: get_time(&mut buf)?,
            },
            K_ACK => Frame::Ack,
            K_LOCATE_RESP => {
                let present = get_u8(&mut buf)? == 1;
                let site = SiteId(get_u32(&mut buf)?);
                let cost = get_cost(&mut buf)?;
                let complete = get_u8(&mut buf)? == 1;
                Frame::LocateResp { answer: present.then_some(site), cost, complete }
            }
            K_TRACE_RESP => {
                let n = get_len(&mut buf, 21)?;
                let mut path = Vec::with_capacity(n);
                for _ in 0..n {
                    let site = SiteId(get_u32(&mut buf)?);
                    let arrived = get_time(&mut buf)?;
                    let present = get_u8(&mut buf)? == 1;
                    let departed_raw = get_time(&mut buf)?;
                    path.push(Visit { site, arrived, departed: present.then_some(departed_raw) });
                }
                let cost = get_cost(&mut buf)?;
                let complete = get_u8(&mut buf)? == 1;
                Frame::TraceResp { path, cost, complete }
            }
            K_STATUS_RESP => Frame::StatusResp {
                site: SiteId(get_u32(&mut buf)?),
                members: get_u32(&mut buf)?,
                sent: get_u64(&mut buf)?,
                received: get_u64(&mut buf)?,
            },
            K_QUERY_LOAD_RESP => {
                let n = get_len(&mut buf, 12)?;
                let mut loads = Vec::with_capacity(n);
                for _ in 0..n {
                    let site = SiteId(get_u32(&mut buf)?);
                    let count = get_u64(&mut buf)?;
                    loads.push((site, count));
                }
                let hits = get_u64(&mut buf)?;
                let misses = get_u64(&mut buf)?;
                Frame::QueryLoadResp { loads, hits, misses }
            }
            K_STEP_RESP => {
                let owner = get_u8(&mut buf)? == 1;
                let id = get_id(&mut buf)?;
                Frame::StepResp(if owner { StepAnswer::Owner(id) } else { StepAnswer::Forward(id) })
            }
            K_LINK_RESP => Frame::LinkResp(get_opt_link(&mut buf)?),
            K_BOOL_RESP => Frame::BoolResp(get_u8(&mut buf)? == 1),
            K_REC_RESP => {
                if get_u8(&mut buf)? == 1 {
                    Frame::RecResp(Some(IopRecord {
                        arrived: get_time(&mut buf)?,
                        from: get_opt_link(&mut buf)?,
                        to: get_opt_link(&mut buf)?,
                    }))
                } else {
                    Frame::RecResp(None)
                }
            }
            K_STATE_RESP => {
                // State dumps may exceed the vector bound of `get_len`
                // (`codec::MAX_VECTOR_LEN` elements); bound by the
                // frame itself (1 byte per element).
                let n = get_u32(&mut buf)? as usize;
                if n > buf.remaining() {
                    return Err(ProtoError::Truncated);
                }
                let state = buf.slice(..n);
                Frame::StateResp(state.as_slice().to_vec())
            }
            K_ADDR_RESP => {
                let addr =
                    if get_u8(&mut buf)? == 1 { Some(get_str(&mut buf)?) } else { None };
                Frame::AddrResp(addr)
            }
            other => return Err(ProtoError::BadKind(other)),
        };
        Ok(frame)
    }
}

fn need(buf: &Bytes, n: usize) -> Result<(), ProtoError> {
    if buf.remaining() < n {
        Err(ProtoError::Truncated)
    } else {
        Ok(())
    }
}

pub(crate) fn get_u8(buf: &mut Bytes) -> Result<u8, ProtoError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

pub(crate) fn get_u32(buf: &mut Bytes) -> Result<u32, ProtoError> {
    need(buf, 4)?;
    Ok(buf.get_u32())
}

pub(crate) fn get_u64(buf: &mut Bytes) -> Result<u64, ProtoError> {
    need(buf, 8)?;
    Ok(buf.get_u64())
}

fn get_id(buf: &mut Bytes) -> Result<Id, ProtoError> {
    need(buf, ID_BYTES)?;
    let mut raw = [0u8; ID_BYTES];
    buf.copy_to_slice(&mut raw);
    Ok(Id(raw))
}

/// Bounded length prefix, hardened as `peertrack::codec`'s: at most
/// [`codec::MAX_VECTOR_LEN`] elements, and a hostile prefix is rejected
/// by arithmetic (`n · elem_bytes > remaining`) before it can size an
/// allocation.
pub(crate) fn get_len(buf: &mut Bytes, elem_bytes: usize) -> Result<usize, ProtoError> {
    Ok(codec::get_len(buf, elem_bytes)?)
}

pub(crate) fn get_str(buf: &mut Bytes) -> Result<String, ProtoError> {
    let n = get_len(buf, 1)?;
    let mut raw = vec![0u8; n];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| ProtoError::BadString)
}

fn get_cost(buf: &mut Bytes) -> Result<CostWire, ProtoError> {
    Ok(CostWire { messages: get_u64(buf)?, hops: get_u64(buf)?, bytes: get_u64(buf)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::Prefix;
    use peertrack::messages::Msg;

    fn obj(n: u64) -> ObjectId {
        ObjectId(Id::hash(&n.to_be_bytes()))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Protocol {
                sender: SiteId(3),
                hops: 2,
                sent_us: 1_234_567,
                wire: Wire {
                    seq: 42,
                    msg: Msg::GroupIndex {
                        prefix: Prefix::from_bit_str("010"),
                        site: SiteId(3),
                        members: vec![(obj(1), t(5)), (obj(2), t(6))],
                    },
                },
            },
            Frame::JoinReq { site: SiteId(4), addr: "127.0.0.1:9999".into() },
            Frame::JoinResp {
                peers: vec![(SiteId(0), "127.0.0.1:1".into()), (SiteId(4), "127.0.0.1:2".into())],
            },
            Frame::PeerJoined { site: SiteId(2), addr: "[::1]:80".into() },
            Frame::PeerDead { site: SiteId(6) },
            Frame::Capture { at: t(99), objects: vec![obj(7), obj(8)] },
            Frame::Flush { now: t(100) },
            Frame::Locate { object: obj(9), t: t(55) },
            Frame::Trace { object: obj(9), t0: t(1), t1: t(1000) },
            Frame::Status,
            Frame::QueryLoad,
            Frame::Shutdown,
            Frame::Crash,
            Frame::StateDump,
            Frame::Resolve { site: SiteId(3) },
            Frame::RegionCut { a: 0, b: 2 },
            Frame::RegionHeal { a: 0, b: 2 },
            Frame::LookupStep { key: Id::hash_str("k") },
            Frame::GatewayProbe { object: obj(1) },
            Frame::IopKnows { object: obj(1) },
            Frame::RecAt { object: obj(1), time: t(3) },
            Frame::RecLatestAtOrBefore { object: obj(1), t: t(3) },
            Frame::RecFirst { object: obj(1) },
            Frame::RecLatest { object: obj(1) },
            Frame::ReplRecAt { primary: SiteId(6), object: obj(1), time: t(3) },
            Frame::Ack,
            Frame::LocateResp {
                answer: Some(SiteId(2)),
                cost: CostWire { messages: 3, hops: 5, bytes: 144 },
                complete: true,
            },
            Frame::LocateResp { answer: None, cost: CostWire::default(), complete: false },
            Frame::TraceResp {
                path: vec![
                    Visit { site: SiteId(1), arrived: t(10), departed: Some(t(20)) },
                    Visit { site: SiteId(2), arrived: t(20), departed: None },
                ],
                cost: CostWire { messages: 2, hops: 2, bytes: 96 },
                complete: true,
            },
            Frame::StatusResp { site: SiteId(1), members: 5, sent: 10, received: 9 },
            Frame::QueryLoadResp {
                loads: vec![(SiteId(0), 3), (SiteId(2), 17)],
                hits: 11,
                misses: 9,
            },
            Frame::QueryLoadResp { loads: Vec::new(), hits: 0, misses: 0 },
            Frame::StepResp(StepAnswer::Owner(Id::from_u64(7))),
            Frame::StepResp(StepAnswer::Forward(Id::from_u64(8))),
            Frame::LinkResp(Some(Link { site: SiteId(1), time: t(2) })),
            Frame::LinkResp(None),
            Frame::BoolResp(true),
            Frame::RecResp(Some(IopRecord {
                arrived: t(1),
                from: None,
                to: Some(Link { site: SiteId(2), time: t(9) }),
            })),
            Frame::RecResp(None),
            Frame::StateResp(vec![0xAB, 0xCD, 0xEF, 0x00, 0x01]),
            Frame::StateResp(Vec::new()),
            Frame::AddrResp(Some("127.0.0.1:7401".into())),
            Frame::AddrResp(None),
        ]
    }

    #[test]
    fn all_frames_roundtrip() {
        for (i, f) in samples().iter().enumerate() {
            let back = Frame::decode(&f.encode()).unwrap_or_else(|e| panic!("frame {i}: {e}"));
            // `Msg` doesn't derive PartialEq; compare via re-encoding,
            // which is injective for this format.
            assert_eq!(back.encode(), f.encode(), "frame {i} drifted");
        }
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        // A Capture frame claiming ~4Gi objects must fail by arithmetic.
        let mut buf = ByteBuf::new();
        buf.put_u8(K_CAPTURE);
        buf.put_u64(0);
        buf.put_u32(u32::MAX);
        assert_eq!(
            Frame::decode(buf.freeze().as_slice()).unwrap_err(),
            ProtoError::TooLong(u32::MAX)
        );
    }

    #[test]
    fn truncations_never_panic() {
        for f in samples() {
            let full = f.encode();
            for cut in 0..full.len() {
                let _ = Frame::decode(&full[..cut]);
            }
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(Frame::decode(&[200]).unwrap_err(), ProtoError::BadKind(200));
        assert_eq!(Frame::decode(&[]).unwrap_err(), ProtoError::Truncated);
    }
}
