//! Durable state vocabulary: what the WAL stores and how a whole
//! [`Core`] is serialized.
//!
//! **Log events, not state diffs.** A [`WalRecord`] is an *inbound
//! event* — a membership change, an injected capture, a window flush, a
//! received protocol message, a query's model cost. Recovery replays
//! these through the exact handler code that ran live
//! ([`Core::apply_record`]), so the WAL never has to describe the
//! node's data structures and can never disagree with the handlers
//! about what an event means.
//!
//! **Canonical state encoding.** [`Core::state_bytes`] serializes the
//! full replicated state deterministically: maps are emitted in sorted
//! key order, sets sorted, and per-object IOP/gateway structure reuses
//! the canonical encoders in [`peertrack::codec`]. Two cores that went
//! through the same transitions produce the same bytes, which is the
//! equality `tests/tests/crash_recovery.rs` asserts across a
//! kill-and-restart. The `with_addrs` flag chooses between the two
//! uses: snapshots keep listener addresses (`true` — a restart must
//! recover the membership's dial targets), while comparison digests
//! drop them (`false` — a restarted node binds a fresh ephemeral port,
//! and that difference is *expected*).
//!
//! Excluded on purpose: the Chord ring and `Lp` (derived from the
//! membership via `rebuild_ring`), the wall-clock latency recorder
//! (observability, not protocol state), and the `unsupported`
//! diagnostic counter (bumped by un-logged read-side probes from
//! remote queries, so it is not replicated state and cannot survive
//! replay).

use crate::node::Core;
use crate::proto::{self, ProtoError};
use chord::Ring;
use ids::Prefix;
use moods::SiteId;
use peertrack::bytebuf::{ByteBuf, Bytes};
use peertrack::codec;
use peertrack::config::GroupConfig;
use peertrack::messages::Wire;
use peertrack::site::{Anomalies, Site};
use simnet::metrics::{Metrics, ALL_CLASSES};
use simnet::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io;
use std::net::SocketAddr;

/// One durable event. Appended to the WAL *before* the in-memory state
/// is mutated and before the triggering request is acknowledged;
/// replayed in LSN order on recovery.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// A site's listener address became known (join, broadcast, or the
    /// node's own rebind after a restart).
    Member {
        /// The site.
        site: SiteId,
        /// Its listener address, as received on the wire.
        addr: String,
    },
    /// An injected capture batch ([`crate::proto::Frame::Capture`]).
    Capture {
        /// Virtual capture instant.
        at: SimTime,
        /// Captured objects.
        objects: Vec<moods::ObjectId>,
    },
    /// An explicit window flush ([`crate::proto::Frame::Flush`]).
    Flush {
        /// Virtual flush instant.
        now: SimTime,
    },
    /// A received protocol-plane message.
    Protocol {
        /// Sending site.
        sender: SiteId,
        /// The sequenced payload.
        wire: Wire,
    },
    /// Model cost of one locate/trace answered at this node (queries
    /// mutate the metrics, and metrics are recovered state).
    Query {
        /// Model messages charged.
        messages: u64,
        /// Model overlay hops charged.
        hops: u64,
        /// Model payload bytes charged.
        bytes: u64,
    },
    /// A site was declared **permanently dead** (kill-forever). The
    /// receiver drops it from the membership; with replication on, the
    /// heir merges its replica copy of the dead site's gateway shards
    /// and placement is re-established on the shrunken ring.
    Dead {
        /// The dead site.
        site: SiteId,
    },
}

const R_MEMBER: u8 = 1;
const R_CAPTURE: u8 = 2;
const R_FLUSH: u8 = 3;
const R_PROTOCOL: u8 = 4;
const R_QUERY: u8 = 5;
const R_DEAD: u8 = 6;

impl WalRecord {
    /// Serialize to a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(32);
        match self {
            WalRecord::Member { site, addr } => {
                buf.put_u8(R_MEMBER);
                buf.put_u32(site.0);
                proto::put_str(&mut buf, addr);
            }
            WalRecord::Capture { at, objects } => {
                buf.put_u8(R_CAPTURE);
                codec::put_time(&mut buf, *at);
                buf.put_u32(objects.len() as u32);
                for o in objects {
                    codec::put_object(&mut buf, o);
                }
            }
            WalRecord::Flush { now } => {
                buf.put_u8(R_FLUSH);
                codec::put_time(&mut buf, *now);
            }
            WalRecord::Protocol { sender, wire } => {
                buf.put_u8(R_PROTOCOL);
                buf.put_u32(sender.0);
                let payload = codec::encode(&wire.msg, wire.seq);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload.as_slice());
            }
            WalRecord::Query { messages, hops, bytes } => {
                buf.put_u8(R_QUERY);
                buf.put_u64(*messages);
                buf.put_u64(*hops);
                buf.put_u64(*bytes);
            }
            WalRecord::Dead { site } => {
                buf.put_u8(R_DEAD);
                buf.put_u32(site.0);
            }
        }
        buf.freeze().as_slice().to_vec()
    }

    /// Deserialize a WAL payload.
    pub fn decode(raw: &[u8]) -> Result<WalRecord, ProtoError> {
        let mut buf = Bytes::from(raw.to_vec());
        let rec = match proto::get_u8(&mut buf)? {
            R_MEMBER => WalRecord::Member {
                site: SiteId(proto::get_u32(&mut buf)?),
                addr: proto::get_str(&mut buf)?,
            },
            R_CAPTURE => {
                let at = codec::get_time(&mut buf)?;
                let n = proto::get_len(&mut buf, ids::ID_BYTES)?;
                let mut objects = Vec::with_capacity(n);
                for _ in 0..n {
                    objects.push(codec::get_object(&mut buf)?);
                }
                WalRecord::Capture { at, objects }
            }
            R_FLUSH => WalRecord::Flush { now: codec::get_time(&mut buf)? },
            R_PROTOCOL => {
                let sender = SiteId(proto::get_u32(&mut buf)?);
                let n = proto::get_len(&mut buf, 1)?;
                let payload = buf.slice(..n);
                let (msg, seq) = codec::decode(payload).map_err(ProtoError::Codec)?;
                WalRecord::Protocol { sender, wire: Wire { seq, msg } }
            }
            R_QUERY => WalRecord::Query {
                messages: proto::get_u64(&mut buf)?,
                hops: proto::get_u64(&mut buf)?,
                bytes: proto::get_u64(&mut buf)?,
            },
            R_DEAD => WalRecord::Dead { site: SiteId(proto::get_u32(&mut buf)?) },
            other => return Err(ProtoError::BadKind(other)),
        };
        Ok(rec)
    }
}

const STATE_VERSION: u8 = 2;

impl Core {
    /// The canonical deterministic encoding of the full replicated
    /// state. `with_addrs` keeps the members' listener addresses
    /// (snapshots); without them the bytes are restart-stable digests.
    pub fn state_bytes(&self, with_addrs: bool) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(512);
        buf.put_u8(STATE_VERSION);
        buf.put_u8(u8::from(with_addrs));
        buf.put_u32(self.site.0);
        buf.put_u64(self.seed);
        buf.put_u32(self.members.len() as u32);
        for (s, a) in &self.members {
            buf.put_u32(s.0);
            if with_addrs {
                proto::put_str(&mut buf, &a.to_string());
            }
        }
        codec::put_state_window(&mut buf, &self.window);
        codec::put_state_iop(&mut buf, &self.proto.iop);
        codec::put_state_gateway(&mut buf, &self.proto.gateway);
        let mut hosted: Vec<&Prefix> = self.hosted.iter().collect();
        hosted.sort();
        buf.put_u32(hosted.len() as u32);
        for p in hosted {
            buf.put_slice(&p.wire_bytes());
        }
        for class in ALL_CLASSES {
            buf.put_u64(self.metrics.messages_of(class));
            buf.put_u64(self.metrics.bytes_of(class));
            buf.put_u64(self.metrics.hops_of(class));
        }
        buf.put_u64(self.next_seq);
        let mut seen: Vec<(u32, u64)> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        buf.put_u32(seen.len() as u32);
        for (sender, seq) in seen {
            buf.put_u32(sender);
            buf.put_u64(seq);
        }
        buf.put_u64(self.sent);
        buf.put_u64(self.received);
        let a = &self.anomalies;
        for v in [
            a.out_of_order_arrivals,
            a.dangling_iop_updates,
            a.dropped_to_dead,
            a.retries_exhausted,
            a.duplicates_suppressed,
            a.refresh_failures,
        ] {
            buf.put_u64(v);
        }
        // v2: the permanently-dead set and this node's replica copies,
        // sorted by primary (BTree iteration order is already sorted).
        buf.put_u32(self.dead.len() as u32);
        for s in &self.dead {
            buf.put_u32(s.0);
        }
        buf.put_u32(self.proto.replica_iop.len() as u32);
        for (primary, store) in &self.proto.replica_iop {
            buf.put_u32(primary.0);
            codec::put_state_iop(&mut buf, store);
        }
        buf.put_u32(self.proto.replica_gateway.len() as u32);
        for (primary, store) in &self.proto.replica_gateway {
            buf.put_u32(primary.0);
            codec::put_state_gateway(&mut buf, store);
        }
        buf.freeze().as_slice().to_vec()
    }

    /// The snapshot body: the full state, addresses included.
    pub fn snapshot_body(&self) -> Vec<u8> {
        self.state_bytes(true)
    }

    /// Rebuild a core from a snapshot body. The caller supplies the
    /// static identity (site, seed, group config) and the snapshot must
    /// agree with it; any structural problem is a loud `InvalidData`.
    pub fn from_snapshot(
        site: SiteId,
        seed: u64,
        group: GroupConfig,
        body: &[u8],
    ) -> io::Result<Core> {
        decode_state(site, seed, group, body).map_err(|what| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot body rejected ({what}); refusing to load state"),
            )
        })
    }
}

fn decode_state(
    site: SiteId,
    seed: u64,
    group: GroupConfig,
    body: &[u8],
) -> Result<Core, String> {
    let err = |e: ProtoError| e.to_string();
    let mut buf = Bytes::from(body.to_vec());
    let version = proto::get_u8(&mut buf).map_err(err)?;
    if version != STATE_VERSION {
        return Err(format!("unknown state version {version}"));
    }
    if proto::get_u8(&mut buf).map_err(err)? != 1 {
        return Err("snapshot lacks member addresses".into());
    }
    let got_site = proto::get_u32(&mut buf).map_err(err)?;
    if got_site != site.0 {
        return Err(format!("snapshot is for site {got_site}, this node is {}", site.0));
    }
    let got_seed = proto::get_u64(&mut buf).map_err(err)?;
    if got_seed != seed {
        return Err(format!("snapshot seed {got_seed} does not match configured {seed}"));
    }
    let n = proto::get_len(&mut buf, 4).map_err(err)?;
    let mut members = BTreeMap::new();
    for _ in 0..n {
        let s = SiteId(proto::get_u32(&mut buf).map_err(err)?);
        let a: SocketAddr = proto::get_str(&mut buf)
            .map_err(err)?
            .parse()
            .map_err(|e| format!("member address: {e}"))?;
        members.insert(s, a);
    }
    if !members.contains_key(&site) {
        return Err("snapshot membership is missing this site".into());
    }
    let window =
        codec::get_state_window(&mut buf, site, group.n_max).map_err(|e| e.to_string())?;
    let iop = codec::get_state_iop(&mut buf).map_err(|e| e.to_string())?;
    let gateway = codec::get_state_gateway(&mut buf).map_err(|e| e.to_string())?;
    let hn = proto::get_len(&mut buf, 9).map_err(err)?;
    let mut hosted = HashSet::with_capacity(hn);
    for _ in 0..hn {
        let mut raw = [0u8; 9];
        buf.copy_to_slice(&mut raw);
        hosted.insert(Prefix::from_wire_bytes(&raw).map_err(|e| format!("hosted prefix: {e}"))?);
    }
    let mut metrics = Metrics::new();
    for class in ALL_CLASSES {
        let messages = proto::get_u64(&mut buf).map_err(err)?;
        let bytes = proto::get_u64(&mut buf).map_err(err)?;
        let hops = proto::get_u64(&mut buf).map_err(err)?;
        metrics.record_bulk(class, messages, bytes, hops);
    }
    let next_seq = proto::get_u64(&mut buf).map_err(err)?;
    let sn = proto::get_len(&mut buf, 12).map_err(err)?;
    let mut seen = HashSet::with_capacity(sn);
    for _ in 0..sn {
        let sender = proto::get_u32(&mut buf).map_err(err)?;
        let seq = proto::get_u64(&mut buf).map_err(err)?;
        seen.insert((sender, seq));
    }
    let sent = proto::get_u64(&mut buf).map_err(err)?;
    let received = proto::get_u64(&mut buf).map_err(err)?;
    let anomalies = Anomalies {
        out_of_order_arrivals: proto::get_u64(&mut buf).map_err(err)?,
        dangling_iop_updates: proto::get_u64(&mut buf).map_err(err)?,
        dropped_to_dead: proto::get_u64(&mut buf).map_err(err)?,
        retries_exhausted: proto::get_u64(&mut buf).map_err(err)?,
        duplicates_suppressed: proto::get_u64(&mut buf).map_err(err)?,
        refresh_failures: proto::get_u64(&mut buf).map_err(err)?,
    };
    let dn = proto::get_len(&mut buf, 4).map_err(err)?;
    let mut dead = BTreeSet::new();
    for _ in 0..dn {
        dead.insert(SiteId(proto::get_u32(&mut buf).map_err(err)?));
    }
    let rin = proto::get_len(&mut buf, 4).map_err(err)?;
    let mut replica_iop = BTreeMap::new();
    for _ in 0..rin {
        let primary = SiteId(proto::get_u32(&mut buf).map_err(err)?);
        let store = codec::get_state_iop(&mut buf).map_err(|e| e.to_string())?;
        replica_iop.insert(primary, store);
    }
    let rgn = proto::get_len(&mut buf, 4).map_err(err)?;
    let mut replica_gateway = BTreeMap::new();
    for _ in 0..rgn {
        let primary = SiteId(proto::get_u32(&mut buf).map_err(err)?);
        let store = codec::get_state_gateway(&mut buf).map_err(|e| e.to_string())?;
        replica_gateway.insert(primary, store);
    }
    if buf.remaining() != 0 {
        return Err(format!("{} trailing bytes after state", buf.remaining()));
    }
    let mut core = Core {
        site,
        seed,
        group,
        members,
        ring: Ring::new(),
        lp: group.l_min,
        window,
        proto: Site { site, iop, gateway, replica_iop, replica_gateway },
        hosted,
        metrics,
        next_seq,
        seen,
        sent,
        received,
        anomalies,
        unsupported: 0,
        outbox: Vec::new(),
        effects: Vec::new(),
        replicas: 1,
        dead,
    };
    core.rebuild_ring();
    Ok(core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::Id;
    use moods::ObjectId;

    fn obj(n: u64) -> ObjectId {
        ObjectId(Id::hash(&n.to_be_bytes()))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::Member { site: SiteId(3), addr: "127.0.0.1:7403".into() },
            WalRecord::Capture { at: t(1_000), objects: vec![obj(1), obj(2), obj(3)] },
            WalRecord::Capture { at: t(2_000), objects: Vec::new() },
            WalRecord::Flush { now: t(3_000) },
            WalRecord::Protocol {
                sender: SiteId(1),
                wire: Wire {
                    seq: 9,
                    msg: peertrack::messages::Msg::SetTo {
                        updates: vec![(
                            obj(4),
                            t(10),
                            peertrack::store::Link { site: SiteId(2), time: t(20) },
                        )],
                    },
                },
            },
            WalRecord::Query { messages: 5, hops: 7, bytes: 160 },
            WalRecord::Dead { site: SiteId(2) },
        ]
    }

    #[test]
    fn wal_records_roundtrip() {
        for (i, rec) in samples().iter().enumerate() {
            let back = WalRecord::decode(&rec.encode())
                .unwrap_or_else(|e| panic!("record {i}: {e}"));
            // `Msg` doesn't derive PartialEq; re-encoding is injective.
            assert_eq!(back.encode(), rec.encode(), "record {i} drifted");
        }
    }

    #[test]
    fn wal_record_truncations_never_panic() {
        for rec in samples() {
            let full = rec.encode();
            for cut in 0..full.len() {
                let _ = WalRecord::decode(&full[..cut]);
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_to_identical_state() {
        let addr: SocketAddr = "127.0.0.1:7400".parse().unwrap();
        let group = GroupConfig::default();
        let mut core = Core::new(SiteId(0), 42, group, addr);
        for rec in samples() {
            core.replay(&rec);
        }
        let body = core.snapshot_body();
        let restored = Core::from_snapshot(SiteId(0), 42, group, &body).unwrap();
        assert_eq!(restored.snapshot_body(), body);
        assert_eq!(restored.state_bytes(false), core.state_bytes(false));
    }

    #[test]
    fn snapshot_for_wrong_identity_is_rejected() {
        let addr: SocketAddr = "127.0.0.1:7400".parse().unwrap();
        let group = GroupConfig::default();
        let core = Core::new(SiteId(0), 42, group, addr);
        let body = core.snapshot_body();
        assert!(Core::from_snapshot(SiteId(1), 42, group, &body).is_err(), "wrong site");
        assert!(Core::from_snapshot(SiteId(0), 43, group, &body).is_err(), "wrong seed");
        // A digest (no addresses) is not a valid snapshot body.
        let digest = core.state_bytes(false);
        assert!(Core::from_snapshot(SiteId(0), 42, group, &digest).is_err());
    }

    #[test]
    fn state_truncations_and_trailing_bytes_are_loud() {
        let addr: SocketAddr = "127.0.0.1:7400".parse().unwrap();
        let group = GroupConfig::default();
        let mut core = Core::new(SiteId(0), 42, group, addr);
        for rec in samples() {
            core.replay(&rec);
        }
        let body = core.snapshot_body();
        for cut in 0..body.len() {
            assert!(
                Core::from_snapshot(SiteId(0), 42, group, &body[..cut]).is_err(),
                "truncation to {cut} went unnoticed"
            );
        }
        let mut padded = body.clone();
        padded.push(0);
        assert!(Core::from_snapshot(SiteId(0), 42, group, &padded).is_err());
    }
}
