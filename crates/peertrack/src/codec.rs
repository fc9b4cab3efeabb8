//! Binary wire codec for [`Msg`].
//!
//! The simulator never needs real serialization — state moves through
//! the event queue as Rust values — but the volume metric (§V-A, "total
//! volume of messages transferred over the network") must reflect real
//! message sizes. This codec grounds that definition: [`encode`]
//! produces the canonical on-wire form, and tests pin the exact
//! relationship `encode(msg).len() == msg.wire_size() + 4·(vector
//! fields)` (the accounting model carries vector lengths in the header's
//! reserved bytes; the standalone codec spends an explicit `u32`), so
//! the byte counts behind the figures can never silently drift from a
//! sendable encoding.
//!
//! Layout: a 16-byte header (tag, version, 6 reserved bytes, 8-byte
//! sequence number) followed by fixed-width fields; vectors are
//! length-prefixed with `u32`. `Option<Link>` is fixed-width (presence
//! byte + 12 bytes, zeroed when absent) so record sizes are predictable.

use crate::messages::{Msg, ENTRY_BYTES, LINK_BYTES, OBJECT_ID_BYTES, TIME_BYTES};
use crate::store::{GatewayStore, IndexEntry, IopRecord, IopStore, Link};
use crate::bytebuf::{ByteBuf, Bytes};
use ids::Prefix;
use moods::{ObjectId, SiteId};
use simnet::SimTime;

/// Codec protocol version.
pub const VERSION: u8 = 1;

/// Maximum element count a decoded vector may claim. A hostile length
/// prefix (up to 4 GiB expressible in the `u32`) must be rejected by
/// *arithmetic*, before any allocation is sized from it. The bound is
/// far above anything the protocol produces (`n_max` windows are ≤ a
/// few thousand observations) yet small enough that even a
/// maximum-length claim times the largest element never overflows or
/// reserves pathological memory.
pub const MAX_VECTOR_LEN: usize = 1 << 20;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than its structure requires.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Malformed prefix field.
    BadPrefix(String),
    /// A vector length prefix exceeds [`MAX_VECTOR_LEN`].
    TooLong(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            DecodeError::BadPrefix(e) => write!(f, "bad prefix: {e}"),
            DecodeError::TooLong(n) => {
                write!(f, "vector length {n} exceeds limit {MAX_VECTOR_LEN}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_ARRIVAL: u8 = 1;
const TAG_GROUP_INDEX: u8 = 2;
const TAG_SET_TO: u8 = 3;
const TAG_SET_FROM: u8 = 4;
const TAG_DELEGATE: u8 = 5;
const TAG_MIGRATE: u8 = 6;
const TAG_ACK: u8 = 7;
const TAG_REPL_IOP: u8 = 8;
const TAG_REPL_SHARD: u8 = 9;
const TAG_REPL_DIGEST: u8 = 10;
const TAG_REPL_SYNC_REQ: u8 = 11;
const TAG_REPL_STATE: u8 = 12;
const TAG_REPL_IOP_PATCH: u8 = 13;

fn put_header(buf: &mut ByteBuf, tag: u8, seq: u64) {
    buf.put_u8(tag);
    buf.put_u8(VERSION);
    buf.put_bytes(0, 6); // reserved
    buf.put_u64(seq);
}

/// Append an object id (20 bytes).
pub fn put_object(buf: &mut ByteBuf, o: &ObjectId) {
    buf.put_slice(&o.0 .0);
}

/// Append a timestamp (µs, `u64`).
pub fn put_time(buf: &mut ByteBuf, t: SimTime) {
    buf.put_u64(t.as_micros());
}

fn put_site(buf: &mut ByteBuf, s: SiteId) {
    buf.put_u32(s.0);
}

fn put_link(buf: &mut ByteBuf, l: &Link) {
    put_site(buf, l.site);
    put_time(buf, l.time);
}

/// Append an optional link: a presence byte over a fixed 12-byte body.
pub fn put_opt_link(buf: &mut ByteBuf, l: &Option<Link>) {
    match l {
        Some(l) => {
            buf.put_u8(1);
            put_link(buf, l);
        }
        None => {
            buf.put_u8(0);
            buf.put_bytes(0, 12);
        }
    }
}

fn put_entry(buf: &mut ByteBuf, e: &IndexEntry) {
    put_site(buf, e.site);
    put_time(buf, e.time);
    put_opt_link(buf, &e.prev);
}

fn put_prefix(buf: &mut ByteBuf, p: &Prefix) {
    buf.put_slice(&p.wire_bytes());
}

fn put_opt_prefix(buf: &mut ByteBuf, p: &Option<Prefix>) {
    // Absence encoded as an over-long sentinel length (0xFF).
    match p {
        Some(p) => put_prefix(buf, p),
        None => {
            buf.put_u8(0xFF);
            buf.put_bytes(0, 8);
        }
    }
}

/// Encode a message with the given header sequence number.
pub fn encode(msg: &Msg, seq: u64) -> Bytes {
    let mut buf = ByteBuf::with_capacity(msg.wire_size() + 8);
    match msg {
        Msg::Arrival { object, site, time } => {
            put_header(&mut buf, TAG_ARRIVAL, seq);
            put_object(&mut buf, object);
            put_site(&mut buf, *site);
            put_time(&mut buf, *time);
        }
        Msg::GroupIndex { prefix, site, members } => {
            put_header(&mut buf, TAG_GROUP_INDEX, seq);
            put_prefix(&mut buf, prefix);
            put_site(&mut buf, *site);
            buf.put_u32(members.len() as u32);
            for (o, t) in members {
                put_object(&mut buf, o);
                put_time(&mut buf, *t);
            }
        }
        Msg::SetTo { updates } => {
            put_header(&mut buf, TAG_SET_TO, seq);
            buf.put_u32(updates.len() as u32);
            for (o, arrived, link) in updates {
                put_object(&mut buf, o);
                put_time(&mut buf, *arrived);
                put_link(&mut buf, link);
            }
        }
        Msg::SetFrom { updates } => {
            put_header(&mut buf, TAG_SET_FROM, seq);
            buf.put_u32(updates.len() as u32);
            for (o, arrived, from) in updates {
                put_object(&mut buf, o);
                put_time(&mut buf, *arrived);
                put_opt_link(&mut buf, from);
            }
        }
        Msg::Delegate { prefix, entries } => {
            put_header(&mut buf, TAG_DELEGATE, seq);
            put_prefix(&mut buf, prefix);
            buf.put_u32(entries.len() as u32);
            for (o, e) in entries {
                put_object(&mut buf, o);
                put_entry(&mut buf, e);
            }
        }
        Msg::Migrate { prefix, entries } => {
            put_header(&mut buf, TAG_MIGRATE, seq);
            put_opt_prefix(&mut buf, prefix);
            buf.put_u32(entries.len() as u32);
            for (o, e) in entries {
                put_object(&mut buf, o);
                put_entry(&mut buf, e);
            }
        }
        Msg::Ack { acked } => {
            put_header(&mut buf, TAG_ACK, seq);
            buf.put_u64(*acked);
        }
        Msg::ReplIop { primary, updates } => {
            put_header(&mut buf, TAG_REPL_IOP, seq);
            put_site(&mut buf, *primary);
            buf.put_u32(updates.len() as u32);
            for (o, r) in updates {
                put_object(&mut buf, o);
                put_time(&mut buf, r.arrived);
                put_opt_link(&mut buf, &r.from);
                put_opt_link(&mut buf, &r.to);
            }
        }
        Msg::ReplShard { primary, prefix, entries, delegated } => {
            put_header(&mut buf, TAG_REPL_SHARD, seq);
            put_site(&mut buf, *primary);
            put_opt_prefix(&mut buf, prefix);
            buf.put_u8(u8::from(*delegated));
            buf.put_u32(entries.len() as u32);
            for (o, e) in entries {
                put_object(&mut buf, o);
                put_entry(&mut buf, e);
            }
        }
        Msg::ReplDigest { primary, digest } => {
            put_header(&mut buf, TAG_REPL_DIGEST, seq);
            put_site(&mut buf, *primary);
            buf.put_slice(&digest.0);
        }
        Msg::ReplSyncReq { primary } => {
            put_header(&mut buf, TAG_REPL_SYNC_REQ, seq);
            put_site(&mut buf, *primary);
        }
        Msg::ReplState { primary, state } => {
            put_header(&mut buf, TAG_REPL_STATE, seq);
            put_site(&mut buf, *primary);
            buf.put_u32(state.len() as u32);
            buf.put_slice(state);
        }
        Msg::ReplIopPatch { primary, set_to, set_from } => {
            put_header(&mut buf, TAG_REPL_IOP_PATCH, seq);
            put_site(&mut buf, *primary);
            buf.put_u32(set_to.len() as u32);
            for (o, arrived, link) in set_to {
                put_object(&mut buf, o);
                put_time(&mut buf, *arrived);
                put_link(&mut buf, link);
            }
            buf.put_u32(set_from.len() as u32);
            for (o, arrived, from) in set_from {
                put_object(&mut buf, o);
                put_time(&mut buf, *arrived);
                put_opt_link(&mut buf, from);
            }
        }
    }
    buf.freeze()
}

fn need(buf: &Bytes, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

/// Read an object id written by [`put_object`].
pub fn get_object(buf: &mut Bytes) -> Result<ObjectId, DecodeError> {
    need(buf, 20)?;
    let mut raw = [0u8; 20];
    buf.copy_to_slice(&mut raw);
    Ok(ObjectId(ids::Id(raw)))
}

/// Read a timestamp written by [`put_time`].
pub fn get_time(buf: &mut Bytes) -> Result<SimTime, DecodeError> {
    need(buf, 8)?;
    Ok(SimTime::from_micros(buf.get_u64()))
}

fn get_site(buf: &mut Bytes) -> Result<SiteId, DecodeError> {
    need(buf, 4)?;
    Ok(SiteId(buf.get_u32()))
}

fn get_link(buf: &mut Bytes) -> Result<Link, DecodeError> {
    Ok(Link { site: get_site(buf)?, time: get_time(buf)? })
}

/// Read an optional link written by [`put_opt_link`].
pub fn get_opt_link(buf: &mut Bytes) -> Result<Option<Link>, DecodeError> {
    need(buf, 13)?;
    let present = buf.get_u8() == 1;
    let link = get_link(buf)?;
    Ok(present.then_some(link))
}

fn get_entry(buf: &mut Bytes) -> Result<IndexEntry, DecodeError> {
    Ok(IndexEntry { site: get_site(buf)?, time: get_time(buf)?, prev: get_opt_link(buf)? })
}

fn get_prefix(buf: &mut Bytes) -> Result<Prefix, DecodeError> {
    need(buf, 9)?;
    let mut raw = [0u8; 9];
    buf.copy_to_slice(&mut raw);
    Prefix::from_wire_bytes(&raw).map_err(DecodeError::BadPrefix)
}

fn get_opt_prefix(buf: &mut Bytes) -> Result<Option<Prefix>, DecodeError> {
    need(buf, 9)?;
    let mut raw = [0u8; 9];
    buf.copy_to_slice(&mut raw);
    if raw[0] == 0xFF {
        return Ok(None);
    }
    Prefix::from_wire_bytes(&raw).map(Some).map_err(DecodeError::BadPrefix)
}

/// Read a vector length prefix and validate it against both the hard
/// [`MAX_VECTOR_LEN`] cap and the bytes actually remaining (each element
/// occupies at least `elem_bytes`), so the subsequent `Vec::with_capacity`
/// is sized from *verified* input. The order matters: an absurd claim is
/// `TooLong` even when the buffer is also short.
pub fn get_len(buf: &mut Bytes, elem_bytes: usize) -> Result<usize, DecodeError> {
    need(buf, 4)?;
    let n = buf.get_u32();
    if n as usize > MAX_VECTOR_LEN {
        return Err(DecodeError::TooLong(n));
    }
    // MAX_VECTOR_LEN · max element size stays far below usize::MAX, so
    // this product cannot overflow.
    if (n as usize) * elem_bytes > buf.remaining() {
        return Err(DecodeError::Truncated);
    }
    Ok(n as usize)
}

/// Decode a message; returns the message and the header sequence number.
pub fn decode(mut raw: Bytes) -> Result<(Msg, u64), DecodeError> {
    need(&raw, 16)?;
    let tag = raw.get_u8();
    let version = raw.get_u8();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    raw.advance(6);
    let seq = raw.get_u64();

    let msg = match tag {
        TAG_ARRIVAL => Msg::Arrival {
            object: get_object(&mut raw)?,
            site: get_site(&mut raw)?,
            time: get_time(&mut raw)?,
        },
        TAG_GROUP_INDEX => {
            let prefix = get_prefix(&mut raw)?;
            let site = get_site(&mut raw)?;
            let n = get_len(&mut raw, OBJECT_ID_BYTES + TIME_BYTES)?;
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push((get_object(&mut raw)?, get_time(&mut raw)?));
            }
            Msg::GroupIndex { prefix, site, members }
        }
        TAG_SET_TO => {
            let n = get_len(&mut raw, OBJECT_ID_BYTES + TIME_BYTES + LINK_BYTES)?;
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                updates.push((get_object(&mut raw)?, get_time(&mut raw)?, get_link(&mut raw)?));
            }
            Msg::SetTo { updates }
        }
        TAG_SET_FROM => {
            let n = get_len(&mut raw, OBJECT_ID_BYTES + TIME_BYTES + 1 + LINK_BYTES)?;
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                updates.push((
                    get_object(&mut raw)?,
                    get_time(&mut raw)?,
                    get_opt_link(&mut raw)?,
                ));
            }
            Msg::SetFrom { updates }
        }
        TAG_DELEGATE => {
            let prefix = get_prefix(&mut raw)?;
            let n = get_len(&mut raw, OBJECT_ID_BYTES + ENTRY_BYTES)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((get_object(&mut raw)?, get_entry(&mut raw)?));
            }
            Msg::Delegate { prefix, entries }
        }
        TAG_MIGRATE => {
            let prefix = get_opt_prefix(&mut raw)?;
            let n = get_len(&mut raw, OBJECT_ID_BYTES + ENTRY_BYTES)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((get_object(&mut raw)?, get_entry(&mut raw)?));
            }
            Msg::Migrate { prefix, entries }
        }
        TAG_ACK => {
            need(&raw, 8)?;
            Msg::Ack { acked: raw.get_u64() }
        }
        TAG_REPL_IOP => {
            let primary = get_site(&mut raw)?;
            let n = get_len(&mut raw, OBJECT_ID_BYTES + TIME_BYTES + 2 * (1 + LINK_BYTES))?;
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                let o = get_object(&mut raw)?;
                let rec = IopRecord {
                    arrived: get_time(&mut raw)?,
                    from: get_opt_link(&mut raw)?,
                    to: get_opt_link(&mut raw)?,
                };
                updates.push((o, rec));
            }
            Msg::ReplIop { primary, updates }
        }
        TAG_REPL_SHARD => {
            let primary = get_site(&mut raw)?;
            let prefix = get_opt_prefix(&mut raw)?;
            need(&raw, 1)?;
            let delegated = raw.get_u8() == 1;
            let n = get_len(&mut raw, OBJECT_ID_BYTES + ENTRY_BYTES)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((get_object(&mut raw)?, get_entry(&mut raw)?));
            }
            Msg::ReplShard { primary, prefix, entries, delegated }
        }
        TAG_REPL_DIGEST => {
            let primary = get_site(&mut raw)?;
            need(&raw, 20)?;
            let mut digest = [0u8; 20];
            raw.copy_to_slice(&mut digest);
            Msg::ReplDigest { primary, digest: ids::Id(digest) }
        }
        TAG_REPL_SYNC_REQ => Msg::ReplSyncReq { primary: get_site(&mut raw)? },
        TAG_REPL_STATE => {
            let primary = get_site(&mut raw)?;
            let n = get_len(&mut raw, 1)?;
            let mut state = vec![0u8; n];
            raw.copy_to_slice(&mut state);
            Msg::ReplState { primary, state }
        }
        TAG_REPL_IOP_PATCH => {
            let primary = get_site(&mut raw)?;
            let n = get_len(&mut raw, OBJECT_ID_BYTES + TIME_BYTES + LINK_BYTES)?;
            let mut set_to = Vec::with_capacity(n);
            for _ in 0..n {
                set_to.push((get_object(&mut raw)?, get_time(&mut raw)?, get_link(&mut raw)?));
            }
            let m = get_len(&mut raw, OBJECT_ID_BYTES + TIME_BYTES + 1 + LINK_BYTES)?;
            let mut set_from = Vec::with_capacity(m);
            for _ in 0..m {
                set_from.push((
                    get_object(&mut raw)?,
                    get_time(&mut raw)?,
                    get_opt_link(&mut raw)?,
                ));
            }
            Msg::ReplIopPatch { primary, set_to, set_from }
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok((msg, seq))
}

// ----------------------------------------------------------------------
// State records (durable snapshots)
// ----------------------------------------------------------------------
//
// The daemon's crash-recovery layer snapshots a node's in-memory state
// with the same wire vocabulary as the protocol messages. Encodings are
// **canonical**: hash-map contents are emitted in sorted key order, so
// two semantically equal stores produce byte-identical encodings — which
// is what lets `tests/tests/crash_recovery.rs` compare a recovered node
// against its pre-crash self with `assert_eq!` on bytes.

/// Append a canonical encoding of an IOP repository.
pub fn put_state_iop(buf: &mut ByteBuf, iop: &IopStore) {
    let mut objects: Vec<ObjectId> = iop.iter().map(|(o, _)| o).collect();
    objects.sort();
    buf.put_u32(objects.len() as u32);
    for o in objects {
        put_object(buf, &o);
        let records = iop.all(o);
        buf.put_u32(records.len() as u32);
        for r in records {
            put_time(buf, r.arrived);
            put_opt_link(buf, &r.from);
            put_opt_link(buf, &r.to);
        }
    }
}

/// Decode an IOP repository (inverse of [`put_state_iop`]).
pub fn get_state_iop(buf: &mut Bytes) -> Result<IopStore, DecodeError> {
    let mut iop = IopStore::new();
    let n = get_len(buf, OBJECT_ID_BYTES + 4)?;
    for _ in 0..n {
        let object = get_object(buf)?;
        let m = get_len(buf, TIME_BYTES + 2 * (1 + LINK_BYTES))?;
        let mut records = Vec::with_capacity(m);
        for _ in 0..m {
            records.push(IopRecord {
                arrived: get_time(buf)?,
                from: get_opt_link(buf)?,
                to: get_opt_link(buf)?,
            });
        }
        iop.insert_history(object, records);
    }
    Ok(iop)
}

fn put_entry_map(buf: &mut ByteBuf, entries: &std::collections::HashMap<ObjectId, IndexEntry>) {
    let mut objects: Vec<&ObjectId> = entries.keys().collect();
    objects.sort();
    buf.put_u32(objects.len() as u32);
    for o in objects {
        put_object(buf, o);
        put_entry(buf, &entries[o]);
    }
}

fn get_entry_map(
    buf: &mut Bytes,
) -> Result<std::collections::HashMap<ObjectId, IndexEntry>, DecodeError> {
    let n = get_len(buf, OBJECT_ID_BYTES + ENTRY_BYTES)?;
    let mut map = std::collections::HashMap::with_capacity(n);
    for _ in 0..n {
        map.insert(get_object(buf)?, get_entry(buf)?);
    }
    Ok(map)
}

/// Append a canonical encoding of a gateway store (individual-mode
/// entries plus every group-mode prefix shard).
pub fn put_state_gateway(buf: &mut ByteBuf, g: &GatewayStore) {
    put_entry_map(buf, &g.objects);
    let mut prefixes: Vec<&Prefix> = g.prefixes.keys().collect();
    prefixes.sort();
    buf.put_u32(prefixes.len() as u32);
    for p in prefixes {
        put_prefix(buf, p);
        let shard = &g.prefixes[p];
        buf.put_u8(u8::from(shard.delegated));
        put_entry_map(buf, &shard.entries);
    }
}

/// Decode a gateway store (inverse of [`put_state_gateway`]). Shard
/// recency order is rebuilt from the entries' update times.
pub fn get_state_gateway(buf: &mut Bytes) -> Result<GatewayStore, DecodeError> {
    let mut g = GatewayStore::new();
    g.objects = get_entry_map(buf)?;
    let n = get_len(buf, 9 + 1 + 4)?;
    for _ in 0..n {
        let prefix = get_prefix(buf)?;
        let delegated = {
            need(buf, 1)?;
            buf.get_u8() == 1
        };
        let entries = get_entry_map(buf)?;
        let shard = g.shard_mut(prefix);
        shard.delegated = delegated;
        for (o, e) in entries {
            shard.upsert(o, e);
        }
    }
    Ok(g)
}

/// Append an open capture window's contents (observations are already
/// an ordered sequence — no sorting involved).
pub fn put_state_window(buf: &mut ByteBuf, w: &crate::window::WindowBuffer) {
    put_time(buf, w.opened());
    let obs = w.observations();
    buf.put_u32(obs.len() as u32);
    for (o, t) in obs {
        put_object(buf, o);
        put_time(buf, *t);
    }
}

/// Decode a capture window for `site` flushing at `n_max` (inverse of
/// [`put_state_window`]).
pub fn get_state_window(
    buf: &mut Bytes,
    site: SiteId,
    n_max: usize,
) -> Result<crate::window::WindowBuffer, DecodeError> {
    let opened = get_time(buf)?;
    let n = get_len(buf, OBJECT_ID_BYTES + TIME_BYTES)?;
    if n >= n_max {
        // A window this full would have flushed before it was captured.
        return Err(DecodeError::TooLong(n as u32));
    }
    let mut obs = Vec::with_capacity(n);
    for _ in 0..n {
        obs.push((get_object(buf)?, get_time(buf)?));
    }
    Ok(crate::window::WindowBuffer::restore(site, n_max, obs, opened))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptiny::prelude::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::from_raw(&n.to_be_bytes())
    }

    fn link(n: u32, t: u64) -> Link {
        Link { site: SiteId(n), time: SimTime::from_micros(t) }
    }

    fn entry(n: u32, t: u64, prev: Option<Link>) -> IndexEntry {
        IndexEntry { site: SiteId(n), time: SimTime::from_micros(t), prev }
    }

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Arrival { object: obj(1), site: SiteId(3), time: SimTime::from_micros(99) },
            Msg::GroupIndex {
                prefix: Prefix::from_bit_str("0101"),
                site: SiteId(2),
                members: (0..5).map(|i| (obj(i), SimTime::from_micros(i))).collect(),
            },
            Msg::GroupIndex {
                prefix: Prefix::ROOT,
                site: SiteId(0),
                members: vec![],
            },
            Msg::SetTo { updates: vec![(obj(1), SimTime::from_micros(5), link(2, 9))] },
            Msg::SetFrom {
                updates: vec![
                    (obj(1), SimTime::from_micros(5), Some(link(2, 9))),
                    (obj(2), SimTime::from_micros(6), None),
                ],
            },
            Msg::Delegate {
                prefix: Prefix::from_bit_str("111"),
                entries: vec![(obj(3), entry(1, 2, Some(link(0, 1))))],
            },
            Msg::Migrate { prefix: None, entries: vec![(obj(4), entry(5, 6, None))] },
            Msg::Migrate {
                prefix: Some(Prefix::from_bit_str("00")),
                entries: vec![],
            },
            Msg::Ack { acked: 0 },
            Msg::Ack { acked: u64::MAX },
            Msg::ReplIop {
                primary: SiteId(7),
                updates: vec![(
                    obj(5),
                    IopRecord {
                        arrived: SimTime::from_micros(11),
                        from: Some(link(1, 2)),
                        to: None,
                    },
                )],
            },
            Msg::ReplShard {
                primary: SiteId(8),
                prefix: Some(Prefix::from_bit_str("110")),
                entries: vec![(obj(6), entry(2, 3, Some(link(4, 5))))],
                delegated: true,
            },
            Msg::ReplShard { primary: SiteId(8), prefix: None, entries: vec![], delegated: false },
            Msg::ReplDigest { primary: SiteId(9), digest: ids::Id::hash(b"digest") },
            Msg::ReplSyncReq { primary: SiteId(10) },
            Msg::ReplState { primary: SiteId(11), state: vec![1, 2, 3, 4, 5] },
            Msg::ReplIopPatch {
                primary: SiteId(12),
                set_to: vec![(obj(7), SimTime::from_micros(3), link(1, 4))],
                set_from: vec![(obj(7), SimTime::from_micros(4), Some(link(2, 3))), (obj(8), SimTime::from_micros(5), None)],
            },
        ]
    }

    fn assert_msg_eq(a: &Msg, b: &Msg) {
        // Msg doesn't derive PartialEq (payloads are large); compare via
        // canonical encoding.
        assert_eq!(encode(a, 0), encode(b, 0));
    }

    #[test]
    fn roundtrip_all_shapes() {
        for (i, m) in samples().iter().enumerate() {
            let raw = encode(m, i as u64);
            let (back, seq) = decode(raw).unwrap_or_else(|e| panic!("sample {i}: {e}"));
            assert_eq!(seq, i as u64);
            assert_msg_eq(m, &back);
        }
    }

    #[test]
    fn wire_size_matters_but_codec_adds_length_prefixes() {
        // wire_size models a codec whose vector lengths ride in the
        // reserved header bytes; the standalone codec spends an explicit
        // u32 per vector. Assert the exact relationship so the two can
        // never drift silently.
        for m in samples() {
            let encoded = encode(&m, 0).len();
            let vectors = match &m {
                Msg::Arrival { .. }
                | Msg::Ack { .. }
                | Msg::ReplDigest { .. }
                | Msg::ReplSyncReq { .. } => 0,
                Msg::GroupIndex { .. }
                | Msg::SetTo { .. }
                | Msg::SetFrom { .. }
                | Msg::Delegate { .. }
                | Msg::Migrate { .. }
                | Msg::ReplIop { .. }
                | Msg::ReplShard { .. }
                | Msg::ReplState { .. } => 1,
                Msg::ReplIopPatch { .. } => 2,
            };
            assert_eq!(
                encoded,
                m.wire_size() + 4 * vectors,
                "drift between codec and wire_size for {m:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(decode(Bytes::from_static(b"")), Err(DecodeError::Truncated)));
        let mut raw = ByteBuf::new();
        put_header(&mut raw, 99, 0);
        assert!(matches!(decode(raw.freeze()), Err(DecodeError::BadTag(99))));
        let mut raw = ByteBuf::new();
        raw.put_u8(TAG_ARRIVAL);
        raw.put_u8(VERSION + 1);
        raw.put_bytes(0, 14);
        assert!(matches!(decode(raw.freeze()), Err(DecodeError::BadVersion(v)) if v == VERSION + 1));
    }

    #[test]
    fn decode_rejects_hostile_length_prefix_without_allocating() {
        // A 4 GiB-worth length claim must fail by arithmetic, not by an
        // allocation attempt — for every vector-carrying tag.
        for tag in [
            TAG_GROUP_INDEX,
            TAG_SET_TO,
            TAG_SET_FROM,
            TAG_DELEGATE,
            TAG_MIGRATE,
            TAG_REPL_IOP,
            TAG_REPL_SHARD,
            TAG_REPL_STATE,
            TAG_REPL_IOP_PATCH,
        ] {
            let mut raw = ByteBuf::new();
            put_header(&mut raw, tag, 0);
            if matches!(tag, TAG_REPL_IOP | TAG_REPL_SHARD | TAG_REPL_STATE | TAG_REPL_IOP_PATCH) {
                put_site(&mut raw, SiteId(1));
            }
            if matches!(tag, TAG_GROUP_INDEX | TAG_DELEGATE | TAG_MIGRATE) {
                put_prefix(&mut raw, &Prefix::from_bit_str("01"));
            }
            if tag == TAG_GROUP_INDEX {
                put_site(&mut raw, SiteId(1));
            }
            if tag == TAG_REPL_SHARD {
                put_opt_prefix(&mut raw, &None);
                raw.put_u8(0);
            }
            raw.put_u32(u32::MAX); // claims ~4 Gi elements
            let err = decode(raw.freeze()).unwrap_err();
            assert_eq!(err, DecodeError::TooLong(u32::MAX), "tag {tag}");
        }
    }

    #[test]
    fn decode_rejects_length_exceeding_remaining_bytes() {
        // A length under the cap but larger than the buffer could hold
        // must be Truncated *before* the element loop allocates.
        let mut raw = ByteBuf::new();
        put_header(&mut raw, TAG_SET_TO, 0);
        raw.put_u32((MAX_VECTOR_LEN - 1) as u32);
        assert_eq!(decode(raw.freeze()).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn decode_rejects_truncated_body() {
        let m = Msg::SetTo { updates: vec![(obj(1), SimTime::from_micros(5), link(2, 9))] };
        let full = encode(&m, 0);
        for cut in [17, 20, full.len() - 1] {
            let sliced = full.slice(..cut);
            assert!(matches!(decode(sliced), Err(DecodeError::Truncated)), "cut at {cut}");
        }
    }

    #[test]
    fn state_iop_roundtrip_is_canonical() {
        // Two stores with the same content built in different insertion
        // orders must encode byte-identically (canonical order), and
        // the roundtrip must preserve every record.
        let build = |order: &[u64]| {
            let mut iop = IopStore::new();
            for &n in order {
                iop.capture(obj(n), SimTime::from_micros(10 * n));
                iop.set_from(obj(n), SimTime::from_micros(10 * n), (n % 2 == 0).then(|| link(1, n)));
            }
            iop
        };
        let a = build(&[1, 2, 3, 4]);
        let b = build(&[4, 2, 3, 1]);
        let enc = |iop: &IopStore| {
            let mut buf = ByteBuf::new();
            put_state_iop(&mut buf, iop);
            buf.freeze()
        };
        assert_eq!(enc(&a), enc(&b), "insertion order leaked into the encoding");
        let mut bytes = enc(&a);
        let back = get_state_iop(&mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0);
        assert_eq!(enc(&back), enc(&a));
        for n in 1..=4 {
            assert_eq!(back.all(obj(n)), a.all(obj(n)));
        }
    }

    #[test]
    fn state_gateway_roundtrip_is_canonical() {
        let build = |order: &[u64]| {
            let mut g = GatewayStore::new();
            g.objects.insert(obj(9), entry(1, 1, None));
            for &n in order {
                let p = Prefix::from_bit_str(if n % 2 == 0 { "01" } else { "10" });
                g.shard_mut(p).upsert(obj(n), entry(n as u32, n, Some(link(2, n))));
            }
            g.shard_mut(Prefix::from_bit_str("01")).delegated = true;
            g
        };
        let enc = |g: &GatewayStore| {
            let mut buf = ByteBuf::new();
            put_state_gateway(&mut buf, g);
            buf.freeze()
        };
        let a = build(&[1, 2, 3, 4, 5]);
        let b = build(&[5, 3, 1, 4, 2]);
        assert_eq!(enc(&a), enc(&b));
        let mut bytes = enc(&a);
        let back = get_state_gateway(&mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0);
        assert_eq!(enc(&back), enc(&a));
        assert!(back.prefixes[&Prefix::from_bit_str("01")].delegated);
        // Recency order survives: the earliest record in shard "01"
        // (objects 2, 4 at times 2, 4) is object 2.
        let mut back = back;
        let earliest = back.shard_mut(Prefix::from_bit_str("01")).take_earliest(1);
        assert_eq!(earliest[0].0, obj(2));
    }

    #[test]
    fn state_window_roundtrip_and_full_window_rejected() {
        let mut w = crate::window::WindowBuffer::new(SiteId(3), 8);
        w.push(obj(1), SimTime::from_micros(100));
        w.push(obj(2), SimTime::from_micros(150));
        let mut buf = ByteBuf::new();
        put_state_window(&mut buf, &w);
        let mut bytes = buf.freeze();
        let back = get_state_window(&mut bytes, SiteId(3), 8).unwrap();
        assert_eq!(back.observations(), w.observations());
        assert_eq!(back.opened(), w.opened());

        // The same bytes against a smaller n_max claim a window that
        // could never have existed — loud error, not a panic later.
        let mut buf = ByteBuf::new();
        put_state_window(&mut buf, &w);
        let mut bytes = buf.freeze();
        assert!(get_state_window(&mut bytes, SiteId(3), 2).is_err());
    }

    proptiny! {
        #[test]
        fn prop_group_index_roundtrip(
            seeds in prop::collection::vec((any::<u64>(), any::<u64>()), 0..64),
            bits in "[01]{0,20}",
            site in any::<u32>(),
            seq in any::<u64>(),
        ) {
            let m = Msg::GroupIndex {
                prefix: Prefix::from_bit_str(&bits),
                site: SiteId(site),
                members: seeds
                    .iter()
                    .map(|(s, t)| (obj(*s), SimTime::from_micros(*t)))
                    .collect(),
            };
            let (back, got_seq) = decode(encode(&m, seq)).unwrap();
            prop_assert_eq!(got_seq, seq);
            prop_assert_eq!(encode(&back, seq), encode(&m, seq));
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(
            raw in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            // Hostile input must produce an error, never a panic or an
            // unbounded allocation.
            let _ = decode(Bytes::from(raw));
        }

        #[test]
        fn prop_mutated_encodings_never_panic(
            which in 0usize..16,
            mutations in prop::collection::vec((any::<u16>(), any::<u8>()), 1..32),
            seq in any::<u64>(),
        ) {
            // Fuzz-style: start from a *valid* encoding and flip bytes at
            // random offsets. Decoding the corrupted frame must either
            // succeed (the mutation hit a don't-care byte) or return a
            // DecodeError — never panic, never attempt a hostile-sized
            // allocation (the TooLong/Truncated guards in get_len).
            let samples = samples();
            let base = encode(&samples[which % samples.len()], seq);
            let mut bytes = base.as_slice().to_vec();
            for (off, val) in &mutations {
                let i = *off as usize % bytes.len();
                bytes[i] ^= *val;
            }
            let _ = decode(Bytes::from(bytes));
        }

        #[test]
        fn prop_truncations_never_panic(
            seeds in prop::collection::vec((any::<u64>(), any::<u64>()), 1..16),
        ) {
            let m = Msg::GroupIndex {
                prefix: Prefix::from_bit_str("01"),
                site: SiteId(1),
                members: seeds
                    .iter()
                    .map(|(s, t)| (obj(*s), SimTime::from_micros(*t)))
                    .collect(),
            };
            let full = encode(&m, 1);
            for cut in 0..full.len() {
                let _ = decode(full.slice(..cut));
            }
        }

        #[test]
        fn prop_every_variant_roundtrips_and_sizes_agree(
            variant in 0u8..14,
            seeds in prop::collection::vec((any::<u64>(), any::<u64>()), 0..24),
            bits in "[01]{0,20}",
            site in any::<u32>(),
            seq in any::<u64>(),
        ) {
            // One generator covering the whole `Msg` enum — including the
            // retry layer's `Ack` — so a new variant missing from the
            // codec fails here, not in the field.
            let prefix = Prefix::from_bit_str(&bits);
            let objects = |s: &[(u64, u64)]| -> Vec<(ObjectId, SimTime)> {
                s.iter().map(|(o, t)| (obj(*o), SimTime::from_micros(*t))).collect()
            };
            let m = match variant {
                0 => Msg::Arrival {
                    object: obj(seeds.first().map_or(0, |s| s.0)),
                    site: SiteId(site),
                    time: SimTime::from_micros(seq),
                },
                1 => Msg::GroupIndex { prefix, site: SiteId(site), members: objects(&seeds) },
                2 => Msg::SetTo {
                    updates: seeds
                        .iter()
                        .map(|(o, t)| (obj(*o), SimTime::from_micros(*t), link(site, *t ^ 1)))
                        .collect(),
                },
                3 => Msg::SetFrom {
                    updates: seeds
                        .iter()
                        .map(|(o, t)| {
                            (obj(*o), SimTime::from_micros(*t), (t % 2 == 0).then(|| link(site, *o)))
                        })
                        .collect(),
                },
                4 => Msg::Delegate {
                    prefix,
                    entries: seeds
                        .iter()
                        .map(|(o, t)| (obj(*o), entry(site, *t, (o % 2 == 0).then(|| link(2, 3)))))
                        .collect(),
                },
                5 => Msg::Migrate {
                    prefix: Some(prefix),
                    entries: seeds.iter().map(|(o, t)| (obj(*o), entry(site, *t, None))).collect(),
                },
                6 => Msg::Migrate {
                    prefix: None,
                    entries: seeds.iter().map(|(o, t)| (obj(*o), entry(site, *t, None))).collect(),
                },
                7 => Msg::Ack { acked: seeds.first().map_or(0, |s| s.0) },
                8 => Msg::ReplIop {
                    primary: SiteId(site),
                    updates: seeds
                        .iter()
                        .map(|(o, t)| {
                            (obj(*o), IopRecord {
                                arrived: SimTime::from_micros(*t),
                                from: (o % 2 == 0).then(|| link(site, *t)),
                                to: (t % 2 == 0).then(|| link(site ^ 1, *o)),
                            })
                        })
                        .collect(),
                },
                9 => Msg::ReplShard {
                    primary: SiteId(site),
                    prefix: (site % 2 == 0).then_some(prefix),
                    entries: seeds
                        .iter()
                        .map(|(o, t)| (obj(*o), entry(site, *t, (o % 2 == 0).then(|| link(1, 2)))))
                        .collect(),
                    delegated: site % 3 == 0,
                },
                10 => Msg::ReplDigest {
                    primary: SiteId(site),
                    digest: ids::Id::hash(&seq.to_be_bytes()),
                },
                11 => Msg::ReplSyncReq { primary: SiteId(site) },
                12 => Msg::ReplState {
                    primary: SiteId(site),
                    state: seeds.iter().map(|(o, _)| *o as u8).collect(),
                },
                _ => Msg::ReplIopPatch {
                    primary: SiteId(site),
                    set_to: seeds
                        .iter()
                        .map(|(o, t)| (obj(*o), SimTime::from_micros(*t), link(site, *o)))
                        .collect(),
                    set_from: seeds
                        .iter()
                        .map(|(o, t)| {
                            (obj(*t), SimTime::from_micros(*o), (o % 2 == 0).then(|| link(site, *t)))
                        })
                        .collect(),
                },
            };
            let raw = encode(&m, seq);
            let vectors = match m {
                Msg::Arrival { .. }
                | Msg::Ack { .. }
                | Msg::ReplDigest { .. }
                | Msg::ReplSyncReq { .. } => 0,
                Msg::ReplIopPatch { .. } => 2,
                _ => 1,
            };
            prop_assert_eq!(raw.len(), m.wire_size() + 4 * vectors);
            let (back, got_seq) = decode(raw).unwrap();
            prop_assert_eq!(got_seq, seq);
            prop_assert_eq!(encode(&back, seq), encode(&m, seq));
        }

        #[test]
        fn prop_migrate_roundtrip(
            entries in prop::collection::vec(
                (any::<u64>(), any::<u32>(), any::<u64>(), any::<bool>()), 0..32),
            has_prefix in any::<bool>(),
        ) {
            let m = Msg::Migrate {
                prefix: has_prefix.then(|| Prefix::from_bit_str("0110")),
                entries: entries
                    .iter()
                    .map(|(o, s, t, p)| {
                        (obj(*o), entry(*s, *t, p.then(|| link(1, 2))))
                    })
                    .collect(),
            };
            let (back, _) = decode(encode(&m, 7)).unwrap();
            prop_assert_eq!(encode(&back, 7), encode(&m, 7));
        }
    }
}
