//! Query processing (§IV-A.3 lookup + §IV-B).
//!
//! To answer `L`/`TR` for an object the system must first find *any*
//! IOP record or index entry for it:
//!
//! 1. the querying node checks its own repository (free);
//! 2. otherwise the query routes towards the object's gateway; **any
//!    node along the routing path** holding IOP information answers
//!    early (§IV-B's *Intermediate Node* case);
//! 3. at the gateway, the §IV-A.3 lookup runs: the shard for the
//!    current-length prefix first, then a bidirectional linear search —
//!    the triangle children (where delegated records live) and the
//!    hosted ancestor prefixes (where pre-split history lives).
//!
//! From the anchor, the IOP's distributed doubly-linked list is
//! traversed backward/forward, one message per visited site.
//!
//! This module is the only implementation of that algorithm. It is
//! generic over a [`SiteReader`], the per-site reads a query makes:
//! [`NetWorld`] answers them from the simulator's global state, the
//! socket daemon locally or by RPC to the site that holds the data. A
//! read the reader could not make ([`Unreachable`]) ends the query with
//! `complete = false` rather than a confident "not found".
//!
//! Query functions mutate nothing but the reader: they return the
//! answer and charge a [`QueryCost`]; the façade converts cost to
//! simulated time via the latency model and records it in the metrics,
//! mirroring how the paper "added 5ms as the network latency for each
//! network query" (§V-B).

use crate::messages::{HEADER_BYTES, OBJECT_ID_BYTES, TIME_BYTES};
use crate::store::{IopRecord, Link};
use crate::world::NetWorld;
use chord::LookupResult;
use geo::Topology;
use ids::{Id, Prefix};
use moods::{ObjectId, Path, SiteId, Visit};
use simnet::SimTime;

/// Bytes of one query/traversal message (header + object id + time +
/// small opcode).
pub const QUERY_MSG_BYTES: usize = HEADER_BYTES + OBJECT_ID_BYTES + TIME_BYTES + 4;

/// Who ultimately answered the discovery phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    /// The querying node held IOP records itself.
    Local,
    /// A node on the routing path answered before the gateway (§IV-B).
    Intermediate(SiteId),
    /// The gateway's index answered.
    Gateway(SiteId),
    /// No node knows the object (or, with `complete == false`, a read
    /// was lost before any node answered).
    NotFound,
    /// The querying node's locate-answer cache answered without a
    /// discovery phase (DESIGN.md §15). Only produced when the network
    /// was built with `Builder::locate_cache`.
    Cached,
}

impl AnswerSource {
    /// The site that answered a query asked at `from`: where served-query
    /// load is attributed. `None` when no node knows the object.
    pub fn answered_at(self, from: SiteId) -> Option<SiteId> {
        match self {
            AnswerSource::Local | AnswerSource::Cached => Some(from),
            AnswerSource::Intermediate(s) | AnswerSource::Gateway(s) => Some(s),
            AnswerSource::NotFound => None,
        }
    }
}

/// Message/hop accounting for one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Messages exchanged.
    pub messages: u64,
    /// Overlay hops traversed (= messages here: queries step node to
    /// node).
    pub hops: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Deterministic WAN wire time (µs) the query spent crossing the
    /// topology, **base matrix only** — queries never draw jitter, so
    /// the query path stays RNG-free. Zero without a topology.
    pub wan_us: u64,
    /// Messages whose endpoints sat in different regions. Zero without
    /// a topology.
    pub cross_msgs: u64,
}

impl QueryCost {
    /// Charge one query message that crosses `hops` overlay hops.
    fn send(&mut self, hops: u64) {
        self.messages += 1;
        self.hops += hops;
        self.bytes += QUERY_MSG_BYTES as u64;
    }

    /// Charge the topology's deterministic wire cost for one
    /// query-sized message `from -> to`. No-op without a topology —
    /// pre-geo builds stay byte-identical.
    fn wire(&mut self, topo: Option<&Topology>, from: SiteId, to: SiteId) {
        let Some(t) = topo else { return };
        let (a, b) = (t.region_of(from.0 as usize), t.region_of(to.0 as usize));
        self.wan_us += t.wire_us(a, b, QUERY_MSG_BYTES);
        if a != b {
            self.cross_msgs += 1;
        }
    }
}

/// A read the reader could not make: the site holding the data did not
/// answer. Never produced by the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unreachable;

/// The outcome of one [`SiteReader`] read.
pub type ReadResult<T> = Result<T, Unreachable>;

/// Which of a site's records of an object a query reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordRead {
    /// The visit that began at this instant.
    At(SimTime),
    /// The latest visit that began at or before this instant.
    AtOrBefore(SimTime),
    /// The earliest visit.
    First,
    /// The latest visit.
    Latest,
}

/// The per-site reads a query makes. Each read names the site whose
/// state answers it; the query functions charge the messages, so a
/// reader only fetches.
pub trait SiteReader {
    /// Topology that charges each query message's WAN wire cost; none
    /// by default.
    fn topology(&self) -> Option<&Topology> {
        None
    }
    /// The DHT key of `object`'s gateway.
    fn gateway_key(&self, object: ObjectId) -> Id;
    /// Route from `from` towards `key`.
    fn route(&mut self, from: SiteId, key: Id) -> ReadResult<LookupResult>;
    /// The site behind ring member `node`.
    fn site_of(&self, node: &Id) -> SiteId;
    /// Does `site`'s IOP repository hold records of `object`?
    fn knows(&mut self, site: SiteId, object: ObjectId) -> ReadResult<bool>;
    /// The §IV-A.3 lookup at `gateway`: `object`'s latest-state link,
    /// charging any further probes the lookup routes to `cost`.
    fn gateway_lookup(
        &mut self,
        gateway: SiteId,
        object: ObjectId,
        cost: &mut QueryCost,
    ) -> ReadResult<Option<Link>>;
    /// One of `site`'s records of `object`.
    fn record(&mut self, site: SiteId, object: ObjectId, which: RecordRead)
        -> ReadResult<Option<IopRecord>>;
    /// Is `site` still a member? A departed site's records are read
    /// from its replica holders instead.
    fn alive(&self, site: SiteId) -> bool;
    /// The live holders of departed site `dead`'s repository copy, in
    /// the order they are probed.
    fn replica_holders(&self, dead: SiteId) -> Vec<SiteId>;
    /// `holder`'s copy of `primary`'s record of the visit of `object`
    /// that began at `time`.
    fn replica_record_at(
        &mut self,
        holder: SiteId,
        primary: SiteId,
        object: ObjectId,
        time: SimTime,
    ) -> ReadResult<Option<IopRecord>>;
}

/// Full statistics the façade returns with each answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryStats {
    /// Simulated wall-clock the query took (latency model applied).
    pub time: SimTime,
    /// Messages exchanged.
    pub messages: u64,
    /// Overlay hops.
    pub hops: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// WAN wire time included in `time` (zero without a topology).
    pub wan: SimTime,
    /// Messages that crossed a region boundary (zero without a
    /// topology).
    pub cross_msgs: u64,
    /// Who answered the discovery phase.
    pub source: AnswerSource,
    /// False when IOP traversal hit missing data (e.g. a departed site)
    /// and the answer may be truncated.
    pub complete: bool,
}

/// Discovery anchor: where traversal starts.
enum Anchor {
    /// A site that holds IOP records for the object (local/intermediate).
    Record(SiteId),
    /// The gateway's latest-state link.
    Latest(Link),
}

/// Phase 1: find an anchor for `object`, starting at `from`, and who
/// answered; `None` when no node knows the object.
fn discover<R: SiteReader>(
    r: &mut R,
    from: SiteId,
    object: ObjectId,
    cost: &mut QueryCost,
) -> ReadResult<Option<(AnswerSource, Anchor)>> {
    // Local repository?
    if r.knows(from, object)? {
        return Ok(Some((AnswerSource::Local, Anchor::Record(from))));
    }

    // Route towards the gateway, checking intermediate nodes.
    let key = r.gateway_key(object);
    let route = r.route(from, key)?;
    let mut prev = from;
    for nid in route.path.iter().skip(1) {
        cost.send(1);
        let site = r.site_of(nid);
        cost.wire(r.topology(), prev, site);
        prev = site;
        if *nid == route.owner {
            break;
        }
        if r.knows(site, object)? {
            return Ok(Some((AnswerSource::Intermediate(site), Anchor::Record(site))));
        }
    }
    // Gateway reached (or the path was just the origin, which then owns
    // the key): run the §IV-A.3 lookup.
    let gateway = r.site_of(&route.owner);
    let found = r.gateway_lookup(gateway, object, cost)?;
    Ok(found.map(|link| (AnswerSource::Gateway(gateway), Anchor::Latest(link))))
}

/// The simulator's reads: direct, never lost.
impl SiteReader for &NetWorld {
    fn topology(&self) -> Option<&Topology> {
        self.geo.as_ref()
    }

    fn gateway_key(&self, object: ObjectId) -> Id {
        NetWorld::gateway_key(self, object)
    }

    fn route(&mut self, from: SiteId, key: Id) -> ReadResult<LookupResult> {
        let from_chord = self.sites[from.0 as usize].chord_id;
        Ok(self.ring.lookup(from_chord, key).expect("overlay lookup failed"))
    }

    fn site_of(&self, node: &Id) -> SiteId {
        self.sites[self.ring.app_index_of(node).expect("path nodes are members")].site
    }

    fn knows(&mut self, site: SiteId, object: ObjectId) -> ReadResult<bool> {
        Ok(self.sites[site.0 as usize].iop.knows(object))
    }

    /// §IV-A.3: check the current-`Lp` shard at the gateway, then search
    /// the triangle children (delegated records) and hosted ancestors
    /// (pre-split history). "To look up an object which does not exist
    /// locally, we only need to ask the parent and its two children."
    fn gateway_lookup(
        &mut self,
        gateway: SiteId,
        object: ObjectId,
        cost: &mut QueryCost,
    ) -> ReadResult<Option<Link>> {
        let world: &NetWorld = self;
        let gw = &world.sites[gateway.0 as usize].gateway;
        // Individual mode: single per-object map.
        let Some(group) = world.group_config() else {
            return Ok(gw.objects.get(&object).map(|e| e.link()));
        };

        let p = Prefix::of_id(&object.id(), world.current_lp);
        if let Some(e) = gw.prefixes.get(&p).and_then(|s| s.get(&object)) {
            return Ok(Some(e.link()));
        }

        // Bidirectional linear search: descend through hosted child
        // prefixes the object can live under first (delegation is the
        // common cause of a miss), then ascend to Lmin.
        let probe = |prefix: Prefix, cost: &mut QueryCost| {
            let mut reader = world;
            let route = reader.route(gateway, prefix.gateway_id()).ok()?;
            let owner = world.site_of(&route.owner);
            cost.send(route.hops as u64);
            cost.wire(world.geo.as_ref(), gateway, owner);
            world.sites[owner.0 as usize].gateway.prefixes.get(&prefix)?.get(&object)
        };
        let mut cur = p;
        while cur.len() < ids::prefix::MAX_PREFIX_BITS {
            let child = cur.child(object.id().bit(cur.len()));
            if !world.is_hosted(&child) {
                break;
            }
            if let Some(e) = probe(child, cost) {
                return Ok(Some(e.link()));
            }
            cur = child;
        }
        for l in (group.l_min..p.len()).rev() {
            let anc = p.truncate(l);
            if !world.is_hosted(&anc) {
                continue;
            }
            if let Some(e) = probe(anc, cost) {
                return Ok(Some(e.link()));
            }
        }
        Ok(None)
    }

    fn record(
        &mut self,
        site: SiteId,
        object: ObjectId,
        which: RecordRead,
    ) -> ReadResult<Option<IopRecord>> {
        let iop = &self.sites[site.0 as usize].iop;
        let rec = match which {
            RecordRead::At(time) => iop.record_at(object, time),
            RecordRead::AtOrBefore(t) => iop.latest_at_or_before(object, t),
            RecordRead::First => iop.all(object).first(),
            RecordRead::Latest => iop.latest(object),
        };
        Ok(rec.copied())
    }

    fn alive(&self, site: SiteId) -> bool {
        self.sites[site.0 as usize].alive
    }

    /// Every live site holding a copy, in site order.
    fn replica_holders(&self, dead: SiteId) -> Vec<SiteId> {
        self.sites
            .iter()
            .filter(|h| h.alive && h.replica_iop.contains_key(&dead))
            .map(|h| h.site)
            .collect()
    }

    fn replica_record_at(
        &mut self,
        holder: SiteId,
        primary: SiteId,
        object: ObjectId,
        time: SimTime,
    ) -> ReadResult<Option<IopRecord>> {
        let copy = &self.sites[holder.0 as usize].replica_iop[&primary];
        Ok(copy.record_at(object, time).copied())
    }
}

/// Read the visit record `target`, paying one message if `target.site`
/// differs from `current` (the node currently holding the query).
/// `None` when the record is missing or could not be read.
pub fn fetch_record<R: SiteReader>(
    r: &mut R,
    current: &mut SiteId,
    target: Link,
    object: ObjectId,
    cost: &mut QueryCost,
) -> Option<IopRecord> {
    if *current != target.site {
        cost.send(1);
        cost.wire(r.topology(), *current, target.site);
        *current = target.site;
    }
    if r.alive(target.site) {
        return r.record(target.site, object, RecordRead::At(target.time)).ok().flatten();
    }
    // The organization is gone. With replication the record survives on
    // the dead site's successors — probe the live holders of its
    // repository copies, one message each. Without replication no site
    // holds a copy, the loop body never runs, and this is the
    // unreachable-segment outcome (§I: sovereignty — the repository
    // departed with its owner).
    for holder in r.replica_holders(target.site) {
        cost.send(1);
        cost.wire(r.topology(), *current, holder);
        if let Ok(Some(rec)) = r.replica_record_at(holder, target.site, object, target.time) {
            *current = holder;
            return Some(rec);
        }
    }
    None
}

/// Walk the IOP list backward from `link` until the visit covering
/// `t`, with the query currently held at `current`. Returns the answer
/// and whether the traversal stayed complete, or `None` when the record
/// of `link` itself could not be read.
pub fn walk_back_from<R: SiteReader>(
    r: &mut R,
    current: &mut SiteId,
    link: Link,
    object: ObjectId,
    t: SimTime,
    cost: &mut QueryCost,
) -> Option<(Option<SiteId>, bool)> {
    let mut cur = link;
    loop {
        let Some(rec) = fetch_record(r, current, cur, object, cost) else {
            return if cur == link { None } else { Some((None, false)) };
        };
        if cur.time <= t {
            return Some((Some(cur.site), true));
        }
        match rec.from {
            None => return Some((None, true)), // not yet in system at t
            Some(prev) => {
                if prev.time <= t {
                    return Some((Some(prev.site), true));
                }
                cur = prev;
            }
        }
    }
}

/// Walk the IOP list forward from `link` to the visit covering `t`
/// (`link.time <= t`), with the query currently held at `current`.
/// Returns that visit and whether the traversal stayed complete, or
/// `None` when the record of `link` itself could not be read.
pub fn walk_forward_from<R: SiteReader>(
    r: &mut R,
    current: &mut SiteId,
    link: Link,
    object: ObjectId,
    t: SimTime,
    cost: &mut QueryCost,
) -> Option<(Option<Link>, bool)> {
    let mut cur = link;
    loop {
        let Some(rec) = fetch_record(r, current, cur, object, cost) else {
            return if cur == link { None } else { Some((None, false)) };
        };
        match rec.to {
            Some(next) if next.time <= t => cur = next,
            _ => return Some((Some(cur), true)),
        }
    }
}

/// `L(o, t)` (Eq. 1) asked at `from`, charging `cost`: the answer, who
/// answered discovery, whether the traversal stayed complete, and the
/// gateway's latest link when discovery reached the index — the value
/// a locate cache stores.
pub fn locate_at<R: SiteReader>(
    r: &mut R,
    from: SiteId,
    object: ObjectId,
    t: SimTime,
    cost: &mut QueryCost,
) -> (Option<SiteId>, AnswerSource, bool, Option<Link>) {
    let (source, anchor) = match discover(r, from, object, cost) {
        Ok(Some(found)) => found,
        Ok(None) => return (None, AnswerSource::NotFound, true, None),
        Err(Unreachable) => return (None, AnswerSource::NotFound, false, None),
    };
    // The query rests where discovery answered.
    let mut current = source.answered_at(from).expect("discovery answered");
    match anchor {
        Anchor::Latest(link) if t >= link.time => {
            // The index *is* the latest state: answer immediately.
            (Some(link.site), source, true, Some(link))
        }
        Anchor::Latest(link) => {
            // Walk backward through the IOP list.
            let walked = walk_back_from(r, &mut current, link, object, t, cost);
            let (ans, complete) = walked.unwrap_or((None, false));
            (ans, source, complete, Some(link))
        }
        Anchor::Record(site) => {
            let (ans, complete) = locate_from_record(r, &mut current, site, object, t, cost);
            (ans, source, complete, None)
        }
    }
}

/// `L(o, t)` from a site holding records of `object`: its own records
/// settle `t` or give the end of the list to walk from.
fn locate_from_record<R: SiteReader>(
    r: &mut R,
    current: &mut SiteId,
    site: SiteId,
    object: ObjectId,
    t: SimTime,
    cost: &mut QueryCost,
) -> (Option<SiteId>, bool) {
    let Ok(at_or_before) = r.record(site, object, RecordRead::AtOrBefore(t)) else {
        return (None, false);
    };
    if let Some(rec) = at_or_before {
        // The object was here at or before t; is it still the relevant
        // visit, or did it move on before t? Walk forward until the
        // visit covering t.
        let Some(next) = rec.to.filter(|n| n.time <= t) else {
            return (Some(site), true);
        };
        let walked = walk_forward_from(r, current, next, object, t, cost);
        let (visit, complete) = walked.unwrap_or((None, false));
        return (visit.map(|v| v.site), complete);
    }
    // All of the site's records are later than t: walk backward from
    // the earliest one.
    let Ok(Some(first)) = r.record(site, object, RecordRead::First) else {
        return (None, false);
    };
    let mut back = first.from;
    while let Some(cur) = back {
        if cur.time <= t {
            return (Some(cur.site), true);
        }
        let Some(rec) = fetch_record(r, current, cur, object, cost) else {
            return (None, false);
        };
        back = rec.from;
    }
    (None, true)
}

/// `TR(o, t0, t1)` (Eq. 2) asked at `from`, charging `cost`: the path,
/// who answered discovery, and whether the traversal stayed complete.
pub fn trace_at<R: SiteReader>(
    r: &mut R,
    from: SiteId,
    object: ObjectId,
    t0: SimTime,
    t1: SimTime,
    cost: &mut QueryCost,
) -> (Path, AnswerSource, bool) {
    if t0 > t1 {
        return (Vec::new(), AnswerSource::NotFound, true);
    }
    let (source, anchor) = match discover(r, from, object, cost) {
        Ok(Some(found)) => found,
        Ok(None) => return (Vec::new(), AnswerSource::NotFound, true),
        Err(Unreachable) => return (Vec::new(), AnswerSource::NotFound, false),
    };
    let mut current = source.answered_at(from).expect("discovery answered");
    let mut complete = true;

    // Find the anchor visit: for a gateway anchor it is the latest
    // visit; for a record anchor, the site's latest local record.
    let start = match anchor {
        Anchor::Latest(link) => link,
        Anchor::Record(site) => {
            let Ok(Some(rec)) = r.record(site, object, RecordRead::Latest) else {
                return (Vec::new(), source, false);
            };
            Link { site, time: rec.arrived }
        }
    };

    // Phase A: walk forward from the anchor, collecting visits, until
    // the last visit that can overlap the window (arrivals beyond t1
    // cannot). Remember the anchor's back link for phase B.
    let mut after: Vec<Visit> = Vec::new();
    let mut anchor_from: Option<Link> = None;
    let mut cur = start;
    loop {
        let Some(rec) = fetch_record(r, &mut current, cur, object, cost) else {
            complete = false;
            break;
        };
        if cur == start {
            anchor_from = rec.from;
        }
        after.push(Visit { site: cur.site, arrived: cur.time, departed: rec.to.map(|x| x.time) });
        match rec.to {
            Some(next) if next.time <= t1 => cur = next,
            _ => break,
        }
    }

    // Phase B: walk backward from the anchor until the window's lower
    // edge is passed.
    let mut before: Vec<Visit> = Vec::new();
    if start.time > t0 {
        let mut back = anchor_from;
        while let Some(l) = back {
            let Some(rec) = fetch_record(r, &mut current, l, object, cost) else {
                complete = false;
                break;
            };
            before.push(Visit {
                site: l.site,
                arrived: l.time,
                departed: rec.to.map(|x| x.time),
            });
            if l.time <= t0 {
                break;
            }
            back = rec.from;
        }
    }

    before.reverse();
    before.extend(after);
    let path: Path = before.into_iter().filter(|v| v.overlaps(t0, t1)).collect();
    (path, source, complete)
}
