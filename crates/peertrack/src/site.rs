//! One site's protocol state machine, written sans-IO.
//!
//! [`Site`] holds what one organization stores for the protocol — its
//! IOP repository, the gateway shards it hosts and its replica copies
//! of other primaries — plus every transition that state can make on
//! its own: the §III M2/M3 threading, the Fig. 5 `index`/`update_index`
//! algorithm with Data-Triangle victim selection, shard handoff merges
//! and the K-successor replication arms (DESIGN.md §13). It never
//! touches a socket, a clock or a simulator. A transition consumes one
//! `(from, Msg)` and appends [`Effect`]s, in emission order, to a buffer
//! the caller owns.
//!
//! Two drivers run it: the simulator's [`crate::world::NetWorld`] (one
//! `Site` per simulated organization) and the socket daemon's `Core`
//! (one per process). A driver executes the effects **depth-first**: a
//! send to the site itself is handled, and its own effects executed,
//! before the next effect of the transition that produced it — the
//! order in which an inline `dispatch` would have run them. What the
//! drivers keep is what really differs: delivery (sequencing, dedup,
//! retries, outboxes), routing, the Fig. 5 refresh fetches that run
//! before [`Site::handle`] sees a `GroupIndex`, which sites hold a
//! dead site's replicas, and when anti-entropy fires.

use crate::bytebuf::{ByteBuf, Bytes};
use crate::codec;
use crate::messages::Msg;
use crate::store::{GatewayStore, IndexEntry, IopRecord, IopStore, Link, PrefixIndex};
use chord::Ring;
use ids::{Id, Prefix};
use moods::{ObjectId, SiteId};
use simnet::SimTime;
use std::collections::{BTreeMap, HashSet};

/// Counters for conditions that should not occur in well-formed runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Anomalies {
    /// Gateway saw an arrival older than the indexed latest state
    /// (message reordering faster than the movement cadence).
    pub out_of_order_arrivals: u64,
    /// IOP update targeting a record the site does not hold (e.g. the
    /// site re-joined after data loss).
    pub dangling_iop_updates: u64,
    /// Messages dropped because the destination site had left.
    pub dropped_to_dead: u64,
    /// Deliveries that exhausted every retry attempt without an ack.
    pub retries_exhausted: u64,
    /// Duplicate deliveries (retransmission or fault-plane duplication)
    /// suppressed by the receiver's sequence filter.
    pub duplicates_suppressed: u64,
    /// Refresh RPCs abandoned because every attempt was lost (the
    /// entries stay at the remote shard; the index is stale until the
    /// next refresh).
    pub refresh_failures: u64,
}

/// An anomaly a site transition detected (see [`Anomalies`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anomaly {
    /// An index update older than the entry it would replace.
    OutOfOrderArrival,
    /// An IOP update for a record this site does not hold.
    DanglingIopUpdate,
}

impl Anomalies {
    /// Count one detected anomaly.
    pub fn count(&mut self, a: Anomaly) {
        match a {
            Anomaly::OutOfOrderArrival => self.out_of_order_arrivals += 1,
            Anomaly::DanglingIopUpdate => self.dangling_iop_updates += 1,
        }
    }
}

/// What a transition asks its driver to do, in emission order.
#[derive(Debug)]
pub enum Effect {
    /// Deliver `msg` to site `to`, charged `hops` overlay hops.
    Send {
        /// Destination site (possibly this site itself).
        to: SiteId,
        /// Overlay hops to charge.
        hops: u32,
        /// The payload.
        msg: Msg,
    },
    /// Deliver `msg` to whichever site owns DHT key `key`.
    Route {
        /// The routing key.
        key: Id,
        /// The payload.
        msg: Msg,
    },
    /// Deliver a copy of `msg` to each of this site's replica holders.
    Replicate(Msg),
    /// The indexed latest link of this object changed (cached locate
    /// answers for it are stale).
    Moved(ObjectId),
    /// This prefix now holds index data.
    Hosted(Prefix),
    /// A detected anomaly to count.
    Anomaly(Anomaly),
    /// A peer's replica state did not decode; nothing was applied.
    Malformed,
}

/// Driver-chosen protocol switches for one transition.
#[derive(Clone, Copy, Debug)]
pub struct Rules {
    /// K-successor replication is on: writes emit [`Effect::Replicate`].
    pub replicated: bool,
    /// Data-Triangle delegation `(threshold, α)`: a shard grown past
    /// `threshold` hands its earliest `α·len` entries to its children.
    /// `None` never delegates.
    pub delegation: Option<(usize, f64)>,
}

/// One site's protocol state.
#[derive(Debug)]
pub struct Site {
    /// The site this state belongs to.
    pub site: SiteId,
    /// Local repository (IOP records).
    pub iop: IopStore,
    /// Index shards this site hosts as a gateway.
    pub gateway: GatewayStore,
    /// Replica copies of other primaries' IOP repositories, keyed by
    /// primary. Kept apart from the primary stores so index-placement
    /// invariants keep holding on the primary copies alone.
    pub replica_iop: BTreeMap<SiteId, IopStore>,
    /// Replica copies of other primaries' gateway stores.
    pub replica_gateway: BTreeMap<SiteId, GatewayStore>,
}

impl Site {
    /// Empty state for `site`.
    pub fn new(site: SiteId) -> Site {
        Site {
            site,
            iop: IopStore::new(),
            gateway: GatewayStore::new(),
            replica_iop: BTreeMap::new(),
            replica_gateway: BTreeMap::new(),
        }
    }

    /// A receptor here captured `objects` at `at`: open their IOP
    /// records and replicate them.
    pub fn capture(
        &mut self,
        objects: &[ObjectId],
        at: SimTime,
        rules: Rules,
        out: &mut Vec<Effect>,
    ) {
        for &o in objects {
            self.iop.capture(o, at);
        }
        if rules.replicated {
            let keys: Vec<(ObjectId, SimTime)> = objects.iter().map(|&o| (o, at)).collect();
            self.replicate_iop(&keys, out);
        }
    }

    /// The members of a `GroupIndex` batch this gateway has no entry
    /// for (Fig. 5 line 2, `objects'`) — what a driver's refresh fetch
    /// looks for before the batch is handled. (The paper's set
    /// expression has the operands transposed; its comment "objects
    /// which are not stored locally" fixes the intent.)
    pub fn unindexed(&self, prefix: Prefix, members: &[(ObjectId, SimTime)]) -> HashSet<ObjectId> {
        let shard = self.gateway.prefixes.get(&prefix);
        members.iter().map(|&(o, _)| o).filter(|o| shard.and_then(|s| s.get(o)).is_none()).collect()
    }

    /// Handle one protocol message from `from`. Acks belong to the
    /// drivers' delivery layers and are ignored here.
    pub fn handle(&mut self, from: SiteId, msg: Msg, rules: Rules, out: &mut Vec<Effect>) {
        match msg {
            Msg::Arrival { object, site, time } => {
                self.index_arrival(object, site, time, rules, out)
            }
            Msg::GroupIndex { prefix, site, members } => {
                self.index_group(prefix, site, members, rules, out);
            }
            Msg::SetTo { updates } => {
                let mut touched = Vec::with_capacity(updates.len());
                for (o, arrived, link) in updates {
                    if self.iop.set_to(o, arrived, link) {
                        touched.push((o, arrived));
                    } else {
                        out.push(Effect::Anomaly(Anomaly::DanglingIopUpdate));
                    }
                }
                if rules.replicated {
                    self.replicate_iop(&touched, out);
                }
            }
            Msg::SetFrom { updates } => {
                let mut touched = Vec::with_capacity(updates.len());
                for (o, arrived, link) in updates {
                    if self.iop.set_from(o, arrived, link) {
                        touched.push((o, arrived));
                    } else {
                        out.push(Effect::Anomaly(Anomaly::DanglingIopUpdate));
                    }
                }
                if rules.replicated {
                    self.replicate_iop(&touched, out);
                }
            }
            Msg::Delegate { prefix, entries } | Msg::Migrate { prefix: Some(prefix), entries } => {
                for (o, e) in entries {
                    self.merge_entry(prefix, o, e, out);
                }
                self.replicate_shard(Some(prefix), rules, out);
            }
            Msg::Migrate { prefix: None, entries } => {
                for (o, e) in entries {
                    match self.gateway.objects.get(&o).copied() {
                        Some(ex) if ex.time > e.time => {} // racing update won
                        Some(ex) if ex.time == e.time && e.prev.is_none() => {}
                        _ => {
                            self.gateway.objects.insert(o, e);
                        }
                    }
                }
                self.replicate_shard(None, rules, out);
            }
            Msg::Ack { .. } => {}
            Msg::ReplIop { primary, updates } => {
                let store = self.replica_iop.entry(primary).or_default();
                for (o, rec) in updates {
                    store.upsert_record(o, rec);
                }
            }
            Msg::ReplShard { primary, prefix, entries, delegated } => {
                let gw = self.replica_gateway.entry(primary).or_default();
                match prefix {
                    Some(p) if entries.is_empty() && !delegated => {
                        gw.prefixes.remove(&p);
                    }
                    Some(p) => {
                        let shard = gw.shard_mut(p);
                        *shard = PrefixIndex::new();
                        shard.delegated = delegated;
                        for (o, e) in entries {
                            shard.upsert(o, e);
                        }
                    }
                    None => gw.objects = entries.into_iter().collect(),
                }
            }
            Msg::ReplDigest { primary, digest } => {
                if Id::hash(&self.replica_state_bytes(primary)) != digest {
                    out.push(Effect::Send { to: from, hops: 1, msg: Msg::ReplSyncReq { primary } });
                }
            }
            Msg::ReplSyncReq { primary } => {
                debug_assert_eq!(primary, self.site, "sync request misrouted");
                out.push(Effect::Send { to: from, hops: 1, msg: self.state_msg() });
            }
            Msg::ReplState { primary, state } => {
                let mut bytes = Bytes::from(state);
                match (codec::get_state_iop(&mut bytes), codec::get_state_gateway(&mut bytes)) {
                    (Ok(iop), Ok(gw)) => {
                        self.replica_iop.insert(primary, iop);
                        self.replica_gateway.insert(primary, gw);
                    }
                    _ => out.push(Effect::Malformed),
                }
            }
            Msg::ReplIopPatch { primary, set_to, set_from } => {
                let store = self.replica_iop.entry(primary).or_default();
                for (o, arrived, link) in set_to {
                    patch_record(store, o, arrived, |r| r.to = Some(link));
                }
                for (o, arrived, from_link) in set_from {
                    patch_record(store, o, arrived, |r| r.from = from_link);
                }
            }
        }
    }

    /// Individual-mode gateway logic (§III, Fig. 2): update the index,
    /// send M2 to the source and M3 to the destination of the move.
    fn index_arrival(
        &mut self,
        object: ObjectId,
        site: SiteId,
        time: SimTime,
        rules: Rules,
        out: &mut Vec<Effect>,
    ) {
        let prev = self.gateway.objects.get(&object).copied();
        if prev.is_some_and(|p| p.time > time) {
            out.push(Effect::Anomaly(Anomaly::OutOfOrderArrival));
            return;
        }
        let entry = IndexEntry { site, time, prev: prev.map(|p| p.link()) };
        self.gateway.objects.insert(object, entry);
        out.push(Effect::Moved(object));
        self.replicate_shard(None, rules, out);
        if let Some(p) = prev {
            // M2 — direct (the index stores the source's address).
            let m2 = Msg::SetTo { updates: vec![(object, p.time, Link { site, time })] };
            out.push(Effect::Send { to: p.site, hops: 1, msg: m2 });
        }
        // M3 — direct to the capturing node.
        let m3 = Msg::SetFrom { updates: vec![(object, time, prev.map(|p| p.link()))] };
        out.push(Effect::Send { to: site, hops: 1, msg: m3 });
    }

    /// Group-mode gateway logic — the Fig. 5 `index` algorithm after its
    /// refresh step: thread the IOP links, batching M2 per source site
    /// and M3 to the capturing site ("one message for each group of
    /// objects which are from the same node"), then `update_index`'s
    /// delegation check.
    fn index_group(
        &mut self,
        prefix: Prefix,
        site: SiteId,
        members: Vec<(ObjectId, SimTime)>,
        rules: Rules,
        out: &mut Vec<Effect>,
    ) {
        let mut m2: BTreeMap<SiteId, Vec<(ObjectId, SimTime, Link)>> = BTreeMap::new();
        let mut m3: Vec<(ObjectId, SimTime, Option<Link>)> = Vec::with_capacity(members.len());
        let shard = self.gateway.shard_mut(prefix);
        for (o, t) in members {
            let prev = shard.get(&o).copied();
            if prev.is_some_and(|p| p.time > t) {
                out.push(Effect::Anomaly(Anomaly::OutOfOrderArrival));
                continue;
            }
            shard.upsert(o, IndexEntry { site, time: t, prev: prev.map(|p| p.link()) });
            if let Some(p) = prev {
                m2.entry(p.site).or_default().push((o, p.time, Link { site, time: t }));
            }
            m3.push((o, t, prev.map(|p| p.link())));
        }
        out.push(Effect::Hosted(prefix));
        // `m3` holds exactly the accepted upserts: each changed the
        // stored latest link for its object.
        out.extend(m3.iter().map(|&(o, _, _)| Effect::Moved(o)));
        for (dest, updates) in m2 {
            out.push(Effect::Send { to: dest, hops: 1, msg: Msg::SetTo { updates } });
        }
        if !m3.is_empty() {
            out.push(Effect::Send { to: site, hops: 1, msg: Msg::SetFrom { updates: m3 } });
        }
        if let Some((threshold, alpha)) = rules.delegation {
            self.delegate(prefix, threshold, alpha, out);
        }
        // One shard replication covers both the upserts above and any
        // shrink the delegation just performed (the delegation
        // receivers replicate their own shards on receipt).
        self.replicate_shard(Some(prefix), rules, out);
    }

    /// Fig. 5 `update_index` lines 2–4: when the shard exceeds
    /// `threshold`, hand its earliest `α·len` entries to the two
    /// Data-Triangle children.
    fn delegate(&mut self, prefix: Prefix, threshold: usize, alpha: f64, out: &mut Vec<Effect>) {
        if prefix.len() >= ids::prefix::MAX_PREFIX_BITS {
            return;
        }
        let shard = self.gateway.shard_mut(prefix);
        let len = shard.len();
        if len <= threshold {
            return;
        }
        let k = ((alpha * len as f64).ceil() as usize).min(len);
        let victims = shard.take_earliest(k);
        shard.delegated = true;

        for (child, entries) in split_to_children(prefix, victims) {
            out.push(Effect::Hosted(child));
            let msg = Msg::Delegate { prefix: child, entries };
            out.push(Effect::Route { key: child.gateway_id(), msg });
        }
    }

    /// Install one handed-off index entry (shard migration or triangle
    /// delegation), merging with any entry a concurrent index update
    /// created here while the handoff was in flight — a handoff can be
    /// arbitrarily delayed by loss and retransmission. The two racing
    /// visits are re-threaded into one IOP chain where possible (late
    /// M2/M3 repairs); a conflict that cannot be reconciled locally is
    /// counted as an out-of-order arrival so exactness-sensitive
    /// consumers can back off.
    fn merge_entry(&mut self, p: Prefix, o: ObjectId, e: IndexEntry, out: &mut Vec<Effect>) {
        let shard = self.gateway.shard_mut(p);
        let Some(ex) = shard.get(&o).copied() else {
            shard.upsert(o, e);
            return;
        };
        if ex.time == e.time {
            // The same visit arrived twice (e.g. a duplicated handoff);
            // keep the richer threading.
            if ex.prev.is_none() && e.prev.is_some() {
                shard.upsert(o, e);
            }
            return;
        }
        let handoff_is_newer = ex.time < e.time;
        let (older, newer) = if handoff_is_newer { (ex, e) } else { (e, ex) };
        // When the handoff carries the newer visit, the stored latest
        // link changes content below — cached answers die with it. (The
        // reverse direction only enriches threading; the answer stands.)
        if handoff_is_newer {
            out.push(Effect::Moved(o));
        }
        if newer.prev.is_none() {
            // Thread the older visit in as the newer one's predecessor
            // and repair the repositories' links (late M2/M3).
            shard.upsert(o, IndexEntry { prev: Some(older.link()), ..newer });
            let m2 = Msg::SetTo { updates: vec![(o, older.time, newer.link())] };
            out.push(Effect::Send { to: older.site, hops: 1, msg: m2 });
            let m3 = Msg::SetFrom { updates: vec![(o, newer.time, Some(older.link()))] };
            out.push(Effect::Send { to: newer.site, hops: 1, msg: m3 });
            return;
        }
        if handoff_is_newer {
            shard.upsert(o, newer);
        }
        // A newer visit threaded past some other predecessor: the older
        // one belongs somewhere mid-chain. Keep the newer entry and
        // record the reordering.
        if newer.prev != Some(older.link()) {
            out.push(Effect::Anomaly(Anomaly::OutOfOrderArrival));
        }
    }

    /// Failover at the heir of a permanently failed primary: fold the
    /// replica copy of its *gateway* stores into this site's primary
    /// stores — the ring now routes the dead site's key ranges here —
    /// keeping whichever entry is newer where both exist.
    pub fn absorb_gateway(&mut self, gw: GatewayStore, out: &mut Vec<Effect>) {
        let mut objs: Vec<(ObjectId, IndexEntry)> = gw.objects.into_iter().collect();
        objs.sort_by_key(|(o, _)| *o);
        for (o, e) in objs {
            match self.gateway.objects.get(&o) {
                // A racing index update here already holds a newer
                // visit — keep it.
                Some(ex) if ex.time >= e.time => {}
                _ => {
                    self.gateway.objects.insert(o, e);
                }
            }
        }
        let mut prefixes: Vec<(Prefix, PrefixIndex)> = gw.prefixes.into_iter().collect();
        prefixes.sort_by_key(|(p, _)| *p);
        for (p, shard) in prefixes {
            let mut es: Vec<(ObjectId, IndexEntry)> = shard.entries.into_iter().collect();
            es.sort_by_key(|(o, _)| *o);
            let dst = self.gateway.shard_mut(p);
            dst.delegated |= shard.delegated;
            for (o, e) in es {
                match dst.get(&o) {
                    Some(ex) if ex.time >= e.time => {}
                    _ => dst.upsert(o, e),
                }
            }
            out.push(Effect::Hosted(p));
        }
    }

    /// Fan IOP record updates out to the replica set. `keys` are
    /// `(object, arrival time)` record keys; the full records are read
    /// back so replicas always receive the post-update state.
    fn replicate_iop(&self, keys: &[(ObjectId, SimTime)], out: &mut Vec<Effect>) {
        let updates: Vec<(ObjectId, IopRecord)> =
            keys.iter().filter_map(|&(o, t)| self.iop.record_at(o, t).map(|r| (o, *r))).collect();
        if !updates.is_empty() {
            out.push(Effect::Replicate(Msg::ReplIop { primary: self.site, updates }));
        }
    }

    /// Ship the full current content of one gateway shard (`None` = the
    /// individual-mode object map) to the replica set. Full-shard
    /// replace semantics let removals propagate without tombstones: an
    /// empty shard drops the replica copy.
    pub fn replicate_shard(&self, prefix: Option<Prefix>, rules: Rules, out: &mut Vec<Effect>) {
        if !rules.replicated {
            return;
        }
        let (mut entries, delegated): (Vec<(ObjectId, IndexEntry)>, bool) = match prefix {
            Some(p) => match self.gateway.prefixes.get(&p) {
                Some(shard) => {
                    (shard.entries.iter().map(|(o, e)| (*o, *e)).collect(), shard.delegated)
                }
                None => (Vec::new(), false),
            },
            None => (self.gateway.objects.iter().map(|(o, e)| (*o, *e)).collect(), false),
        };
        // Sorted: message contents feed the canonical encoding at the
        // replica and must be hasher-independent.
        entries.sort_by_key(|(o, _)| *o);
        out.push(Effect::Replicate(Msg::ReplShard {
            primary: self.site,
            prefix,
            entries,
            delegated,
        }));
    }

    /// Canonical byte encoding of this site's primary stores (IOP then
    /// gateway) — the unit anti-entropy digests hash and full-state sync
    /// ships. Sorted-key encoders, so equal stores encode identically.
    pub fn state_bytes(&self) -> Vec<u8> {
        store_bytes(&self.iop, &self.gateway)
    }

    /// Canonical encoding of this site's replica copy of `primary`'s
    /// stores (empty stores when it holds no copy).
    pub fn replica_state_bytes(&self, primary: SiteId) -> Vec<u8> {
        let empty_iop = IopStore::new();
        let empty_gw = GatewayStore::new();
        let iop = self.replica_iop.get(&primary).unwrap_or(&empty_iop);
        let gw = self.replica_gateway.get(&primary).unwrap_or(&empty_gw);
        store_bytes(iop, gw)
    }

    /// Anti-entropy step 1 for this primary: the digest of its stores.
    pub fn digest_msg(&self) -> Msg {
        Msg::ReplDigest { primary: self.site, digest: Id::hash(&self.state_bytes()) }
    }

    /// This primary's full store state, replacing a replica's copy.
    pub fn state_msg(&self) -> Msg {
        Msg::ReplState { primary: self.site, state: self.state_bytes() }
    }
}

/// Partition a shard's `entries` between `prefix`'s two Data-Triangle
/// children, leaving out an empty side.
pub fn split_to_children(
    prefix: Prefix,
    entries: Vec<(ObjectId, IndexEntry)>,
) -> Vec<(Prefix, Vec<(ObjectId, IndexEntry)>)> {
    let bit = prefix.len();
    let mut halves: [Vec<(ObjectId, IndexEntry)>; 2] = [Vec::new(), Vec::new()];
    for (o, e) in entries {
        halves[o.id().bit(bit) as usize].push((o, e));
    }
    let [zero, one] = halves;
    [(prefix.child(false), zero), (prefix.child(true), one)]
        .into_iter()
        .filter(|(_, half)| !half.is_empty())
        .collect()
}

/// K-successor placement (DESIGN.md §13): the sites holding replica
/// copies of the primary at ring id `id` — the first `k − 1` live nodes
/// clockwise from it, in ring order, the primary excluded. `id` need not
/// be a member: a dead primary's holders are its successor set at the
/// moment of death (absent further churn).
pub fn replica_holders(ring: &Ring, id: &Id, k: usize) -> Vec<SiteId> {
    ring.successors_of(id, k)
        .into_iter()
        .filter(|h| h != id)
        .take(k.saturating_sub(1))
        .filter_map(|h| ring.app_index_of(&h))
        .map(|i| SiteId(i as u32))
        .collect()
}

/// Re-address an M2/M3 IOP update for permanently dead `primary` to
/// the holders of its replica repository, as a [`Msg::ReplIopPatch`].
pub fn patch_for_replicas(primary: SiteId, msg: Msg) -> Msg {
    let (set_to, set_from) = match msg {
        Msg::SetTo { updates } => (updates, Vec::new()),
        Msg::SetFrom { updates } => (Vec::new(), updates),
        other => unreachable!("only IOP updates are redirected, got {other:?}"),
    };
    Msg::ReplIopPatch { primary, set_to, set_from }
}

/// Read-modify-write one record of a replica repository, starting from
/// an empty record when the copy lacks it.
fn patch_record(
    store: &mut IopStore,
    o: ObjectId,
    arrived: SimTime,
    patch: impl FnOnce(&mut IopRecord),
) {
    let mut rec =
        store.record_at(o, arrived).copied().unwrap_or(IopRecord { arrived, from: None, to: None });
    patch(&mut rec);
    store.upsert_record(o, rec);
}

fn store_bytes(iop: &IopStore, gateway: &GatewayStore) -> Vec<u8> {
    let mut buf = ByteBuf::new();
    codec::put_state_iop(&mut buf, iop);
    codec::put_state_gateway(&mut buf, gateway);
    buf.freeze().as_slice().to_vec()
}
