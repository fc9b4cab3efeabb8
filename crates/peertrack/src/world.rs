//! The protocol engine: per-site state plus every message handler.
//!
//! [`NetWorld`] owns all distributed state — the Chord ring, each site's
//! window buffer, IOP repository and gateway shards — and implements
//! [`simnet::World`] so the discrete-event engine can drive it. The
//! structure mirrors §III/§IV exactly:
//!
//! * a capture appends an open IOP record locally, then either reports
//!   the arrival individually (**M1**) or buffers it in the adaptive
//!   window (§IV-A.1);
//! * a gateway receiving an arrival/group batch updates its index and
//!   threads the IOP links with **M2**/**M3** (batched per source site
//!   in group mode);
//! * unknown objects trigger the Fig. 5 `refresh_from_ascent` /
//!   `refresh_from_descent` fetches (charged as `Refresh` traffic;
//!   executed as zero-latency RPCs — the figures measure message
//!   volume, not indexing latency, see DESIGN.md);
//! * overfull shards delegate their earliest `α·count` records to the
//!   two Data-Triangle children (Fig. 5 `update_index`);
//! * changes of `Lp` run the splitting–merging process (§IV-A.2) when
//!   `eager_split_merge` is set.

use crate::bytebuf::{ByteBuf, Bytes};
use crate::codec;
use crate::config::{Config, GroupConfig, IndexingMode, SizeEstimation};
use crate::grouping::group_batch;
use crate::messages::{Msg, Wire, ENTRY_BYTES, HEADER_BYTES, OBJECT_ID_BYTES, PREFIX_BYTES};
use crate::spans;
use crate::store::{GatewayStore, IndexEntry, IopRecord, IopStore, Link, PrefixIndex};
use crate::window::{WindowBatch, WindowBuffer, WindowEvent};
use chord::Ring;
use ids::{Id, Prefix};
use moods::{ObjectId, SiteId};
use qcache::{CacheStats, EpochTable, LocateCache};
use simnet::{MsgClass, NodeIndex, Sim, SimTime, TimerId, World};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Timer-kind tags (high byte of the `u64` timer kind).
const TAG_SHIFT: u32 = 56;
/// Window `Tmax` expiry; value = site index.
pub(crate) const TAG_WINDOW: u64 = 1;
/// Scheduled capture; value = pending-capture id.
pub(crate) const TAG_CAPTURE: u64 = 2;
/// Ack timeout for a sequenced delivery; value = sequence number.
pub(crate) const TAG_RETRY: u64 = 3;
/// One-shot anti-entropy digest exchange; value = site index. Armed by
/// a replicated write, never periodic — a quiescent network stays
/// quiescent.
pub(crate) const TAG_ANTIENTROPY: u64 = 4;

fn timer_kind(tag: u64, value: u64) -> u64 {
    debug_assert!(value < (1 << TAG_SHIFT));
    (tag << TAG_SHIFT) | value
}

/// One organization's full state.
pub struct SiteState {
    /// Application-level identity.
    pub site: SiteId,
    /// Ring identity (SHA-1 of the site's external address).
    pub chord_id: Id,
    /// False once the site has left the network.
    pub alive: bool,
    /// Group-mode capture window.
    pub window: WindowBuffer,
    /// Pending `Tmax` timer for the open window, if any.
    window_timer: Option<TimerId>,
    /// Local repository (IOP records).
    pub iop: IopStore,
    /// Index shards this site hosts as a gateway.
    pub gateway: GatewayStore,
    /// Cached gateway locations per prefix (§IV-A.2 address caching):
    /// owner site index at the time of first contact.
    gateway_cache: HashMap<Prefix, usize>,
    /// Sequence numbers already processed (retry mode): retransmissions
    /// and fault-plane duplicates are acked again but not re-applied —
    /// IOP upserts are not idempotent, so at-least-once delivery plus
    /// this filter gives exactly-once processing.
    seen_seqs: HashSet<u64>,
    /// Replica copies of other primaries' IOP repositories, keyed by
    /// the primary's site id. Held only when `Config.replication` puts
    /// this site in the primary's successor set; kept separate from the
    /// primary stores so index-placement invariants keep holding on the
    /// primary copies alone.
    pub replica_iop: HashMap<SiteId, IopStore>,
    /// Replica copies of other primaries' gateway stores, same keying.
    pub replica_gateway: HashMap<SiteId, GatewayStore>,
    /// Pending one-shot anti-entropy timer, if a write armed one.
    antientropy_timer: Option<TimerId>,
    /// Locate-answer cache (DESIGN.md §15), allocated only when
    /// `Config.locate_cache` is set. Derived state: never replicated,
    /// never persisted, cleared wholesale on membership change.
    pub(crate) locate_cache: Option<LocateCache<Link>>,
    /// Locates this node answered (cache hits, local/intermediate
    /// answers, gateway lookups) — the hot-shard load metric. Pure
    /// bookkeeping: counting never touches RNG, metrics or dispatch,
    /// so it is always on.
    pub(crate) query_load: u64,
}

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

/// The distributed system: ring + every site's state.
pub struct NetWorld {
    /// Static configuration.
    pub config: Config,
    /// The Chord overlay.
    pub ring: Ring,
    /// All sites ever created; index = `SiteId.0` = simnet `NodeIndex`.
    pub sites: Vec<SiteState>,
    /// Current global prefix length `Lp` (group mode).
    pub current_lp: usize,
    /// Prefixes that hold index data somewhere in the network. Nodes
    /// learn populated prefix *lengths* from the `Lp` reconfiguration
    /// broadcasts; we keep the exact set for determinism.
    hosted: HashSet<Prefix>,
    /// Deferred captures keyed by pending id.
    pending_captures: HashMap<u64, (SiteId, Vec<ObjectId>)>,
    next_pending: u64,
    /// Anomaly counters (see [`Anomalies`]).
    pub anomalies: Anomalies,
    /// Next wire sequence number (0 is reserved for unsequenced traffic).
    next_seq: u64,
    /// Unacked sequenced sends awaiting their retry timer.
    pending_retries: HashMap<u64, PendingSend>,
    /// Open end-to-end message spans keyed by wire sequence number
    /// (only populated while a trace sink is installed). Keying by seq
    /// makes the span cover retransmissions: it closes when the first
    /// copy is processed, whichever attempt delivered it.
    pending_spans: HashMap<u64, simnet::SpanId>,
    /// Per-object movement epochs guarding cached locate answers
    /// (DESIGN.md §15). Only maintained while `Config.locate_cache` is
    /// set — the off path never touches it.
    pub(crate) epochs: EpochTable,
    /// WAN topology, when the network was built with `Builder::geo`.
    /// The query path charges its deterministic wire costs from it
    /// (base matrix only, never jitter — queries stay RNG-free);
    /// `None`, or a zero topology, adds nothing.
    pub geo: Option<geo::Topology>,
}

/// A sequenced send the retry layer may have to retransmit.
struct PendingSend {
    from: usize,
    to: usize,
    hops: u32,
    msg: Msg,
    /// Delivery attempts made so far (first send included).
    attempts: u32,
    timer: TimerId,
}

impl NetWorld {
    /// Empty world with the given configuration. Sites are added by the
    /// builder / churn API in [`crate::net`].
    pub fn new(config: Config) -> NetWorld {
        let lp = match config.mode {
            IndexingMode::Group(g) => g.l_min,
            IndexingMode::Individual => 0,
        };
        NetWorld {
            config,
            ring: Ring::new(),
            sites: Vec::new(),
            current_lp: lp,
            hosted: HashSet::new(),
            pending_captures: HashMap::new(),
            next_pending: 0,
            anomalies: Anomalies::default(),
            next_seq: 1,
            pending_retries: HashMap::new(),
            pending_spans: HashMap::new(),
            epochs: EpochTable::new(),
            geo: None,
        }
    }

    /// Group configuration, if running in group mode.
    pub fn group_config(&self) -> Option<GroupConfig> {
        match self.config.mode {
            IndexingMode::Group(g) => Some(g),
            IndexingMode::Individual => None,
        }
    }

    /// Is this prefix known to hold data anywhere?
    pub fn is_hosted(&self, p: &Prefix) -> bool {
        self.hosted.contains(p)
    }

    /// Number of live sites.
    pub fn live_sites(&self) -> usize {
        self.sites.iter().filter(|s| s.alive).count()
    }

    // ------------------------------------------------------------------
    // Site plumbing
    // ------------------------------------------------------------------

    /// Register a new site's state (ring membership handled by caller).
    pub(crate) fn push_site(&mut self, chord_id: Id, n_max: usize) -> SiteId {
        let site = SiteId(self.sites.len() as u32);
        self.sites.push(SiteState {
            site,
            chord_id,
            alive: true,
            window: WindowBuffer::new(site, n_max),
            window_timer: None,
            iop: IopStore::new(),
            gateway: GatewayStore::new(),
            gateway_cache: HashMap::new(),
            seen_seqs: HashSet::new(),
            replica_iop: HashMap::new(),
            replica_gateway: HashMap::new(),
            antientropy_timer: None,
            locate_cache: self.config.locate_cache.map(LocateCache::new),
            query_load: 0,
        });
        site
    }

    fn site_idx(&self, site: SiteId) -> usize {
        site.0 as usize
    }

    /// Route from a site towards a DHT key: returns `(owner site index,
    /// hops)`, and emits one `LookupHop` trace event per node visited
    /// when a sink is installed. Panics on routing failure — the runtime
    /// stabilizes after churn, so lookups always converge. Tracing never
    /// changes routing.
    pub(crate) fn route_traced(
        &self,
        sim: &mut Sim<Wire>,
        from: SiteId,
        key: Id,
    ) -> (usize, u32) {
        let from_chord = self.sites[self.site_idx(from)].chord_id;
        let r = self.ring.lookup(from_chord, key).expect("overlay lookup failed");
        let owner = self.ring.app_index_of(&r.owner).expect("owner is a member");
        if sim.tracing() && r.path.len() > 1 {
            let path = self.ring.app_path(&r.path[1..]);
            sim.trace_lookup_path(self.site_idx(from), &path);
        }
        (owner, r.hops)
    }

    /// The gateway key for an object under the current mode.
    pub fn gateway_key(&self, object: ObjectId) -> Id {
        match self.config.mode {
            IndexingMode::Individual => object.id(),
            IndexingMode::Group(_) => {
                Prefix::of_id(&object.id(), self.current_lp).gateway_id()
            }
        }
    }

    // ------------------------------------------------------------------
    // Capture path
    // ------------------------------------------------------------------

    /// A receptor at `site` captured `objects` at the current instant.
    pub fn capture_now(&mut self, sim: &mut Sim<Wire>, site: SiteId, objects: &[ObjectId]) {
        let idx = self.site_idx(site);
        assert!(self.sites[idx].alive, "capture at a departed site {site}");
        let now = sim.now();
        for &o in objects {
            self.sites[idx].iop.capture(o, now);
        }
        let capture_keys: Vec<(ObjectId, SimTime)> =
            objects.iter().map(|&o| (o, now)).collect();
        self.replicate_iop(sim, idx, &capture_keys);
        let tracing = sim.tracing();
        match self.config.mode {
            IndexingMode::Individual => {
                for &o in objects {
                    if tracing {
                        sim.set_trace_ctx(spans::object_tag(o));
                    }
                    let (owner, hops) = self.route_traced(sim, site, o.id());
                    let msg = Msg::Arrival { object: o, site, time: now };
                    self.dispatch(sim, idx, owner, hops, msg);
                }
            }
            IndexingMode::Group(g) => {
                for &o in objects {
                    // Tag the window push with the object so the
                    // armed `Tmax` timer (and a count-triggered flush)
                    // are causally attributable to a capture.
                    if tracing {
                        sim.set_trace_ctx(spans::object_tag(o));
                    }
                    let ev = self.sites[idx].window.push(o, now);
                    match ev {
                        WindowEvent::ArmTimer => {
                            let t = sim.set_timer(idx, g.t_max, timer_kind(TAG_WINDOW, idx as u64));
                            self.sites[idx].window_timer = Some(t);
                        }
                        WindowEvent::Buffered => {}
                        WindowEvent::FlushByCount(batch) => {
                            if let Some(t) = self.sites[idx].window_timer.take() {
                                sim.cancel_timer(t);
                            }
                            self.index_batch(sim, batch);
                        }
                    }
                }
            }
        }
        if tracing {
            sim.clear_trace_ctx();
        }
    }

    /// Queue a capture for time `at` (workload injection).
    pub fn schedule_capture(
        &mut self,
        sim: &mut Sim<Wire>,
        at: SimTime,
        site: SiteId,
        objects: Vec<ObjectId>,
    ) {
        let id = self.next_pending;
        self.next_pending += 1;
        // Tag the injection with the object (single-object captures,
        // the auditor's shape) so the whole downstream chain of this
        // capture/movement is anchored to it.
        let tagged = sim.tracing() && objects.len() == 1;
        if tagged {
            sim.set_trace_ctx(spans::object_tag(objects[0]));
        }
        self.pending_captures.insert(id, (site, objects));
        sim.schedule(at, self.site_idx(site), timer_kind(TAG_CAPTURE, id));
        if tagged {
            sim.clear_trace_ctx();
        }
    }

    /// Flush every open window immediately (orderly shutdown; also used
    /// by tests to avoid waiting out `Tmax`).
    pub fn flush_all_windows(&mut self, sim: &mut Sim<Wire>) {
        for idx in 0..self.sites.len() {
            if self.sites[idx].alive {
                self.flush_site_window(sim, idx);
            }
        }
    }

    /// Flush one site's open window immediately.
    pub(crate) fn flush_site_window(&mut self, sim: &mut Sim<Wire>, idx: usize) {
        if let Some(t) = self.sites[idx].window_timer.take() {
            sim.cancel_timer(t);
        }
        if let Some(batch) = self.sites[idx].window.flush(sim.now()) {
            self.index_batch(sim, batch);
        }
    }

    // ------------------------------------------------------------------
    // Group indexing (§IV)
    // ------------------------------------------------------------------

    /// Send one `GroupIndex` message per group in the batch (§IV-A.2).
    /// With address caching on, a prefix gateway already contacted is
    /// reached directly (1 hop) instead of via a fresh DHT lookup.
    fn index_batch(&mut self, sim: &mut Sim<Wire>, batch: WindowBatch) {
        let site = batch.site;
        let idx = self.site_idx(site);
        let caching = self.config_caches_addresses();
        for group in group_batch(&batch.observations, self.current_lp) {
            let (owner, hops) = match self.sites[idx].gateway_cache.get(&group.prefix) {
                Some(&owner) if caching => (owner, 1),
                _ => {
                    let key = group.prefix.gateway_id();
                    let r = self.route_traced(sim, site, key);
                    if caching {
                        self.sites[idx].gateway_cache.insert(group.prefix, r.0);
                    }
                    r
                }
            };
            let msg = Msg::GroupIndex { prefix: group.prefix, site, members: group.members };
            self.dispatch(sim, idx, owner, hops, msg);
        }
    }

    fn config_caches_addresses(&self) -> bool {
        self.group_config().map(|g| g.cache_gateway_addresses).unwrap_or(false)
    }

    /// Drop every site's gateway-address cache (membership or `Lp`
    /// changed; stale addresses would misroute index updates). Locate
    /// caches drop too: a membership change can move index ownership
    /// wholesale, and conservative correctness beats retained warmth —
    /// re-indexing that lands *after* this clear re-enters the caches
    /// through the epoch-bumped write path.
    pub(crate) fn invalidate_gateway_caches(&mut self) {
        for s in &mut self.sites {
            s.gateway_cache.clear();
            if let Some(c) = s.locate_cache.as_mut() {
                c.clear();
            }
        }
    }

    /// Advance `o`'s movement epoch, killing every cached locate answer
    /// for it. Called exactly where a stored latest gateway link
    /// *changes content* (a fresh visit is indexed); moves of unchanged
    /// entries (delegation, refresh fetches, shard migration) leave the
    /// answer intact and do not bump. No-op while caching is off — the
    /// epoch table belongs to the opt-in subsystem.
    fn bump_epoch(&mut self, o: ObjectId) {
        if self.config.locate_cache.is_some() {
            self.epochs.bump(o);
        }
    }

    /// Deliver a message, short-circuiting self-sends (a node does not
    /// pay network cost to talk to itself). Networked sends are
    /// sequenced; with the retry layer enabled they are also tracked
    /// for retransmission until acked.
    fn dispatch(&mut self, sim: &mut Sim<Wire>, from: usize, to: usize, hops: u32, msg: Msg) {
        if from == to {
            self.handle(sim, to, from, Wire::unsequenced(msg));
            return;
        }
        // An IOP update aimed at a permanently failed site is repaired
        // onto the holders of its replica repository instead of being
        // dropped on the floor (replication mode only).
        if self.replication_on()
            && !self.sites[to].alive
            && matches!(msg, Msg::SetTo { .. } | Msg::SetFrom { .. })
        {
            self.redirect_to_replicas(sim, from, to, msg);
            return;
        }
        let class = msg.class();
        let bytes = msg.wire_size();
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut tagged = false;
        if sim.tracing() {
            // Tag single-object payloads so the trace can be filtered
            // per object; batched payloads stay linked via the causal
            // chain instead.
            if let Some(o) = msg.single_object() {
                sim.set_trace_ctx(spans::object_tag(o));
                tagged = true;
            }
            if let Some(kind) = spans::for_class(class) {
                let span = sim.span_open(kind, from);
                self.pending_spans.insert(seq, span);
            }
        }
        if self.config.retry.enabled {
            let timer =
                sim.set_timer(from, self.config.retry.timeout, timer_kind(TAG_RETRY, seq));
            self.pending_retries.insert(
                seq,
                PendingSend { from, to, hops, msg: msg.clone(), attempts: 1, timer },
            );
        }
        sim.send(from, to, class, bytes, hops, Wire { seq, msg });
        if tagged {
            sim.clear_trace_ctx();
        }
    }

    /// Send the ack for an accepted sequenced delivery (retry mode).
    /// Acks are themselves unsequenced: a lost ack is repaired by the
    /// retransmission it fails to suppress.
    fn send_ack(&mut self, sim: &mut Sim<Wire>, from: usize, to: usize, seq: u64) {
        let ack = Msg::Ack { acked: seq };
        let bytes = ack.wire_size();
        sim.send(from, to, MsgClass::Ack, bytes, 1, Wire::unsequenced(ack));
    }

    fn handle(&mut self, sim: &mut Sim<Wire>, to: usize, from: usize, wire: Wire) {
        let Wire { seq, msg } = wire;
        if let Msg::Ack { acked } = msg {
            // Acks complete the sender's pending entry even if the
            // sender has since left — there is nothing to retransmit.
            if let Some(p) = self.pending_retries.remove(&acked) {
                sim.cancel_timer(p.timer);
            }
            return;
        }
        if !self.sites[to].alive {
            self.anomalies.dropped_to_dead += 1;
            return;
        }
        if seq != 0 {
            if self.config.retry.enabled {
                self.send_ack(sim, to, from, seq);
            }
            if !self.sites[to].seen_seqs.insert(seq) {
                self.anomalies.duplicates_suppressed += 1;
                return;
            }
            // First processed copy of this sequence number: the
            // end-to-end message span (opened at dispatch) ends here.
            if !self.pending_spans.is_empty() {
                if let Some(span) = self.pending_spans.remove(&seq) {
                    sim.span_close(span);
                }
            }
        }
        match msg {
            Msg::Arrival { object, site, time } => {
                self.handle_arrival(sim, to, object, site, time);
            }
            Msg::GroupIndex { prefix, site, members } => {
                self.handle_group_index(sim, to, prefix, site, members);
            }
            Msg::SetTo { updates } => {
                let mut touched = Vec::with_capacity(updates.len());
                for (o, arrived, link) in updates {
                    if self.sites[to].iop.set_to(o, arrived, link) {
                        touched.push((o, arrived));
                    } else {
                        self.anomalies.dangling_iop_updates += 1;
                    }
                }
                self.replicate_iop(sim, to, &touched);
            }
            Msg::SetFrom { updates } => {
                let mut touched = Vec::with_capacity(updates.len());
                for (o, arrived, link) in updates {
                    if self.sites[to].iop.set_from(o, arrived, link) {
                        touched.push((o, arrived));
                    } else {
                        self.anomalies.dangling_iop_updates += 1;
                    }
                }
                self.replicate_iop(sim, to, &touched);
            }
            Msg::Delegate { prefix, entries } => {
                for (o, e) in entries {
                    self.merge_entry(sim, to, prefix, o, e);
                }
                self.replicate_shard(sim, to, Some(prefix));
            }
            Msg::Migrate { prefix, entries } => match prefix {
                Some(p) => {
                    for (o, e) in entries {
                        self.merge_entry(sim, to, p, o, e);
                    }
                    self.replicate_shard(sim, to, Some(p));
                }
                None => {
                    for (o, e) in entries {
                        match self.sites[to].gateway.objects.get(&o).copied() {
                            Some(ex) if ex.time > e.time => {} // racing update won
                            Some(ex) if ex.time == e.time && e.prev.is_none() => {}
                            _ => {
                                self.sites[to].gateway.objects.insert(o, e);
                            }
                        }
                    }
                    self.replicate_shard(sim, to, None);
                }
            },
            Msg::Ack { .. } => unreachable!("acks handled before dispatch"),
            Msg::ReplIop { primary, updates } => {
                let store = self.sites[to].replica_iop.entry(primary).or_default();
                for (o, rec) in updates {
                    store.upsert_record(o, rec);
                }
            }
            Msg::ReplShard { primary, prefix, entries, delegated } => {
                let gw = self.sites[to].replica_gateway.entry(primary).or_default();
                match prefix {
                    Some(p) => {
                        if entries.is_empty() && !delegated {
                            gw.prefixes.remove(&p);
                        } else {
                            let shard = gw.shard_mut(p);
                            *shard = PrefixIndex::new();
                            shard.delegated = delegated;
                            for (o, e) in entries {
                                shard.upsert(o, e);
                            }
                        }
                    }
                    None => {
                        gw.objects = entries.into_iter().collect();
                    }
                }
            }
            Msg::ReplDigest { primary, digest } => {
                let mine = Id::hash(&self.replica_state_bytes(to, primary));
                if mine != digest {
                    self.dispatch(sim, to, from, 1, Msg::ReplSyncReq { primary });
                }
            }
            Msg::ReplSyncReq { primary } => {
                debug_assert_eq!(self.sites[to].site, primary, "sync request misrouted");
                let state = self.store_state_bytes(to);
                self.dispatch(sim, to, from, 1, Msg::ReplState { primary, state });
            }
            Msg::ReplState { primary, state } => {
                let mut bytes = Bytes::from(state);
                let iop = codec::get_state_iop(&mut bytes).expect("well-formed replica state");
                let gw =
                    codec::get_state_gateway(&mut bytes).expect("well-formed replica state");
                self.sites[to].replica_iop.insert(primary, iop);
                self.sites[to].replica_gateway.insert(primary, gw);
            }
            Msg::ReplIopPatch { primary, set_to, set_from } => {
                let store = self.sites[to].replica_iop.entry(primary).or_default();
                for (o, arrived, link) in set_to {
                    let mut rec = store
                        .record_at(o, arrived)
                        .copied()
                        .unwrap_or(IopRecord { arrived, from: None, to: None });
                    rec.to = Some(link);
                    store.upsert_record(o, rec);
                }
                for (o, arrived, from_link) in set_from {
                    let mut rec = store
                        .record_at(o, arrived)
                        .copied()
                        .unwrap_or(IopRecord { arrived, from: None, to: None });
                    rec.from = from_link;
                    store.upsert_record(o, rec);
                }
            }
        }
        let _ = from;
    }

    /// A retry timer fired: retransmit if the delivery is still unacked
    /// and attempts remain, else record exhaustion.
    fn handle_retry_timeout(&mut self, sim: &mut Sim<Wire>, seq: u64) {
        let Some(mut p) = self.pending_retries.remove(&seq) else {
            return; // acked in the meantime
        };
        if !self.sites[p.from].alive {
            return; // sender left; nothing to repair
        }
        if p.attempts >= self.config.retry.max_attempts {
            self.anomalies.retries_exhausted += 1;
            return;
        }
        p.attempts += 1;
        let delay = self.config.retry.delay_after(p.attempts);
        p.timer = sim.set_timer(p.from, delay, timer_kind(TAG_RETRY, seq));
        sim.send(
            p.from,
            p.to,
            MsgClass::Retrans,
            p.msg.wire_size(),
            p.hops,
            Wire { seq, msg: p.msg.clone() },
        );
        self.pending_retries.insert(seq, p);
    }

    /// Individual-mode gateway logic (§III, Fig. 2): update the index,
    /// send M2 to the source and M3 to the destination of the move.
    fn handle_arrival(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        object: ObjectId,
        site: SiteId,
        time: SimTime,
    ) {
        let prev = self.sites[gw].gateway.objects.get(&object).copied();
        if let Some(p) = prev {
            if p.time > time {
                self.anomalies.out_of_order_arrivals += 1;
                return;
            }
        }
        let entry = IndexEntry { site, time, prev: prev.map(|p| p.link()) };
        self.sites[gw].gateway.objects.insert(object, entry);
        self.bump_epoch(object);
        self.replicate_shard(sim, gw, None);

        let new_link = Link { site, time };
        if let Some(p) = prev {
            // M2 — direct (the index stores the source's address).
            let m2 = Msg::SetTo { updates: vec![(object, p.time, new_link)] };
            self.dispatch(sim, gw, self.site_idx(p.site), 1, m2);
        }
        // M3 — direct to the capturing node.
        let m3 = Msg::SetFrom { updates: vec![(object, time, prev.map(|p| p.link()))] };
        self.dispatch(sim, gw, self.site_idx(site), 1, m3);
    }

    /// Group-mode gateway logic — the Fig. 5 `index` algorithm.
    fn handle_group_index(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        prefix: Prefix,
        site: SiteId,
        members: Vec<(ObjectId, SimTime)>,
    ) {
        // objects' ← members not indexed locally (Fig. 5 line 2; the
        // paper's set expression has the operands transposed — the
        // accompanying comment "objects which are not stored locally"
        // fixes the intent).
        let unknown: Vec<ObjectId> = {
            let shard = self.sites[gw].gateway.shard_mut(prefix);
            members
                .iter()
                .map(|&(o, _)| o)
                .filter(|o| shard.get(o).is_none())
                .collect()
        };

        if !unknown.is_empty() {
            let mut missing: HashSet<ObjectId> = unknown.into_iter().collect();
            self.refresh_from_ascent(sim, gw, prefix, &mut missing);
            if !missing.is_empty() {
                self.refresh_from_descent(sim, gw, prefix, &mut missing);
            }
        }

        // update_index: thread IOP links, batching M2 per source site
        // and M3 to the capturing site ("one message for each group of
        // objects which are from the same node").
        let mut m2: BTreeMap<SiteId, Vec<(ObjectId, SimTime, Link)>> = BTreeMap::new();
        let mut m3: Vec<(ObjectId, SimTime, Option<Link>)> = Vec::with_capacity(members.len());
        {
            let shard = self.sites[gw].gateway.shard_mut(prefix);
            for &(o, t) in &members {
                let prev = shard.get(&o).copied();
                if let Some(p) = prev {
                    if p.time > t {
                        self.anomalies.out_of_order_arrivals += 1;
                        continue;
                    }
                }
                shard.upsert(o, IndexEntry { site, time: t, prev: prev.map(|p| p.link()) });
                let new_link = Link { site, time: t };
                if let Some(p) = prev {
                    m2.entry(p.site).or_default().push((o, p.time, new_link));
                }
                m3.push((o, t, prev.map(|p| p.link())));
            }
        }
        self.hosted.insert(prefix);
        // `m3` holds exactly the accepted upserts: each changed the
        // stored latest link for its object.
        if self.config.locate_cache.is_some() {
            for &(o, _, _) in &m3 {
                self.epochs.bump(o);
            }
        }

        for (dest, updates) in m2 {
            let msg = Msg::SetTo { updates };
            self.dispatch(sim, gw, self.site_idx(dest), 1, msg);
        }
        if !m3.is_empty() {
            let msg = Msg::SetFrom { updates: m3 };
            self.dispatch(sim, gw, self.site_idx(site), 1, msg);
        }

        self.maybe_delegate(sim, gw, prefix);
        // One shard replication covers both the index upserts above and
        // any shrink `maybe_delegate` just performed (the delegation
        // receivers replicate their own shards on receipt).
        self.replicate_shard(sim, gw, Some(prefix));
    }

    /// Install one handed-off index entry (shard migration or triangle
    /// delegation), merging with any entry a concurrent index update
    /// created at this gateway while the handoff was in flight — a
    /// handoff can be arbitrarily delayed by loss and retransmission.
    /// The two racing visits are re-threaded into one IOP chain where
    /// possible (late M2/M3 repairs); a conflict that cannot be
    /// reconciled locally is counted as an out-of-order arrival so
    /// exactness-sensitive consumers can back off.
    fn merge_entry(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        p: Prefix,
        o: ObjectId,
        e: IndexEntry,
    ) {
        let Some(ex) = self.sites[gw].gateway.shard_mut(p).get(&o).copied() else {
            self.sites[gw].gateway.shard_mut(p).upsert(o, e);
            return;
        };
        if ex.time == e.time {
            // The same visit arrived twice (e.g. a duplicated handoff);
            // keep the richer threading.
            if ex.prev.is_none() && e.prev.is_some() {
                self.sites[gw].gateway.shard_mut(p).upsert(o, e);
            }
            return;
        }
        let handoff_is_newer = ex.time < e.time;
        let (older, newer) = if handoff_is_newer { (ex, e) } else { (e, ex) };
        // When the handoff carries the newer visit, the stored latest
        // link changes content below — cached answers die with it. (The
        // reverse direction only enriches threading; the answer stands.)
        if handoff_is_newer {
            self.bump_epoch(o);
        }
        if newer.prev == Some(older.link()) {
            // Already threaded past the older visit — nothing to repair.
            if handoff_is_newer {
                self.sites[gw].gateway.shard_mut(p).upsert(o, newer);
            }
        } else if newer.prev.is_none() {
            // Thread the older visit in as the newer one's predecessor
            // and repair the repositories' links (late M2/M3).
            let merged = IndexEntry { prev: Some(older.link()), ..newer };
            self.sites[gw].gateway.shard_mut(p).upsert(o, merged);
            let m2 = Msg::SetTo { updates: vec![(o, older.time, newer.link())] };
            self.dispatch(sim, gw, self.site_idx(older.site), 1, m2);
            let m3 = Msg::SetFrom { updates: vec![(o, newer.time, Some(older.link()))] };
            self.dispatch(sim, gw, self.site_idx(newer.site), 1, m3);
        } else {
            // The newer visit already has a different predecessor: the
            // older one belongs somewhere mid-chain. Keep the newer
            // entry and record the reordering.
            if handoff_is_newer {
                self.sites[gw].gateway.shard_mut(p).upsert(o, newer);
            }
            self.anomalies.out_of_order_arrivals += 1;
        }
    }

    /// Fig. 5 `refresh_from_ascent`: walk shorter prefixes (nearest
    /// ancestor first, down to `Lmin`), fetching — *moving* — any index
    /// entries for the missing objects into the local shard.
    fn refresh_from_ascent(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        prefix: Prefix,
        missing: &mut HashSet<ObjectId>,
    ) {
        let Some(g) = self.group_config() else { return };
        let mut l = prefix.len();
        while l > g.l_min && !missing.is_empty() {
            l -= 1;
            let p = prefix.truncate(l);
            self.fetch_remote(sim, gw, p, prefix, missing);
        }
    }

    /// Fig. 5 `refresh_from_descent`: recurse into hosted child prefixes
    /// fetching entries for the missing objects.
    fn refresh_from_descent(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        prefix: Prefix,
        missing: &mut HashSet<ObjectId>,
    ) {
        self.descend(sim, gw, prefix, prefix, missing);
    }

    fn descend(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        node: Prefix,
        dest: Prefix,
        missing: &mut HashSet<ObjectId>,
    ) {
        if missing.is_empty() || node.len() >= ids::prefix::MAX_PREFIX_BITS {
            return;
        }
        for one in [false, true] {
            let child = node.child(one);
            // filter(objects, p+bit): only objects under this child.
            if !missing.iter().any(|o| child.matches(&o.id())) {
                continue;
            }
            let was_hosted = self.is_hosted(&child);
            self.fetch_remote(sim, gw, child, dest, missing);
            if was_hosted {
                self.descend(sim, gw, child, dest, missing);
            }
        }
    }

    /// One refresh fetch: take matching entries from the shard at
    /// `p`'s gateway into `gw`'s shard for the original prefix, charging
    /// a request/reply pair of `Refresh` messages.
    fn fetch_remote(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        p: Prefix,
        dest: Prefix,
        missing: &mut HashSet<ObjectId>,
    ) {
        if !self.is_hosted(&p) {
            if self.config.count_existence_checks {
                let (_, hops) = self.route_traced(sim, self.sites[gw].site, p.gateway_id());
                sim.metrics_mut().record(MsgClass::Lookup, HEADER_BYTES + PREFIX_BYTES, hops);
            }
            return;
        }
        let (owner, hops) = self.route_traced(sim, self.sites[gw].site, p.gateway_id());
        let want: Vec<ObjectId> = missing
            .iter()
            .filter(|o| p.matches(&o.id()))
            .copied()
            .collect();
        if want.is_empty() {
            return;
        }

        // Fault plane: the fetch is a synchronous request/reply RPC, so
        // loss is sampled directly (it never crosses the event queue).
        // Either leg can be lost; with retries enabled the exchange is
        // re-attempted within the configured budget (extra requests are
        // charged as `Retrans`), otherwise a single loss abandons the
        // fetch — the entries stay at the remote shard and the local
        // index goes stale, a genuine fault the auditor can observe.
        if owner != gw && sim.has_faults() {
            let req_bytes = HEADER_BYTES + PREFIX_BYTES + want.len() * OBJECT_ID_BYTES;
            let max_attempts =
                if self.config.retry.enabled { self.config.retry.max_attempts } else { 1 };
            let mut attempt = 1u32;
            let ok = loop {
                let plane = sim.faults_mut().expect("has_faults");
                let lost = plane.sample_loss(gw, owner) || plane.sample_loss(owner, gw);
                if !lost {
                    break true;
                }
                if attempt >= max_attempts {
                    break false;
                }
                attempt += 1;
                sim.metrics_mut().record(MsgClass::Retrans, req_bytes, hops);
            };
            if !ok {
                // The initial request was still transmitted and charged.
                sim.metrics_mut().record(MsgClass::Refresh, req_bytes, hops);
                self.anomalies.refresh_failures += 1;
                return;
            }
        }

        // Take matching entries from the remote shard.
        let mut fetched: Vec<(ObjectId, IndexEntry)> = Vec::new();
        if let Some(shard) = self.sites[owner].gateway.prefixes.get_mut(&p) {
            for o in &want {
                if let Some(e) = shard.take(o) {
                    fetched.push((*o, e));
                }
            }
        }
        if self.sites[owner].gateway.prune_if_empty(&p) {
            self.hosted.remove(&p);
        }

        // Charge request + reply (even when the reply is empty: the
        // gateway could not know without asking).
        if owner != gw {
            let req_bytes = HEADER_BYTES + PREFIX_BYTES + want.len() * OBJECT_ID_BYTES;
            let rep_bytes =
                HEADER_BYTES + fetched.len() * (OBJECT_ID_BYTES + ENTRY_BYTES);
            let m = sim.metrics_mut();
            m.record(MsgClass::Refresh, req_bytes, hops);
            m.record(MsgClass::Refresh, rep_bytes, 1);
        }

        if !fetched.is_empty() {
            // History lands in the shard that requested the refresh.
            self.hosted.insert(dest);
            let shard = self.sites[gw].gateway.shard_mut(dest);
            for (o, e) in &fetched {
                shard.upsert(*o, *e);
                missing.remove(o);
            }
            // The source shard shrank (possibly to nothing); ship the
            // new content to its replica set. The destination shard is
            // replicated once by `handle_group_index` after all
            // refresh fetches land.
            self.replicate_shard(sim, owner, Some(p));
        }
    }

    /// Fig. 5 `update_index` lines 2–4: delegate the earliest `α·count`
    /// records to the two triangle children when the shard exceeds the
    /// configured threshold.
    fn maybe_delegate(&mut self, sim: &mut Sim<Wire>, gw: usize, prefix: Prefix) {
        let Some(g) = self.group_config() else { return };
        let Some(threshold) = g.delegate_threshold else { return };
        if prefix.len() >= ids::prefix::MAX_PREFIX_BITS {
            return;
        }
        let len = self.sites[gw].gateway.shard_mut(prefix).len();
        if len <= threshold {
            return;
        }
        let k = ((g.alpha * len as f64).ceil() as usize).min(len);
        let victims = self.sites[gw].gateway.shard_mut(prefix).take_earliest(k);
        self.sites[gw].gateway.shard_mut(prefix).delegated = true;

        let bit = prefix.len();
        let mut split: [Vec<(ObjectId, IndexEntry)>; 2] = [Vec::new(), Vec::new()];
        for (o, e) in victims {
            split[o.id().bit(bit) as usize].push((o, e));
        }
        for (oneness, entries) in split.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let child = prefix.child(oneness == 1);
            self.hosted.insert(child);
            let (owner, hops) = self.route_traced(sim, self.sites[gw].site, child.gateway_id());
            let msg = Msg::Delegate { prefix: child, entries };
            self.dispatch(sim, gw, owner, hops, msg);
        }
    }

    // ------------------------------------------------------------------
    // Lp maintenance: the splitting–merging process (§IV-A.2)
    // ------------------------------------------------------------------

    /// Recompute `Lp` from the (estimated) ring size; on change, run the
    /// eager splitting/merging migration if configured. Returns the new
    /// `Lp`.
    pub fn refresh_lp(&mut self, sim: &mut Sim<Wire>) -> usize {
        let Some(g) = self.group_config() else { return self.current_lp };
        let nn = self.estimated_size(sim, g);
        let target = g.scheme.lp_clamped(nn, g.l_min);
        if !g.eager_split_merge {
            self.current_lp = target;
            return target;
        }
        while self.current_lp < target {
            let l = self.current_lp;
            self.split_level(sim, l);
            self.current_lp += 1;
        }
        while self.current_lp > target {
            let l = self.current_lp;
            // Children of the old triangles sit one level below the old
            // parents; they migrate up into the (new child) level first.
            self.merge_level(sim, l + 1);
            self.current_lp -= 1;
        }
        target
    }

    /// The network size used to derive `Lp`, per the configured policy.
    /// The gossip policy simulates a full push-pull epoch over the live
    /// membership and charges its traffic (one message pair per node per
    /// round, header-sized payloads).
    fn estimated_size(&mut self, sim: &mut Sim<Wire>, g: GroupConfig) -> usize {
        match g.size_estimation {
            SizeEstimation::Exact => self.ring.len(),
            SizeEstimation::Gossip { rounds } => {
                let n = self.ring.len();
                // Under a fault plane, gossip suffers the same default
                // loss rate as the rest of the traffic (loss = 0 when no
                // plane: identical RNG draws, byte-identical runs).
                let loss = match sim.faults_mut() {
                    Some(p) => p.default_drop(),
                    None => 0.0,
                };
                let est =
                    crate::estimator::estimate_count_lossy(n, rounds, loss, sim.rng_mut());
                let m = sim.metrics_mut();
                m.record_bulk(
                    MsgClass::Gossip,
                    est.messages,
                    est.messages * 24, // one f64 value + header per exchange
                    est.messages,
                );
                est.median().round().max(1.0) as usize
            }
        }
    }

    /// Push every shard of length `l` down into its two children
    /// ("the data stored in the old parent will all be delegated into
    /// the two new parent nodes which are its child nodes").
    fn split_level(&mut self, sim: &mut Sim<Wire>, l: usize) {
        // Sorted: the shard map iterates in hash order, and dispatch
        // order feeds the latency/fault RNGs — runs must not depend on
        // the process's hasher seed.
        let mut shards: Vec<(usize, Prefix)> = self
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .flat_map(|(i, s)| {
                s.gateway
                    .prefixes
                    .keys()
                    .filter(|p| p.len() == l)
                    .map(move |p| (i, *p))
                    .collect::<Vec<_>>()
            })
            .collect();
        shards.sort();
        for (idx, p) in shards {
            let entries = match self.sites[idx].gateway.prefixes.get_mut(&p) {
                Some(s) => s.drain_all(),
                None => continue,
            };
            self.sites[idx].gateway.prefixes.remove(&p);
            self.hosted.remove(&p);
            self.replicate_shard(sim, idx, Some(p)); // now empty: replicas drop it
            if entries.is_empty() {
                continue;
            }
            let mut split: [Vec<(ObjectId, IndexEntry)>; 2] = [Vec::new(), Vec::new()];
            for (o, e) in entries {
                split[o.id().bit(l) as usize].push((o, e));
            }
            for (oneness, part) in split.into_iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                let child = p.child(oneness == 1);
                self.hosted.insert(child);
                let (owner, hops) =
                    self.route_traced(sim, self.sites[idx].site, child.gateway_id());
                let msg = Msg::Migrate { prefix: Some(child), entries: part };
                self.dispatch(sim, idx, owner, hops, msg);
            }
        }
    }

    /// Merge every shard of length `l` up into its parent ("the parent
    /// node's two child nodes migrate the data they are indexing to the
    /// parent node").
    fn merge_level(&mut self, sim: &mut Sim<Wire>, l: usize) {
        if l == 0 {
            return;
        }
        // Sorted for hasher-independent dispatch order, as in
        // `split_level`.
        let mut shards: Vec<(usize, Prefix)> = self
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .flat_map(|(i, s)| {
                s.gateway
                    .prefixes
                    .keys()
                    .filter(|p| p.len() == l)
                    .map(move |p| (i, *p))
                    .collect::<Vec<_>>()
            })
            .collect();
        shards.sort();
        for (idx, p) in shards {
            let entries = match self.sites[idx].gateway.prefixes.get_mut(&p) {
                Some(s) => s.drain_all(),
                None => continue,
            };
            self.sites[idx].gateway.prefixes.remove(&p);
            self.hosted.remove(&p);
            self.replicate_shard(sim, idx, Some(p)); // now empty: replicas drop it
            if entries.is_empty() {
                continue;
            }
            let parent = p.parent().expect("l > 0");
            self.hosted.insert(parent);
            let (owner, hops) =
                self.route_traced(sim, self.sites[idx].site, parent.gateway_id());
            let msg = Msg::Migrate { prefix: Some(parent), entries };
            self.dispatch(sim, idx, owner, hops, msg);
        }
    }

    // ------------------------------------------------------------------
    // Churn support (data plane; ring membership handled by `net`)
    // ------------------------------------------------------------------

    /// After a ring change, move every gateway entry/shard whose key the
    /// migration covers from `from_site` to `to_site`, charging
    /// `SplitMerge` traffic (Chord's key handoff).
    pub(crate) fn apply_migration(
        &mut self,
        sim: &mut Sim<Wire>,
        migration: &chord::Migration,
        from_idx: usize,
        to_idx: usize,
    ) {
        // Individual-mode entries move by object id. Sorted so message
        // contents and dispatch order are hasher-independent.
        let mut moved_objects: Vec<ObjectId> = self.sites[from_idx]
            .gateway
            .objects
            .keys()
            .filter(|o| migration.covers(&o.id()))
            .copied()
            .collect();
        moved_objects.sort();
        let mut entries = Vec::with_capacity(moved_objects.len());
        for o in moved_objects {
            let e = self.sites[from_idx].gateway.objects.remove(&o).expect("listed above");
            entries.push((o, e));
        }
        if !entries.is_empty() {
            let msg = Msg::Migrate { prefix: None, entries };
            self.dispatch(sim, from_idx, to_idx, 1, msg);
            self.replicate_shard(sim, from_idx, None);
        }

        // Group-mode shards move whole, by their gateway key; sorted
        // for the same reason as above.
        let mut moved_prefixes: Vec<Prefix> = self.sites[from_idx]
            .gateway
            .prefixes
            .keys()
            .filter(|p| migration.covers(&p.gateway_id()))
            .copied()
            .collect();
        moved_prefixes.sort();
        for p in moved_prefixes {
            let mut shard = self.sites[from_idx]
                .gateway
                .prefixes
                .remove(&p)
                .expect("listed above");
            let entries = shard.drain_all();
            self.replicate_shard(sim, from_idx, Some(p)); // now gone at the source
            if entries.is_empty() {
                continue;
            }
            let msg = Msg::Migrate { prefix: Some(p), entries };
            self.dispatch(sim, from_idx, to_idx, 1, msg);
        }
    }

    /// Recompute the hosted-prefix set from the shards that actually
    /// exist at live sites. Used after a crash: prefixes whose only copy
    /// lived on the dead node must stop attracting refresh fetches.
    pub(crate) fn rebuild_hosted(&mut self) {
        self.hosted = self
            .sites
            .iter()
            .filter(|s| s.alive)
            .flat_map(|s| s.gateway.prefixes.keys().copied())
            .collect();
    }

    /// Total index load per site (objects indexed as gateway) — Fig. 8a.
    pub fn load_distribution(&self) -> Vec<u64> {
        self.sites
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.gateway.load() as u64)
            .collect()
    }

    /// Locates served per live site (cache hits and local answers at
    /// the origin, intermediate/gateway answers at the answering node) —
    /// the query-load hot-shard metric (DESIGN.md §15). Always counted,
    /// caching on or off.
    pub fn query_load(&self) -> Vec<u64> {
        self.sites
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.query_load)
            .collect()
    }

    /// Aggregated locate-cache counters over every site (all zero when
    /// caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.sites {
            if let Some(c) = &s.locate_cache {
                let st = c.stats();
                total.hits += st.hits;
                total.misses += st.misses;
                total.stale += st.stale;
                total.insertions += st.insertions;
                total.evictions += st.evictions;
            }
        }
        total
    }

    /// Borrow a shard for inspection (tests, queries).
    pub fn shard(&self, site: SiteId, p: &Prefix) -> Option<&PrefixIndex> {
        self.sites[self.site_idx(site)].gateway.prefixes.get(p)
    }

    // ------------------------------------------------------------------
    // K-successor replication
    // ------------------------------------------------------------------
    //
    // With `Config.replication.replicas = K > 1`, every site's stores
    // (IOP repository + gateway shards) are mirrored onto its K−1 ring
    // successors. Writes fan out eagerly (`replicate_iop` /
    // `replicate_shard`), a one-shot anti-entropy timer follows each
    // write burst with a digest exchange over the canonical state
    // encoding, reads fall back to replica copies when the primary is
    // gone, and a permanent failure promotes the first successor. Every
    // entry point below no-ops when `replicas <= 1`, so the default
    // path sends no messages, arms no timers and draws no RNG values —
    // committed figure CSVs stay byte-identical.

    fn replication_on(&self) -> bool {
        self.config.replication.enabled()
    }

    /// Live site indices of `idx`'s replica set (its K−1 ring
    /// successors), in ring order. Empty when replication is off.
    fn replica_peer_idxs(&self, idx: usize) -> Vec<usize> {
        let k = self.config.replication.replicas;
        if k <= 1 {
            return Vec::new();
        }
        // `successors_of` of a member id starts with the member itself.
        self.ring
            .successors_of(&self.sites[idx].chord_id, k)
            .into_iter()
            .skip(1)
            .filter_map(|id| self.ring.app_index_of(&id))
            .filter(|&h| h != idx)
            .collect()
    }

    /// Canonical byte encoding of a site's primary stores (IOP then
    /// gateway) — the unit both digests and full-state sync hash and
    /// ship. Same sorted-key encoders the daemon's snapshots use, so
    /// semantically equal stores encode byte-identically.
    fn store_state_bytes(&self, idx: usize) -> Vec<u8> {
        let mut buf = ByteBuf::new();
        codec::put_state_iop(&mut buf, &self.sites[idx].iop);
        codec::put_state_gateway(&mut buf, &self.sites[idx].gateway);
        buf.freeze().as_slice().to_vec()
    }

    /// Canonical encoding of `holder`'s replica copy of `primary`'s
    /// stores (empty stores when the holder has no copy yet).
    fn replica_state_bytes(&self, holder: usize, primary: SiteId) -> Vec<u8> {
        let empty_iop = IopStore::new();
        let empty_gw = GatewayStore::new();
        let iop = self.sites[holder].replica_iop.get(&primary).unwrap_or(&empty_iop);
        let gw = self.sites[holder].replica_gateway.get(&primary).unwrap_or(&empty_gw);
        let mut buf = ByteBuf::new();
        codec::put_state_iop(&mut buf, iop);
        codec::put_state_gateway(&mut buf, gw);
        buf.freeze().as_slice().to_vec()
    }

    /// Arm the one-shot anti-entropy timer for `idx` unless one is
    /// already pending. Called from every replicated write.
    fn arm_antientropy(&mut self, sim: &mut Sim<Wire>, idx: usize) {
        if self.sites[idx].antientropy_timer.is_some() {
            return;
        }
        let period = self.config.replication.anti_entropy_period;
        let t = sim.set_timer(idx, period, timer_kind(TAG_ANTIENTROPY, idx as u64));
        self.sites[idx].antientropy_timer = Some(t);
    }

    /// Fan one or more IOP record updates out to `idx`'s replica set.
    /// `keys` are `(object, arrival time)` record keys; the full
    /// records are read back from the primary store so replicas always
    /// receive the post-update state.
    fn replicate_iop(&mut self, sim: &mut Sim<Wire>, idx: usize, keys: &[(ObjectId, SimTime)]) {
        if !self.replication_on() || keys.is_empty() {
            return;
        }
        let updates: Vec<(ObjectId, IopRecord)> = keys
            .iter()
            .filter_map(|&(o, t)| self.sites[idx].iop.record_at(o, t).map(|r| (o, *r)))
            .collect();
        if updates.is_empty() {
            return;
        }
        let primary = self.sites[idx].site;
        for h in self.replica_peer_idxs(idx) {
            let msg = Msg::ReplIop { primary, updates: updates.clone() };
            self.dispatch(sim, idx, h, 1, msg);
        }
        self.arm_antientropy(sim, idx);
    }

    /// Ship the full current content of one of `idx`'s gateway shards
    /// (`None` = the individual-mode object map) to its replica set.
    /// Full-shard replace semantics let removals propagate without
    /// tombstones: an empty shard drops the replica copy.
    fn replicate_shard(&mut self, sim: &mut Sim<Wire>, idx: usize, prefix: Option<Prefix>) {
        if !self.replication_on() {
            return;
        }
        let (mut entries, delegated): (Vec<(ObjectId, IndexEntry)>, bool) = match prefix {
            Some(p) => match self.sites[idx].gateway.prefixes.get(&p) {
                Some(shard) => (
                    shard.entries.iter().map(|(o, e)| (*o, *e)).collect(),
                    shard.delegated,
                ),
                None => (Vec::new(), false),
            },
            None => (
                self.sites[idx].gateway.objects.iter().map(|(o, e)| (*o, *e)).collect(),
                false,
            ),
        };
        // Sorted: message contents feed the canonical encoding at the
        // replica and must be hasher-independent.
        entries.sort_by_key(|(o, _)| *o);
        let primary = self.sites[idx].site;
        for h in self.replica_peer_idxs(idx) {
            let msg = Msg::ReplShard { primary, prefix, entries: entries.clone(), delegated };
            self.dispatch(sim, idx, h, 1, msg);
        }
        self.arm_antientropy(sim, idx);
    }

    /// Redirect an M2/M3 IOP update whose destination is permanently
    /// dead to the live holders of that site's replica repository, as a
    /// [`Msg::ReplIopPatch`]. Without replication (or with no surviving
    /// holder) the update is lost and counted, as before.
    fn redirect_to_replicas(&mut self, sim: &mut Sim<Wire>, from: usize, to: usize, msg: Msg) {
        let primary = self.sites[to].site;
        let holders: Vec<usize> = (0..self.sites.len())
            .filter(|&h| h != to && self.sites[h].alive)
            .filter(|&h| self.sites[h].replica_iop.contains_key(&primary))
            .collect();
        if holders.is_empty() {
            self.anomalies.dropped_to_dead += 1;
            return;
        }
        let (set_to, set_from) = match msg {
            Msg::SetTo { updates } => (updates, Vec::new()),
            Msg::SetFrom { updates } => (Vec::new(), updates),
            other => unreachable!("only IOP updates are redirected, got {other:?}"),
        };
        for h in holders {
            let patch = Msg::ReplIopPatch {
                primary,
                set_to: set_to.clone(),
                set_from: set_from.clone(),
            };
            self.dispatch(sim, from, h, 1, patch);
        }
    }

    /// Read a visit record, falling back to replica copies when the
    /// primary site is gone. With `replicas = 1` this is exactly the
    /// primary-only read the seed performed.
    pub fn iop_record(
        &self,
        site: SiteId,
        object: ObjectId,
        arrived: SimTime,
    ) -> Option<IopRecord> {
        let s = &self.sites[self.site_idx(site)];
        if s.alive {
            return s.iop.record_at(object, arrived).copied();
        }
        if !self.replication_on() {
            return None;
        }
        self.sites
            .iter()
            .filter(|h| h.alive)
            .filter_map(|h| h.replica_iop.get(&site))
            .find_map(|st| st.record_at(object, arrived))
            .copied()
    }

    /// The live sites currently holding replica copies for `site`,
    /// in site-index order — the observable holder set the replication
    /// property checks against the ring's ground truth.
    pub fn replica_holders(&self, site: SiteId) -> Vec<SiteId> {
        self.sites
            .iter()
            .filter(|h| h.alive && h.site != site)
            .filter(|h| {
                h.replica_iop.contains_key(&site) || h.replica_gateway.contains_key(&site)
            })
            .map(|h| h.site)
            .collect()
    }

    /// Anti-entropy reconvergence check (the schedule auditor's
    /// post-quiescence invariant): every live primary's current replica
    /// holders hold a byte-identical copy of the primary's canonical
    /// store state. Empty when replication is off or everything
    /// matches. Meaningful only after quiescence on a loss-free plane —
    /// in-flight or dropped `ReplState` deliveries legitimately leave
    /// copies behind until the next write re-arms the digest exchange.
    pub fn replica_divergence(&self) -> Vec<String> {
        if !self.replication_on() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for idx in 0..self.sites.len() {
            if !self.sites[idx].alive {
                continue;
            }
            let want = self.store_state_bytes(idx);
            let primary = self.sites[idx].site;
            for h in self.replica_peer_idxs(idx) {
                if !self.sites[h].alive {
                    continue;
                }
                if self.replica_state_bytes(h, primary) != want {
                    out.push(format!(
                        "replica: holder {} diverges from primary {primary} after quiescence",
                        self.sites[h].site
                    ));
                }
            }
        }
        out
    }

    /// Re-establish the replica placement invariant after a membership
    /// change: every live primary's state is held by exactly its K−1
    /// current ring successors. Stale copies at ex-holders are dropped
    /// locally (each node knows the new membership from stabilization);
    /// current holders receive a full-state sync. Copies keyed by
    /// *dead* primaries are left in place — they are the read-fallback
    /// data that keeps locate/trace oracle-exact after a permanent
    /// loss.
    pub(crate) fn replica_maintenance(&mut self, sim: &mut Sim<Wire>) {
        if !self.replication_on() {
            return;
        }
        for idx in 0..self.sites.len() {
            if !self.sites[idx].alive {
                continue;
            }
            let holder_idxs = self.replica_peer_idxs(idx);
            let primary = self.sites[idx].site;
            for h in 0..self.sites.len() {
                if h == idx || holder_idxs.contains(&h) {
                    continue;
                }
                self.sites[h].replica_iop.remove(&primary);
                self.sites[h].replica_gateway.remove(&primary);
            }
            let state = self.store_state_bytes(idx);
            for &h in &holder_idxs {
                let msg = Msg::ReplState { primary, state: state.clone() };
                self.dispatch(sim, idx, h, 1, msg);
            }
        }
    }

    /// Failover: the first live successor of a permanently failed
    /// primary merges its replica copy of the dead site's *gateway*
    /// stores into its own primary stores — the ring now routes the
    /// dead site's key ranges to it, so the index data must be served
    /// as primary data. The dead site's IOP replica copies stay where
    /// they are (repository records are keyed by the site that observed
    /// them; reads reach them via [`NetWorld::iop_record`] fallback).
    /// Call after `ring.fail` + stabilization.
    pub(crate) fn promote_dead_primary(&mut self, dead_idx: usize) {
        if !self.replication_on() {
            return;
        }
        let dead = self.sites[dead_idx].site;
        let dead_chord = self.sites[dead_idx].chord_id;
        let Some(heir_id) = self.ring.successor_of(&dead_chord) else {
            return;
        };
        let Some(heir) = self.ring.app_index_of(&heir_id) else {
            return;
        };
        if let Some(gw) = self.sites[heir].replica_gateway.remove(&dead) {
            let mut objs: Vec<(ObjectId, IndexEntry)> = gw.objects.into_iter().collect();
            objs.sort_by_key(|(o, _)| *o);
            for (o, e) in objs {
                match self.sites[heir].gateway.objects.get(&o) {
                    // A racing index update at the heir already holds a
                    // newer visit — keep it.
                    Some(ex) if ex.time >= e.time => {}
                    _ => {
                        self.sites[heir].gateway.objects.insert(o, e);
                    }
                }
            }
            let mut prefixes: Vec<(Prefix, PrefixIndex)> = gw.prefixes.into_iter().collect();
            prefixes.sort_by_key(|(p, _)| *p);
            for (p, shard) in prefixes {
                let mut es: Vec<(ObjectId, IndexEntry)> =
                    shard.entries.iter().map(|(o, e)| (*o, *e)).collect();
                es.sort_by_key(|(o, _)| *o);
                let dst = self.sites[heir].gateway.shard_mut(p);
                dst.delegated |= shard.delegated;
                for (o, e) in es {
                    match dst.get(&o) {
                        Some(ex) if ex.time >= e.time => {}
                        _ => dst.upsert(o, e),
                    }
                }
                self.hosted.insert(p);
            }
        }
        // The heir owns the ranges now; other holders' copies of the
        // dead gateway are stale bootstrap data, not serving state.
        for s in &mut self.sites {
            s.replica_gateway.remove(&dead);
        }
    }
}

impl World<Wire> for NetWorld {
    fn on_message(&mut self, sim: &mut Sim<Wire>, to: NodeIndex, from: NodeIndex, wire: Wire) {
        self.handle(sim, to, from, wire);
    }

    fn on_timer(&mut self, sim: &mut Sim<Wire>, node: NodeIndex, kind: u64) {
        let tag = kind >> TAG_SHIFT;
        let value = kind & ((1 << TAG_SHIFT) - 1);
        match tag {
            TAG_WINDOW => {
                let idx = value as usize;
                debug_assert_eq!(idx, node);
                if !self.sites[idx].alive {
                    return;
                }
                self.sites[idx].window_timer = None;
                if let Some(batch) = self.sites[idx].window.flush(sim.now()) {
                    self.index_batch(sim, batch);
                }
            }
            TAG_CAPTURE => {
                if let Some((site, objects)) = self.pending_captures.remove(&value) {
                    if self.sites[site.0 as usize].alive {
                        self.capture_now(sim, site, &objects);
                    }
                }
            }
            TAG_RETRY => {
                self.handle_retry_timeout(sim, value);
            }
            TAG_ANTIENTROPY => {
                let idx = value as usize;
                debug_assert_eq!(idx, node);
                self.sites[idx].antientropy_timer = None;
                if !self.sites[idx].alive || !self.replication_on() {
                    return;
                }
                let digest = Id::hash(&self.store_state_bytes(idx));
                let primary = self.sites[idx].site;
                for h in self.replica_peer_idxs(idx) {
                    self.dispatch(sim, idx, h, 1, Msg::ReplDigest { primary, digest });
                }
            }
            other => panic!("unknown timer tag {other}"),
        }
    }
}
