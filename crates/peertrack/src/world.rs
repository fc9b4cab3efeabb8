//! The simulator driver: every site's state inside one discrete-event
//! world.
//!
//! [`NetWorld`] owns all distributed state — the Chord ring and, per
//! site, the window buffer, timers and caches around a
//! [`crate::site::Site`] — and implements [`simnet::World`] so the
//! discrete-event engine can drive it. The protocol transitions
//! themselves (M2/M3 threading, the Fig. 5 `index`/`update_index`
//! algorithm, handoff merges, the replication arms) live in
//! [`crate::site`]; this module runs them and executes their effects:
//!
//! * a capture appends an open IOP record locally, then either reports
//!   the arrival individually (**M1**) or buffers it in the adaptive
//!   window (§IV-A.1), whose `Tmax` is a simulator timer;
//! * delivery is sequenced, deduplicated and — with the retry layer —
//!   acked and retransmitted, with trace spans per message;
//! * routing is `route_traced` over the global ring plus the §IV-A.2
//!   gateway address cache;
//! * unknown objects trigger the Fig. 5 `refresh_from_ascent` /
//!   `refresh_from_descent` fetches before the gateway indexes a batch
//!   (charged as `Refresh` traffic; executed as zero-latency RPCs — the
//!   figures measure message volume, not indexing latency, see
//!   DESIGN.md);
//! * changes of `Lp` run the splitting–merging process (§IV-A.2) when
//!   `eager_split_merge` is set, and churn migrates key ranges;
//! * replication anti-entropy runs on a one-shot timer after writes.

use crate::config::{Config, GroupConfig, IndexingMode, SizeEstimation};
use crate::grouping::group_batch;
use crate::messages::{Msg, Wire, ENTRY_BYTES, HEADER_BYTES, OBJECT_ID_BYTES, PREFIX_BYTES};
use crate::query::{self, QueryCost};
use crate::site::{self, Effect, Rules, Site};
use crate::spans;
use crate::store::{IndexEntry, IopRecord, Link};
use crate::window::{WindowBatch, WindowBuffer, WindowEvent};
use chord::Ring;
use ids::{Id, Prefix};
use moods::{ObjectId, SiteId};
use qcache::{CacheStats, EpochTable, LocateCache};
use simnet::{MsgClass, NodeIndex, Sim, SimTime, TimerId, World};
use std::collections::{HashMap, HashSet};

pub use crate::site::Anomalies;

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
///
/// A `SiteState` is the site's protocol [`Site`] (repository, gateway
/// shards, replica copies) plus the simulator-side state around it, and
/// dereferences to the `Site`.
pub struct SiteState {
    /// The site's protocol state.
    pub proto: Site,
    /// Ring identity (SHA-1 of the site's external address).
    pub chord_id: Id,
    /// False once the site has left the network.
    pub alive: bool,
    /// Group-mode capture window.
    pub window: WindowBuffer,
    /// Pending `Tmax` timer for the open window, if any.
    window_timer: Option<TimerId>,
    /// Cached gateway locations per prefix (§IV-A.2 address caching):
    /// owner site index at the time of first contact.
    gateway_cache: HashMap<Prefix, usize>,
    /// Sequence numbers already processed (retry mode): retransmissions
    /// and fault-plane duplicates are acked again but not re-applied —
    /// IOP upserts are not idempotent, so at-least-once delivery plus
    /// this filter gives exactly-once processing.
    seen_seqs: HashSet<u64>,
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
    /// Pending site effects, executed depth-first (see [`Self::step`]);
    /// empty between events.
    effects: Vec<Effect>,
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

impl std::ops::Deref for SiteState {
    type Target = Site;
    fn deref(&self) -> &Site {
        &self.proto
    }
}

impl std::ops::DerefMut for SiteState {
    fn deref_mut(&mut self) -> &mut Site {
        &mut self.proto
    }
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
            effects: Vec::new(),
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
            proto: Site::new(site),
            chord_id,
            alive: true,
            window: WindowBuffer::new(site, n_max),
            window_timer: None,
            gateway_cache: HashMap::new(),
            seen_seqs: HashSet::new(),
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
        self.step(sim, idx, |s, rules, out| s.capture(objects, now, rules, out));
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
        let caching = self.group_config().is_some_and(|g| g.cache_gateway_addresses);
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
        self.deliver(sim, to, from, msg);
    }

    /// Hand one accepted message to the site at `to`, after the Fig. 5
    /// refresh fetches a `GroupIndex` needs first.
    fn deliver(&mut self, sim: &mut Sim<Wire>, to: usize, from: usize, msg: Msg) {
        if let Msg::GroupIndex { prefix, members, .. } = &msg {
            self.refresh(sim, to, *prefix, members);
        }
        let from = self.sites[from].site;
        self.step(sim, to, |s, rules, out| s.handle(from, msg, rules, out));
    }

    /// The protocol switches the configuration selects.
    fn rules(&self) -> Rules {
        Rules {
            replicated: self.replication_on(),
            delegation: self.group_config().and_then(|g| Some((g.delegate_threshold?, g.alpha))),
        }
    }

    /// Run one transition of the site at `idx` and execute its effects
    /// in emission order, depth-first: a self-send is handled (and its
    /// own effects executed) before the next effect — exactly the order
    /// of an inline dispatch.
    fn step(
        &mut self,
        sim: &mut Sim<Wire>,
        idx: usize,
        transition: impl FnOnce(&mut Site, Rules, &mut Vec<Effect>),
    ) {
        let base = self.effects.len();
        let rules = self.rules();
        transition(&mut self.sites[idx].proto, rules, &mut self.effects);
        self.effects[base..].reverse();
        while self.effects.len() > base {
            let effect = self.effects.pop().expect("above base");
            self.apply(sim, idx, effect);
        }
    }

    fn apply(&mut self, sim: &mut Sim<Wire>, idx: usize, effect: Effect) {
        match effect {
            Effect::Send { to, hops, msg } => self.dispatch(sim, idx, self.site_idx(to), hops, msg),
            Effect::Route { key, msg } => {
                let (owner, hops) = self.route_traced(sim, self.sites[idx].site, key);
                self.dispatch(sim, idx, owner, hops, msg);
            }
            Effect::Replicate(msg) => {
                for h in self.replica_peer_idxs(idx) {
                    self.dispatch(sim, idx, h, 1, msg.clone());
                }
                self.arm_antientropy(sim, idx);
            }
            Effect::Moved(o) => self.bump_epoch(o),
            Effect::Hosted(p) => {
                self.hosted.insert(p);
            }
            Effect::Anomaly(a) => self.anomalies.count(a),
            Effect::Malformed => unreachable!("simulated primaries ship well-formed state"),
        }
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

    /// Fig. 5 `index` lines 2–3 at gateway `gw`: fetch — *move* — into
    /// `prefix`'s shard the index entries of batch members it does not
    /// know, walking shorter prefixes first (`refresh_from_ascent`:
    /// nearest ancestor first, down to `Lmin`), then hosted child
    /// prefixes (`refresh_from_descent`).
    fn refresh(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        prefix: Prefix,
        members: &[(ObjectId, SimTime)],
    ) {
        let mut missing = self.sites[gw].unindexed(prefix, members);
        let l_min = self.group_config().map_or(prefix.len(), |g| g.l_min);
        for l in (l_min..prefix.len()).rev() {
            if missing.is_empty() {
                break;
            }
            self.fetch_remote(sim, gw, prefix.truncate(l), prefix, &mut missing);
        }
        self.descend(sim, gw, prefix, prefix, &mut missing);
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
            // replicated once by the site's `GroupIndex` transition
            // after all refresh fetches land.
            self.replicate_shard(sim, owner, Some(p));
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
            self.migrate_level(sim, self.current_lp, true);
            self.current_lp += 1;
        }
        while self.current_lp > target {
            // Children of the old triangles sit one level below the old
            // parents; they migrate up into the (new child) level first.
            self.migrate_level(sim, self.current_lp + 1, false);
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

    /// Drain every shard of length `l` and migrate its entries one level
    /// down into its two children when `split` ("the data stored in the
    /// old parent will all be delegated into the two new parent nodes
    /// which are its child nodes"), else one level up into its parent
    /// ("the parent node's two child nodes migrate the data they are
    /// indexing to the parent node").
    fn migrate_level(&mut self, sim: &mut Sim<Wire>, l: usize, split: bool) {
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
            let Some(mut shard) = self.sites[idx].gateway.prefixes.remove(&p) else { continue };
            let entries = shard.drain_all();
            self.hosted.remove(&p);
            self.replicate_shard(sim, idx, Some(p)); // now empty: replicas drop it
            if entries.is_empty() {
                continue;
            }
            let parts = match split {
                true => site::split_to_children(p, entries),
                false => vec![(p.parent().expect("shards below Lmin have a parent"), entries)],
            };
            for (dest, part) in parts {
                self.hosted.insert(dest);
                let (owner, hops) = self.route_traced(sim, self.sites[idx].site, dest.gateway_id());
                let msg = Msg::Migrate { prefix: Some(dest), entries: part };
                self.dispatch(sim, idx, owner, hops, msg);
            }
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

    // ------------------------------------------------------------------
    // K-successor replication
    // ------------------------------------------------------------------
    //
    // With `Config.replication.replicas = K > 1`, every site's stores
    // (IOP repository + gateway shards) are mirrored onto its K−1 ring
    // successors. Writes fan out eagerly (the sites' `Replicate`
    // effects), a one-shot anti-entropy timer follows each
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
        let holders = site::replica_holders(&self.ring, &self.sites[idx].chord_id, k);
        holders.into_iter().map(|s| self.site_idx(s)).collect()
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

    /// Replicate one of `idx`'s gateway shards (`None` = the
    /// individual-mode object map) after a driver-side change to it.
    fn replicate_shard(&mut self, sim: &mut Sim<Wire>, idx: usize, prefix: Option<Prefix>) {
        self.step(sim, idx, |s, rules, out| s.replicate_shard(prefix, rules, out));
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
        let patch = site::patch_for_replicas(primary, msg);
        for h in holders {
            self.dispatch(sim, from, h, 1, patch.clone());
        }
    }

    /// Read a visit record, falling back to replica copies when the
    /// primary site is gone — the query path's uncharged read.
    pub fn iop_record(
        &self,
        site: SiteId,
        object: ObjectId,
        arrived: SimTime,
    ) -> Option<IopRecord> {
        let (mut at, link) = (site, Link { site, time: arrived });
        query::fetch_record(&mut &*self, &mut at, link, object, &mut QueryCost::default())
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
            let want = self.sites[idx].state_bytes();
            let primary = self.sites[idx].site;
            for h in self.replica_peer_idxs(idx) {
                if !self.sites[h].alive {
                    continue;
                }
                if self.sites[h].replica_state_bytes(primary) != want {
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
            let msg = self.sites[idx].state_msg();
            for &h in &holder_idxs {
                self.dispatch(sim, idx, h, 1, msg.clone());
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
    pub(crate) fn promote_dead_primary(&mut self, sim: &mut Sim<Wire>, dead_idx: usize) {
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
            self.step(sim, heir, |s, _, out| s.absorb_gateway(gw, out));
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
                self.sites[idx].window_timer = None; // fired: nothing to cancel
                self.flush_site_window(sim, idx);
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
                let digest = self.sites[idx].digest_msg();
                for h in self.replica_peer_idxs(idx) {
                    self.dispatch(sim, idx, h, 1, digest.clone());
                }
            }
            other => panic!("unknown timer tag {other}"),
        }
    }
}
