//! One PeerTrack/Chord node served over real sockets.
//!
//! [`Node::spawn`] binds a listener and runs a single-threaded engine
//! for one site: its [`peertrack::site::Site`] protocol state, capture
//! window and Chord routing replica. The engine is a readiness-driven
//! event loop over nonblocking sockets ([`transport::nio`]): each
//! wakeup decodes the frames that arrived, processes them strictly
//! serially, then *commits the batch* — one WAL fsync for every record
//! the wakeup logged, after which (never before) the responses are
//! released. DESIGN.md §14 specifies the loop.
//!
//! **Core and engine.** [`Core`] is the deterministic state machine:
//! every field that must survive a crash, advanced *only* by
//! [`Core::apply_record`] over the [`WalRecord`] vocabulary the
//! write-ahead log stores. Outbound messages leave through an outbox,
//! so the same `apply` serves live execution (the engine writes the
//! outbox to TCP) and recovery (replay drops it). [`Engine`] owns what
//! a replay must not touch — listener, connections, wall-clock
//! recorder, locate cache, [`durable::DataDir`] — and its one write
//! path is `log_apply`: append to the WAL, then apply.
//!
//! **Protocol plane.** `Core` is the daemon's driver of the shared
//! [`peertrack::site`] transitions, the ones the simulator's `NetWorld`
//! drives per site (DESIGN.md §11). It keeps what differs off-sim:
//! sends are sequenced onto the outbox, routing is a lookup on the
//! local ring replica, refresh fetches and Data-Triangle delegation are
//! never run — a situation that would need one counts `unsupported` —
//! and anti-entropy follows each window flush.
//!
//! **Accounting bridge.** `Core` charges the *model* cost the simulator
//! would — `Msg::wire_size()` bytes, overlay hops from the Chord
//! lookup, queries bulk-charged at the origin, self-sends uncharged —
//! so merging every node's metrics reproduces the simulator's global
//! tally (`tests/tests/cluster_parity.rs`).
//!
//! **Queries.** Locate and trace run [`peertrack::query`] over this
//! node's [`SiteReader`] reads: its own state for its own site, one RPC
//! to the holding site otherwise; a lost RPC makes the answer
//! incomplete. Query-driven lookups run the iterative Chord protocol
//! for real ([`Frame::LookupStep`] per hop, answered from each node's
//! replica). Replicas are rebuilt deterministically from the sorted
//! membership, so a converged cluster routes like the simulator's
//! single ring — which is why the indexing path inside `Core`, where no
//! sockets exist, may answer the same lookup from the local replica.
//!
//! **Deadlock-freedom.** While a query waits for a peer RPC reply, the
//! engine keeps pumping in *nested* mode: read-only RPCs and the whole
//! protocol plane are served, only frames that would start another
//! query (or stop the node) are deferred. Two nodes querying each other
//! both progress, and RPC recursion is bounded at depth 1. The querying
//! connection's inbox is suspended until its query completes, keeping
//! per-connection response order.
//!
//! **Virtual time.** There are no `Tmax` timers off-sim: the driver
//! carries explicit virtual instants ([`Frame::Capture`]`.at`) and
//! closes windows with [`Frame::Flush`]`{now}` when the simulator's
//! timer would have fired. Wall-clock exists only in the latency
//! histograms ([`obs::Recorder::record_latency`]).

use crate::proto::{Frame, ProtoError};
use crate::state::WalRecord;
use chord::{answer_step, LookupDriver, LookupResult, LookupState, Ring};
use durable::{DataDir, FsyncMode};
use ids::{Id, Prefix};
use moods::{ObjectId, SiteId};
use obs::Recorder;
use peertrack::config::GroupConfig;
use peertrack::grouping::group_batch;
use peertrack::messages::{Msg, Wire};
use peertrack::query::{self, QueryCost, ReadResult, RecordRead, SiteReader, Unreachable};
use peertrack::site::{self, Anomalies, Effect, Rules, Site};
use peertrack::store::{IopRecord, Link};
use peertrack::window::{WindowBatch, WindowBuffer, WindowEvent};
use qcache::LocateCache;
use simnet::metrics::{Metrics, MsgClass};
use simnet::SimTime;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use transport::frame::write_frame;
use transport::{Backoff, ConnCache, FrameAccum, NbConn, NbListener};

/// The ring identity of a site, matching the simulator's derivation
/// (`peertrack::net::Builder`) so lookups hash identically.
pub fn chord_id_for(seed: u64, site: SiteId) -> Id {
    let i = site.0 as usize;
    Id::hash_str(&format!("site-{seed}-{i}"))
}

/// Wall clock in µs since the Unix epoch (latency envelopes only —
/// never used for protocol decisions).
fn wall_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Default snapshot cadence: install a snapshot and truncate the log
/// every this many WAL records.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

/// Static configuration of one daemon node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This site's id (also its Chord `app_index`).
    pub site: SiteId,
    /// Cluster-wide seed: determines every site's ring identity.
    pub seed: u64,
    /// Group-indexing parameters. The daemon supports the paper's
    /// experiment regime: group mode with `SizeEstimation::Exact`
    /// semantics (`Lp` from the known membership count).
    pub group: GroupConfig,
    /// Listen address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub listen: String,
    /// Existing member to join through (`None` = this node bootstraps
    /// the cluster).
    pub bootstrap: Option<SocketAddr>,
    /// Durable state directory. `None` (the default everywhere) keeps
    /// the node fully in-memory — the pre-durability behaviour.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy; meaningful only with `data_dir`.
    pub fsync: FsyncMode,
    /// Install a snapshot (and compact the WAL) every this many logged
    /// records; meaningful only with `data_dir`.
    pub snapshot_every: u64,
    /// Replication factor `K`: every site's IOP repository and gateway
    /// shards are copied onto its `K−1` ring successors, and the
    /// cluster survives up to `K−1` permanent losses with oracle-exact
    /// queries. `1` (the default) disables replication entirely — the
    /// pre-replication behaviour, byte-identical state encodings
    /// included. Must match across the cluster, like `seed`.
    pub replicas: usize,
    /// Locate-answer cache capacity (DESIGN.md §15). `None` (the
    /// default) disables the cache entirely. The cache is engine-side
    /// volatile state: excluded from the canonical state encoding and
    /// from snapshots, rebuilt cold after a restart. Unlike `replicas`
    /// it is per-node — nodes with different capacities interoperate.
    pub locate_cache: Option<usize>,
    /// WAN region topology (DESIGN.md §17). `None` (the default) is the
    /// flat pre-geo behaviour. With a topology, the node derives its
    /// region from its site id, injects the topology's per-pair base
    /// latency as a one-time dial delay on every outbound connection
    /// (test builds; [`transport::ConnCache::set_dial_delay`]) and
    /// honors [`Frame::RegionCut`]/[`Frame::RegionHeal`] by parking
    /// protocol frames across severed pairs. Engine-side network-plane
    /// state: never logged, never in the canonical state encoding.
    /// Must agree across the cluster, like `seed`.
    pub geo: Option<geo::Topology>,
}

impl NodeConfig {
    /// Loopback config with an ephemeral port (in-memory).
    pub fn loopback(site: SiteId, seed: u64, bootstrap: Option<SocketAddr>) -> NodeConfig {
        NodeConfig {
            site,
            seed,
            group: GroupConfig::default(),
            listen: "127.0.0.1:0".to_string(),
            bootstrap,
            data_dir: None,
            fsync: FsyncMode::Never,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            replicas: 1,
            locate_cache: None,
            geo: None,
        }
    }
}

/// Everything a node hands back when it shuts down.
pub struct NodeReport {
    /// The site that ran.
    pub site: SiteId,
    /// Model accounting (merge across nodes to compare with the
    /// simulator's global tally).
    pub metrics: Metrics,
    /// Protocol anomaly counters (all zero in a clean run).
    pub anomalies: Anomalies,
    /// Protocol situations the daemon does not implement (refresh
    /// fetches, delegation, individual mode), counted where they arise:
    /// zero within the supported regime, which the parity test asserts;
    /// a shard past `delegate_threshold` counts here while it keeps
    /// indexing (DESIGN.md §11).
    pub unsupported: u64,
    /// Wall-clock delivery-latency histograms per message class, plus
    /// origin-side query latencies under [`MsgClass::Query`].
    pub recorder: Recorder,
    /// Protocol-plane frames sent to other nodes.
    pub sent: u64,
    /// Protocol-plane frames received.
    pub received: u64,
    /// Times a connection crossed the bounded-outbox limit
    /// ([`OUTBOX_LIMIT_BYTES`]) and was parked — reads and request
    /// processing suspended until the client drained its responses.
    /// Zero unless some client stopped reading what it asked for.
    pub backpressure_parks: u64,
}

/// A running node: its address plus the engine thread's handle.
pub struct Node {
    site: SiteId,
    addr: SocketAddr,
    engine: Option<JoinHandle<NodeReport>>,
}

impl Node {
    /// Bind the listener, recover durable state (if a data dir is
    /// configured), join through the bootstrap peer (if any) and start
    /// the engine thread. Recovery failures — an unreadable data dir, a
    /// corrupt snapshot — fail the spawn loudly rather than starting a
    /// node with fabricated state.
    pub fn spawn(cfg: NodeConfig) -> io::Result<Node> {
        let listener = NbListener::bind(&cfg.listen)?;
        let addr = listener.local_addr();
        let site = cfg.site;
        let engine = Engine::new(cfg, addr, listener)?;
        let handle = std::thread::Builder::new()
            .name(format!("peertrackd-{}", site.0))
            .spawn(move || engine.run())?;
        Ok(Node { site, addr, engine: Some(handle) })
    }

    /// The site this node serves.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The bound listener address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the engine to exit (send [`Frame::Shutdown`] or
    /// [`Frame::Crash`] first) and collect its report.
    pub fn join(mut self) -> NodeReport {
        self.engine
            .take()
            .expect("join called once")
            .join()
            .expect("engine thread panicked")
    }
}

/// A protocol message the core wants delivered. The core has already
/// sequenced it, charged the model cost and counted it sent; the
/// engine's only job is the socket write (and undoing the `sent` count
/// if that write fails).
#[derive(Clone, Debug)]
pub struct Outbound {
    /// Destination site.
    pub to: SiteId,
    /// Model overlay hops charged for this delivery.
    pub hops: u32,
    /// Sequenced protocol payload.
    pub wire: Wire,
}

/// The deterministic half of a node: every field that must survive a
/// crash, advanced only by [`Core::apply_record`]. No sockets, no
/// clocks, no filesystem — the same struct runs live under the engine
/// and offline under WAL replay, and `tests/tests/crash_recovery.rs`
/// holds the two byte-identical.
pub struct Core {
    pub(crate) site: SiteId,
    pub(crate) seed: u64,
    pub(crate) group: GroupConfig,
    /// Site → listener address, self included. Sorted iteration keeps
    /// ring rebuilds deterministic.
    pub(crate) members: BTreeMap<SiteId, SocketAddr>,
    pub(crate) ring: Ring,
    pub(crate) lp: usize,
    pub(crate) window: WindowBuffer,
    /// This site's protocol state: repository, gateway shards and
    /// replica copies, advanced by the shared [`peertrack::site`]
    /// transitions.
    pub(crate) proto: Site,
    pub(crate) hosted: HashSet<Prefix>,
    pub(crate) metrics: Metrics,
    pub(crate) next_seq: u64,
    /// `(sender, seq)` pairs already processed (duplicate suppression,
    /// as the simulator's per-site `seen_seqs`).
    pub(crate) seen: HashSet<(u32, u64)>,
    pub(crate) sent: u64,
    pub(crate) received: u64,
    pub(crate) anomalies: Anomalies,
    /// Diagnostic only: bumped by un-logged read-side probes too, so it
    /// is deliberately *excluded* from the canonical state encoding.
    pub(crate) unsupported: u64,
    /// Messages produced by the last `apply_record`, awaiting delivery.
    pub(crate) outbox: Vec<Outbound>,
    /// Pending site effects, executed depth-first by [`Core::step`];
    /// empty between records.
    pub(crate) effects: Vec<Effect>,
    /// Replication factor `K` (config, not logged state — it must match
    /// across the cluster and across restarts, like `seed`). `1`
    /// disables every replication path below.
    pub(crate) replicas: usize,
    /// Sites declared permanently dead ([`WalRecord::Dead`]); never
    /// rejoin, and IOP updates aimed at them are redirected to their
    /// replica holders.
    pub(crate) dead: std::collections::BTreeSet<SiteId>,
}

impl Core {
    /// Fresh state for `site`: a one-member ring of itself.
    pub fn new(site: SiteId, seed: u64, group: GroupConfig, addr: SocketAddr) -> Core {
        let mut members = BTreeMap::new();
        members.insert(site, addr);
        let mut c = Core {
            site,
            seed,
            group,
            members,
            ring: Ring::new(),
            lp: group.l_min,
            window: WindowBuffer::new(site, group.n_max),
            proto: Site::new(site),
            hosted: HashSet::new(),
            metrics: Metrics::new(),
            next_seq: 1,
            seen: HashSet::new(),
            sent: 0,
            received: 0,
            anomalies: Anomalies::default(),
            unsupported: 0,
            outbox: Vec::new(),
            effects: Vec::new(),
            replicas: 1,
            dead: std::collections::BTreeSet::new(),
        };
        c.rebuild_ring();
        c
    }

    /// Apply one logged event. This is the node's *only* state-mutating
    /// entry point; everything it emits lands in the outbox.
    pub fn apply_record(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::Member { site, addr } => {
                if self.dead.contains(site) {
                    return; // kill-forever: a dead site never rejoins
                }
                if let Ok(a) = addr.parse() {
                    self.members.insert(*site, a);
                    self.rebuild_ring();
                    self.replica_maintenance();
                }
            }
            WalRecord::Capture { at, objects } => self.on_capture(*at, objects),
            WalRecord::Flush { now } => self.on_flush(*now),
            WalRecord::Protocol { sender, wire } => self.on_protocol(*sender, wire),
            WalRecord::Query { messages, hops, bytes } => {
                self.metrics.record_bulk(MsgClass::Query, *messages, *bytes, *hops);
            }
            WalRecord::Dead { site } => self.on_dead(*site),
        }
    }

    /// Apply during recovery: identical transition, but the outbox is
    /// discarded — every message this event produced was already
    /// delivered (or accounted dropped) in the life that logged it.
    pub fn replay(&mut self, rec: &WalRecord) {
        self.apply_record(rec);
        self.outbox.clear();
    }

    /// Drain the messages the last apply produced.
    pub fn take_outbox(&mut self) -> Vec<Outbound> {
        std::mem::take(&mut self.outbox)
    }

    /// Rebuild the local ring replica from the sorted membership,
    /// exactly like the simulator's builder: the lowest site bootstraps,
    /// the rest join ascending, then full stabilization. Every node
    /// derives the identical ring, and `Lp` follows the membership count
    /// (the `SizeEstimation::Exact` policy).
    pub(crate) fn rebuild_ring(&mut self) {
        let mut ring = Ring::new();
        let sites: Vec<SiteId> = self.members.keys().copied().collect();
        let ids: Vec<Id> = sites.iter().map(|s| chord_id_for(self.seed, *s)).collect();
        ring.bootstrap(ids[0], sites[0].0 as usize);
        for (k, s) in sites.iter().enumerate().skip(1) {
            ring.join(ids[0], ids[k], s.0 as usize).expect("replica join");
        }
        ring.stabilize_all();
        self.ring = ring;
        // `Lp` is clamped against the *ever-joined* count (live members
        // plus permanent deaths), so it grows as members join but never
        // shrinks when one dies. The simulator re-clamps on the live
        // count and runs the §IV-A.2 splitting–merging migration; the
        // daemon's supported regime is stable-`Lp`, so after a permanent
        // loss it keeps the finer granularity instead. Both inputs are
        // in the canonical state, so live nodes and snapshot-recovered
        // ones derive the same value and routing stays agreed.
        self.lp = self
            .group
            .scheme
            .lp_clamped(self.ring.len() + self.dead.len(), self.group.l_min);
    }

    fn my_chord_id(&self) -> Id {
        chord_id_for(self.seed, self.site)
    }

    fn site_of_chord(&self, id: &Id) -> SiteId {
        SiteId(self.ring.app_index_of(id).expect("ring member") as u32)
    }

    // ------------------------------------------------------------------
    // Protocol plane: the shared `peertrack::site` transitions, with
    // sends queued on the outbox and routing on the local ring replica
    // ------------------------------------------------------------------

    fn on_protocol(&mut self, sender: SiteId, wire: &Wire) {
        self.received += 1;
        if wire.seq != 0 && !self.seen.insert((sender.0, wire.seq)) {
            self.anomalies.duplicates_suppressed += 1;
            return;
        }
        self.deliver(sender, wire.msg.clone());
    }

    /// Hand one message to the site. Individual mode, triangle
    /// delegation and split/merge migration are simulator-only paths,
    /// and acks belong to a retry layer the daemon does not run:
    /// receiving one is counted as unsupported and not applied.
    fn deliver(&mut self, sender: SiteId, msg: Msg) {
        let indexed = match &msg {
            Msg::Arrival { .. } | Msg::Delegate { .. } | Msg::Migrate { .. } | Msg::Ack { .. } => {
                self.unsupported += 1;
                return;
            }
            Msg::GroupIndex { prefix, members, .. } => {
                let missing = self.proto.unindexed(*prefix, members);
                if !missing.is_empty() {
                    let under = |c: Prefix| missing.iter().any(|o| c.matches(&o.id()));
                    self.count_hosted_neighbours(*prefix, under);
                }
                Some(*prefix)
            }
            _ => None,
        };
        self.step(|s, rules, out| s.handle(sender, msg, rules, out));
        // The daemon never delegates (Fig. 5 `update_index` lines 2–4):
        // an oversize shard keeps indexing, and the crossing is counted.
        if let (Some(p), Some(threshold)) = (indexed, self.group.delegate_threshold) {
            if p.len() < ids::prefix::MAX_PREFIX_BITS
                && self.proto.gateway.shard_mut(p).len() > threshold
            {
                self.unsupported += 1;
            }
        }
    }

    /// Run one site transition and execute its effects in emission
    /// order, depth-first: a self-send is handled (and its own effects
    /// executed) before the next effect, as in the simulator.
    fn step(&mut self, transition: impl FnOnce(&mut Site, Rules, &mut Vec<Effect>)) {
        let base = self.effects.len();
        let rules = Rules { replicated: self.replicas > 1, delegation: None };
        transition(&mut self.proto, rules, &mut self.effects);
        self.effects[base..].reverse();
        while self.effects.len() > base {
            match self.effects.pop().expect("above base") {
                Effect::Send { to, hops, msg } => self.dispatch(to, hops, msg),
                Effect::Route { key, msg } => self.route(key, msg),
                Effect::Replicate(msg) => {
                    for h in self.replica_peer_sites() {
                        self.dispatch(h, 1, msg.clone());
                    }
                }
                // The locate cache is engine-side and revalidates hits.
                Effect::Moved(_) => {}
                Effect::Hosted(p) => {
                    self.hosted.insert(p);
                }
                Effect::Anomaly(a) => self.anomalies.count(a),
                // Network data: a malformed state is counted, not fatal.
                Effect::Malformed => self.unsupported += 1,
            }
        }
    }

    /// Deliver a protocol message: self-sends are handled inline and
    /// uncharged; networked sends are sequenced, charged the model cost
    /// and counted sent — both exactly as the simulator's dispatch —
    /// then queued on the outbox for the engine (live) or dropped
    /// (replay).
    fn dispatch(&mut self, to: SiteId, hops: u32, msg: Msg) {
        if to == self.site {
            self.deliver(self.site, msg);
            return;
        }
        // An IOP update aimed at a permanently failed site is repaired
        // onto the holders of its replica repository instead of being
        // dropped on the floor (replication mode only).
        if self.replicas > 1
            && self.dead.contains(&to)
            && matches!(msg, Msg::SetTo { .. } | Msg::SetFrom { .. })
        {
            self.redirect_to_replicas(to, msg);
            return;
        }
        let class = msg.class();
        let bytes = msg.wire_size();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.metrics.record(class, bytes, hops);
        if !self.members.contains_key(&to) {
            self.anomalies.dropped_to_dead += 1;
            return;
        }
        self.sent += 1;
        self.outbox.push(Outbound { to, hops, wire: Wire { seq, msg } });
    }

    /// Send `msg` to the owner of `key`. The owner and hop count come
    /// from the *local* replica — identical, on a converged membership,
    /// to what the networked iterative lookup would return, and usable
    /// during replay where no peer exists to ask.
    fn route(&mut self, key: Id, msg: Msg) {
        let Ok(r) = self.ring.lookup(self.my_chord_id(), key) else {
            self.unsupported += 1;
            return;
        };
        let owner = self.site_of_chord(&r.owner);
        self.dispatch(owner, r.hops, msg);
    }

    /// The Fig. 5 refresh walk and the §IV-A.3 gateway search around
    /// prefix `p`, reduced to their in-regime form: with a stable `Lp`
    /// at `Lmin`, no delegation and no split/merge, no ancestor of `p`
    /// and no child of it that could hold the objects in question
    /// (`relevant`) is ever hosted, so every probe is a free existence
    /// check (the simulator charges nothing either,
    /// `count_existence_checks = false`). A probe that *would* find a
    /// hosted prefix needs an entry-moving fetch or a routed lookup the
    /// daemon does not implement: it is counted as unsupported instead,
    /// so parity tests fail loudly rather than drift.
    pub(crate) fn count_hosted_neighbours(&mut self, p: Prefix, relevant: impl Fn(Prefix) -> bool) {
        for l in self.group.l_min..p.len() {
            if self.hosted.contains(&p.truncate(l)) {
                self.unsupported += 1;
            }
        }
        if p.len() < ids::prefix::MAX_PREFIX_BITS {
            for child in [p.child(false), p.child(true)] {
                if relevant(child) && self.hosted.contains(&child) {
                    self.unsupported += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Capture path: the window closes on explicit flushes
    // ------------------------------------------------------------------

    fn on_capture(&mut self, at: SimTime, objects: &[ObjectId]) {
        self.step(|s, rules, out| s.capture(objects, at, rules, out));
        for &o in objects {
            match self.window.push(o, at) {
                // Timers are the driver's job off-sim (explicit Flush).
                WindowEvent::ArmTimer | WindowEvent::Buffered => {}
                WindowEvent::FlushByCount(batch) => self.index_batch(batch),
            }
        }
    }

    fn on_flush(&mut self, now: SimTime) {
        if let Some(batch) = self.window.flush(now) {
            self.index_batch(batch);
            // Anti-entropy: with no off-sim timers, each flush doubles
            // as the write-burst boundary — follow it with a digest of
            // this primary's stores so a replica that missed a fan-out
            // frame pulls the full state ([`Msg::ReplSyncReq`]).
            if self.replicas > 1 {
                let digest = self.proto.digest_msg();
                for h in self.replica_peer_sites() {
                    self.dispatch(h, 1, digest.clone());
                }
            }
        }
    }

    /// Route each group to its gateway.
    fn index_batch(&mut self, batch: WindowBatch) {
        for group in group_batch(&batch.observations, self.lp) {
            let msg =
                Msg::GroupIndex { prefix: group.prefix, site: self.site, members: group.members };
            self.route(group.prefix.gateway_id(), msg);
        }
    }

    // ------------------------------------------------------------------
    // K-successor replication placement (DESIGN.md §13). Every entry
    // point below no-ops when `replicas <= 1`, so the default path sends
    // nothing and the state encoding stays byte-identical to the
    // pre-replication node.
    // ------------------------------------------------------------------

    /// This site's replica set: its K−1 live ring successors, in ring
    /// order. Empty when replication is off.
    fn replica_peer_sites(&self) -> Vec<SiteId> {
        site::replica_holders(&self.ring, &self.my_chord_id(), self.replicas)
    }

    /// The holders of a **dead** site's replica copies: its successor
    /// set on the post-removal ring. Patches and read probes go only to
    /// these; touching a non-holder would plant partial records that
    /// corrupt trace walks.
    pub(crate) fn holders_of_dead(&self, dead: SiteId) -> Vec<SiteId> {
        site::replica_holders(&self.ring, &chord_id_for(self.seed, dead), self.replicas)
    }

    /// Redirect an M2/M3 IOP update whose destination is permanently
    /// dead to the live holders of that site's replica repository, as a
    /// [`Msg::ReplIopPatch`]. With no surviving holder the update is
    /// lost and counted, as before.
    fn redirect_to_replicas(&mut self, dead: SiteId, msg: Msg) {
        let holders = self.holders_of_dead(dead);
        if holders.is_empty() {
            self.anomalies.dropped_to_dead += 1;
            return;
        }
        let patch = site::patch_for_replicas(dead, msg);
        for h in holders {
            self.dispatch(h, 1, patch.clone());
        }
    }

    /// Apply a kill-forever declaration: drop the member, rebuild the
    /// ring, and — with replication on — fail its key ranges over. The
    /// heir (the dead id's first live successor) merges its replica
    /// copy of the dead gateway into its primary stores; everyone drops
    /// the now-stale gateway copies (the **IOP** copies stay — they are
    /// the read-fallback data); placement is re-established on the
    /// shrunken ring.
    fn on_dead(&mut self, site: SiteId) {
        if site == self.site || self.members.remove(&site).is_none() {
            return;
        }
        self.dead.insert(site);
        self.rebuild_ring();
        if self.replicas <= 1 {
            return;
        }
        let dead_chord = chord_id_for(self.seed, site);
        if self.ring.successor_of(&dead_chord) == Some(self.my_chord_id()) {
            if let Some(gw) = self.proto.replica_gateway.remove(&site) {
                self.step(|s, _, out| s.absorb_gateway(gw, out));
            }
        }
        self.proto.replica_gateway.remove(&site);
        self.replica_maintenance();
    }

    /// Re-establish the placement invariant after a membership change:
    /// drop copies of *live* primaries this node no longer succeeds
    /// (dead primaries' copies stay — they are the read fallback), and
    /// push this node's own full store state to its current holders.
    fn replica_maintenance(&mut self) {
        if self.replicas <= 1 {
            return;
        }
        let copies = self.proto.replica_iop.keys().chain(self.proto.replica_gateway.keys());
        let held: std::collections::BTreeSet<SiteId> = copies.copied().collect();
        for primary in held {
            if self.dead.contains(&primary) || !self.members.contains_key(&primary) {
                continue;
            }
            let holders =
                site::replica_holders(&self.ring, &chord_id_for(self.seed, primary), self.replicas);
            if !holders.contains(&self.site) {
                self.proto.replica_iop.remove(&primary);
                self.proto.replica_gateway.remove(&primary);
            }
        }
        let state = self.proto.state_msg();
        for h in self.replica_peer_sites() {
            self.dispatch(h, 1, state.clone());
        }
    }
}

/// Per-connection inbox cap: decoded frames awaiting processing. With
/// the bounded read chunk in [`transport::nio`] this caps per-connection
/// memory while a pipelining client keeps the loop busy across wakeups;
/// once full, the connection simply is not read until the loop catches
/// up (TCP flow control pushes back on the client).
pub const INBOX_CAP: usize = 256;

/// Bounded per-connection outbox: once this many response bytes are
/// queued and not yet accepted by the kernel, the connection is
/// *parked* — no further reads or request processing — until the
/// client drains its responses. Backpressure, never OOM, never a
/// dropped response.
pub const OUTBOX_LIMIT_BYTES: usize = 256 * 1024;

/// Deadline for one peer RPC. The engine keeps pumping while it waits,
/// so this only bounds how long a query stalls on an unreachable peer.
const RPC_DEADLINE: Duration = Duration::from_secs(10);

/// Idle strategy: spin-yield this many empty wakeups, then sleep.
const IDLE_SPINS: u32 = 64;
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Which pump is running (see [`Engine::pump`]). `Nested` is the pump
/// inside an RPC wait: it defers anything that would start another
/// query or stop the node, which is what bounds RPC recursion at 1.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Main,
    Nested,
}

/// What `handle_frame` did with a frame.
enum Action {
    Consumed,
    /// Put it back — this frame class cannot run in the current mode.
    Deferred(Frame),
}

/// One accepted connection: the nonblocking socket plus the decoded
/// frames waiting their turn.
struct EConn {
    conn: NbConn,
    inbox: VecDeque<Frame>,
    /// True while over [`OUTBOX_LIMIT_BYTES`]: reads and processing are
    /// suspended, only flushes run.
    parked: bool,
}

struct Engine {
    addr: SocketAddr,
    listener: NbListener,
    /// Accepted connections, slab-style: indices are stable (slots are
    /// reused, never compacted) because staged replies and `busy_conn`
    /// refer to them across nested pumps.
    econns: Vec<Option<EConn>>,
    conns: ConnCache,
    recorder: Recorder,
    core: Core,
    /// Durable storage; `None` = in-memory node (`log_apply` degrades
    /// to plain apply).
    data: Option<DataDir>,
    snapshot_every: u64,
    records_since_snapshot: u64,
    /// True when the current batch holds WAL records whose fsync has
    /// not happened yet (cleared by `commit`).
    appended_in_batch: bool,
    /// Responses produced this batch in production order, held back
    /// until the batch fsync: ack-after-fsync is this buffer.
    staged: Vec<(usize, Vec<u8>)>,
    /// Connection whose query is suspended mid-RPC: nested pumps skip
    /// its inbox so its responses stay in request order.
    busy_conn: Option<usize>,
    /// `Some(clean)` once Shutdown (`true`) or Crash (`false`) ran.
    stop: Option<bool>,
    parks: u64,
    /// Locate-answer cache (DESIGN.md §15). Engine-side on purpose:
    /// it is volatile read-path state, excluded — like the recorder —
    /// from the canonical state encoding and from snapshots, so a
    /// restarted node rebuilds it cold and `StateDump` comparisons
    /// never see it. `None` = caching disabled (the default).
    locate_cache: Option<LocateCache<Link>>,
    /// Served-locate attribution for queries this node originated:
    /// answering site → count. This is the simulator's per-site
    /// `query_load` tally sliced by origin; harnesses merge every
    /// node's slice ([`Frame::QueryLoad`]) to recover the global view.
    query_load: BTreeMap<SiteId, u64>,
    /// WAN region topology (DESIGN.md §17); `None` = flat cluster.
    geo: Option<geo::Topology>,
    /// Severed region pairs, normalized `(min, max)`. Network-plane
    /// state like the recorder: volatile, engine-side, never logged.
    severed: HashSet<(u16, u16)>,
    /// Protocol frames parked at this sender because their destination
    /// lies across a severed pair, in park order. Their `sent` count
    /// was undone at park time so the harness's sent/received balance
    /// holds while a cut is open; release re-counts and re-sends.
    parked_out: Vec<Outbound>,
}

impl Engine {
    /// Build a node engine: recover state from the data dir (if any),
    /// correct the self-address on file, then join through the
    /// bootstrap. Runs on the spawning thread so recovery errors fail
    /// `Node::spawn` instead of killing a detached thread.
    fn new(cfg: NodeConfig, addr: SocketAddr, listener: NbListener) -> io::Result<Engine> {
        if cfg.locate_cache == Some(0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "locate cache capacity must be at least 1",
            ));
        }
        let mut core = Core::new(cfg.site, cfg.seed, cfg.group, addr);
        core.replicas = cfg.replicas.max(1);
        let mut data = None;
        if let Some(dir) = &cfg.data_dir {
            let (d, recovery) = DataDir::open(dir, cfg.fsync)?;
            if let Some((_, body)) = &recovery.snapshot {
                core = Core::from_snapshot(cfg.site, cfg.seed, cfg.group, body)?;
                // The replication factor is config, not logged state —
                // it must be restored before the tail replays, or
                // recovered fan-out accounting diverges from the live
                // run.
                core.replicas = cfg.replicas.max(1);
            }
            for entry in &recovery.tail {
                let rec = WalRecord::decode(&entry.payload).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("WAL record {} undecodable: {e}", entry.lsn),
                    )
                })?;
                core.replay(&rec);
            }
            data = Some(d);
        }
        let mut engine = Engine {
            addr,
            listener,
            econns: Vec::new(),
            conns: ConnCache::new(Backoff::default()),
            recorder: Recorder::new(),
            core,
            data,
            snapshot_every: cfg.snapshot_every.max(1),
            records_since_snapshot: 0,
            appended_in_batch: false,
            staged: Vec::new(),
            busy_conn: None,
            stop: None,
            parks: 0,
            locate_cache: cfg.locate_cache.map(LocateCache::new),
            query_load: BTreeMap::new(),
            geo: cfg.geo,
            severed: HashSet::new(),
            parked_out: Vec::new(),
        };
        // A recovered core remembers the listener address of its
        // previous life; this life bound a fresh port.
        if engine.core.members.get(&cfg.site) != Some(&addr) {
            engine.log_apply(WalRecord::Member { site: cfg.site, addr: addr.to_string() });
        }
        if let Some(bootstrap) = cfg.bootstrap {
            engine.join_via(bootstrap);
        }
        // Make the pre-loop appends durable before serving traffic.
        engine.commit();
        Ok(engine)
    }

    /// The single live write path: log the event (group-commit append —
    /// the fsync is deferred to this batch's `commit`), apply it,
    /// deliver what it produced. A WAL append failure is fatal by
    /// design — running on past an unlogged mutation would make the
    /// next recovery silently diverge.
    fn log_apply(&mut self, rec: WalRecord) {
        if let Some(d) = self.data.as_mut() {
            d.append_deferred(&rec.encode())
                .expect("WAL append failed; refusing to mutate unlogged state");
            self.appended_in_batch = true;
            self.records_since_snapshot += 1;
        }
        self.core.apply_record(&rec);
        self.pump_outbox();
    }

    /// Deliver everything the core queued. On a send failure the core
    /// has already counted the message sent — undo that and count the
    /// drop, keeping cluster-wide sent/received sums balanced (which is
    /// what the harness's quiesce watches). With a topology, frames
    /// whose destination lies across a severed region pair are parked
    /// instead (sent-count undone the same way, so a cut cluster still
    /// quiesces); [`Engine::release_parked`] re-sends them at heal.
    fn pump_outbox(&mut self) {
        for out in self.core.take_outbox() {
            if let Some(pair) = self.severed_pair_of(out.to) {
                debug_assert!(self.severed.contains(&pair));
                self.core.sent -= 1;
                self.parked_out.push(out);
                continue;
            }
            self.send_outbound(out);
        }
    }

    /// The normalized region pair between this node and `to` (`None`
    /// on a flat cluster).
    fn region_pair(&self, to: SiteId) -> Option<(u16, u16)> {
        let topo = self.geo.as_ref()?;
        let a = topo.region_of(self.core.site.0 as usize);
        let b = topo.region_of(to.0 as usize);
        Some((a.min(b), a.max(b)))
    }

    /// The region pair between this node and `to`, if (and only if)
    /// that pair is currently severed.
    fn severed_pair_of(&self, to: SiteId) -> Option<(u16, u16)> {
        self.region_pair(to).filter(|pair| self.severed.contains(pair))
    }

    /// Encode and socket-write one core-sequenced protocol message,
    /// undoing its `sent` count on failure.
    fn send_outbound(&mut self, out: Outbound) {
        let Some(&peer) = self.core.members.get(&out.to) else {
            self.core.sent -= 1;
            self.core.anomalies.dropped_to_dead += 1;
            return;
        };
        self.inject_dial_delay(out.to, peer);
        let frame = Frame::Protocol {
            sender: self.core.site,
            hops: out.hops,
            sent_us: wall_us(),
            wire: out.wire,
        };
        if self.conns.send(peer, &frame.encode()).is_err() {
            self.core.sent -= 1;
            self.core.anomalies.dropped_to_dead += 1;
        }
    }

    /// Re-send every frame parked on the region pair `(a, b)`, in the
    /// order they were parked — per-destination sequence order is
    /// preserved, so receivers see the frames as merely delayed.
    fn release_parked(&mut self, a: u16, b: u16) {
        let pair = (a.min(b), a.max(b));
        let parked = std::mem::take(&mut self.parked_out);
        for out in parked {
            if self.region_pair(out.to) == Some(pair) {
                self.core.sent += 1;
                self.send_outbound(out);
            } else {
                self.parked_out.push(out);
            }
        }
    }

    /// Seed the connection cache with the topology's base latency for
    /// `site` as a one-time dial delay (test builds honor it; release
    /// builds carry the table but never sleep). Re-applied lazily on
    /// every send so a peer's post-restart address inherits the delay.
    fn inject_dial_delay(&mut self, site: SiteId, addr: SocketAddr) {
        if let Some(topo) = &self.geo {
            let us = topo.wire_us_sites(self.core.site.0 as usize, site.0 as usize, 0);
            if us > 0 && self.conns.dial_delay(addr).is_zero() {
                self.conns.set_dial_delay(addr, Duration::from_micros(us));
            }
        }
    }

    fn install_snapshot(&mut self) {
        let body = self.core.snapshot_body();
        if let Some(d) = self.data.as_mut() {
            d.install_snapshot(&body)
                .expect("snapshot install failed; refusing to run with a broken log");
        }
        self.records_since_snapshot = 0;
    }

    /// Join the cluster through an existing member (blocking RPC).
    fn join_via(&mut self, bootstrap: SocketAddr) {
        let req = Frame::JoinReq { site: self.core.site, addr: self.addr.to_string() };
        match self.conns.request(bootstrap, &req.encode()).map_err(io::Error::other).and_then(
            |raw| Frame::decode(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        ) {
            Ok(Frame::JoinResp { peers }) => {
                for (site, addr) in peers {
                    if addr.parse::<SocketAddr>().is_ok() {
                        self.log_apply(WalRecord::Member { site, addr });
                    }
                }
            }
            _ => {
                // Leave membership as-is; the bootstrap's PeerJoined
                // broadcast (or a retried join by the operator) repairs
                // it. Count the oddity so tests notice.
                self.core.unsupported += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    fn run(mut self) -> NodeReport {
        let mut idle = 0u32;
        while self.stop.is_none() {
            if self.pump(Mode::Main) {
                idle = 0;
            } else {
                // Adaptive idle: no poll(2) without libc, so spin-yield
                // briefly (keeps RPC round trips fast under load), then
                // sleep in short slices (keeps an idle 8-node cluster
                // cheap).
                idle += 1;
                if idle < IDLE_SPINS {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(IDLE_SLEEP);
                }
            }
            self.reap();
        }
        if self.stop == Some(true) && self.data.is_some() {
            // Orderly shutdown: fold the whole log into one snapshot so
            // the next start replays nothing, and leave the WAL synced
            // and empty.
            self.install_snapshot();
        }
        // Drain pending responses — the final ack among them — with a
        // deadline so a vanished client cannot wedge the exit.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.econns.iter().flatten().any(|e| e.conn.queued_bytes() > 0)
            && Instant::now() < deadline
        {
            for ec in self.econns.iter_mut().flatten() {
                ec.conn.try_flush();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for ec in self.econns.iter_mut().flatten() {
            ec.conn.close();
        }
        self.conns.close_all();
        NodeReport {
            site: self.core.site,
            metrics: self.core.metrics,
            anomalies: self.core.anomalies,
            unsupported: self.core.unsupported,
            recorder: self.recorder,
            sent: self.core.sent,
            received: self.core.received,
            backpressure_parks: self.parks,
        }
    }

    // ------------------------------------------------------------------
    // The event loop: intake → process → commit → flush
    // ------------------------------------------------------------------

    /// One poll wakeup. Returns `true` if anything at all happened
    /// (the idle strategy watches this). `Nested` pumps run inside an
    /// RPC wait — same structure, restricted processing.
    fn pump(&mut self, mode: Mode) -> bool {
        let mut activity = self.intake();
        if self.stop.is_none() {
            activity |= self.process(mode);
        }
        self.commit();
        activity | self.flush_writes()
    }

    /// Accept pending connections and read every readable socket,
    /// decoding complete frames into per-connection inboxes.
    fn intake(&mut self) -> bool {
        let mut activity = false;
        for (stream, peer) in self.listener.accept_ready() {
            let Ok(conn) = NbConn::new(stream, peer) else { continue };
            let ec = EConn { conn, inbox: VecDeque::new(), parked: false };
            match self.econns.iter_mut().find(|s| s.is_none()) {
                Some(slot) => *slot = Some(ec),
                None => self.econns.push(Some(ec)),
            }
            activity = true;
        }
        for idx in 0..self.econns.len() {
            let Some(ec) = self.econns[idx].as_mut() else { continue };
            if ec.parked || ec.conn.is_dead() || ec.inbox.len() >= INBOX_CAP {
                continue;
            }
            if ec.conn.read_ready() {
                activity = true;
            }
            while ec.inbox.len() < INBOX_CAP {
                let Some(raw) = ec.conn.next_frame() else { break };
                match Frame::decode(&raw) {
                    Ok(f) => ec.inbox.push_back(f),
                    Err(ProtoError::Codec(_)) | Err(_) => self.core.unsupported += 1,
                }
            }
        }
        activity
    }

    /// Handle queued frames, strictly serially, in arrival order per
    /// connection. Parked connections and — in nested mode — the
    /// querying connection are skipped; a deferred frame stops its
    /// connection's queue (order preserved) without blocking others.
    fn process(&mut self, mode: Mode) -> bool {
        let mut activity = false;
        let n = self.econns.len();
        'conns: for idx in 0..n {
            if self.stop.is_some() {
                break;
            }
            if self.busy_conn == Some(idx) {
                continue;
            }
            loop {
                if self.stop.is_some() {
                    break 'conns;
                }
                let frame = {
                    let Some(ec) = self.econns[idx].as_mut() else { continue 'conns };
                    if ec.parked {
                        continue 'conns;
                    }
                    match ec.inbox.pop_front() {
                        Some(f) => f,
                        None => break,
                    }
                };
                match self.handle_frame(idx, frame, mode) {
                    Action::Consumed => activity = true,
                    Action::Deferred(frame) => {
                        if let Some(ec) = self.econns[idx].as_mut() {
                            ec.inbox.push_front(frame);
                        }
                        break;
                    }
                }
            }
        }
        activity
    }

    /// The group-commit point: one fsync covering every record this
    /// batch appended, then — and never before — release the batch's
    /// staged responses to their connections. A crash stop releases
    /// without the fsync (process-crash model: the `write(2)` already
    /// happened, and `Frame::Crash` simulates `kill -9`, not power
    /// loss). Snapshot cadence also lands here, after the sync.
    fn commit(&mut self) {
        if self.appended_in_batch {
            let crashing = self.stop == Some(false);
            if !crashing {
                if let Some(d) = self.data.as_mut() {
                    d.sync().expect("WAL fsync failed; refusing to ack unsynced records");
                }
            }
            self.appended_in_batch = false;
            if !crashing
                && self.stop.is_none()
                && self.data.is_some()
                && self.records_since_snapshot >= self.snapshot_every
            {
                self.install_snapshot();
            }
        }
        for (idx, bytes) in std::mem::take(&mut self.staged) {
            if let Some(ec) = self.econns[idx].as_mut() {
                ec.conn.queue_frame(&bytes);
            }
        }
    }

    /// Write as much buffered output as the kernel accepts, and manage
    /// backpressure parking around [`OUTBOX_LIMIT_BYTES`].
    fn flush_writes(&mut self) -> bool {
        let mut activity = false;
        for ec in self.econns.iter_mut().flatten() {
            let before = ec.conn.queued_bytes();
            if before > 0 {
                ec.conn.try_flush();
                if ec.conn.queued_bytes() < before {
                    activity = true;
                }
            }
            let over = ec.conn.queued_bytes() > OUTBOX_LIMIT_BYTES;
            if over && !ec.parked {
                ec.parked = true;
                self.parks += 1;
            } else if !over && ec.parked {
                ec.parked = false;
                activity = true;
            }
        }
        activity
    }

    /// Drop fully-finished dead connections. Only called between
    /// top-level pumps — never from a nested pump, so slab indices held
    /// across an RPC wait stay valid.
    fn reap(&mut self) {
        for slot in self.econns.iter_mut() {
            if let Some(ec) = slot {
                if ec.conn.is_dead() && ec.inbox.is_empty() {
                    *slot = None;
                }
            }
        }
    }

    /// Stage a response for release at this batch's commit point.
    fn stage(&mut self, idx: usize, frame: Frame) {
        self.staged.push((idx, frame.encode()));
    }

    fn handle_frame(&mut self, idx: usize, frame: Frame, mode: Mode) -> Action {
        // A nested pump serves reads and the protocol plane, but never
        // starts a second query (RPC recursion bound) and never stops
        // the node mid-query.
        if mode == Mode::Nested
            && matches!(
                frame,
                Frame::Locate { .. } | Frame::Trace { .. } | Frame::Shutdown | Frame::Crash
            )
        {
            return Action::Deferred(frame);
        }
        match frame {
            Frame::Protocol { sender, hops: _, sent_us, wire } => {
                self.recorder
                    .record_latency(wire.msg.class(), wall_us().saturating_sub(sent_us));
                // A GroupIndex we absorb rewrites our shard's latest
                // links: drop our own cached answers for those objects
                // up front (revalidation would also catch it — this
                // saves the walk).
                if let Msg::GroupIndex { members, .. } = &wire.msg {
                    if let Some(cache) = self.locate_cache.as_mut() {
                        for &(o, _) in members {
                            cache.invalidate(o);
                        }
                    }
                }
                self.log_apply(WalRecord::Protocol { sender, wire });
            }
            Frame::JoinReq { site, addr } => {
                let reply = self.on_join_req(site, &addr);
                self.stage(idx, reply);
            }
            Frame::PeerJoined { site, addr } => {
                if addr.parse::<SocketAddr>().is_ok() {
                    self.clear_locate_cache();
                    self.log_apply(WalRecord::Member { site, addr });
                }
            }
            Frame::PeerDead { site } => {
                self.clear_locate_cache();
                self.log_apply(WalRecord::Dead { site });
                self.stage(idx, Frame::Ack);
            }
            Frame::JoinResp { .. } => self.core.unsupported += 1,
            Frame::Capture { at, objects } => {
                // The object is here now: whatever link we cached for
                // it elsewhere is stale the moment the record lands.
                if let Some(cache) = self.locate_cache.as_mut() {
                    for &o in &objects {
                        cache.invalidate(o);
                    }
                }
                self.log_apply(WalRecord::Capture { at, objects });
                self.stage(idx, Frame::Ack);
            }
            Frame::Flush { now } => {
                self.log_apply(WalRecord::Flush { now });
                self.stage(idx, Frame::Ack);
            }
            Frame::Locate { object, t } => {
                let started = wall_us();
                self.busy_conn = Some(idx);
                let (answer, cost, complete) = self.locate(object, t);
                self.busy_conn = None;
                self.account_query(&cost, started);
                self.stage(idx, Frame::LocateResp { answer, cost: cost.into(), complete });
            }
            Frame::Trace { object, t0, t1 } => {
                let started = wall_us();
                self.busy_conn = Some(idx);
                let mut cost = QueryCost::default();
                let me = self.core.site;
                let (path, _, complete) = query::trace_at(self, me, object, t0, t1, &mut cost);
                self.busy_conn = None;
                self.account_query(&cost, started);
                self.stage(idx, Frame::TraceResp { path, cost: cost.into(), complete });
            }
            Frame::Status => {
                self.stage(
                    idx,
                    Frame::StatusResp {
                        site: self.core.site,
                        members: self.core.members.len() as u32,
                        sent: self.core.sent,
                        received: self.core.received,
                    },
                );
            }
            Frame::QueryLoad => {
                let loads = self.query_load.iter().map(|(&s, &n)| (s, n)).collect();
                let stats = self.locate_cache.as_ref().map(|c| c.stats()).unwrap_or_default();
                self.stage(
                    idx,
                    Frame::QueryLoadResp { loads, hits: stats.hits, misses: stats.misses },
                );
            }
            Frame::Shutdown => {
                self.stage(idx, Frame::Ack);
                self.stop = Some(true);
            }
            Frame::Crash => {
                // Die like a kill -9 would: ack (so the harness can
                // sequence the fault), then abandon everything volatile.
                // No final snapshot, no WAL sync beyond what earlier
                // batches already committed.
                self.stage(idx, Frame::Ack);
                self.stop = Some(false);
            }
            Frame::StateDump => {
                self.stage(idx, Frame::StateResp(self.core.state_bytes(false)));
            }
            Frame::Resolve { site } => {
                let addr = self.core.members.get(&site).map(|a| a.to_string());
                self.stage(idx, Frame::AddrResp(addr));
            }
            Frame::RegionCut { a, b } => {
                // Network-plane fault, not replicated state: never
                // logged, so state dumps and recovery are untouched.
                if self.geo.is_some() {
                    self.severed.insert((a.min(b), a.max(b)));
                }
                self.stage(idx, Frame::Ack);
            }
            Frame::RegionHeal { a, b } => {
                if self.severed.remove(&(a.min(b), a.max(b))) {
                    self.release_parked(a, b);
                }
                self.stage(idx, Frame::Ack);
            }
            req @ (Frame::LookupStep { .. }
            | Frame::GatewayProbe { .. }
            | Frame::IopKnows { .. }
            | Frame::RecAt { .. }
            | Frame::RecLatestAtOrBefore { .. }
            | Frame::RecFirst { .. }
            | Frame::RecLatest { .. }
            | Frame::ReplRecAt { .. }) => {
                let reply = self.answer_read(&req);
                self.stage(idx, reply);
            }
            // Response frames arriving outside a request context.
            Frame::Ack
            | Frame::LocateResp { .. }
            | Frame::TraceResp { .. }
            | Frame::StatusResp { .. }
            | Frame::StepResp(_)
            | Frame::LinkResp(_)
            | Frame::BoolResp(_)
            | Frame::RecResp(_)
            | Frame::QueryLoadResp { .. }
            | Frame::StateResp(_)
            | Frame::AddrResp(_) => self.core.unsupported += 1,
        }
        Action::Consumed
    }

    fn on_join_req(&mut self, site: SiteId, addr: &str) -> Frame {
        if addr.parse::<SocketAddr>().is_err() {
            self.core.unsupported += 1;
            return Frame::JoinResp { peers: Vec::new() };
        }
        self.clear_locate_cache();
        self.log_apply(WalRecord::Member { site, addr: addr.to_string() });
        // Tell everyone else about the newcomer (fire-and-forget,
        // daemon-plane: not charged, not counted as protocol traffic).
        let others: Vec<SocketAddr> = self
            .core
            .members
            .iter()
            .filter(|(s, _)| **s != self.core.site && **s != site)
            .map(|(_, a)| *a)
            .collect();
        let news = Frame::PeerJoined { site, addr: addr.to_string() }.encode();
        for peer in others {
            let _ = self.conns.send(peer, &news);
        }
        Frame::JoinResp {
            peers: self.core.members.iter().map(|(s, a)| (*s, a.to_string())).collect(),
        }
    }

    // ------------------------------------------------------------------
    // Reads: this node's own state, or one RPC to a peer (the querying
    // node drives, peers answer)
    // ------------------------------------------------------------------

    /// Answer a read-only query RPC from this node's own state. Peers'
    /// requests and this node's own reads (see [`Engine::read`]) both
    /// come here, so a read means the same thing wherever it runs.
    fn answer_read(&mut self, req: &Frame) -> Frame {
        let iop = &self.core.proto.iop;
        match *req {
            Frame::LookupStep { key } => {
                let node = self.core.ring.get(&self.core.my_chord_id()).expect("self in replica");
                Frame::StepResp(answer_step(node, &key, |id| self.core.ring.contains(id)))
            }
            Frame::GatewayProbe { object } => Frame::LinkResp(self.local_gateway_probe(object)),
            Frame::IopKnows { object } => Frame::BoolResp(iop.knows(object)),
            Frame::RecAt { object, time } => Frame::RecResp(iop.record_at(object, time).copied()),
            Frame::RecLatestAtOrBefore { object, t } => {
                Frame::RecResp(iop.latest_at_or_before(object, t).copied())
            }
            Frame::RecFirst { object } => Frame::RecResp(iop.all(object).first().copied()),
            Frame::RecLatest { object } => Frame::RecResp(iop.latest(object).copied()),
            Frame::ReplRecAt { primary, object, time } => {
                let copy = self.core.proto.replica_iop.get(&primary);
                Frame::RecResp(copy.and_then(|st| st.record_at(object, time)).copied())
            }
            _ => unreachable!("not a read request: {req:?}"),
        }
    }

    /// One read at `site`: answered in-process when `site` is this
    /// node, else by RPC. A failed RPC is [`Unreachable`].
    fn read(&mut self, site: SiteId, req: Frame) -> ReadResult<Frame> {
        if site == self.core.site {
            return Ok(self.answer_read(&req));
        }
        self.rpc(site, &req).map_err(|_| Unreachable)
    }

    /// A visit-record read ([`Frame::RecResp`] reply) at `site`.
    fn read_rec(&mut self, site: SiteId, req: Frame) -> ReadResult<Option<IopRecord>> {
        match self.read(site, req)? {
            Frame::RecResp(rec) => Ok(rec),
            _ => Err(Unreachable),
        }
    }

    /// Request/response to a peer's engine. Blocking-style for the
    /// caller, but while the reply is in flight the event loop keeps
    /// pumping in nested mode — which is what lets two nodes query
    /// each other simultaneously without deadlock (each answers the
    /// other's lookup steps from inside its own wait). The stream is
    /// checked out of the cache for the duration so nested sends to
    /// the same peer cannot interleave with the reply bytes.
    fn rpc(&mut self, site: SiteId, req: &Frame) -> io::Result<Frame> {
        let &addr = self
            .core
            .members
            .get(&site)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown peer"))?;
        self.inject_dial_delay(site, addr);
        let payload = req.encode();
        let mut stream = self.conns.checkout(addr)?;
        if write_frame(&mut stream, &payload).is_err() {
            // Stale after all: drop it and redial once (the dial itself
            // retries under the backoff schedule).
            stream.shutdown(std::net::Shutdown::Both).ok();
            stream = self.conns.checkout(addr)?;
            write_frame(&mut stream, &payload)?;
        }
        let result = self.pumped_read_frame(&mut stream);
        match &result {
            Ok(_) => {
                stream.set_read_timeout(None).ok();
                self.conns.checkin(addr, stream);
            }
            Err(_) => {
                stream.shutdown(std::net::Shutdown::Both).ok();
            }
        }
        result
    }

    /// Read one frame from a checked-out stream, pumping the event
    /// loop between short read timeouts. The accumulator persists
    /// across timeouts, so a reply split at any byte boundary is
    /// reassembled correctly no matter how many pumps interleave.
    fn pumped_read_frame(&mut self, stream: &mut TcpStream) -> io::Result<Frame> {
        stream.set_read_timeout(Some(Duration::from_millis(1)))?;
        let mut acc = FrameAccum::new();
        let mut buf = [0u8; 8192];
        let deadline = Instant::now() + RPC_DEADLINE;
        loop {
            if let Some(raw) = acc.next_frame()? {
                if acc.pending_bytes() != 0 {
                    // One request, one reply: trailing bytes mean the
                    // stream desynced — poison it rather than guess.
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected trailing bytes on rpc stream",
                    ));
                }
                return Frame::decode(&raw)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            match stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "peer closed before replying",
                    ))
                }
                Ok(n) => acc.push(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "rpc deadline"));
                    }
                    self.pump(Mode::Nested);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries: `peertrack::query` over this node's reads (local state
    // for this site, one RPC per read elsewhere)
    // ------------------------------------------------------------------

    /// Charge a finished query. The model cost goes through the WAL —
    /// query traffic mutates the metrics, and metrics are recovered
    /// state — while the wall-clock latency stays engine-side.
    fn account_query(&mut self, cost: &QueryCost, started_us: u64) {
        self.log_apply(WalRecord::Query {
            messages: cost.messages,
            hops: cost.hops,
            bytes: cost.bytes,
        });
        self.recorder
            .record_latency(MsgClass::Query, wall_us().saturating_sub(started_us));
    }

    /// §IV-A.3 lookup at this gateway, reduced to the in-regime form:
    /// current-`Lp` shard only (see [`Core::count_hosted_neighbours`]).
    fn local_gateway_probe(&mut self, object: ObjectId) -> Option<Link> {
        let p = Prefix::of_id(&object.id(), self.core.lp);
        if let Some(e) = self.core.proto.gateway.prefixes.get(&p).and_then(|s| s.get(&object)) {
            return Some(e.link());
        }
        self.core.count_hosted_neighbours(p, |c| c.matches(&object.id()));
        None
    }

    /// Membership changed: drop the locate cache wholesale, mirroring
    /// the simulator's conservative churn rule. (Entries would still
    /// revalidate to exact answers — this just refuses to carry a
    /// reshaped cluster's old read path forward.)
    fn clear_locate_cache(&mut self) {
        if let Some(cache) = self.locate_cache.as_mut() {
            cache.clear();
        }
    }

    /// Answer a locate from the cached link `link`. The daemon cannot
    /// check a movement epoch the way the simulator does (no node sees
    /// every gateway mutation), so a hit is *revalidated*: the cached
    /// link's own IOP record proves whether it is still the latest,
    /// and the forward `to` chain leads to the fresh holder when it is
    /// not. Either way the answer equals what full rediscovery would
    /// return — visit records are immutable history.
    ///
    /// Returns `None` only when the revalidating fetch of the cached
    /// link itself found nothing (the entry refers to crash-lost
    /// records): the caller drops the entry and rediscovers.
    fn locate_from_cached(
        &mut self,
        link: Link,
        object: ObjectId,
        t: SimTime,
        cost: &mut QueryCost,
    ) -> Option<(Option<SiteId>, bool)> {
        let mut current = self.core.site;
        if t < link.time {
            // The cached link is in the object's past: even a stale
            // "latest" is a correct historical anchor.
            return query::walk_back_from(self, &mut current, link, object, t, cost);
        }
        // t >= link.time: the cached holder answers unless the object
        // has moved on. One record fetch revalidates; a populated `to`
        // chain means it did move — follow it forward and refresh the
        // entry with the newest link reached.
        let (fresh, complete) =
            query::walk_forward_from(self, &mut current, link, object, t, cost)?;
        if let (Some(l), Some(cache)) = (fresh.filter(|&l| l != link), self.locate_cache.as_mut()) {
            cache.insert(object, 0, l);
        }
        Some((fresh.map(|l| l.site), complete))
    }

    /// `L(o, t)` with this node as origin: the locate-answer cache of
    /// DESIGN.md §15 when configured, else the shared query, then
    /// served-query attribution.
    fn locate(&mut self, object: ObjectId, t: SimTime) -> (Option<SiteId>, QueryCost, bool) {
        let mut cost = QueryCost::default();
        let me = self.core.site;
        // Daemon cache entries carry no epoch (always 0): revalidation
        // replaces the simulator's epoch check.
        if let Some(link) = self.locate_cache.as_mut().and_then(|c| c.get(object, 0)) {
            if let Some((answer, complete)) = self.locate_from_cached(link, object, t, &mut cost)
            {
                // Cache hits attribute the served locate to the origin
                // itself, as the simulator does.
                *self.query_load.entry(me).or_default() += 1;
                return (answer, cost, complete);
            }
            if let Some(cache) = self.locate_cache.as_mut() {
                cache.invalidate(object);
            }
        }
        let (answer, source, complete, latest) =
            query::locate_at(self, me, object, t, &mut cost);
        // Attribute the served locate where the simulator does.
        if let Some(s) = source.answered_at(me) {
            *self.query_load.entry(s).or_default() += 1;
        }
        // Fill only from gateway discoveries, like the simulator: the
        // gateway's latest link is the one answer worth reusing.
        if let (Some(link), Some(cache)) = (latest, self.locate_cache.as_mut()) {
            cache.insert(object, 0, link);
        }
        (answer, cost, complete)
    }
}

/// The daemon's query reads: this node's own state for its own site,
/// one RPC to the holding site otherwise. A failed RPC is
/// [`Unreachable`], which the query reports as an incomplete answer.
impl SiteReader for Engine {
    fn gateway_key(&self, object: ObjectId) -> Id {
        Prefix::of_id(&object.id(), self.core.lp).gateway_id()
    }

    /// The iterative Chord lookup, driven here at the origin (`from`
    /// is always this node): each hop's routing decision comes from
    /// that node's own replica via [`Frame::LookupStep`].
    fn route(&mut self, from: SiteId, key: Id) -> ReadResult<LookupResult> {
        debug_assert_eq!(from, self.core.site);
        let mut driver = LookupDriver::new(self.core.my_chord_id(), key, self.core.ring.len());
        loop {
            match driver.state() {
                LookupState::Ask(node) => {
                    let site = self.core.site_of_chord(&node);
                    match self.read(site, Frame::LookupStep { key })? {
                        Frame::StepResp(answer) => driver.answer(answer),
                        _ => return Err(Unreachable),
                    }
                }
                LookupState::Done(result) => return Ok(result),
                LookupState::Failed(_) => return Err(Unreachable),
            }
        }
    }

    fn site_of(&self, node: &Id) -> SiteId {
        self.core.site_of_chord(node)
    }

    fn knows(&mut self, site: SiteId, object: ObjectId) -> ReadResult<bool> {
        match self.read(site, Frame::IopKnows { object })? {
            Frame::BoolResp(knows) => Ok(knows),
            _ => Err(Unreachable),
        }
    }

    /// The in-regime probe (current-`Lp` shard only), which charges no
    /// further messages.
    fn gateway_lookup(
        &mut self,
        gateway: SiteId,
        object: ObjectId,
        _cost: &mut QueryCost,
    ) -> ReadResult<Option<Link>> {
        match self.read(gateway, Frame::GatewayProbe { object })? {
            Frame::LinkResp(link) => Ok(link),
            _ => Err(Unreachable),
        }
    }

    fn record(
        &mut self,
        site: SiteId,
        object: ObjectId,
        which: RecordRead,
    ) -> ReadResult<Option<IopRecord>> {
        self.read_rec(
            site,
            match which {
                RecordRead::At(time) => Frame::RecAt { object, time },
                RecordRead::AtOrBefore(t) => Frame::RecLatestAtOrBefore { object, t },
                RecordRead::First => Frame::RecFirst { object },
                RecordRead::Latest => Frame::RecLatest { object },
            },
        )
    }

    fn alive(&self, site: SiteId) -> bool {
        site == self.core.site || self.core.members.contains_key(&site)
    }

    /// The dead site's ring successors, in ring order.
    fn replica_holders(&self, dead: SiteId) -> Vec<SiteId> {
        self.core.holders_of_dead(dead)
    }

    fn replica_record_at(
        &mut self,
        holder: SiteId,
        primary: SiteId,
        object: ObjectId,
        time: SimTime,
    ) -> ReadResult<Option<IopRecord>> {
        self.read_rec(holder, Frame::ReplRecAt { primary, object, time })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chord_ids_match_simulator_derivation() {
        // The sim derives ring ids as hash("site-{seed}-{index}"); the
        // daemon must produce identical ids or hop counts diverge.
        for seed in [0u64, 42, 0x9E3779B9] {
            for i in 0..8u32 {
                assert_eq!(
                    chord_id_for(seed, SiteId(i)),
                    Id::hash_str(&format!("site-{seed}-{i}"))
                );
            }
        }
    }

    #[test]
    fn replay_discards_outbox_but_keeps_state() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let seed = 7;
        let mk = || {
            let mut c = Core::new(SiteId(0), seed, GroupConfig::default(), addr);
            for s in 1..4u32 {
                c.apply_record(&WalRecord::Member {
                    site: SiteId(s),
                    addr: format!("127.0.0.1:{}", 7400 + s),
                });
            }
            c.outbox.clear();
            c
        };
        let objects: Vec<ObjectId> =
            (0..6u64).map(|n| ObjectId(Id::hash(&n.to_be_bytes()))).collect();
        let records = vec![
            WalRecord::Capture {
                at: SimTime::from_micros(1_000),
                objects: objects.clone(),
            },
            WalRecord::Flush { now: SimTime::from_micros(2_000) },
        ];

        let mut live = mk();
        let mut replayed = mk();
        let mut emitted = 0;
        for rec in &records {
            live.apply_record(rec);
            emitted += live.take_outbox().len();
            replayed.replay(rec);
        }
        assert!(emitted > 0, "flush must have produced GroupIndex traffic");
        assert!(replayed.outbox.is_empty());
        // Identical transitions: full state (addresses included) agrees.
        assert_eq!(live.state_bytes(true), replayed.state_bytes(true));
        assert_eq!(live.sent, replayed.sent);
    }
}
