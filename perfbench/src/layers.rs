//! Per-layer measurements of a traced run. Each one times calls into
//! one layer's public functions, replaying this run's own inputs (the
//! same frames, records and objects) in-process, or reads the counters
//! the layer itself reports.

use crate::client::Query;
use crate::ingest::{Stream, NODES};
use crate::query::Preload;
use crate::{stats, ScratchDir};
use chord::lookup::{answer_step, LookupDriver, LookupState};
use chord::Ring;
use daemon::{Core, CostWire, Frame, NodeReport, WalRecord};
use durable::{DataDir, FsyncMode};
use moods::{ObjectId, SiteId};
use obs::Histogram;
use peertrack::config::GroupConfig;
use peertrack::world::Anomalies;
use peertrack::{codec, IopStore};
use simnet::MsgClass;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::time::Instant;

type Layer = BTreeMap<&'static str, f64>;

/// Captures replayed per stream (bounds the traced run's extra time).
const REPLAY_CAP: u64 = 40_000;
/// `DataDir::sync` samples per batch size.
const SYNC_SAMPLES: usize = 15;

fn ns_per(start: Instant, n: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Sum of protocol anomaly counters (zero in a clean run).
pub fn anomaly_sum(a: &Anomalies) -> u64 {
    a.out_of_order_arrivals
        + a.dangling_iop_updates
        + a.dropped_to_dead
        + a.retries_exhausted
        + a.duplicates_suppressed
        + a.refresh_failures
}

/// `NodeReport` counters collected at shutdown.
pub fn node_reports(l: &mut Layer, reports: &[NodeReport]) {
    let mut gi = Histogram::new();
    for r in reports {
        gi.merge(r.recorder.class_latency(MsgClass::GroupIndex));
    }
    l.insert("daemon.delivery_p50_us.group_index", gi.p50() as f64);
    l.insert("daemon.delivery_p99_us.group_index", gi.p99() as f64);
    l.insert(
        "daemon.backpressure_parks",
        reports.iter().map(|r| r.backpressure_parks).sum::<u64>() as f64,
    );
    l.insert(
        "daemon.protocol_frames",
        reports.iter().map(|r| r.sent).sum::<u64>() as f64,
    );
}

/// Model cost per query from the `CostWire` the replies carried
/// (`true` = locate).
pub fn query_costs(l: &mut Layer, costs: &[(bool, CostWire)]) {
    let mean = |locate: bool, f: fn(&CostWire) -> u64| {
        let v: Vec<u64> = costs
            .iter()
            .filter(|c| c.0 == locate)
            .map(|c| f(&c.1))
            .collect();
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
    };
    l.insert("query.msgs_per_locate", mean(true, |c| c.messages));
    l.insert("query.hops_per_locate", mean(true, |c| c.hops));
    l.insert("query.msgs_per_trace", mean(false, |c| c.messages));
}

/// The cluster's ring, rebuilt from the daemon's site identities.
fn ring(seed: u64) -> Ring {
    let mut ring = Ring::new();
    let ids: Vec<_> = (0..NODES as u32)
        .map(|s| daemon::node::chord_id_for(seed, SiteId(s)))
        .collect();
    ring.bootstrap(ids[0], 0);
    for (k, id) in ids.iter().enumerate().skip(1) {
        ring.join(ids[0], *id, k).expect("ring join");
    }
    ring.stabilize_all();
    ring
}

/// Iterative Chord lookups of the run's query keys from their origins:
/// time per `answer_step`, and steps per lookup.
pub fn chord_lookups(l: &mut Layer, seed: u64, queries: &[(SiteId, Query)]) {
    let ring = ring(seed);
    let (mut steps, mut ns) = (0u64, 0f64);
    for &(origin, q) in queries {
        let from = daemon::node::chord_id_for(seed, origin);
        let mut d = LookupDriver::new(from, q.object().id(), ring.len());
        while let LookupState::Ask(node) = d.state() {
            let state = ring.get(&node).expect("ring member");
            let t = Instant::now();
            let a = black_box(answer_step(state, &d.key(), |id| ring.contains(id)));
            ns += t.elapsed().as_nanos() as f64;
            steps += 1;
            d.answer(a);
        }
    }
    l.insert("chord.answer_step_ns", ns / steps.max(1) as f64);
    l.insert(
        "chord.steps_per_lookup",
        steps as f64 / queries.len().max(1) as f64,
    );
}

/// `IopStore` reads over the preload's records, for the run's queries.
pub fn iop_lookups(l: &mut Layer, pre: &Preload, queries: &[(SiteId, Query)]) {
    let mut store = IopStore::new();
    let mut sorted: Vec<_> = pre.events.iter().collect();
    sorted.sort_by_key(|e| e.at);
    for e in sorted {
        for &o in &e.objects {
            store.capture(o, e.at);
        }
    }
    let t = Instant::now();
    for &(_, q) in queries {
        let (object, at) = match q {
            Query::Locate { object, t } => (object, t),
            Query::Trace { object, t1, .. } => (object, t1),
        };
        black_box(store.latest_at_or_before(object, at));
    }
    l.insert("store.iop_lookup_ns", ns_per(t, queries.len() as u64));
}

/// SHA-1 per EPC: derive `n` object ids with `f`.
pub fn sha1(l: &mut Layer, n: u64, f: impl Fn(u64) -> ObjectId) {
    let t = Instant::now();
    for i in 0..n {
        black_box(f(black_box(i)));
    }
    l.insert("ids.sha1_ns_per_epc", ns_per(t, n));
}

/// `Frame::encode` of the replies the run received.
pub fn reply_encode(l: &mut Layer, replies: &[Frame]) {
    let t = Instant::now();
    for r in replies {
        black_box(r.encode());
    }
    l.insert("proto.reply_encode_ns", ns_per(t, replies.len() as u64));
}

/// The write path, layer by layer, over the run's capture streams.
pub fn capture_path(
    l: &mut Layer,
    seed: u64,
    streams: &[Stream],
    replies: &[Frame],
) -> io::Result<()> {
    let frames: Vec<(u32, Frame)> = streams
        .iter()
        .flat_map(|s| (0..s.sent.min(REPLAY_CAP)).map(move |k| (s.site, s.frame(k))))
        .collect();
    let n = frames.len() as u64;
    let encoded: Vec<Vec<u8>> = frames.iter().map(|(_, f)| f.encode()).collect();

    // proto: decode every capture frame; encode the replies it got.
    let t = Instant::now();
    for raw in &encoded {
        black_box(Frame::decode(raw).expect("own frame decodes"));
    }
    l.insert("proto.capture_decode_ns", ns_per(t, n));
    let mut acks: Vec<Frame> = (0..n).map(|_| Frame::Ack).collect();
    acks.extend(replies.iter().cloned());
    reply_encode(l, &acks);

    // transport: the run's byte stream through the frame accumulator,
    // in socket-read-sized chunks.
    let mut wire = Vec::new();
    for raw in &encoded {
        transport::write_frame(&mut wire, raw)?;
    }
    let mut acc = transport::FrameAccum::new();
    let t = Instant::now();
    let mut popped = 0u64;
    for chunk in wire.chunks(4096) {
        acc.push(chunk);
        while let Some(f) = acc.next_frame()? {
            black_box(f);
            popped += 1;
        }
    }
    l.insert("transport.accum_ns_per_frame", ns_per(t, popped));

    // state: WAL record encoding.
    let records: Vec<WalRecord> = frames
        .iter()
        .map(|(_, f)| match f {
            Frame::Capture { at, objects } => WalRecord::Capture {
                at: *at,
                objects: objects.clone(),
            },
            _ => unreachable!("capture streams hold captures only"),
        })
        .collect();
    let t = Instant::now();
    let payloads: Vec<Vec<u8>> = records.iter().map(|r| black_box(r.encode())).collect();
    l.insert("state.record_encode_ns", ns_per(t, n));

    // durable: deferred appends, then group syncs of 1/16/256 records.
    {
        let dir = ScratchDir::new("replay")?;
        let (mut dd, _) = DataDir::open(dir.path(), FsyncMode::Batch)?;
        let t = Instant::now();
        for p in &payloads {
            dd.append_deferred(p)?;
        }
        l.insert("durable.append_ns", ns_per(t, n));
        dd.sync()?;
        l.insert(
            "durable.wal_bytes_per_capture",
            dd.wal_bytes()? as f64 / n.max(1) as f64,
        );
        for (name, batch) in [
            ("durable.sync_us.b1", 1),
            ("durable.sync_us.b16", 16),
            ("durable.sync_us.b256", 256),
        ] {
            let mut us = Vec::new();
            for s in 0..SYNC_SAMPLES {
                for p in payloads.iter().cycle().skip(s * batch).take(batch) {
                    dd.append_deferred(p)?;
                }
                let t = Instant::now();
                dd.sync()?;
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            l.insert(name, stats::median(&mut us));
        }
    }

    // node: a standalone Core per capture site, fed the site's own
    // Capture stream and a closing Flush; count-triggered flushes are
    // the applies that leave an outbox.
    let (mut cap_ns, mut caps) = (0f64, 0u64);
    let (mut flush_us, mut flushes, mut outbox) = (0f64, 0u64, 0u64);
    let mut wires = Vec::new();
    for s in streams {
        let addr = |i: usize| format!("127.0.0.1:{}", 20_000 + i);
        let mut core = Core::new(
            SiteId(s.site),
            seed,
            GroupConfig::default(),
            addr(s.site as usize).parse().expect("addr"),
        );
        for i in 0..NODES {
            core.apply_record(&WalRecord::Member {
                site: SiteId(i as u32),
                addr: addr(i),
            });
            core.take_outbox();
        }
        let own: Vec<&WalRecord> = records
            .iter()
            .zip(&frames)
            .filter(|(_, (site, _))| *site == s.site)
            .map(|(r, _)| r)
            .collect();
        let closing = WalRecord::Flush {
            now: simnet::SimTime::from_micros(u64::MAX / 4),
        };
        for rec in own.into_iter().chain(std::iter::once(&closing)) {
            let t = Instant::now();
            core.apply_record(rec);
            let sent = core.take_outbox();
            let dt = t.elapsed().as_nanos() as f64;
            if sent.is_empty() && matches!(rec, WalRecord::Capture { .. }) {
                cap_ns += dt;
                caps += 1;
            } else {
                flush_us += dt / 1e3;
                flushes += 1;
                outbox += sent.len() as u64;
                wires.extend(sent.into_iter().map(|o| o.wire));
            }
        }
    }
    l.insert("node.apply_capture_ns", cap_ns / caps.max(1) as f64);
    l.insert("node.apply_flush_us", flush_us / flushes.max(1) as f64);
    l.insert(
        "node.outbox_per_flush",
        outbox as f64 / flushes.max(1) as f64,
    );

    // codec: the outboxes' protocol messages.
    let t = Instant::now();
    let blobs: Vec<_> = wires
        .iter()
        .map(|w| black_box(codec::encode(&w.msg, w.seq)))
        .collect();
    l.insert("codec.wire_encode_ns", ns_per(t, wires.len() as u64));
    let t = Instant::now();
    for c in blobs {
        black_box(codec::decode(c).expect("own wire decodes"));
    }
    l.insert("codec.wire_decode_ns", ns_per(t, wires.len() as u64));

    // ids: SHA-1 of the run's EPCs.
    let s0 = streams[0];
    sha1(l, s0.sent.min(REPLAY_CAP), |k| s0.object(k));
    Ok(())
}
