//! `paper_sim`: the figure-regeneration path.
//!
//! One iteration builds a `NetWorld` simulator (`Builder::new().sites(..)
//! .build()`, default heap scheduler), generates the §V workload with the
//! paper's constants, schedules it (set-up), runs `run_until_quiescent`,
//! then asks a fixed batch of locates and traces from seeded origins,
//! each checked against the `MovementLog` oracle. Iterations repeat for
//! the run's duration; rates and set-up are medians over iterations.
//!
//! The traced pass installs a benchmark-side `TraceSink` that counts
//! Deliver/TimerFired records, stamps the wall time between consecutive
//! ones (attributed to the class of the earlier record's handler) and
//! keeps the scheduler's push/pop sequence for a `CalendarQueue` replay.
//! It then runs the flat engine once per thread count ([`scale`]) for
//! the arena, calendar-queue and sharded-executor figures.

use crate::query::Rng64;
use crate::spans::Spans;
use crate::stats::SLICES;
use crate::{layers, meta, scale, stats, Args, Outcome};
use moods::{Locate, MovementLog, SiteId, Trace};
use peertrack::Builder;
use simnet::{CalendarQueue, EventId, MsgClass, SimTime, TraceEvent, TraceKind, TraceSink};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use workload::paper::PaperWorkload;

/// Geometry: sites × objects per site (the paper's 10 % movers on
/// 10-step routes come from `PaperWorkload`'s defaults).
const SITES: usize = 64;
const OBJECTS_PER_SITE: usize = 1_000;
const LOCATES: usize = 4_000;
const TRACES: usize = 1_000;
/// Scheduler operations kept for the calendar replay.
const MAX_OPS: usize = 4_000_000;
/// Handler classes reported by the sink (`timer` for TimerFired).
const HANDLER_CLASSES: [(&str, Option<MsgClass>); 4] = [
    ("sim.handler_ns.group_index", Some(MsgClass::GroupIndex)),
    ("sim.handler_ns.iop_update", Some(MsgClass::IopUpdate)),
    ("sim.handler_ns.index_report", Some(MsgClass::IndexReport)),
    ("sim.handler_ns.timer", None),
];

/// What the benchmark-side sink saw.
#[derive(Default)]
struct SinkData {
    events: u64,
    last: Option<(Option<MsgClass>, bool, Instant)>,
    /// (total ns, count) per HANDLER_CLASSES entry.
    handler: [(f64, u64); 4],
    /// Push times (`Some`) and pops (`None`) in scheduler order.
    ops: Vec<Option<u64>>,
    /// Class of each message in flight, by its Send record's id (a
    /// Deliver record names its Send as `cause`).
    in_flight: HashMap<EventId, MsgClass>,
}

struct Sink(Rc<RefCell<SinkData>>);

impl TraceSink for Sink {
    fn on_event(&mut self, ev: &TraceEvent) {
        let mut d = self.0.borrow_mut();
        match ev.kind {
            TraceKind::Send | TraceKind::TimerSet => {
                if let Some(c) = ev.class {
                    d.in_flight.insert(ev.id, c);
                }
                if d.ops.len() < MAX_OPS {
                    d.ops.push(Some(ev.deliver_at.as_micros()));
                }
            }
            TraceKind::Deliver | TraceKind::TimerFired => {
                let now = Instant::now();
                let timer = ev.kind == TraceKind::TimerFired;
                let class = if timer {
                    None
                } else {
                    d.in_flight.remove(&ev.cause)
                };
                if let Some((prev, was_timer, at)) = d.last {
                    let slot = HANDLER_CLASSES.iter().position(|(_, c)| {
                        if was_timer {
                            c.is_none()
                        } else {
                            c.is_some() && *c == prev
                        }
                    });
                    if let Some(i) = slot {
                        d.handler[i].0 += (now - at).as_nanos() as f64;
                        d.handler[i].1 += 1;
                    }
                }
                d.last = Some((class, timer, now));
                d.events += 1;
                if d.ops.len() < MAX_OPS {
                    d.ops.push(None);
                }
            }
            _ => {}
        }
    }
}

/// One iteration's measurements.
struct Iter {
    build_s: f64,
    generate_s: f64,
    schedule_s: f64,
    run_s: f64,
    observations: u64,
    query_s: f64,
    locate_us: Vec<f64>,
    trace_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    metrics: simnet::Metrics,
}

fn iteration(
    args: &Args,
    round: u64,
    sink: Option<Rc<RefCell<SinkData>>>,
    spans: &mut Spans,
) -> Iter {
    let (sites, per_site) = if args.tiny {
        (16, 50)
    } else {
        (SITES, OBJECTS_PER_SITE)
    };
    let seed = args.seed.wrapping_add(round);
    let req = spans.fresh_id();
    let t0 = Instant::now();
    let mut builder = Builder::new().sites(sites).seed(seed);
    if let Some(d) = &sink {
        builder = builder.trace_sink(Box::new(Sink(Rc::clone(d))));
    }
    let mut net = builder.build();
    let t1 = Instant::now();
    let events = PaperWorkload {
        sites,
        objects_per_site: per_site,
        seed,
        ..PaperWorkload::default()
    }
    .generate();
    let t2 = Instant::now();
    let mut sorted = events;
    sorted.sort_by_key(|e| e.at);
    let t3 = Instant::now();
    for e in &sorted {
        net.schedule_capture(e.at, e.site, e.objects.clone());
    }
    let t4 = Instant::now();
    let mut oracle = MovementLog::new();
    for e in &sorted {
        for &o in &e.objects {
            oracle.record(o, e.site, e.at);
        }
    }
    let t5 = Instant::now();
    net.run_until_quiescent();
    let t6 = Instant::now();
    let metrics = net.metrics().clone();
    spans.record("sim.build", req, req, t0, t1);
    spans.record("workload.generate", req, req, t1, t2);
    spans.record("sim.schedule_capture", req, req, t3, t4);
    spans.record("oracle.build", req, req, t4, t5);
    spans.record("sim.run_until_quiescent", req, req, t5, t6);

    let horizon = sorted.last().map_or(0, |e| e.at.as_micros()) + 1_000_000;
    let mut rng = Rng64::new(seed ^ 0x0516_1115);
    let mut it = Iter {
        build_s: (t1 - t0).as_secs_f64(),
        generate_s: (t2 - t1).as_secs_f64(),
        schedule_s: (t4 - t3).as_secs_f64(),
        run_s: (t6 - t5).as_secs_f64(),
        observations: workload::observation_count(&sorted) as u64,
        query_s: 0.0,
        locate_us: Vec::with_capacity(LOCATES),
        trace_us: Vec::with_capacity(TRACES),
        attempted: 0,
        failed: 0,
        metrics,
    };
    let n_obj = (sites * per_site) as u64;
    let pick = |rng: &mut Rng64| {
        let i = rng.below(n_obj);
        workload::epc_object((i % sites as u64) as u32, i / sites as u64)
    };
    let q0 = Instant::now();
    for k in 0..LOCATES + TRACES {
        let origin = SiteId(rng.below(sites as u64) as u32);
        let object = pick(&mut rng);
        let s = Instant::now();
        let ok = if k < LOCATES {
            let t = SimTime::from_micros(rng.below(horizon));
            let (ans, stats) = net.locate(origin, object, t);
            let dt = s.elapsed().as_secs_f64() * 1e6;
            it.locate_us.push(dt);
            spans.record("sim.locate", req, req, s, Instant::now());
            stats.complete && ans == oracle.locate(object, t)
        } else {
            let (a, b) = (rng.below(horizon), rng.below(horizon));
            let (ta, tb) = (
                SimTime::from_micros(a.min(b)),
                SimTime::from_micros(a.max(b)),
            );
            let (path, stats) = net.trace(origin, object, ta, tb);
            it.trace_us.push(s.elapsed().as_secs_f64() * 1e6);
            spans.record("sim.trace", req, req, s, Instant::now());
            stats.complete && path == oracle.trace(object, ta, tb)
        };
        it.attempted += 1;
        it.failed += !ok as u64;
    }
    it.query_s = q0.elapsed().as_secs_f64();
    it.failed += layers::anomaly_sum(&net.anomalies());
    spans.record_with_id(req, "paper_sim.iteration", req, 0, t0, Instant::now());
    it
}

fn calendar_replay(ops: &[Option<u64>]) -> f64 {
    let mut q: CalendarQueue<()> = CalendarQueue::new();
    let mut floor = 0u64;
    let t = Instant::now();
    let mut n = 0u64;
    for (seq, op) in ops.iter().enumerate() {
        match op {
            // The replayed queue pops its own minimum, which can run
            // ahead of the recorded one; clamp pushes to the floor it
            // has reached so the replay keeps the queue's contract.
            Some(at) => q.push((*at).max(floor), seq as u64, ()),
            None => {
                if let Some((at, _, ())) = black_box(q.pop()) {
                    floor = at;
                }
            }
        }
        n += 1;
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

pub fn run(args: &Args, traced: bool) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut spans = if traced {
        Spans::on(epoch, 0)
    } else {
        Spans::off()
    };
    let sink = traced.then(|| Rc::new(RefCell::new(SinkData::default())));
    let start = Instant::now();
    let mut iters: Vec<Iter> = Vec::new();
    // At least one iteration; start another only if the last one's
    // duration still fits in the time left.
    loop {
        let round = iters.len() as u64;
        let t = Instant::now();
        if let Some(d) = &sink {
            // Only the last iteration's scheduler stream is replayed.
            if round > 0 {
                d.borrow_mut().ops.clear();
                d.borrow_mut().ops.shrink_to_fit();
            }
        }
        iters.push(iteration(args, round, sink.clone(), &mut spans));
        let took = t.elapsed();
        if start.elapsed() + took > args.seconds || iters.len() >= 64 {
            break;
        }
    }
    let mut out = Outcome::default();
    let med =
        |f: &dyn Fn(&Iter) -> f64| stats::median(&mut iters.iter().map(f).collect::<Vec<_>>());
    let setup = med(&|i| i.build_s + i.generate_s + i.schedule_s);
    let obs_rate = med(&|i| i.observations as f64 / i.run_s.max(1e-9));
    let q_rate = med(&|i| (LOCATES + TRACES) as f64 / i.query_s.max(1e-9));
    let loc: Vec<f64> = iters
        .iter()
        .flat_map(|i| i.locate_us.iter().copied())
        .collect();
    let tr: Vec<f64> = iters
        .iter()
        .flat_map(|i| i.trace_us.iter().copied())
        .collect();
    let (p50, p99) = (
        stats::sliced_quantile(&loc, 0.5, SLICES),
        stats::sliced_quantile(&loc, 0.99, SLICES),
    );
    out.attempted = iters.iter().map(|i| i.attempted).sum();
    out.failed = iters.iter().map(|i| i.failed).sum();
    out.e2e.insert("setup_s", setup);
    out.e2e.insert("throughput_per_s", obs_rate);
    out.e2e.insert("latency_p50_us", p50);
    out.e2e.insert("latency_p99_us", p99);
    out.e2e.insert("peak_rss_mib", meta::peak_rss_mib());
    out.named = vec![
        ("iterations", "count", iters.len() as f64),
        ("sim_observations_per_s", "1/s", obs_rate),
        ("sim_queries_per_s", "1/s", q_rate),
        ("sim_locate_p50_us", "us", p50),
        ("sim_locate_p99_us", "us", p99),
        (
            "sim_trace_p50_us",
            "us",
            stats::quantile(&mut tr.clone(), 0.5),
        ),
        (
            "observations_per_iteration",
            "count",
            iters[0].observations as f64,
        ),
    ];

    if let Some(d) = sink {
        let d = d.borrow();
        let l = &mut out.layer;
        l.insert("sim.build_s", med(&|i| i.build_s));
        l.insert("sim.schedule_s", med(&|i| i.schedule_s));
        let run_s = med(&|i| i.run_s);
        l.insert("sim.run_s", run_s);
        let events = d.events as f64 / iters.len() as f64;
        l.insert("sim.events", events);
        l.insert("sim.ns_per_event", run_s * 1e9 / events.max(1.0));
        for (i, (name, _)) in HANDLER_CLASSES.iter().enumerate() {
            let (ns, n) = d.handler[i];
            l.insert(name, ns / n.max(1) as f64);
        }
        l.insert("simnet.calendar_op_ns", calendar_replay(&d.ops));
        l.insert("sim.locate_us", stats::quantile(&mut loc.clone(), 0.5));
        l.insert("sim.trace_us", stats::quantile(&mut tr.clone(), 0.5));
        let m = &iters[0].metrics;
        let obs = iters[0].observations.max(1) as f64;
        for c in simnet::metrics::ALL_CLASSES {
            let name = format!("model.msgs_per_obs.{}", c.label().replace('-', "_"));
            if let Some(&(key, _)) = crate::LAYER.iter().find(|(n, _)| *n == name) {
                l.insert(key, m.messages_of(c) as f64 / obs);
            }
        }
        l.insert("model.bytes_per_obs", m.total_bytes() as f64 / obs);
        let (sites, per_site) = if args.tiny {
            (16u64, 50u64)
        } else {
            (SITES as u64, OBJECTS_PER_SITE as u64)
        };
        layers::sha1(l, sites * per_site, |i| {
            workload::epc_object((i % sites) as u32, i / sites)
        });
        let (attempted, failed) = scale::layers(args, &mut out.layer, &mut spans);
        out.attempted += attempted;
        out.failed += failed;
        out.spans = spans;
    }
    Ok(out)
}
