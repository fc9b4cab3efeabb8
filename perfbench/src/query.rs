//! `query`: the read path of a 4-node in-memory cluster.
//!
//! Set-up starts the cluster and preloads a §V-shaped `PaperWorkload`
//! (10 % movers on 10-step routes) through
//! `LoopbackCluster::run_schedule`, [`SETUPS`] times (median reported).
//! Then two closed-loop clients at different origin sites ask
//! `locate`:`trace` at 3:1 over uniformly drawn preloaded objects and
//! probe times, pausing [`THINK`] after each answer; every answer is
//! checked against the `MovementLog` oracle.
//! No writes.

use crate::client::{self, Client, Query, ThreadGuard};
use crate::ingest::NODES;
use crate::spans::Spans;
use crate::stats::SLICES;
use crate::{layers, meta, stats, Args, Outcome};
use daemon::LoopbackCluster;
use moods::{MovementLog, ObjectId, SiteId};
use simnet::SimTime;
use std::io;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use workload::paper::PaperWorkload;
use workload::CaptureEvent;

/// Set-ups per run; `setup_s` is their median (see `ingest::SETUPS`).
const SETUPS: usize = 7;
/// Pause after each answer, before a client's next query. Without it
/// the two clients are stalled by each other about 1 % of the time and
/// the locate p99 sits on the edge of that stall mass, moving between
/// 15 and 23 ms run by run; with it the p99 lies inside the stall mass
/// and the stall count no longer sets the throughput.
const THINK: Duration = Duration::from_millis(1);
/// Origins of the two query clients.
const ORIGINS: [usize; 2] = [1, 3];
/// The cluster's own seed (ring identities). It is configuration, not
/// input: `--seed` varies only the workload, so runs at different seeds
/// measure the same system.
pub const CLUSTER_SEED: u64 = 0x5EED;
/// Seed of the preloaded dataset, fixed for the same reason: with four
/// sites a §V workload has only four pallet routes, and letting `--seed`
/// redraw them moves every read-path figure by tens of percent between
/// seeds. `--seed` draws the query stream (objects, probe times) and the
/// fresh captures instead.
pub const PRELOAD_SEED: u64 = 0x5EED;
/// Queries kept per client for the traced replay.
pub const KEEP_QUERIES: usize = 20_000;

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded generator for query choices.
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Rng64 {
        Rng64(mix(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A §V workload over the cluster's sites plus its oracle.
pub struct Preload {
    pub events: Vec<CaptureEvent>,
    pub oracle: MovementLog,
    pub objects: Vec<ObjectId>,
    /// Virtual time of the last capture.
    pub horizon: SimTime,
}

impl Preload {
    pub fn new(objects_per_site: usize) -> Preload {
        let events = PaperWorkload {
            sites: NODES,
            objects_per_site,
            move_fraction: 0.1,
            trace_len: 10,
            grouped_movement: true,
            seed: PRELOAD_SEED,
            ..PaperWorkload::default()
        }
        .generate();
        let mut sorted: Vec<&CaptureEvent> = events.iter().collect();
        sorted.sort_by_key(|e| e.at);
        let mut oracle = MovementLog::new();
        for e in &sorted {
            for &o in &e.objects {
                oracle.record(o, e.site, e.at);
            }
        }
        let objects = (0..NODES as u32)
            .flat_map(|s| (0..objects_per_site as u64).map(move |i| workload::epc_object(s, i)))
            .collect();
        let horizon = sorted.last().map_or(SimTime::ZERO, |e| e.at);
        Preload {
            events,
            oracle,
            objects,
            horizon,
        }
    }

    fn probe(&self, rng: &mut Rng64) -> SimTime {
        // A little past the horizon too, so "where is it now" is asked.
        SimTime::from_micros(rng.below(self.horizon.as_micros() + 1_000_000))
    }

    pub fn locate(&self, rng: &mut Rng64) -> Query {
        let object = self.objects[rng.below(self.objects.len() as u64) as usize];
        Query::Locate {
            object,
            t: self.probe(rng),
        }
    }

    pub fn trace(&self, rng: &mut Rng64) -> Query {
        let object = self.objects[rng.below(self.objects.len() as u64) as usize];
        let (a, b) = (self.probe(rng), self.probe(rng));
        Query::Trace {
            object,
            t0: a.min(b),
            t1: a.max(b),
        }
    }
}

/// One client's results.
#[derive(Default)]
struct ClientRun {
    locate_us: Vec<f64>,
    trace_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    queries: Vec<(SiteId, Query)>,
    costs: Vec<(bool, daemon::CostWire)>,
    replies: Vec<daemon::Frame>,
    spans: Spans,
}

fn client_loop(
    addr: std::net::SocketAddr,
    origin: SiteId,
    pre: Arc<Preload>,
    seed: u64,
    dur: Duration,
    mut spans: Spans,
) -> io::Result<ClientRun> {
    let _t = ThreadGuard::take();
    let mut c = Client::connect(addr)?;
    let mut rng = Rng64::new(seed ^ (origin.0 as u64) << 32);
    let mut run = ClientRun::default();
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < dur {
        let is_trace = k % 4 == 3;
        let q = if is_trace {
            pre.trace(&mut rng)
        } else {
            pre.locate(&mut rng)
        };
        let a = client::ask(&mut c, q, &pre.oracle, &mut spans)?;
        run.attempted += 1;
        run.failed += !a.ok as u64;
        if is_trace {
            run.trace_us.push(a.us);
        } else {
            run.locate_us.push(a.us);
        }
        if run.queries.len() < KEEP_QUERIES {
            run.queries.push((origin, q));
            run.costs.push((!is_trace, a.cost));
            run.replies.push(a.reply);
        }
        k += 1;
        thread::sleep(THINK);
    }
    run.spans = spans;
    Ok(run)
}

pub fn run(args: &Args, traced: bool) -> Result<Outcome, String> {
    client::require_two_cores()?;
    let err = |e: io::Error| e.to_string();
    let pre = Arc::new(Preload::new(if args.tiny { 12 } else { 250 }));
    let epoch = Instant::now();

    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let mut cluster = LoopbackCluster::start(NODES, CLUSTER_SEED).map_err(err)?;
        let t1 = Instant::now();
        cluster.run_schedule(&pre.events).map_err(err)?;
        let t2 = Instant::now();
        setups.push(((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()));
        if i + 1 < SETUPS {
            cluster.shutdown().map_err(err)?;
        } else {
            live = Some(cluster);
        }
    }
    let cluster = live.expect("at least one set-up");
    println!("# loopback={}", cluster.addr(0).ip().is_loopback());

    let t0 = Instant::now();
    let handles: Vec<_> = ORIGINS
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            let (addr, pre) = (cluster.addr(o), Arc::clone(&pre));
            let (seed, dur) = (args.seed, args.seconds);
            let sp = if traced {
                Spans::on(epoch, i as u32)
            } else {
                Spans::off()
            };
            thread::spawn(move || client_loop(addr, SiteId(o as u32), pre, seed, dur, sp))
        })
        .collect();
    let mut runs = Vec::new();
    for h in handles {
        runs.push(
            h.join()
                .map_err(|_| "query client panicked".to_string())?
                .map_err(err)?,
        );
    }
    let wall = t0.elapsed().as_secs_f64();
    let reports = cluster.shutdown().map_err(err)?;
    let anomalies: u64 = reports
        .iter()
        .map(|r| layers::anomaly_sum(&r.anomalies))
        .sum();

    let mut out = Outcome {
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum::<u64>() + anomalies,
        ..Outcome::default()
    };
    // Interleave the two clients' samples slice by slice so a slice
    // covers the same wall interval for both.
    let interleave = |f: fn(&ClientRun) -> &Vec<f64>| -> Vec<f64> {
        let n = runs.iter().map(|r| f(r).len()).max().unwrap_or(0);
        (0..n)
            .flat_map(|i| runs.iter().filter_map(move |r| f(r).get(i).copied()))
            .collect()
    };
    let loc = interleave(|r| &r.locate_us);
    let tr = interleave(|r| &r.trace_us);
    let qps = out.attempted as f64 / wall.max(1e-9);
    let (lp50, lp99) = (
        stats::sliced_quantile(&loc, 0.5, SLICES),
        stats::sliced_quantile(&loc, 0.99, SLICES),
    );
    let mut setup_s: Vec<f64> = setups.iter().map(|(a, b)| a + b).collect();
    out.e2e.insert("setup_s", stats::median(&mut setup_s));
    out.e2e.insert("throughput_per_s", qps);
    out.e2e.insert("latency_p50_us", lp50);
    out.e2e.insert("latency_p99_us", lp99);
    out.e2e.insert("peak_rss_mib", meta::peak_rss_mib());
    out.named = vec![
        ("queries_per_s", "1/s", qps),
        ("locate_p50_us", "us", lp50),
        ("locate_p99_us", "us", lp99),
        ("locate_samples", "count", loc.len() as f64),
        (
            "trace_p50_us",
            "us",
            stats::sliced_quantile(&tr, 0.5, SLICES),
        ),
        (
            "trace_p99_us",
            "us",
            stats::sliced_quantile(&tr, 0.99, SLICES),
        ),
        ("trace_samples", "count", tr.len() as f64),
    ];

    if traced {
        let mut st: Vec<f64> = setups.iter().map(|s| s.0).collect();
        let mut pl: Vec<f64> = setups.iter().map(|s| s.1).collect();
        let l = &mut out.layer;
        l.insert("cluster.start_s", stats::median(&mut st));
        l.insert("cluster.preload_s", stats::median(&mut pl));
        layers::node_reports(l, &reports);
        let costs: Vec<_> = runs.iter().flat_map(|r| r.costs.iter().copied()).collect();
        layers::query_costs(l, &costs);
        let queries: Vec<_> = runs
            .iter()
            .flat_map(|r| r.queries.iter().copied())
            .collect();
        layers::chord_lookups(l, CLUSTER_SEED, &queries);
        layers::iop_lookups(l, &pre, &queries);
        layers::sha1(l, pre.objects.len() as u64, |i| {
            workload::epc_object((i % NODES as u64) as u32, i / NODES as u64)
        });
        let replies: Vec<_> = runs
            .iter()
            .flat_map(|r| r.replies.iter().cloned())
            .collect();
        layers::reply_encode(l, &replies);
        let mut spans = Spans::on(epoch, 0);
        for r in runs {
            spans.absorb(r.spans);
        }
        out.spans = spans;
    }
    Ok(out)
}
