//! `ingest`: the write path of a 4-node durable cluster.
//!
//! Set-up starts the cluster (WAL under `.bench_out/`, default
//! `GroupConfig`) and preloads a small §V workload through
//! `LoopbackCluster::run_schedule`; it is repeated [`SETUPS`] times and
//! the median reported. Then:
//!
//! * **phase 1, open loop** (60 % of `--seconds`) — single-object
//!   `Capture` frames of fresh EPCs are due at a fixed [`PHASE1_RATE`]
//!   on one connection to node 0; each is timed from its due instant to
//!   the moment its ack is read, and the generator's own lateness is
//!   recorded. Beside it a closed-loop locate stream asks oracle-checked
//!   `Locate`s of preloaded objects at node 2.
//! * **phase 2, closed loop** (30 %) — one connection to node 0 keeps
//!   [`OUTSTANDING`] captures in flight; the median of acks per
//!   [`SLICE`] is the throughput.
//!
//! The phases alternate in [`ROUNDS`] block pairs, the cluster
//! quiescing after each closed-loop block. Afterwards every node's
//! window is flushed, the cluster quiesces, a
//! sample of the fresh captures is located and checked, and the node
//! reports' anomaly counters are added to the failures.

use crate::client::{self, Client, ThreadGuard};
use crate::query::{Preload, CLUSTER_SEED};
use crate::spans::Spans;
use crate::stats::SLICES;
use crate::{layers, meta, stats, Args, Outcome, ScratchDir};
use daemon::{Frame, LoopbackCluster};
use durable::FsyncMode;
use moods::{ObjectId, SiteId};
use peertrack::config::GroupConfig;
use simnet::SimTime;
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use transport::NbConn;

pub const NODES: usize = 4;
/// Most open-loop/closed-loop block pairs per run (one per
/// [`ROUND_S`] seconds, at least one). Alternating the phases spreads
/// each phase's samples over the whole run, so a co-tenant slowing the
/// host for a few seconds moves a few slices of both rather than all of
/// one.
const ROUNDS: usize = 6;
const ROUND_S: f64 = 5.0;
/// Set-ups per run; `setup_s` is their median. Single set-ups ranged
/// from 0.11 to 0.41 s on a busy 2-core host, and the median of three
/// still moved by half between runs.
const SETUPS: usize = 7;
/// Phase-1 offered load (captures/s): under a tenth of the cluster's
/// saturated rate on a 2-core host, so the queue stays short and the ack
/// latency is service time, not backlog, even while a co-tenant slows
/// the host. (At a quarter of the saturated rate the p99 moved by a
/// factor of four between runs on a busy host; at half, by two on a
/// quiet one.)
pub const PHASE1_RATE: f64 = 10_000.0;
/// Phase-2 captures in flight per connection. Deep enough that the
/// engines never drain between a client's writes: at 32 (two
/// connections) the rate fell into one of two modes run by run.
pub const OUTSTANDING: usize = 128;
/// WAL sync policy of the cluster under test. The WAL must live inside
/// the checkout, which may be disk-backed; there `Batch` makes every ack
/// wait for the device, and the figure measures the disk, not the commit
/// path. `Never` keeps every WAL write and the group-commit ordering.
const FSYNC: FsyncMode = FsyncMode::Never;
/// Snapshots stay off the hot path: this workload measures the WAL
/// group-commit plane, not compaction cadence.
const SNAPSHOT_EVERY: u64 = 1_000_000;
/// Virtual time of the first fresh capture (after the preload's last).
const FRESH_BASE_US: u64 = 100_000_000_000;
/// Sites the fresh captures arrive at, in both phases. Phase 2 uses one
/// connection: with two (sites 0 and 1) four threads were busy on a
/// 2-core host and the closed-loop rate followed the host's other load
/// (118k–138k captures/s over five runs, 22 % spread over ten); with
/// one, 75k–82k over the same five seeds.
const CAPTURE_SITES: [u32; 1] = [0];
/// Pause between the phase-1 stream's locates. Without it the locate
/// stream keeps three engines runnable on a 2-core host, and the
/// capture tail measures CPU queueing more than the write path.
const SIDE_THINK: Duration = Duration::from_millis(1);
/// Origin of the phase-1 locate stream.
const LOCATE_ORIGIN: usize = 2;
/// Origin of the closing verification locates.
const VERIFY_ORIGIN: usize = 3;
/// Fresh captures located per capture site at the end.
const VERIFY_SAMPLE: u64 = 64;

/// One site's stream of fresh captures: frame `k` is due at virtual
/// instant `FRESH_BASE + k ms` and carries one never-seen EPC.
#[derive(Clone, Copy)]
pub struct Stream {
    pub site: u32,
    pub serial_base: u64,
    pub sent: u64,
}

impl Stream {
    fn new(site: u32, seed: u64) -> Stream {
        // Seeded serial range: distinct inputs per seed, never colliding
        // with the preload (whose EPC company is the site index).
        let serial_base = (crate::query::mix(seed) % 100_000) * 1_000_000;
        Stream {
            site,
            serial_base,
            sent: 0,
        }
    }

    pub fn object(&self, k: u64) -> ObjectId {
        workload::epc_object(1_000 + self.site, self.serial_base + k)
    }

    pub fn at(&self, k: u64) -> SimTime {
        SimTime::from_micros(FRESH_BASE_US + k * 1_000)
    }

    pub fn frame(&self, k: u64) -> Frame {
        Frame::Capture {
            at: self.at(k),
            objects: vec![self.object(k)],
        }
    }
}

/// A started and preloaded cluster.
struct Setup {
    cluster: LoopbackCluster,
    root: ScratchDir,
    start_s: f64,
    preload_s: f64,
}

fn start(pre: &Preload, i: usize) -> io::Result<Setup> {
    let root = ScratchDir::new(&format!("ingest-{i}"))?;
    let t0 = Instant::now();
    let mut cluster = LoopbackCluster::start_durable(
        NODES,
        CLUSTER_SEED,
        GroupConfig::default(),
        root.path(),
        FSYNC,
        SNAPSHOT_EVERY,
    )?;
    let t1 = Instant::now();
    cluster.run_schedule(&pre.events)?;
    let t2 = Instant::now();
    Ok(Setup {
        cluster,
        root,
        start_s: (t1 - t0).as_secs_f64(),
        preload_s: (t2 - t1).as_secs_f64(),
    })
}

/// Phase-1 result.
#[derive(Default)]
struct Phase1 {
    ack_us: Vec<f64>,
    late_us: Vec<f64>,
    wall_s: f64,
    failed: u64,
}

impl Phase1 {
    fn absorb(&mut self, block: Phase1) {
        self.ack_us.extend(block.ack_us);
        self.late_us.extend(block.late_us);
        self.wall_s += block.wall_s;
        self.failed += block.failed;
    }
}

/// Side-stream result: latencies plus the answers for the replay.
#[derive(Default)]
struct Side {
    locate_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    costs: Vec<daemon::CostWire>,
    replies: Vec<Frame>,
}

impl Side {
    fn absorb(&mut self, block: Side) {
        self.locate_us.extend(block.locate_us);
        self.attempted += block.attempted;
        self.failed += block.failed;
        let room = crate::query::KEEP_QUERIES.saturating_sub(self.costs.len());
        self.costs.extend(block.costs.into_iter().take(room));
        self.replies.extend(block.replies.into_iter().take(room));
    }
}

/// How long the ack reader waits for one ack before failing the run.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);

/// Closed-loop locates of preloaded objects beside phase 1, driven from
/// the generator's own loop over a nonblocking connection: one locate in
/// flight, the next asked [`SIDE_THINK`] after the previous answer.
struct SideStream<'a> {
    conn: NbConn,
    _guard: client::ConnGuard,
    pre: &'a Preload,
    rng: crate::query::Rng64,
    next_at: Instant,
    /// The locate in flight: query, write instant, request id.
    waiting: Option<(client::Query, Instant, u64)>,
    out: Side,
}

impl<'a> SideStream<'a> {
    fn connect(addr: std::net::SocketAddr, pre: &'a Preload, seed: u64) -> io::Result<Self> {
        let guard = client::ConnGuard::take();
        Ok(SideStream {
            conn: NbConn::new(TcpStream::connect(addr)?, addr)?,
            _guard: guard,
            pre,
            rng: crate::query::Rng64::new(seed ^ 0x51DE),
            next_at: Instant::now(),
            waiting: None,
            out: Side::default(),
        })
    }

    /// Take the answer if it arrived, else ask the next locate when it
    /// is due (and `issuing`).
    fn poll(&mut self, issuing: bool, spans: &mut Spans) -> io::Result<()> {
        if let Some((q, t0, req)) = self.waiting {
            self.conn.try_flush();
            self.conn.read_ready();
            if let Some(raw) = self.conn.next_frame() {
                let t1 = Instant::now();
                let reply = Frame::decode(&raw)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let (ok, cost) = client::check(&q, &reply, &self.pre.oracle);
                let side = &mut self.out;
                side.attempted += 1;
                side.failed += !ok as u64;
                side.locate_us.push((t1 - t0).as_secs_f64() * 1e6);
                if side.costs.len() < crate::query::KEEP_QUERIES {
                    side.costs.push(cost);
                    side.replies.push(reply);
                }
                spans.record_with_id(req, "query.locate", req, 0, t0, t1);
                self.waiting = None;
                self.next_at = t1 + SIDE_THINK;
            }
        } else if issuing && Instant::now() >= self.next_at {
            let q = self.pre.locate(&mut self.rng);
            let req = if spans.enabled() { spans.fresh_id() } else { 0 };
            self.conn.queue_frame(&q.frame().encode());
            let t0 = Instant::now();
            self.conn.try_flush();
            self.waiting = Some((q, t0, req));
        }
        if self.conn.is_dead() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "locate connection died",
            ));
        }
        Ok(())
    }
}

/// Phase 1 on two threads. The calling thread writes every capture
/// frame when it falls due (one connection to `capture`) and runs the
/// locate stream (one connection to `locate`); a second thread blocks on
/// the capture connection and stamps each ack the moment it is read, so
/// ack latency is not rounded up to the writer's wake-ups. Acks come
/// back in order, so they are matched FIFO to their due instants.
fn open_loop(
    capture: std::net::SocketAddr,
    locate: std::net::SocketAddr,
    stream: &mut Stream,
    pre: &Preload,
    seed: u64,
    dur: Duration,
    spans: &mut Spans,
    reader_spans: &mut Spans,
) -> io::Result<(Phase1, Side)> {
    let _conn = client::ConnGuard::take();
    let sock = TcpStream::connect(capture)?;
    sock.set_nodelay(true)?;
    let rx_sock = sock.try_clone()?;
    rx_sock.set_read_timeout(Some(ACK_TIMEOUT))?;
    let (due_tx, due_rx) = mpsc::channel::<(Instant, u64)>();
    let rspans = std::mem::take(reader_spans);
    let reader = thread::spawn(move || ack_reader(rx_sock, due_rx, rspans));
    let mut side = SideStream::connect(locate, pre, seed)?;
    let mut w = io::BufWriter::new(&sock);
    let interval = 1.0 / PHASE1_RATE;
    let mut out = Phase1::default();
    let start = Instant::now();
    let stop_issuing = start + dur;
    let mut k = 0u64;
    let sent = loop {
        let now = Instant::now();
        loop {
            let due = start + Duration::from_secs_f64(k as f64 * interval);
            if due > now || due >= stop_issuing {
                break;
            }
            let t0 = Instant::now();
            let payload = stream.frame(stream.sent).encode();
            let t1 = Instant::now();
            let req = if spans.enabled() { spans.fresh_id() } else { 0 };
            // The reader may see the ack as soon as the write returns.
            if due_tx.send((due, req)).is_err() {
                break;
            }
            if let Err(e) = transport::write_frame(&mut w, &payload) {
                drop(due_tx);
                reader.join().ok();
                return Err(e);
            }
            stream.sent += 1;
            out.late_us.push((t1 - due).as_secs_f64() * 1e6);
            spans.record("proto.encode", req, req, t0, t1);
            spans.record("transport.write", req, req, t1, Instant::now());
            k += 1;
        }
        side.poll(now < stop_issuing, spans)?;
        let now = Instant::now();
        if now >= stop_issuing && side.waiting.is_none() {
            break k;
        }
        let next = (start + Duration::from_secs_f64(k as f64 * interval)).min(side.next_at);
        let nap = if side.waiting.is_some() || next <= now {
            Duration::from_micros(50)
        } else {
            next - now
        };
        thread::sleep(nap.min(Duration::from_micros(100)));
    };
    drop(due_tx);
    let (ack_us, failed, rspans) = reader
        .join()
        .map_err(|_| io::Error::other("ack reader panicked"))??;
    *reader_spans = rspans;
    out.wall_s = start.elapsed().as_secs_f64();
    out.failed = failed + sent.saturating_sub(ack_us.len() as u64 + failed);
    out.ack_us = ack_us;
    Ok((out, side.out))
}

/// The ack-reading half of phase 1: one blocking read per capture the
/// writer announced, stamped on arrival.
fn ack_reader(
    sock: TcpStream,
    due: mpsc::Receiver<(Instant, u64)>,
    mut spans: Spans,
) -> io::Result<(Vec<f64>, u64, Spans)> {
    let _t = ThreadGuard::take();
    let mut r = io::BufReader::new(sock);
    let (mut ack_us, mut failed) = (Vec::new(), 0u64);
    while let Ok((due, req)) = due.recv() {
        let raw = transport::read_frame(&mut r)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "capture connection closed",
            )
        })?;
        let d0 = Instant::now();
        let ok = matches!(Frame::decode(&raw), Ok(Frame::Ack));
        let d1 = Instant::now();
        if ok {
            ack_us.push((d0 - due).as_secs_f64() * 1e6);
        } else {
            failed += 1;
        }
        if spans.enabled() {
            spans.record("proto.decode", req, req, d0, d1);
            spans.record_with_id(req, "capture", req, 0, due, d0);
        }
    }
    Ok((ack_us, failed, spans))
}

/// Width of the slices phase 2 counts acks in.
const SLICE: Duration = Duration::from_millis(250);

/// Closed-loop capture client keeping `OUTSTANDING` in flight. Returns
/// acks per [`SLICE`] of the phase, failures, the advanced stream and
/// its spans.
fn closed_loop(
    addr: std::net::SocketAddr,
    mut stream: Stream,
    dur: Duration,
    mut spans: Spans,
) -> io::Result<(Vec<u64>, u64, Stream, Spans)> {
    let _t = ThreadGuard::take();
    let mut c = Client::connect(addr)?;
    let start = Instant::now();
    let mut acked = vec![0u64; (dur.as_nanos() / SLICE.as_nanos()) as usize + 2];
    let (mut failed, mut inflight) = (0u64, 0usize);
    loop {
        let issuing = start.elapsed() < dur;
        if issuing && inflight < OUTSTANDING {
            let t0 = Instant::now();
            let payload = stream.frame(stream.sent).encode();
            c.send(&payload)?;
            spans.record("capture.send", 0, 0, t0, Instant::now());
            stream.sent += 1;
            inflight += 1;
            continue;
        }
        if inflight == 0 {
            break;
        }
        let t0 = Instant::now();
        match c.recv()? {
            Frame::Ack => {
                let last = acked.len() - 1;
                let slot = (start.elapsed().as_nanos() / SLICE.as_nanos()) as usize;
                acked[slot.min(last)] += 1;
            }
            _ => failed += 1,
        }
        spans.record("capture.ack_wait", 0, 0, t0, Instant::now());
        inflight -= 1;
    }
    Ok((acked, failed, stream, spans))
}

/// File-system type holding `path`, from the longest matching mount in
/// `/proc/self/mountinfo`.
fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mnt), Some(ty)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if abs.starts_with(mnt) && mnt.len() >= best.0 {
            best = (mnt.len(), ty.to_string());
        }
    }
    best.1
}

pub fn run(args: &Args, traced: bool) -> Result<Outcome, String> {
    client::require_two_cores()?;
    let err = |e: io::Error| e.to_string();
    let pre = Preload::new(if args.tiny { 8 } else { 64 });
    let epoch = Instant::now();

    // -- set-up, repeated ------------------------------------------------
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let s = start(&pre, i).map_err(err)?;
        setups.push((s.start_s, s.preload_s));
        if i + 1 < SETUPS {
            s.cluster.shutdown().map_err(err)?;
        } else {
            live = Some(s);
        }
    }
    let Setup {
        mut cluster, root, ..
    } = live.expect("at least one set-up");
    println!(
        "# wal_fs={} loopback={}",
        fs_type(root.path()),
        cluster.addr(0).ip().is_loopback()
    );

    let secs = args.seconds.as_secs_f64();
    let rounds = ((secs / ROUND_S) as usize).clamp(1, ROUNDS);
    let (open_block, closed_block) = (
        Duration::from_secs_f64(secs * 0.6 / rounds as f64),
        Duration::from_secs_f64(secs * 0.3 / rounds as f64),
    );
    let mut streams: Vec<Stream> = CAPTURE_SITES
        .iter()
        .map(|&s| Stream::new(s, args.seed))
        .collect();
    let mut out = Outcome::default();
    let log = |track: u32| {
        if traced {
            Spans::on(epoch, track)
        } else {
            Spans::off()
        }
    };
    let mut spans = log(0);
    let mut reader_spans = log(1);
    let mut closed_spans = CAPTURE_SITES.map(|s| log(2 + s));

    let (mut p1, mut side) = (Phase1::default(), Side::default());
    let (mut rates, mut failed2, mut rss_mib) = (Vec::new(), 0u64, 0.0);
    for round in 0..rounds {
        // -- phase 1: open-loop captures + closed-loop locates ------------
        let (b1, bs) = {
            let _t = ThreadGuard::take();
            open_loop(
                cluster.addr(0),
                cluster.addr(LOCATE_ORIGIN),
                &mut streams[0],
                &pre,
                args.seed.wrapping_add(round as u64),
                open_block,
                &mut spans,
                &mut reader_spans,
            )
            .map_err(err)?
        };
        p1.absorb(b1);
        side.absorb(bs);
        if round == 0 {
            // Memory at a fixed amount of ingested data (preload + one
            // open-loop block at a fixed rate); the closed-loop blocks'
            // capture count varies with their speed.
            rss_mib = meta::peak_rss_mib();
        }

        // -- phase 2: closed-loop captures ---------------------------------
        let handles: Vec<_> = streams
            .iter()
            .zip(closed_spans.iter_mut())
            .map(|(&s, sp)| {
                let addr = cluster.addr(s.site as usize);
                let sp = std::mem::take(sp);
                thread::spawn(move || closed_loop(addr, s, closed_block, sp))
            })
            .collect();
        let mut slices = vec![0u64; (closed_block.as_nanos() / SLICE.as_nanos()) as usize];
        for (i, h) in handles.into_iter().enumerate() {
            let (a, f, s, sp) = h
                .join()
                .map_err(|_| "capture client panicked".to_string())?
                .map_err(err)?;
            for (slot, n) in slices.iter_mut().zip(a) {
                *slot += n;
            }
            failed2 += f;
            streams[i] = s;
            closed_spans[i] = sp;
        }
        // The first slice fills the pipelines (warm-up), when there are
        // more.
        let warmup = (slices.len() > 2) as usize;
        rates.extend(
            slices
                .iter()
                .skip(warmup)
                .map(|&n| n as f64 / SLICE.as_secs_f64()),
        );
        // Drain the block's protocol traffic so the next open-loop block
        // starts from a quiet plane.
        cluster.quiesce().map_err(err)?;
    }
    spans.absorb(reader_spans);
    for sp in closed_spans {
        spans.absorb(sp);
    }

    // -- settle and verify ------------------------------------------------
    let far = SimTime::from_micros(FRESH_BASE_US * 4);
    for i in 0..NODES {
        let mut c = Client::connect(cluster.addr(i)).map_err(err)?;
        if !matches!(
            c.request(&Frame::Flush { now: far }).map_err(err)?,
            Frame::Ack
        ) {
            return Err(format!("node {i} refused the closing flush"));
        }
    }
    cluster.quiesce().map_err(err)?;
    let mut verify_failed = 0u64;
    let mut verified = 0u64;
    {
        let mut c = Client::connect(cluster.addr(VERIFY_ORIGIN)).map_err(err)?;
        for s in &streams {
            let step = (s.sent / VERIFY_SAMPLE).max(1);
            for k in (0..s.sent).step_by(step as usize) {
                verified += 1;
                let ok =
                    client::expect_locate(&mut c, s.object(k), far, SiteId(s.site)).map_err(err)?;
                verify_failed += !ok as u64;
            }
        }
    }
    let reports = cluster.shutdown().map_err(err)?;
    drop(root);
    let anomalies: u64 = reports
        .iter()
        .map(|r| layers::anomaly_sum(&r.anomalies))
        .sum();

    let captures = streams.iter().map(|s| s.sent).sum::<u64>();
    out.attempted = captures + side.attempted + verified;
    out.failed = p1.failed + failed2 + side.failed + verify_failed + anomalies;
    if anomalies > 0 {
        eprintln!("perfbench: ingest: {anomalies} protocol anomalies reported at shutdown");
    }

    let mut setup_s: Vec<f64> = setups.iter().map(|(a, b)| a + b).collect();
    // Median over the blocks' full slices: one stall moves one slice.
    let captures_per_s = stats::median(&mut rates);
    // The open loop's tail follows the shared host's load (the median
    // over slices of the p99 spread 30 % over ten runs), so its
    // percentiles are taken in the calmer quarter of the run.
    let ack_p50 = stats::calm_quantile(&p1.ack_us, 0.5, SLICES);
    let ack_p99 = stats::calm_quantile(&p1.ack_us, 0.99, SLICES);
    let mut late = p1.late_us.clone();
    let late_p99 = stats::quantile(&mut late, 0.99);
    let late_max = stats::quantile(&mut late, 1.0);
    let mut loc = side.locate_us.clone();
    out.e2e.insert("setup_s", stats::median(&mut setup_s));
    out.e2e.insert("throughput_per_s", captures_per_s);
    out.e2e.insert("latency_p50_us", ack_p50);
    out.e2e.insert("latency_p99_us", ack_p99);
    out.e2e.insert("peak_rss_mib", rss_mib);
    out.named = vec![
        ("captures_per_s", "1/s", captures_per_s),
        ("capture_ack_p50_us", "us", ack_p50),
        ("capture_ack_p99_us", "us", ack_p99),
        (
            "capture_ack_p99_median_us",
            "us",
            stats::sliced_quantile(&p1.ack_us, 0.99, SLICES),
        ),
        ("capture_ack_samples", "count", p1.ack_us.len() as f64),
        ("locate_p50_us", "us", stats::quantile(&mut loc, 0.5)),
        ("locate_p99_us", "us", stats::quantile(&mut loc, 0.99)),
        ("locate_samples", "count", side.locate_us.len() as f64),
        ("phase1_offered_per_s", "1/s", PHASE1_RATE),
        (
            "phase1_achieved_per_s",
            "1/s",
            p1.ack_us.len() as f64 / p1.wall_s.max(1e-9),
        ),
        ("gen_late_p99_us", "us", late_p99),
        ("gen_late_max_us", "us", late_max),
    ];

    if traced {
        let mut st: Vec<f64> = setups.iter().map(|s| s.0).collect();
        let mut pl: Vec<f64> = setups.iter().map(|s| s.1).collect();
        let l = &mut out.layer;
        l.insert("cluster.start_s", stats::median(&mut st));
        l.insert("cluster.preload_s", stats::median(&mut pl));
        l.insert("bench.gen_late_p99_us", late_p99);
        l.insert("bench.gen_late_max_us", late_max);
        layers::node_reports(l, &reports);
        let costs: Vec<_> = side.costs.iter().map(|&c| (true, c)).collect();
        layers::query_costs(l, &costs);
        layers::capture_path(l, CLUSTER_SEED, &streams, &side.replies).map_err(err)?;
        out.spans = spans;
    }
    Ok(out)
}
