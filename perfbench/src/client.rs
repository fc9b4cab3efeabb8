//! Socket clients shared by the daemon workloads: the generator
//! thread/connection budget, raw-frame request/reply over
//! `transport` framing, and oracle-checked locate/trace.

use crate::spans::Spans;
use daemon::{CostWire, Frame};
use moods::{Locate, MovementLog, ObjectId, SiteId, Trace};
use simnet::SimTime;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use transport::{read_frame, write_frame};

/// Most client connections the generators hold open at once.
pub const MAX_CONNS: usize = 2;

static CONNS: AtomicUsize = AtomicUsize::new(0);
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Counts one open generator connection while alive; panics past
/// [`MAX_CONNS`] (the benchmark's own budget, so a bug, not an input).
pub struct ConnGuard(());

impl ConnGuard {
    pub fn take() -> ConnGuard {
        let open = CONNS.fetch_add(1, Ordering::SeqCst) + 1;
        assert!(
            open <= MAX_CONNS,
            "generator connection budget exceeded: {open} > {MAX_CONNS}"
        );
        ConnGuard(())
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        CONNS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Counts one running generator thread while alive; panics past the
/// host's parallelism.
pub struct ThreadGuard(());

impl ThreadGuard {
    pub fn take() -> ThreadGuard {
        let n = THREADS.fetch_add(1, Ordering::SeqCst) + 1;
        let limit = crate::meta::nproc();
        assert!(
            n <= limit,
            "generator thread budget exceeded: {n} > nproc {limit}"
        );
        ThreadGuard(())
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        THREADS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The daemon workloads drive two generators at once; refuse to run on
/// a host that cannot give each its own core.
pub fn require_two_cores() -> Result<(), String> {
    match crate::meta::nproc() {
        n if n >= 2 => Ok(()),
        n => Err(format!(
            "the daemon workloads need 2 cores for their 2 generator threads, host has {n}"
        )),
    }
}

/// A blocking client connection speaking raw [`Frame`]s.
pub struct Client {
    stream: TcpStream,
    _guard: ConnGuard,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let guard = ConnGuard::take();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            _guard: guard,
        })
    }

    pub fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    pub fn recv(&mut self) -> io::Result<Frame> {
        match read_frame(&mut self.stream)? {
            Some(raw) => {
                Frame::decode(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            }
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "node closed the connection",
            )),
        }
    }

    /// One request/reply exchange.
    pub fn request(&mut self, frame: &Frame) -> io::Result<Frame> {
        self.send(&frame.encode())?;
        self.recv()
    }
}

/// A read query: `L(o, t)` or `TR(o, t0, t1)`.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    Locate {
        object: ObjectId,
        t: SimTime,
    },
    Trace {
        object: ObjectId,
        t0: SimTime,
        t1: SimTime,
    },
}

impl Query {
    pub fn object(&self) -> ObjectId {
        match *self {
            Query::Locate { object, .. } | Query::Trace { object, .. } => object,
        }
    }

    pub fn frame(&self) -> Frame {
        match *self {
            Query::Locate { object, t } => Frame::Locate { object, t },
            Query::Trace { object, t0, t1 } => Frame::Trace { object, t0, t1 },
        }
    }
}

/// One answered query.
pub struct Answer {
    /// Wall time from write to decoded reply, in µs.
    pub us: f64,
    /// Reply complete and equal to the oracle's answer.
    pub ok: bool,
    /// Model cost the answering node charged.
    pub cost: CostWire,
    /// The decoded reply (kept for the traced replay).
    pub reply: Frame,
}

/// Ask `q` over `client` and check the reply against `oracle`. Spans
/// (when on): `query` root with `proto.encode`, `transport.write`,
/// `transport.wait_read`, `proto.decode` and `oracle.check` children.
pub fn ask(
    client: &mut Client,
    q: Query,
    oracle: &MovementLog,
    spans: &mut Spans,
) -> io::Result<Answer> {
    let req = if spans.enabled() { spans.fresh_id() } else { 0 };
    let t0 = Instant::now();
    let payload = q.frame().encode();
    let t1 = Instant::now();
    client.send(&payload)?;
    let t2 = Instant::now();
    let raw = read_frame(&mut client.stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "node closed the connection",
        )
    })?;
    let t3 = Instant::now();
    let reply = Frame::decode(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let t4 = Instant::now();
    let (ok, cost) = check(&q, &reply, oracle);
    let t5 = Instant::now();
    if spans.enabled() {
        let name = match q {
            Query::Locate { .. } => "query.locate",
            Query::Trace { .. } => "query.trace",
        };
        spans.record_with_id(req, name, req, 0, t0, t4);
        spans.record("proto.encode", req, req, t0, t1);
        spans.record("transport.write", req, req, t1, t2);
        spans.record("transport.wait_read", req, req, t2, t3);
        spans.record("proto.decode", req, req, t3, t4);
        spans.record("oracle.check", req, req, t4, t5);
    }
    Ok(Answer {
        us: (t4 - t0).as_secs_f64() * 1e6,
        ok,
        cost,
        reply,
    })
}

/// Whether `reply` answers `q` completely and as `oracle` does, and the
/// model cost the answering node charged.
pub fn check(q: &Query, reply: &Frame, oracle: &MovementLog) -> (bool, CostWire) {
    match (q, reply) {
        (
            Query::Locate { object, t },
            Frame::LocateResp {
                answer,
                cost,
                complete,
            },
        ) => (*complete && *answer == oracle.locate(*object, *t), *cost),
        (
            Query::Trace { object, t0, t1 },
            Frame::TraceResp {
                path,
                cost,
                complete,
            },
        ) => (*complete && *path == oracle.trace(*object, *t0, *t1), *cost),
        _ => (false, CostWire::default()),
    }
}

/// Site an answer is expected at, for captures the benchmark made.
pub fn expect_locate(
    client: &mut Client,
    object: ObjectId,
    t: SimTime,
    site: SiteId,
) -> io::Result<bool> {
    match client.request(&Frame::Locate { object, t })? {
        Frame::LocateResp {
            answer, complete, ..
        } => Ok(complete && answer == Some(site)),
        _ => Ok(false),
    }
}
