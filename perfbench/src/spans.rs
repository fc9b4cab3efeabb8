//! Benchmark-side spans: one record per call into a layer, kept in
//! memory and written out as a Chrome trace (`chrome://tracing`,
//! Perfetto) when the run ends. Spans of one request share a request
//! id; a span's `parent` is the span that caused it.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Cap on spans one log keeps (the rest are counted, not stored), so
/// every generator thread's track appears in the merged trace.
const MAX_PER_LOG: usize = 12_500;
/// Cap on spans a merged log keeps.
const MAX_SPANS: usize = 50_000;

#[derive(Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    track: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// A span log. `Spans::off()` records nothing and costs one branch per
/// call site; ids are unique across the logs later merged into one.
pub struct Spans {
    on: bool,
    epoch: Instant,
    track: u32,
    next: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::off()
    }
}

impl Spans {
    /// A disabled log.
    pub fn off() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            track: 0,
            next: 1,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// An enabled log for one generator thread (`track` = Chrome tid).
    /// Every log of a run must share `epoch`.
    pub fn on(epoch: Instant, track: u32) -> Spans {
        Spans {
            on: true,
            epoch,
            track,
            next: 1,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// True when recording.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// A fresh span id (also used as the request id of a root span).
    pub fn fresh_id(&mut self) -> u64 {
        let id = ((self.track as u64) << 48) | self.next;
        self.next += 1;
        id
    }

    /// Record a finished span `[start, end)` named `name`, caused by
    /// `parent` (0 = root), in request `req`. Returns its id (0 when
    /// off). Pass `id = 0` to allocate one.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.record_with_id(0, name, req, parent, start, end)
    }

    /// As [`Spans::record`] with a pre-allocated id (0 allocates).
    pub fn record_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = if id == 0 { self.fresh_id() } else { id };
        if self.spans.len() >= MAX_PER_LOG {
            self.dropped += 1;
            return id;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            track: self.track,
            start_ns,
            dur_ns,
        });
        id
    }

    /// Fold another thread's log into this one.
    pub fn absorb(&mut self, other: Spans) {
        self.on |= other.on;
        self.dropped += other.dropped;
        let room = MAX_SPANS.saturating_sub(self.spans.len());
        self.dropped += other.spans.len().saturating_sub(room) as u64;
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Spans recorded (stored plus dropped).
    pub fn len(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Write `.bench_out/<workload>-seed<seed>.trace.json` under the
    /// current directory (the checkout root). `None` when disabled.
    pub fn write_chrome(&self, workload: &str, seed: u64) -> std::io::Result<Option<PathBuf>> {
        if !self.on {
            return Ok(None);
        }
        let dir = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
        let mut out = String::with_capacity(64 + self.spans.len() * 150);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.track,
                s.id,
                s.parent,
                s.req
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(&path, out)?;
        Ok(Some(path))
    }
}
