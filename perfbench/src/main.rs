//! The repository benchmark: one binary, three workloads.
//!
//! ```text
//! perfbench --workload ingest|query|paper_sim --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Every workload derives its inputs from `--seed`, measures for
//! `--seconds`, checks every answer against an oracle and prints, as the
//! last line of standard output, one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end set ([`E2E`]); with
//! `--trace 1` the run measures the workload twice (untraced, then with
//! benchmark-side spans), prints the tracing overhead, replays the run's
//! own inputs through each layer's public functions and reports the
//! per-layer set ([`LAYER`]). `--tiny` shrinks every input for the
//! smoke test. See `perfbench/README.md` for the metric → layer map.

mod client;
mod ingest;
mod layers;
mod meta;
mod query;
mod scale;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::time::Duration;

/// The end-to-end metrics every workload reports (name, unit). What
/// each one measures on each workload is listed in the README.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics a traced run reports (name, unit). A layer a
/// workload does not exercise reads 0 on that workload.
pub const LAYER: &[(&str, &str)] = &[
    ("proto.capture_decode_ns", "ns"),
    ("proto.reply_encode_ns", "ns"),
    ("transport.accum_ns_per_frame", "ns"),
    ("state.record_encode_ns", "ns"),
    ("durable.append_ns", "ns"),
    ("durable.wal_bytes_per_capture", "bytes"),
    ("durable.sync_us.b1", "us"),
    ("durable.sync_us.b16", "us"),
    ("durable.sync_us.b256", "us"),
    ("node.apply_capture_ns", "ns"),
    ("node.apply_flush_us", "us"),
    ("node.outbox_per_flush", "count"),
    ("codec.wire_encode_ns", "ns"),
    ("codec.wire_decode_ns", "ns"),
    ("ids.sha1_ns_per_epc", "ns"),
    ("daemon.delivery_p50_us.group_index", "us"),
    ("daemon.delivery_p99_us.group_index", "us"),
    ("daemon.backpressure_parks", "count"),
    ("daemon.protocol_frames", "count"),
    ("cluster.start_s", "s"),
    ("cluster.preload_s", "s"),
    ("query.msgs_per_locate", "count"),
    ("query.hops_per_locate", "count"),
    ("query.msgs_per_trace", "count"),
    ("chord.answer_step_ns", "ns"),
    ("chord.steps_per_lookup", "count"),
    ("store.iop_lookup_ns", "ns"),
    ("sim.build_s", "s"),
    ("sim.schedule_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.handler_ns.group_index", "ns"),
    ("sim.handler_ns.iop_update", "ns"),
    ("sim.handler_ns.index_report", "ns"),
    ("sim.handler_ns.timer", "ns"),
    ("simnet.calendar_op_ns", "ns"),
    ("sim.locate_us", "us"),
    ("sim.trace_us", "us"),
    ("model.msgs_per_obs.index_report", "count"),
    ("model.msgs_per_obs.iop_update", "count"),
    ("model.msgs_per_obs.group_index", "count"),
    ("model.msgs_per_obs.refresh", "count"),
    ("model.msgs_per_obs.delegate", "count"),
    ("model.msgs_per_obs.split_merge", "count"),
    ("model.msgs_per_obs.lookup", "count"),
    ("model.msgs_per_obs.query", "count"),
    ("model.msgs_per_obs.overlay", "count"),
    ("model.msgs_per_obs.gossip", "count"),
    ("model.msgs_per_obs.ack", "count"),
    ("model.msgs_per_obs.retrans", "count"),
    ("model.bytes_per_obs", "bytes"),
    ("flat.events", "count"),
    ("flat.windows", "count"),
    ("flat.events_per_window", "count"),
    ("flat.events_per_s", "1/s"),
    ("flat.peak_rss_mib", "MiB"),
    ("flat.t1_wall_ms", "ms"),
    ("flat.parallel_efficiency", "ratio"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.gen_late_max_us", "us"),
];

/// The seed later performance claims must also hold on; never use it
/// while tuning a change.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub tiny: bool,
}

/// What one measured pass of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued, every one oracle-checked.
    pub attempted: u64,
    /// Errors, timeouts, oracle disagreements, anomalies, violations.
    pub failed: u64,
    /// End-to-end metrics (values only; units come from [`E2E`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own metric names (`captures_per_s`, ...), printed
    /// for humans next to the generic ones (name, unit, value).
    pub named: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer metrics (traced pass only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Spans recorded around layer calls (traced pass only).
    pub spans: spans::Spans,
}

/// A scratch directory under `.bench_out/`, removed when dropped (also
/// when a run fails part-way).
pub struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    /// Create `.bench_out/<name>-<pid>`, replacing any stale copy.
    pub fn new(name: &str) -> std::io::Result<ScratchDir> {
        let path =
            std::path::Path::new(".bench_out").join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload ingest|query|paper_sim --seed N \
         --seconds S --trace 0|1 [--tiny]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = val(),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                let s: f64 = val().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tiny" => args.tiny = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !["ingest", "query", "paper_sim"].contains(&args.workload.as_str()) {
        usage("--workload must be ingest, query or paper_sim");
    }
    args
}

/// Run one pass of the chosen workload.
fn run_pass(args: &Args, traced: bool) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "ingest" => ingest::run(args, traced),
        "query" => query::run(args, traced),
        "paper_sim" => sim::run(args, traced),
        _ => unreachable!("workload validated in parse_args"),
    }
}

fn print_named(title: &str, out: &Outcome) {
    println!("{title}");
    for (name, unit) in E2E {
        println!(
            "  {:<34} {:>16.3} {unit}",
            name,
            out.e2e.get(name).copied().unwrap_or(0.0)
        );
    }
    for (name, unit, v) in &out.named {
        println!("  {:<34} {:>16.3} {unit}", name, v);
    }
}

fn main() {
    let args = parse_args();
    meta::print(&args);

    let result = run_pass(&args, false).and_then(|untraced| {
        if !args.trace {
            return Ok((untraced, None));
        }
        meta::reset_peak_rss();
        let traced = run_pass(&args, true)?;
        Ok((untraced, Some(traced)))
    });
    let (untraced, traced) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    print_named(
        &format!("end-to-end ({}, untraced)", args.workload),
        &untraced,
    );
    let (attempted, failed, metrics): (u64, u64, Vec<(String, String, f64)>) = match &traced {
        None => (
            untraced.attempted,
            untraced.failed,
            E2E.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string(), untraced.e2e[n]))
                .collect(),
        ),
        Some(t) => {
            println!("tracing overhead (traced minus untraced)");
            for (name, unit) in E2E {
                let (a, b) = (untraced.e2e[name], t.e2e[name]);
                let rel = if a != 0.0 { (b - a) / a * 100.0 } else { 0.0 };
                println!("  {:<34} {:>+16.3} {unit} ({rel:+.1}%)", name, b - a);
            }
            println!("per-layer ({}, traced)", args.workload);
            for (name, unit) in LAYER {
                println!(
                    "  {:<38} {:>16.3} {unit}",
                    name,
                    t.layer.get(name).copied().unwrap_or(0.0)
                );
            }
            match t.spans.write_chrome(&args.workload, args.seed) {
                Ok(Some(path)) => {
                    println!("spans: {} ({} recorded)", path.display(), t.spans.len())
                }
                Ok(None) => {}
                Err(e) => eprintln!("perfbench: could not write spans: {e}"),
            }
            (
                untraced.attempted + t.attempted,
                untraced.failed + t.failed,
                LAYER
                    .iter()
                    .map(|&(n, u)| {
                        (
                            n.to_string(),
                            u.to_string(),
                            t.layer.get(n).copied().unwrap_or(0.0),
                        )
                    })
                    .collect(),
            )
        }
    };
    println!("ops: attempted {attempted}, failed {failed}");

    if let Some((n, _, v)) = metrics.iter().find(|m| !m.2.is_finite()) {
        eprintln!("perfbench: metric {n} is {v}; refusing to report it");
        std::process::exit(1);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
}
