//! The flat engine at 10⁵ nodes / 10⁶ objects — arena state,
//! calendar-queue scheduling and the sharded executor
//! (`peertrack::flat`, `simnet::shard`, `simnet::calendar`).
//!
//! Measured in the traced `paper_sim` run, not as a workload of its
//! own: one `run_flat` job takes seconds, so a timed run holds only a
//! handful of them and their wall times spread too far between runs to
//! bound. One job at T=2 and one at T=1 give the per-layer figures;
//! correctness is the engine's own oracle (`FlatReport` violations must
//! be zero, the two thread counts must agree).

use crate::spans::Spans;
use crate::{meta, Args};
use bench::scale::flat_config;
use peertrack::{run_flat, FlatConfig, FlatReport};
use std::collections::BTreeMap;
use std::time::Instant;

const NODES: u32 = 100_000;
const OBJECTS: u32 = 1_000_000;
const THREADS: usize = 2;

fn config(args: &Args, nodes: u32, objects: u32, threads: usize) -> FlatConfig {
    let mut cfg = flat_config(nodes, objects);
    cfg.threads = threads;
    cfg.seed = args.seed;
    cfg
}

/// Oracle failures of one job: wrong locate answers, out-of-order index
/// updates, IOP edges out of time order, and any object whose path does
/// not end in exactly one open tail.
fn violations(r: &FlatReport, objects: u32) -> u64 {
    r.locates_bad + r.out_of_order + r.iop_bad + (r.open_tails != objects as u64) as u64
}

/// Run one job at T=2 and one at T=1, record their spans and per-layer
/// metrics, and return (operations attempted, failed).
pub fn layers(
    args: &Args,
    l: &mut BTreeMap<&'static str, f64>,
    spans: &mut Spans,
) -> (u64, u64) {
    let (nodes, objects) = if args.tiny {
        (2_000, 20_000)
    } else {
        (NODES, OBJECTS)
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut job = |threads: usize| {
        meta::reset_peak_rss();
        let t = Instant::now();
        let r = run_flat(&config(args, nodes, objects, threads));
        let wall = t.elapsed().as_secs_f64();
        let req = spans.fresh_id();
        let name = if threads == 1 {
            "flat.run_flat.t1"
        } else {
            "flat.run_flat"
        };
        spans.record_with_id(req, name, req, 0, t, Instant::now());
        attempted += 1 + r.locates_ok + r.locates_bad;
        failed += violations(&r, objects);
        if !r.violations.is_empty() {
            eprintln!("perfbench: flat engine violations: {:?}", r.violations);
        }
        (r, wall, meta::peak_rss_mib())
    };
    let (r, t2_wall, rss) = job(THREADS);
    let (t1, t1_wall, _) = job(1);
    if t1.events != r.events || t1.records != r.records {
        failed += 1;
        eprintln!("perfbench: flat engine T=1 and T={THREADS} runs disagree");
    }
    let events = r.events as f64;
    l.insert("flat.events", events);
    l.insert("flat.windows", r.windows as f64);
    l.insert("flat.events_per_window", events / r.windows.max(1) as f64);
    l.insert("flat.events_per_s", events / t2_wall.max(1e-9));
    l.insert("flat.peak_rss_mib", rss);
    l.insert("flat.t1_wall_ms", t1_wall * 1e3);
    l.insert(
        "flat.parallel_efficiency",
        t1_wall / (THREADS as f64 * t2_wall),
    );
    (attempted, failed)
}
