//! E3/E4 — Fig. 7: query processing time, P2P vs centralized.
//!
//! The query is the paper's: "Where has object oᵢ been?" — a lifetime
//! trace. 100 queries over different moved objects are averaged. The
//! P2P side pays 5 ms per overlay message (§V-B); the centralized side
//! runs the same data in the Wang–Liu warehouse under its calibrated
//! cost model.

use crate::report::Csv;
use crate::{experiment_group_mode, parallel_sweep, Scale};
use centralized::Warehouse;
use moods::SiteId;
use peertrack::Builder;
use detrand::{rngs::StdRng, Rng, SeedableRng};
use simnet::SimTime;
use workload::paper::PaperWorkload;

/// One sweep point: average trace-query time under both architectures.
#[derive(Clone, Debug)]
pub struct QueryPoint {
    /// Network size.
    pub nn: usize,
    /// Objects per node.
    pub objects_per_node: usize,
    /// Average P2P trace time (ms).
    pub p2p_ms: f64,
    /// Average centralized trace time (ms).
    pub centralized_ms: f64,
    /// Average P2P messages per query.
    pub p2p_messages: f64,
    /// STAY-table rows in the warehouse.
    pub warehouse_rows: usize,
}

/// Run one query experiment point.
pub fn run_queries(nn: usize, objects_per_node: usize, queries: usize, seed: u64) -> QueryPoint {
    let mut net =
        Builder::new().sites(nn).seed(seed).mode(experiment_group_mode()).build();
    let wl = PaperWorkload {
        sites: nn,
        objects_per_site: objects_per_node,
        seed,
        ..PaperWorkload::default()
    };
    let mut events = wl.generate();
    events.sort_by_key(|e| e.at);

    let mut warehouse = Warehouse::new();
    for ev in &events {
        for &o in &ev.objects {
            warehouse.ingest(o, ev.site, ev.at);
        }
        net.schedule_capture(ev.at, ev.site, ev.objects.clone());
    }
    net.run_until_quiescent();

    // Query the movers — objects with real 11-visit traces.
    let movers_per_site = (objects_per_node as f64 * wl.move_fraction).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF167u64);
    let mut p2p_total_us = 0u64;
    let mut p2p_msgs = 0u64;
    let mut central_total_us = 0u64;
    for _ in 0..queries {
        let site = rng.gen_range(0..nn) as u32;
        let serial = rng.gen_range(0..movers_per_site.max(1)) as u64;
        let o = workload::epc_object(site, serial);
        let from = SiteId(rng.gen_range(0..nn) as u32);

        let (path, stats) = net.trace(from, o, SimTime::ZERO, SimTime::INFINITY);
        assert!(!path.is_empty(), "mover must have a trace");
        p2p_total_us += stats.time.as_micros();
        p2p_msgs += stats.messages;

        let (cpath, ctime) = warehouse.trace_timed(o, SimTime::ZERO, SimTime::INFINITY);
        assert_eq!(cpath.len(), path.len(), "both architectures see the same history");
        central_total_us += ctime.as_micros();
    }

    QueryPoint {
        nn,
        objects_per_node,
        p2p_ms: p2p_total_us as f64 / queries as f64 / 1_000.0,
        centralized_ms: central_total_us as f64 / queries as f64 / 1_000.0,
        p2p_messages: p2p_msgs as f64 / queries as f64,
        warehouse_rows: warehouse.stay_rows(),
    }
}

/// Fig. 7a: 5 000 objects/node (scaled), network-size sweep.
pub fn fig7a(scale: Scale) -> Vec<QueryPoint> {
    let vol = scale.objects(5_000);
    let sizes: Vec<usize> = [64usize, 128, 256, 512].iter().map(|&n| scale.nodes(n)).collect();
    parallel_sweep(sizes, |&n| run_queries(n, vol, 100, 42))
}

/// Fig. 7b: 512 nodes (scaled), data-volume sweep 500·i (scaled).
pub fn fig7b(scale: Scale) -> Vec<QueryPoint> {
    let nn = scale.nodes(512);
    let volumes: Vec<usize> = (1..=10).map(|i| scale.objects(500 * i)).collect();
    parallel_sweep(volumes, |&v| run_queries(nn, v, 100, 42))
}

/// The cells shared by both query figures after their two sweep
/// columns.
fn query_cells(p: &QueryPoint, mut row: Vec<String>) -> Vec<String> {
    row.extend([
        format!("{:.3}", p.p2p_ms),
        format!("{:.3}", p.centralized_ms),
        format!("{:.2}", p.p2p_messages),
        p.warehouse_rows.to_string(),
    ]);
    row
}

/// `results/fig7a.csv`: trace-query time per network size.
pub fn fig7a_csv(points: &[QueryPoint]) -> Csv {
    let rows = points
        .iter()
        .map(|p| query_cells(p, vec![p.nn.to_string(), p.objects_per_node.to_string()]))
        .collect();
    Csv {
        file: "fig7a.csv",
        header: &["nn", "objects_per_node", "p2p_ms", "centralized_ms", "p2p_msgs", "db_rows"],
        rows,
    }
}

/// `results/fig7b.csv`: trace-query time per data volume.
pub fn fig7b_csv(points: &[QueryPoint]) -> Csv {
    let rows = points
        .iter()
        .map(|p| query_cells(p, vec![p.objects_per_node.to_string(), p.nn.to_string()]))
        .collect();
    Csv {
        file: "fig7b.csv",
        header: &["objects_per_node", "nn", "p2p_ms", "centralized_ms", "p2p_msgs", "db_rows"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_architectures_agree_and_time_is_positive() {
        let p = run_queries(16, 60, 20, 5);
        assert!(p.p2p_ms > 0.0);
        assert!(p.centralized_ms > 0.0);
        assert!(p.p2p_messages > 1.0, "trace queries traverse multiple sites");
        assert!(p.warehouse_rows > 0);
    }

    #[test]
    fn p2p_time_tracks_trace_length_not_db_size() {
        // Fig. 7b's shape in miniature: 4x the volume should barely move
        // the P2P time but must increase the centralized time.
        let small = run_queries(16, 50, 20, 6);
        let big = run_queries(16, 200, 20, 6);
        assert!(
            big.p2p_ms < small.p2p_ms * 2.0,
            "P2P should be ~flat: {} vs {}",
            small.p2p_ms,
            big.p2p_ms
        );
        assert!(
            big.centralized_ms > small.centralized_ms,
            "centralized must grow with the database"
        );
    }
}
