//! The real-network daemon versus the simulator oracle.
//!
//! One workload, three executions: the deterministic simulator
//! (`peertrack::TraceableNetwork`), a 5-node loopback socket cluster
//! (`daemon::LoopbackCluster`), and the ground-truth `MovementLog`.
//! Every locate/trace answer must agree across all three, every query's
//! modelled cost must match message-for-message, and the cluster's
//! merged per-class traffic accounting must equal the simulator's
//! global tally exactly — same messages, same model bytes, same overlay
//! hops. That is the claim that makes the socket path a *port* of the
//! protocol rather than a reimplementation drifting beside it.

use daemon::LoopbackCluster;
use integration_tests::triple_from_events;
use moods::{Locate, SiteId, Trace};
use peertrack::Builder;
use simnet::metrics::{Metrics, ALL_CLASSES};
use simnet::time::secs;
use simnet::SimTime;
use workload::paper::PaperWorkload;

fn can_bind() -> bool {
    std::net::TcpListener::bind("127.0.0.1:0").is_ok()
}

macro_rules! require_sockets {
    () => {
        if !can_bind() {
            eprintln!("SKIP: sandbox forbids binding loopback sockets");
            return;
        }
    };
}

#[test]
fn five_node_cluster_matches_simulator_and_oracle() {
    require_sockets!();
    const SITES: usize = 5;
    const VOL: usize = 12;
    const SEED: u64 = 21;

    let events = PaperWorkload {
        sites: SITES,
        objects_per_site: VOL,
        grouped_movement: true,
        seed: SEED,
        ..PaperWorkload::default()
    }
    .generate();

    // Simulator + ground truth.
    let net = Builder::new().sites(SITES).seed(SEED).build();
    let mut t = triple_from_events(net, &events);

    // The same schedule over real sockets.
    let mut cluster = LoopbackCluster::start(SITES, SEED).expect("cluster start");
    cluster.run_schedule(&events).expect("cluster schedule");

    // Identical query sequence against both (queries are themselves
    // charged traffic, so the sequences must match for metric parity).
    let probes: Vec<SimTime> = (0..8).map(|i| secs(i * 700)).collect();
    // The whole history, plus bounded windows: a lower edge after the
    // first visit makes the trace walk backward from its anchor and
    // filter visits by overlap.
    let windows = [
        (SimTime::ZERO, SimTime::INFINITY),
        (secs(700), secs(2_100)),
        (secs(1_400), secs(4_900)),
        (secs(2_800), secs(2_800)),
    ];
    for site in 0..SITES as u32 {
        for serial in 0..VOL as u64 {
            let o = workload::epc_object(site, serial);
            let origin = SiteId((site + 2) % SITES as u32);

            for &probe in &probes {
                let truth = t.oracle.locate(o, probe);
                let (sim_ans, sim_stats) = t.net.locate(origin, o, probe);
                let (net_ans, net_cost, complete) =
                    cluster.locate(origin, o, probe).expect("cluster locate");
                assert!(complete, "cluster locate incomplete for {o:?} at {probe}");
                assert_eq!(sim_ans, truth, "simulator vs oracle at {probe}");
                assert_eq!(net_ans, truth, "cluster vs oracle at {probe}");
                assert_eq!(
                    (net_cost.messages, net_cost.hops, net_cost.bytes),
                    (sim_stats.messages, sim_stats.hops, sim_stats.bytes),
                    "locate cost diverged for {o:?} at {probe}"
                );
            }

            for &(t0, t1) in &windows {
                let truth = t.oracle.trace(o, t0, t1);
                let (sim_path, sim_stats) = t.net.trace(origin, o, t0, t1);
                let (net_path, net_cost, complete) =
                    cluster.trace(origin, o, t0, t1).expect("cluster trace");
                assert!(complete, "cluster trace incomplete for {o:?} in [{t0}, {t1}]");
                assert_eq!(sim_path, truth, "simulator trace vs oracle for {o:?} in [{t0}, {t1}]");
                assert_eq!(net_path, truth, "cluster trace vs oracle for {o:?} in [{t0}, {t1}]");
                assert_eq!(
                    (net_cost.messages, net_cost.hops, net_cost.bytes),
                    (sim_stats.messages, sim_stats.hops, sim_stats.bytes),
                    "trace cost diverged for {o:?} in [{t0}, {t1}]"
                );
            }
        }
    }

    // Clean protocol run on both sides.
    assert_eq!(t.net.anomalies(), peertrack::world::Anomalies::default());
    let reports = cluster.shutdown().expect("cluster shutdown");
    let mut merged = Metrics::new();
    for r in &reports {
        assert_eq!(
            r.anomalies,
            peertrack::world::Anomalies::default(),
            "site {} protocol anomalies",
            r.site.0
        );
        assert_eq!(r.unsupported, 0, "site {} left the supported regime", r.site.0);
        merged.merge(&r.metrics);
    }

    // The headline: per-class accounting equality, class by class.
    let sim = t.net.metrics();
    for class in ALL_CLASSES {
        assert_eq!(
            merged.messages_of(class),
            sim.messages_of(class),
            "{class:?} message count diverged"
        );
        assert_eq!(
            merged.bytes_of(class),
            sim.bytes_of(class),
            "{class:?} model-byte count diverged"
        );
        assert_eq!(merged.hops_of(class), sim.hops_of(class), "{class:?} hop count diverged");
    }
    // And the run must have produced real traffic to compare.
    assert!(sim.total_messages() > 0, "workload produced no traffic");
}
