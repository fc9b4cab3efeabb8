//! The daemon past its supported regime: shards over the delegation
//! threshold.
//!
//! The simulator hands the earliest `α·count` records of an overfull
//! shard to its two Data-Triangle children (Fig. 5 `update_index`) and
//! later pulls them back with refresh fetches. The daemon implements
//! neither: it keeps indexing into the oversize shard and counts each
//! crossing in `NodeReport::unsupported`. This test pins that contract
//! over real sockets — the counter moves, no `Delegate` or `Refresh`
//! traffic is ever charged, and every answer stays oracle-exact.

use daemon::LoopbackCluster;
use moods::{Locate, MovementLog, SiteId};
use peertrack::config::GroupConfig;
use simnet::metrics::{Metrics, MsgClass};
use simnet::time::secs;
use simnet::SimTime;
use workload::CaptureEvent;

fn can_bind() -> bool {
    std::net::TcpListener::bind("127.0.0.1:0").is_ok()
}

#[test]
fn oversize_shards_are_counted_not_delegated_and_answers_stay_exact() {
    if !can_bind() {
        eprintln!("SKIP: sandbox forbids binding loopback sockets");
        return;
    }
    const SITES: usize = 4;
    const BATCHES: u64 = 50;
    const PER_BATCH: u64 = 40; // 2,000 fresh objects in all
    const SEED: u64 = 5;

    // Each batch is one site's capture of fresh objects, one second
    // apart (longer than `Tmax`, so every window closes on its timer).
    let mut events = Vec::new();
    let mut oracle = MovementLog::new();
    for k in 0..BATCHES {
        let site = SiteId((k % SITES as u64) as u32);
        let at = secs(k + 1);
        let objects: Vec<_> =
            (0..PER_BATCH).map(|j| workload::epc_object(site.0, k * PER_BATCH + j)).collect();
        for &o in &objects {
            oracle.record(o, site, at);
        }
        events.push(CaptureEvent { at, site, objects });
    }

    // A 4-node cluster has 8 gateway shards; 2,000 objects put ~250 in
    // each, far past a threshold of 64.
    let group = GroupConfig { delegate_threshold: Some(64), ..GroupConfig::default() };
    let mut cluster = LoopbackCluster::start_with(SITES, SEED, group).expect("cluster start");
    cluster.run_schedule(&events).expect("cluster schedule");

    for ev in events.iter().step_by(3) {
        for &o in ev.objects.iter().step_by(7) {
            let origin = SiteId((ev.site.0 + 1) % SITES as u32);
            for t in [ev.at, SimTime::INFINITY] {
                let (answer, _, complete) = cluster.locate(origin, o, t).expect("locate");
                assert!(complete, "locate of {o:?} at {t} incomplete");
                assert_eq!(answer, oracle.locate(o, t), "locate of {o:?} at {t}");
            }
        }
    }

    let reports = cluster.shutdown().expect("cluster shutdown");
    let mut merged = Metrics::new();
    let mut unsupported = 0;
    for r in &reports {
        assert_eq!(
            r.anomalies,
            peertrack::world::Anomalies::default(),
            "site {} protocol anomalies",
            r.site.0
        );
        unsupported += r.unsupported;
        merged.merge(&r.metrics);
    }
    assert!(unsupported > 0, "no shard crossed the delegation threshold");
    assert_eq!(merged.messages_of(MsgClass::Delegate), 0, "the daemon delegated");
    assert_eq!(merged.messages_of(MsgClass::Refresh), 0, "the daemon ran a refresh fetch");
    assert!(merged.messages_of(MsgClass::GroupIndex) > 0, "workload produced no indexing");
}
