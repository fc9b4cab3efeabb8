//! A query whose reads are lost reports an incomplete answer.
//!
//! A node that crashed but was never declared dead is still a member:
//! queries route to it, and every RPC to it fails. When that node is the
//! gateway of an object only it holds, no other node can answer, so the
//! locate must come back with `complete == false` — never as a confident
//! "not found".

use daemon::LoopbackCluster;
use durable::FsyncMode;
use ids::Prefix;
use integration_tests::triple_from_events;
use moods::{SiteId, Trace};
use peertrack::config::GroupConfig;
use peertrack::Builder;
use simnet::time::secs;
use simnet::SimTime;
use workload::paper::PaperWorkload;

fn can_bind() -> bool {
    std::net::TcpListener::bind("127.0.0.1:0").is_ok()
}

#[test]
fn locate_through_a_crashed_gateway_is_incomplete() {
    if !can_bind() {
        eprintln!("SKIP: sandbox forbids binding loopback sockets");
        return;
    }
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
    // The simulator shares the cluster's ring ids and prefix length, so
    // it names each object's gateway; the oracle names who holds it.
    let t = triple_from_events(Builder::new().sites(SITES).seed(SEED).build(), &events);
    let gateway_of = |o: moods::ObjectId| {
        let key = Prefix::of_id(&o.id(), t.net.current_lp()).gateway_id();
        let owner = t.net.ring().successor_of(&key).expect("non-empty ring");
        SiteId(t.net.ring().app_index_of(&owner).expect("member") as u32)
    };

    // An object that never left its home site, which is also its
    // gateway: once that site is down, no other node knows the object.
    let (object, gateway) = (0..SITES as u32)
        .flat_map(|site| (0..VOL as u64).map(move |serial| (site, serial)))
        .map(|(site, serial)| (workload::epc_object(site, serial), SiteId(site)))
        .find(|&(o, home)| {
            t.oracle.trace(o, SimTime::ZERO, SimTime::INFINITY).len() == 1
                && gateway_of(o) == home
        })
        .expect("some unmoved object is indexed at its home site");
    let origin = SiteId((gateway.0 + 1) % SITES as u32);

    let root = std::env::temp_dir().join(format!("pt-lost-reads-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut cluster = LoopbackCluster::start_durable(
        SITES,
        SEED,
        GroupConfig::default(),
        &root,
        FsyncMode::Batch,
        64,
    )
    .expect("durable cluster start");
    cluster.run_schedule(&events).expect("cluster schedule");
    let (answer, _, complete) = cluster.locate(origin, object, secs(10_000)).expect("locate");
    assert_eq!(answer, Some(gateway), "the live cluster answers exactly");
    assert!(complete, "the live cluster's answer is complete");

    // Crash the gateway; it stays a member (no PeerDead, no restart).
    cluster.crash(gateway.0 as usize).expect("crash");
    let (answer, _, complete) =
        cluster.locate(origin, object, secs(10_000)).expect("locate after crash");
    assert!(
        !complete,
        "a lost gateway read must not pass as a complete answer (got {answer:?})"
    );

    cluster.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&root).ok();
}
