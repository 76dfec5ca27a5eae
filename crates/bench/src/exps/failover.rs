//! E20: name-service view-change latency under primary kills — the
//! consensus-grade successor to E1's audit-driven fail-over. Kills the
//! VSR primary mid-load, over and over, and measures how long the group
//! goes without a master. Three legs:
//!
//! * sim, paper-scale timeouts (2 s heartbeat, 5 s election) — the
//!   apples-to-apples comparison against the paper's 25 s bound;
//! * sim, deployed tuning (200 ms heartbeat, 600 ms election) — the
//!   sub-second claim, in virtual time;
//! * real TCP runtime, same tuning — the sub-second claim on the wall
//!   clock (skipped under `--sim-only`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_cluster::RealCluster;
use ocs_name::{AlwaysAlive, NsConfig, NsHandle, NsReplica};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{Addr, NodeRtExt, Rt};
use ocs_vsr::SimGroup;

use crate::json::Json;
use crate::{f, percentile, report, Stats, Table};

const NS_PORT: u16 = 10;

/// A 3-replica NS group in the simulator, plus a client node named
/// `client`, polled every `step`.
pub(crate) fn ns_group(
    seed: u64,
    cfg_of: fn(u32, Vec<Addr>) -> NsConfig,
    client: &str,
    step: Duration,
) -> SimGroup<NsReplica> {
    SimGroup::new(seed, "ns", 3, NS_PORT, client, move |g, i| {
        let rt: Rt = g.nodes[i].clone();
        NsReplica::start(rt, cfg_of(i as u32, g.peers.clone()), Arc::new(AlwaysAlive))
            .expect("replica starts")
    })
    .with_step(step)
}

/// Repeatedly kills the current primary and samples master-outage
/// windows (crash → a different replica reports `is_master`).
fn sim_kill_rounds(
    group: &SimGroup<NsReplica>,
    rounds: usize,
    bind_timeout: Duration,
    dwell: Duration,
) -> (Vec<f64>, u64) {
    // Background load: a client binding a fresh name every 100 ms via
    // whichever replica answers (backups forward to the primary).
    let binds = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    {
        let binds = Arc::clone(&binds);
        let stop = Arc::clone(&stop);
        let peers = group.peers.clone();
        let rt: Rt = group.client.clone();
        group.client.spawn_fn("ns-load", move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let leaf = ObjRef {
                    addr: peers[0],
                    incarnation: 1,
                    type_id: 0x20,
                    object_id: i,
                };
                for &peer in &peers {
                    // Bounded so a dead replica can't wedge the writer,
                    // but longer than a commit (the op commits on the
                    // primary's next heartbeat round).
                    let ctx = ClientCtx::new(rt.clone()).with_timeout(bind_timeout);
                    let ns = NsHandle::new(ctx, peer);
                    // AlreadyBound = an earlier attempt committed but
                    // the reply was lost in the crash; that op counts.
                    match ns.bind(&format!("load-{i}"), leaf) {
                        Ok(()) | Err(ocs_name::NsError::AlreadyBound { .. }) => {
                            binds.fetch_add(1, Ordering::Relaxed);
                            i += 1;
                            break;
                        }
                        Err(_) => {}
                    }
                }
                rt.sleep(Duration::from_millis(100));
            }
        });
    }
    let mut samples = Vec::new();
    for _ in 0..rounds {
        group.settle();
        // A healthy dwell so the kill lands mid-load, not at the exact
        // instant the group finished recovering.
        group.sim.run_for(dwell);
        let (master, t0) = group.kill_master();
        assert!(
            group.run_until(Duration::from_secs(120), || {
                group.masters().first().is_some_and(|m| *m != master)
            }),
            "no new master after killing the primary"
        );
        samples.push(group.sim.now().saturating_since(t0).as_secs_f64());
        // Bring the victim back and let it walk recovery before the
        // next round, so each kill faces a full group.
        group.restart(master);
    }
    stop.store(true, Ordering::Relaxed);
    group.sim.run_for(Duration::from_millis(200));
    (samples, binds.load(Ordering::Relaxed))
}

pub(crate) fn paper_cfg(i: u32, peers: Vec<Addr>) -> NsConfig {
    NsConfig::paper_defaults(i, peers)
}

pub(crate) fn tuned_cfg(i: u32, peers: Vec<Addr>) -> NsConfig {
    let mut cfg = NsConfig::paper_defaults(i, peers);
    // The real-cluster deployment tuning (see RealCluster).
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg
}

/// Kill rounds against the real TCP cluster: wall-clock outage windows.
fn real_kill_rounds(rounds: usize) -> Vec<f64> {
    let cluster = RealCluster::launch(3, 0);
    let mut samples = Vec::new();
    for _ in 0..rounds {
        assert!(
            cluster.eventually(Duration::from_secs(15), || {
                cluster.masters().len() == 1
                    && (0..3).all(|i| cluster.replica(i).is_some_and(|r| !r.in_probation()))
            }),
            "real NS group failed to settle between kill rounds"
        );
        let master = cluster.master_index().expect("settled");
        cluster.kill_ns(master);
        let t0 = Instant::now();
        assert!(
            cluster.eventually(Duration::from_secs(15), || {
                cluster.masters().first().is_some_and(|m| *m != master)
            }),
            "no new master after killing the real primary"
        );
        samples.push(t0.elapsed().as_secs_f64());
        cluster.restart_ns(master);
    }
    samples
}

/// E20: VSR view-change latency under repeated primary kills.
pub fn e20(sim_only: bool) {
    println!("\nE20. NS view-change latency under primary kills (VSR)");
    println!("    outage window = primary crash -> another replica is master");
    println!("    paper: \"maximum fail over time of 25 seconds\"\n");
    let mut t = Table::new(&[
        "leg",
        "rounds",
        "p50 (s)",
        "p99 (s)",
        "max (s)",
        "paper max",
    ]);

    // Leg 1: paper-scale timeouts, virtual time.
    let group = ns_group(20_001, paper_cfg, "load", Duration::from_millis(100));
    let (paper_samples, paper_binds) =
        sim_kill_rounds(&group, 12, Duration::from_secs(5), Duration::from_secs(4));
    report::add_virtual_secs(group.sim.now().as_secs_f64());
    let ps = Stats::of(&paper_samples);
    t.row(&[
        "sim, paper timeouts".into(),
        ps.n.to_string(),
        f(ps.p50, 2),
        f(percentile(&paper_samples, 0.99), 2),
        f(ps.max, 2),
        "25.0".into(),
    ]);

    // Leg 2: deployed tuning, virtual time.
    let group = ns_group(20_002, tuned_cfg, "load", Duration::from_millis(20));
    let (tuned_samples, tuned_binds) =
        sim_kill_rounds(&group, 15, Duration::from_secs(1), Duration::from_secs(1));
    report::add_virtual_secs(group.sim.now().as_secs_f64());
    let ts = Stats::of(&tuned_samples);
    t.row(&[
        "sim, deployed tuning".into(),
        ts.n.to_string(),
        f(ts.p50, 2),
        f(percentile(&tuned_samples, 0.99), 2),
        f(ts.max, 2),
        "25.0".into(),
    ]);

    // Leg 3: the real TCP runtime, wall clock.
    let real_samples = if sim_only {
        println!("    (--sim-only: skipping the real-runtime leg)");
        Vec::new()
    } else {
        real_kill_rounds(10)
    };
    if !real_samples.is_empty() {
        let rs = Stats::of(&real_samples);
        t.row(&[
            "real TCP runtime".into(),
            rs.n.to_string(),
            f(rs.p50, 2),
            f(percentile(&real_samples, 0.99), 2),
            f(rs.max, 2),
            "25.0".into(),
        ]);
    }
    t.print();
    println!(
        "    background binds committed during the kill storms: {} (paper leg) + {} (tuned leg)",
        paper_binds, tuned_binds
    );

    report::put("paper_bound_s", Json::F64(25.0));
    report::put("sim_paper_view_change_p50_s", Json::F64(ps.p50));
    report::put(
        "sim_paper_view_change_p99_s",
        Json::F64(percentile(&paper_samples, 0.99)),
    );
    report::put("sim_view_change_p50_s", Json::F64(ts.p50));
    report::put(
        "sim_view_change_p99_s",
        Json::F64(percentile(&tuned_samples, 0.99)),
    );
    if !real_samples.is_empty() {
        report::put(
            "real_view_change_p50_s",
            Json::F64(Stats::of(&real_samples).p50),
        );
        report::put(
            "real_view_change_p99_s",
            Json::F64(percentile(&real_samples, 0.99)),
        );
    }
    report::put("table", t.to_json());
}
