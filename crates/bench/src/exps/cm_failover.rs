//! E22: Connection Manager fail-over — replicated admission state vs
//! the §5.2 reassertion baseline. Three legs:
//!
//! * baseline (§5.2-style): a standalone CM whose successor starts with
//!   an *empty* table and re-learns allocations from owner reassertion.
//!   The scripted rounds show the hole: between takeover and
//!   reassertion, a saturated settop is re-admitted (over-admission),
//!   after which the original still-streaming lease is refused
//!   re-admission — bandwidth flows with no reservation behind it;
//! * replicated, paper-scale timeouts (2 s heartbeat, 5 s election) —
//!   kill the VSR primary mid-load and measure the update blackout
//!   (crash → the next allocate commits), against the paper's 25 s
//!   fail-over bound;
//! * replicated, deployed tuning (200 ms / 600 ms) — the sub-second
//!   blackout claim.
//!
//! Both replicated legs end with a consistency audit: every surviving
//! replica's allocation table must equal the client's record of what
//! committed (no lost leases, no doubled retries), and the incremental
//! reserved-bandwidth total must match a full table scan.

use std::sync::Arc;
use std::time::Duration;

use itv_media::{
    CmApiClient, CmBudgets, CmReplica, CmReplicaConfig, ConnDesc, ConnectionManager, MediaError,
};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{Addr, NodeId, NodeRt, NodeRtExt, Rt, Sim};
use ocs_vsr::{call_on, SimGroup};
use parking_lot::Mutex;

use super::Audit;
use crate::json::Json;
use crate::{f, percentile, report, Stats, Table};

const CM_PORT: u16 = 2000;
/// The settop kept at its full 6 Mbit/s budget through every kill: any
/// post-fail-over grant against it is an admission violation.
const SAT_BPS: u64 = 6_000_000;
/// The baseline leg's simulator poll step (the replicated legs use the
/// group's default, also 20 ms).
const STEP: Duration = Duration::from_millis(20);
/// How long one baseline call may take before the leg is declared wedged.
const BASELINE_CALL_LIMIT: Duration = Duration::from_secs(60);

fn paper_cm_cfg(i: u32, peers: Vec<Addr>) -> CmReplicaConfig {
    let mut cfg = CmReplicaConfig::paper_defaults(i, peers, CmBudgets::default());
    // Expiry off for the storm so the audit is exact (lease reclamation
    // is covered by the cm_replica integration tests).
    cfg.lease_ttl = None;
    cfg
}

fn tuned_cm_cfg(i: u32, peers: Vec<Addr>) -> CmReplicaConfig {
    let mut cfg = paper_cm_cfg(i, peers);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg
}

fn cm_at(ctx: ClientCtx, peer: Addr) -> CmApiClient {
    let target = ObjRef {
        addr: peer,
        incarnation: ObjRef::STABLE,
        type_id: CmApiClient::TYPE_ID,
        object_id: 0,
    };
    CmApiClient::attach(ctx, target).expect("attach cm client")
}

/// The MMS retry loop in miniature: the same token on every attempt,
/// against whichever replica answers.
fn allocate(
    group: &SimGroup<CmReplica>,
    timeout: Duration,
    token: u64,
    settop: NodeId,
    down_bps: u64,
) -> Result<u64, MediaError> {
    let server = group.nodes[0].node();
    group
        .call_any(600, timeout, timeout / 4, move |ctx, peer| {
            match cm_at(ctx, peer).allocate(token, settop, server, down_bps) {
                Ok(conn) => Some(Ok(conn)),
                Err(MediaError::NoBandwidth) => Some(Err(MediaError::NoBandwidth)),
                Err(_) => None,
            }
        })
        .unwrap_or_else(|| {
            Err(MediaError::Dependency {
                what: "e22: no replica accepted the allocate".into(),
            })
        })
}

fn release(group: &SimGroup<CmReplica>, timeout: Duration, conn: u64) {
    let done = group.call_any(600, timeout, timeout / 4, move |ctx, peer| {
        match cm_at(ctx, peer).release(conn) {
            // An earlier attempt committed but its reply was lost (e.g.
            // the forward timed out under paper timeouts); the conn
            // being gone IS the commit.
            Ok(()) | Err(MediaError::UnknownSession { .. }) => Some(()),
            Err(_) => None,
        }
    });
    assert!(
        done.is_some(),
        "e22: release of conn {conn} never committed"
    );
}

/// Per-leg outcome of a replicated kill storm.
struct StormResult {
    blackouts: Vec<f64>,
    over_admissions: u64,
    lost: u64,
    doubled: u64,
    audit_ok: bool,
}

/// One replicated leg: a fresh 3-replica CM group on `seed` with
/// `cfg_of`'s timeouts, put through `rounds` primary kills under
/// allocate/release load. Every committed grant is recorded client-side;
/// the post-storm audit compares that record against each healed
/// replica's table.
fn replicated_storm(
    seed: u64,
    cfg_of: fn(u32, Vec<Addr>) -> CmReplicaConfig,
    rounds: usize,
    dwell: Duration,
) -> StormResult {
    let group = SimGroup::new(seed, "cm", 3, CM_PORT, "load", move |g, i| {
        let rt: Rt = g.nodes[i].clone();
        CmReplica::start(rt, cfg_of(i as u32, g.peers.clone())).expect("replica starts")
    });
    // Client-side RPC timeout: a sweep must not stall on the dead
    // primary longer than the group needs to elect a successor.
    let timeout = cfg_of(0, group.peers.clone()).peer_timeout * 3;
    group.settle();
    let sat_settop = group.client.node();
    // Pin the saturated settop at its full budget for the whole storm.
    let sat_conn = allocate(&group, timeout, 1, sat_settop, SAT_BPS).expect("saturating allocate");
    let mut granted: Vec<(u64, u64, NodeId, u64)> = vec![(1, sat_conn, sat_settop, SAT_BPS)];
    let mut next_token = 2u64;
    let mut blackouts = Vec::new();
    let mut over_admissions = 0u64;
    for round in 0..rounds {
        group.settle();
        group.sim.run_for(dwell);
        let (master, t0) = group.kill_master();
        // The blackout sensor: how long until the next allocate commits
        // on a survivor (spread across settops so budgets never bind).
        let token = next_token;
        next_token += 1;
        let settop = group.nodes[round % 3].node();
        let conn = allocate(&group, timeout, token, settop, 100_000).expect("post-kill allocate");
        blackouts.push(group.sim.now().saturating_since(t0).as_secs_f64());
        granted.push((token, conn, settop, 100_000));
        // The admission probe: the successor inherited the saturated
        // settop's reservation, so this must be refused. The baseline
        // leg grants it.
        let probe_token = next_token;
        next_token += 1;
        match allocate(&group, timeout, probe_token, sat_settop, 1_000_000) {
            Err(MediaError::NoBandwidth) => {}
            Ok(conn) => {
                over_admissions += 1;
                granted.push((probe_token, conn, sat_settop, 1_000_000));
            }
            Err(e) => panic!("e22: admission probe failed oddly: {e}"),
        }
        // Exercise release through the new primary: retire the rotating
        // grant from two rounds back.
        if granted.len() > 3 {
            let (_, conn, _, _) = granted.remove(1);
            release(&group, timeout, conn);
        }
        // Heal the victim before the next round.
        group.restart(master);
    }
    // Post-storm audit: heal fully, then every replica's table must be
    // exactly the client's record — same conns, nothing extra, nothing
    // missing — and the reserved-bps index must match a full scan.
    group.settle();
    group.sim.run_for(Duration::from_secs(5));
    report::add_virtual_secs(group.sim.now().as_secs_f64());
    let mut audit = Audit::new(granted.iter().map(|(_, c, _, _)| *c).collect());
    for (i, r) in group.live() {
        let have: Vec<u64> = r.allocations().iter().map(|d| d.conn).collect();
        let conns = have.len();
        let (indexed, scanned) = r.audit_reserved_bps();
        if !audit.check(have, indexed == scanned) {
            println!(
                "    AUDIT FAIL replica {i}: {conns} conns vs {} expected, reserved {indexed} vs scan {scanned}",
                audit.expected()
            );
        }
    }
    StormResult {
        blackouts,
        over_admissions,
        lost: audit.lost,
        doubled: audit.doubled,
        audit_ok: audit.ok,
    }
}

/// The §5.2 baseline, scripted: a standalone CM dies; its successor
/// starts empty and waits for reassertion. Count how often the recovery
/// window (a) re-admits a settop that is already saturated and (b) then
/// refuses to re-admit the original, still-streaming lease — whose
/// bandwidth keeps flowing with no reservation behind it.
fn baseline_rounds(rounds: usize) -> (u64, u64) {
    let sim = Sim::new(22_000);
    let client = sim.add_node("load");
    let mut over_admissions = 0u64;
    let mut lost_leases = 0u64;
    for round in 0..rounds {
        let a = sim.add_node(&format!("cm-a{round}"));
        let rt_a: Rt = a.clone();
        let cm = ConnectionManager::with_clock(CmBudgets::default(), Some(rt_a.clone()));
        let obj_a = {
            let slot: Arc<Mutex<Option<ObjRef>>> = Arc::new(Mutex::new(None));
            let out = Arc::clone(&slot);
            let cm = Arc::clone(&cm);
            a.spawn_fn("serve", move || {
                *out.lock() = Some(cm.serve(rt_a, CM_PORT).expect("baseline cm serves"));
            });
            sim.run_for(Duration::from_millis(100));
            let got = slot.lock().take();
            got.expect("baseline cm exported")
        };
        let settop = client.node();
        let server = a.node();
        // A little prior traffic so the saturating lease's conn id is
        // not the successor's first id (MMS keeps conn ids across the
        // CM's death; the successor restarts its counter).
        for t in 1..3u64 {
            call_on(&sim, &client, STEP, BASELINE_CALL_LIMIT, move |rt| {
                attach(&rt, obj_a).allocate(t, NodeId(90 + t as u32), server, 100_000)
            })
            .expect("baseline warm-up allocate");
        }
        // Saturate the settop, then lose the primary.
        let sat = call_on(&sim, &client, STEP, BASELINE_CALL_LIMIT, move |rt| {
            attach(&rt, obj_a).allocate(3, settop, server, SAT_BPS)
        })
        .expect("baseline saturating allocate");
        sim.crash_node(a.node());
        // §5.2 takeover: the successor starts with an empty table.
        let b = sim.add_node(&format!("cm-b{round}"));
        let rt_b: Rt = b.clone();
        let cm2 = ConnectionManager::with_clock(CmBudgets::default(), Some(rt_b.clone()));
        let obj_b = {
            let slot: Arc<Mutex<Option<ObjRef>>> = Arc::new(Mutex::new(None));
            let out = Arc::clone(&slot);
            let cm2 = Arc::clone(&cm2);
            b.spawn_fn("serve", move || {
                *out.lock() = Some(cm2.serve(rt_b, CM_PORT).expect("baseline cm2 serves"));
            });
            sim.run_for(Duration::from_millis(100));
            let got = slot.lock().take();
            got.expect("baseline successor exported")
        };
        // The recovery-window probe: the successor knows nothing about
        // the saturated settop yet, so this is granted — an admission
        // violation against a settop already drawing its full budget.
        let probe = call_on(&sim, &client, STEP, BASELINE_CALL_LIMIT, move |rt| {
            attach(&rt, obj_b).allocate(10, settop, server, 1_000_000)
        });
        if probe.is_ok() {
            over_admissions += 1;
        }
        // MMS reassertion arrives late with the original lease. The
        // interloper took the budget, so the still-streaming 6 Mbit/s
        // lease is refused re-admission: its bandwidth keeps flowing
        // with no reservation behind it.
        let desc = ConnDesc {
            conn: sat,
            settop,
            server,
            down_bps: SAT_BPS,
        };
        let reassert = call_on(&sim, &client, STEP, BASELINE_CALL_LIMIT, move |rt| {
            attach(&rt, obj_b).reassert(desc)
        });
        if reassert == Err(MediaError::NoBandwidth) {
            lost_leases += 1;
        }
        sim.crash_node(b.node());
    }
    (over_admissions, lost_leases)
}

fn attach(rt: &Rt, obj: ObjRef) -> CmApiClient {
    CmApiClient::attach(
        ClientCtx::new(rt.clone()).with_timeout(Duration::from_secs(2)),
        obj,
    )
    .expect("attach baseline cm client")
}

/// E22: CM fail-over — admission state across primary kills.
pub fn e22() {
    println!("\nE22. Connection Manager fail-over: replicated admission state");
    println!("    blackout = primary crash -> the next allocate commits");
    println!("    probe    = re-admitting a settop already at its 6 Mbit/s budget\n");
    let mut t = Table::new(&[
        "leg",
        "rounds",
        "blackout p50 (s)",
        "blackout p99 (s)",
        "over-admissions",
        "lost",
        "doubled",
    ]);

    // Leg 1: the §5.2 reassertion baseline (scripted recovery window).
    let (base_over, base_lost) = baseline_rounds(6);
    t.row(&[
        "baseline §5.2 reassertion".into(),
        "6".into(),
        "n/a (see E1)".into(),
        "n/a (see E1)".into(),
        base_over.to_string(),
        base_lost.to_string(),
        "-".into(),
    ]);

    // Leg 2: replicated, paper-scale timeouts.
    let paper = replicated_storm(22_001, paper_cm_cfg, 8, Duration::from_secs(4));
    let ps = Stats::of(&paper.blackouts);
    t.row(&[
        "replicated, paper timeouts".into(),
        ps.n.to_string(),
        f(ps.p50, 2),
        f(percentile(&paper.blackouts, 0.99), 2),
        paper.over_admissions.to_string(),
        paper.lost.to_string(),
        paper.doubled.to_string(),
    ]);

    // Leg 3: replicated, deployed tuning.
    let tuned = replicated_storm(22_002, tuned_cm_cfg, 10, Duration::from_secs(1));
    let ts = Stats::of(&tuned.blackouts);
    t.row(&[
        "replicated, deployed tuning".into(),
        ts.n.to_string(),
        f(ts.p50, 2),
        f(percentile(&tuned.blackouts, 0.99), 2),
        tuned.over_admissions.to_string(),
        tuned.lost.to_string(),
        tuned.doubled.to_string(),
    ]);
    t.print();
    println!(
        "    baseline recovery window: {base_over}/6 rounds re-admitted a saturated settop, \
         {base_lost}/6 then refused the still-streaming lease's reassertion (unbooked bandwidth)"
    );
    println!(
        "    replicated post-storm audit: {}",
        if paper.audit_ok && tuned.audit_ok {
            "every replica matches the client's committed set exactly"
        } else {
            "FAILED (see above)"
        }
    );

    report::put("paper_bound_s", Json::F64(25.0));
    report::put("baseline_over_admissions", Json::U64(base_over));
    report::put("baseline_lost_leases", Json::U64(base_lost));
    report::put("repl_paper_blackout_p50_s", Json::F64(ps.p50));
    report::put(
        "repl_paper_blackout_p99_s",
        Json::F64(percentile(&paper.blackouts, 0.99)),
    );
    report::put("repl_blackout_p50_s", Json::F64(ts.p50));
    report::put(
        "repl_blackout_p99_s",
        Json::F64(percentile(&tuned.blackouts, 0.99)),
    );
    report::put(
        "over_admissions_replicated",
        Json::U64(paper.over_admissions + tuned.over_admissions),
    );
    report::put("lost_allocs", Json::U64(paper.lost.max(tuned.lost)));
    report::put("doubled_allocs", Json::U64(paper.doubled.max(tuned.doubled)));
    report::put(
        "audit_consistent",
        Json::Bool(paper.audit_ok && tuned.audit_ok),
    );
    report::put("table", t.to_json());
}
