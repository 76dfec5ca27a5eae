//! E23: service-control fail-over — the controllers' placement/config
//! table on the replicated log vs the §6.2 regeneration story. Three
//! legs:
//!
//! * replicated, paper-scale timeouts (2 s heartbeat, 5 s election) —
//!   a controller-kill storm under placement load, measuring the update
//!   blackout (primary crash → the next placement decision commits)
//!   against the paper's 25 s fail-over bound;
//! * replicated, deployed tuning (200 ms / 600 ms) — the sub-second
//!   blackout;
//! * real TCP (unless `--sim-only`): the same storm shape with process
//!   groups actually killed, wall clock.
//!
//! Every leg ends with the placement audit: each surviving replica's
//! table must equal the client's record of what committed — no lost
//! placements, no doubled decisions on cross-fail-over token retries —
//! and the promoted backup must inherit the full table instantly (no
//! §6.2 "query every SSC" regeneration round).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ocs_name::NsHandle;
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::real::RealNet;
use ocs_sim::{Addr, NodeId, NodeRt, NodeRtExt, Rt};
use ocs_svcctl::{Csc, CscApiClient, CscConfig, SscReplicaConfig, SvcError};
use ocs_vsr::SimGroup;
use parking_lot::Mutex;

use super::Audit;
use crate::json::Json;
use crate::{f, percentile, report, Stats, Table};

const CSC_PORT: u16 = 15;

fn paper_cfg(i: u32, peers: Vec<Addr>) -> SscReplicaConfig {
    SscReplicaConfig::paper_defaults(i, peers)
}

fn tuned_cfg(i: u32, peers: Vec<Addr>) -> SscReplicaConfig {
    let mut cfg = SscReplicaConfig::paper_defaults(i, peers);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg
}

/// A CSC config for a bench group member: no name service or database
/// behind it (the storm drives the table through `place_op`, which has
/// no side effects), long advert retry so the dead-NS keeper stays
/// quiet.
fn csc_cfg(rep: SscReplicaConfig) -> CscConfig {
    CscConfig {
        bind_retry: Duration::from_secs(60),
        replica: Some(rep),
        ..CscConfig::default()
    }
}

fn csc_at(ctx: ClientCtx, peer: Addr) -> CscApiClient {
    let target = ObjRef {
        addr: peer,
        incarnation: ObjRef::STABLE,
        type_id: CscApiClient::TYPE_ID,
        object_id: 0,
    };
    CscApiClient::attach(ctx, target).expect("attach csc client")
}

#[derive(Clone)]
enum Op {
    Define(u64, String, Vec<NodeId>),
    Place(u64, String, NodeId, bool),
}

/// One attempt of `op` against `peer`: `Some` once the answer is final
/// (a commit, or a committed refusal rather than transport trouble).
fn try_op(ctx: ClientCtx, peer: Addr, op: &Op) -> Option<Result<u64, SvcError>> {
    let c = csc_at(ctx, peer);
    let r = match op.clone() {
        Op::Define(token, name, nodes) => c.define_service(token, name, nodes),
        Op::Place(token, name, node, run) => c.place_op(token, name, node, run),
    };
    match r {
        Ok(epoch) => Some(Ok(epoch)),
        Err(e @ (SvcError::UnknownService { .. } | SvcError::NotPlaced { .. })) => Some(Err(e)),
        Err(_) => None,
    }
}

/// The operator retry loop in miniature: the same token on every
/// attempt, against whichever replica answers (backups forward).
fn decide(group: &SimGroup<Csc>, timeout: Duration, op: Op) -> Result<u64, SvcError> {
    group
        .call_any(600, timeout, timeout / 4, move |ctx, peer| {
            try_op(ctx, peer, &op)
        })
        .unwrap_or_else(|| {
            Err(SvcError::Dependency {
                what: "e23: no replica accepted the op".into(),
            })
        })
}

/// Per-leg outcome of a controller kill storm.
struct StormResult {
    blackouts: Vec<f64>,
    lost: u64,
    doubled: u64,
    audit_ok: bool,
    /// Idempotent re-place probes that came back with a *different*
    /// epoch — each one is a doubled placement decision.
    redecided: u64,
}

/// The client's record of every committed placement, as the audit
/// compares it against each replica's table.
fn committed(placed: &[(String, NodeId, u64)], rotor: &[(NodeId, u64)]) -> Vec<(String, NodeId)> {
    placed
        .iter()
        .map(|(s, n, _)| (s.clone(), *n))
        .chain(rotor.iter().map(|(n, _)| ("rotor".to_string(), *n)))
        .collect()
}

/// A replica's placement table as (service, node) pairs.
fn placement_pairs(rep: &ocs_svcctl::SscReplica) -> Vec<(String, NodeId)> {
    rep.placements()
        .into_iter()
        .flat_map(|p| p.nodes.into_iter().map(move |n| (p.service.clone(), n)))
        .collect()
}

/// One replicated leg: a fresh 3-controller group on `seed` with
/// `cfg_of`'s timeouts, put through `rounds` primary kills under
/// placement load. Every committed decision is recorded client-side;
/// the post-storm audit compares that record against each healed
/// replica's table.
fn replicated_storm(
    seed: u64,
    cfg_of: fn(u32, Vec<Addr>) -> SscReplicaConfig,
    rounds: usize,
    dwell: Duration,
) -> StormResult {
    let group = SimGroup::new(seed, "csc", 3, CSC_PORT, "load", move |g, i| {
        let rt: Rt = g.nodes[i].clone();
        // No name service behind the bench group: the keeper and DB
        // seeding fail fast and idle; the log is driven over `place_op`.
        let ns = NsHandle::new(ClientCtx::new(rt.clone()), Addr::new(g.client.node(), 49));
        let csc = Csc::new(rt, csc_cfg(cfg_of(i as u32, g.peers.clone())), ns);
        let run = Arc::clone(&csc);
        g.nodes[i].spawn_fn("csc-run", move || {
            let _ = run.run(|_| {});
        });
        csc
    });
    let timeout = cfg_of(0, group.peers.clone()).peer_timeout * 3;
    group.settle();
    let mut next_token = 1u64;
    let mut token = || {
        let t = next_token;
        next_token += 1;
        t
    };
    // The durable placements that must survive every kill: six services,
    // two nodes each, plus their recorded decision epochs.
    let mut placed: Vec<(String, NodeId, u64)> = Vec::new();
    for s in 0..6u32 {
        let name = format!("svc-{s}");
        let nodes = vec![
            group.nodes[s as usize % 3].node(),
            group.nodes[(s as usize + 1) % 3].node(),
        ];
        let epoch = decide(
            &group,
            timeout,
            Op::Define(token(), name.clone(), nodes.clone()),
        )
        .expect("seed define");
        for n in nodes {
            placed.push((name.clone(), n, epoch));
        }
    }
    // The churn service the blackout sensor places round by round.
    decide(
        &group,
        timeout,
        Op::Define(token(), "rotor".into(), Vec::new()),
    )
    .expect("rotor define");
    let mut rotor: Vec<(NodeId, u64)> = Vec::new();
    let mut blackouts = Vec::new();
    let mut redecided = 0u64;
    for round in 0..rounds {
        group.settle();
        group.sim.run_for(dwell);
        let (master, t0) = group.kill_master();
        // The blackout sensor: how long until the next placement
        // decision commits on a survivor. The token is fixed across
        // every retry, so a mid-commit crash cannot double the decision.
        let node = group.nodes[(round + 1) % 3].node();
        let epoch = decide(
            &group,
            timeout,
            Op::Place(token(), "rotor".into(), node, true),
        )
        .expect("post-kill place");
        blackouts.push(group.sim.now().saturating_since(t0).as_secs_f64());
        if let Some((_, prev)) = rotor.iter().find(|(n, _)| *n == node) {
            // Placing where it already is confirms at the old epoch.
            if epoch != *prev {
                redecided += 1;
            }
        } else {
            rotor.push((node, epoch));
        }
        // The doubled-placement probe: re-place a durable placement
        // under a fresh token. The committed table must answer with the
        // original decision epoch — a bump would be a re-decision, the
        // placement analogue of E22's double-book.
        let (name, n, want_epoch) = placed[round % placed.len()].clone();
        let got = decide(&group, timeout, Op::Place(token(), name, n, true))
            .expect("idempotent re-place");
        if got != want_epoch {
            redecided += 1;
        }
        // Exercise unplace through the new primary: retire the rotor
        // placement from two rounds back.
        if rotor.len() > 2 {
            let (node, _) = rotor.remove(0);
            match decide(
                &group,
                timeout,
                Op::Place(token(), "rotor".into(), node, false),
            ) {
                Ok(_) | Err(SvcError::NotPlaced { .. }) => {}
                Err(e) => panic!("e23: rotor unplace failed oddly: {e}"),
            }
        }
        // Heal the victim before the next round.
        group.restart(master);
    }
    // Post-storm audit: heal fully, then every replica's table must be
    // exactly the client's record — same placements, nothing extra,
    // nothing missing, consistent derived indexes.
    group.settle();
    group.sim.run_for(Duration::from_secs(5));
    report::add_virtual_secs(group.sim.now().as_secs_f64());
    let mut audit = Audit::new(committed(&placed, &rotor));
    for (i, c) in group.live() {
        let Some(rep) = c.replica() else { continue };
        let have = placement_pairs(&rep);
        let count = have.len();
        if !audit.check(have, rep.audit_ok()) {
            println!(
                "    AUDIT FAIL replica {i}: {count} placements vs {} expected (self-audit {})",
                audit.expected(),
                rep.audit_ok(),
            );
        }
    }
    StormResult {
        blackouts,
        lost: audit.lost,
        doubled: audit.doubled + redecided,
        audit_ok: audit.ok,
        redecided,
    }
}

/// The real-TCP leg: the same storm shape with process groups actually
/// killed, wall clock, tuned timeouts (mirroring the cluster harness's
/// real tuning).
fn real_leg(rounds: usize) -> StormResult {
    let net = RealNet::new();
    let cnodes: Vec<_> = (0..3)
        .map(|i| net.add_node(&format!("csc{i}")).expect("bind loopback"))
        .collect();
    let peers: Vec<Addr> = cnodes
        .iter()
        .map(|n| Addr::new(n.node(), CSC_PORT))
        .collect();
    let cscs: Arc<Mutex<Vec<Option<Arc<Csc>>>>> = Arc::new(Mutex::new(vec![None; 3]));
    let start = |i: usize| {
        let node = &cnodes[i];
        let rt: Rt = node.clone();
        let ns = NsHandle::new(ClientCtx::new(rt.clone()), Addr::new(node.node(), 49));
        let cfg = csc_cfg(tuned_cfg(i as u32, peers.clone()));
        let slot = Arc::clone(&cscs);
        node.spawn_group(
            "csc-run",
            Box::new(move || loop {
                // Re-ties the fixed port after a kill: retry while the
                // dying group's listener drains.
                let csc = Csc::new(rt.clone(), cfg.clone(), ns.clone());
                *slot.lock().get_mut(i).unwrap() = Some(Arc::clone(&csc));
                let _ = csc.run(|_| {});
                rt.sleep(Duration::from_millis(100));
            }),
        );
    };
    for i in 0..3 {
        start(i);
    }
    let driver = net.add_node("load").expect("bind loopback");
    let rt: Rt = driver.clone();

    let settled = |cscs: &Mutex<Vec<Option<Arc<Csc>>>>| {
        let v = cscs.lock();
        v.iter().filter(|c| c.as_ref().is_some_and(|c| c.is_primary())).count() == 1
            && v.iter().all(|c| {
                c.as_ref()
                    .and_then(|c| c.replica())
                    .is_some_and(|r| !r.in_probation())
            })
    };
    let wait = |cond: &mut dyn FnMut() -> bool, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(cond(), "e23 real leg: {what}");
    };
    wait(&mut || settled(&cscs), "group never settled at start");

    let ctx = ClientCtx::new(rt).with_timeout(Duration::from_millis(450));
    let decide = |op: Op| -> Result<u64, SvcError> {
        for _ in 0..600 {
            for &peer in &peers {
                if let Some(r) = try_op(ctx.clone(), peer, &op) {
                    return r;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        Err(SvcError::Dependency {
            what: "e23 real: no replica accepted the op".into(),
        })
    };

    let mut next_token = 1u64;
    let mut token = || {
        let t = next_token;
        next_token += 1;
        t
    };
    let mut placed: Vec<(String, NodeId, u64)> = Vec::new();
    for s in 0..3u32 {
        let name = format!("svc-{s}");
        let nodes = vec![cnodes[s as usize % 3].node()];
        let epoch = decide(Op::Define(token(), name.clone(), nodes.clone())).expect("real define");
        for n in nodes {
            placed.push((name.clone(), n, epoch));
        }
    }
    decide(Op::Define(token(), "rotor".into(), Vec::new())).expect("real rotor define");
    let mut rotor: Vec<(NodeId, u64)> = Vec::new();
    let mut blackouts = Vec::new();
    let mut redecided = 0u64;
    for round in 0..rounds {
        wait(&mut || settled(&cscs), "group failed to settle between rounds");
        let master = {
            let v = cscs.lock();
            v.iter()
                .position(|c| c.as_ref().is_some_and(|c| c.is_primary()))
                .unwrap()
        };
        let t0 = Instant::now();
        cnodes[master].kill_all_groups();
        let node = cnodes[(round + 1) % 3].node();
        let epoch = decide(Op::Place(token(), "rotor".into(), node, true)).expect("real place");
        blackouts.push(t0.elapsed().as_secs_f64());
        if let Some((_, prev)) = rotor.iter().find(|(n, _)| *n == node) {
            if epoch != *prev {
                redecided += 1;
            }
        } else {
            rotor.push((node, epoch));
        }
        let (name, n, want_epoch) = placed[round % placed.len()].clone();
        let got = decide(Op::Place(token(), name, n, true)).expect("real re-place");
        if got != want_epoch {
            redecided += 1;
        }
        // Heal: the spawn loop on the victim restarts the controller.
        start(master);
    }
    wait(&mut || settled(&cscs), "group failed to heal after the storm");
    std::thread::sleep(Duration::from_secs(1));
    let mut audit = Audit::new(committed(&placed, &rotor));
    for (i, c) in cscs.lock().iter().enumerate() {
        let Some(rep) = c.as_ref().and_then(|c| c.replica()) else {
            continue;
        };
        let have = placement_pairs(&rep);
        let count = have.len();
        if !audit.check(have, rep.audit_ok()) {
            println!(
                "    AUDIT FAIL real replica {i}: {count} placements vs {} expected",
                audit.expected()
            );
        }
    }
    for node in &cnodes {
        node.stop();
    }
    driver.stop();
    StormResult {
        blackouts,
        lost: audit.lost,
        doubled: audit.doubled + redecided,
        audit_ok: audit.ok,
        redecided,
    }
}

fn leg_row(t: &mut Table, leg: &str, r: &StormResult) {
    let s = Stats::of(&r.blackouts);
    t.row(&[
        leg.into(),
        s.n.to_string(),
        f(s.p50, 2),
        f(percentile(&r.blackouts, 0.99), 2),
        r.lost.to_string(),
        r.doubled.to_string(),
        if r.audit_ok { "exact" } else { "FAIL" }.into(),
    ]);
}

/// E23: controller fail-over — placement decisions across primary kills.
pub fn e23(sim_only: bool) {
    println!("\nE23. Service-control fail-over: replicated placement table");
    println!("    blackout = controller crash -> the next placement decision commits");
    println!("    doubled  = a tokened retry or idempotent re-place re-deciding (epoch bump)\n");
    let mut t = Table::new(&[
        "leg",
        "rounds",
        "blackout p50 (s)",
        "blackout p99 (s)",
        "lost",
        "doubled",
        "audit",
    ]);

    // Leg 1: replicated, paper-scale timeouts.
    let paper = replicated_storm(23_001, paper_cfg, 6, Duration::from_secs(4));
    leg_row(&mut t, "replicated, paper timeouts", &paper);

    // Leg 2: replicated, deployed tuning.
    let tuned = replicated_storm(23_002, tuned_cfg, 8, Duration::from_secs(1));
    leg_row(&mut t, "replicated, deployed tuning", &tuned);

    // Leg 3: real TCP, wall clock.
    let real = if sim_only { None } else { Some(real_leg(4)) };
    if let Some(real) = &real {
        leg_row(&mut t, "real TCP, deployed tuning", real);
    }
    t.print();
    if sim_only {
        println!("    (--sim-only: skipping the real-runtime leg)");
    }
    let all_audit =
        paper.audit_ok && tuned.audit_ok && real.as_ref().map(|r| r.audit_ok).unwrap_or(true);
    println!(
        "    post-storm placement audit: {}",
        if all_audit {
            "every replica matches the client's committed set exactly"
        } else {
            "FAILED (see above)"
        }
    );
    println!(
        "    promoted backups inherited the table from the log: no SSC regeneration round, \
         {} idempotent probes re-decided",
        paper.redecided + tuned.redecided + real.as_ref().map(|r| r.redecided).unwrap_or(0),
    );

    report::put("paper_bound_s", Json::F64(25.0));
    let ps = Stats::of(&paper.blackouts);
    report::put("svc_paper_blackout_p50_s", Json::F64(ps.p50));
    report::put(
        "svc_paper_blackout_p99_s",
        Json::F64(percentile(&paper.blackouts, 0.99)),
    );
    let ts = Stats::of(&tuned.blackouts);
    report::put("svc_blackout_p50_s", Json::F64(ts.p50));
    report::put(
        "svc_blackout_p99_s",
        Json::F64(percentile(&tuned.blackouts, 0.99)),
    );
    if let Some(real) = &real {
        let rs = Stats::of(&real.blackouts);
        report::put("svc_real_blackout_p50_s", Json::F64(rs.p50));
        report::put(
            "svc_real_blackout_p99_s",
            Json::F64(percentile(&real.blackouts, 0.99)),
        );
    }
    let lost = paper
        .lost
        .max(tuned.lost)
        .max(real.as_ref().map(|r| r.lost).unwrap_or(0));
    let doubled = paper
        .doubled
        .max(tuned.doubled)
        .max(real.as_ref().map(|r| r.doubled).unwrap_or(0));
    report::put("lost_placements", Json::U64(lost));
    report::put("doubled_placements", Json::U64(doubled));
    report::put("audit_consistent", Json::Bool(all_audit));
    report::put("table", t.to_json());
}
