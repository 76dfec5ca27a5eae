//! The two real-runtime workloads: `vod-open` (closed-loop movie opens
//! against a large name space) and `zap-admit` (open-loop channel
//! changes and name updates at the deployed name-space size).
//!
//! Both run on `RealCluster` over TCP loopback, with the Connection
//! Manager as a 3-replica `CmReplica` group bound at `svc/cmgr/0` — the
//! admission path the deployed cluster runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_cluster::real::MOVIE_TITLE;
use itv_cluster::RealCluster;
use itv_media::{
    ports, CmApiClient, CmBudgets, CmReplica, CmReplicaConfig, MmsApiClient, MovieCtlClient,
};
use ocs_name::NsHandle;
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::real::RealNode;
use ocs_sim::{Addr, NodeId, NodeRt, PortReq, Rt};
use parking_lot::Mutex;

use crate::stats::Rng;

/// Client-side RPC timeout for workload calls.
const CALL_TIMEOUT: Duration = Duration::from_secs(3);
/// How long set-up and drain steps may take before the run fails.
const SETTLE: Duration = Duration::from_secs(20);
/// Load run before measuring starts, so connection set-up and first-use
/// costs of a fresh cluster are not timed.
const WARMUP: Duration = Duration::from_secs(1);
/// Bandwidth of one channel: two fit the trial's 6 Mbit/s settop budget,
/// so a release-then-allocate zap never hits admission control.
const CHANNEL_BPS: u64 = 3_000_000;

/// The deployed CM tuning (E22's tuned leg): 200 ms heartbeat, 600 ms
/// election, the trial's budgets with unconstrained head-end egress, and
/// the 20 s lease.
fn cm_config(i: u32, peers: Vec<Addr>) -> CmReplicaConfig {
    let budgets = CmBudgets {
        settop_down_bps: 6_000_000,
        server_egress_bps: u64::MAX / 4,
    };
    let mut cfg = CmReplicaConfig::paper_defaults(i, peers, budgets);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg
}

/// A running real-runtime cluster with a replicated CM, MDS and MMS.
pub struct Rig {
    pub cluster: RealCluster,
    cm: Arc<Mutex<Vec<Option<Arc<CmReplica>>>>>,
    /// The CM primary's `CmApi` reference (bound at `svc/cmgr/0`).
    pub cm_ref: ObjRef,
    /// Index of the NS primary among the servers.
    pub ns_master: usize,
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + SETTLE;
    while Instant::now() < deadline {
        if cond() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if cond() {
        Ok(())
    } else {
        Err(format!("set-up: {what} did not happen within {SETTLE:?}"))
    }
}

/// A stable reference standing for subscriber `i`'s settop object.
fn sub_ref(node: NodeId, i: u64) -> ObjRef {
    ObjRef {
        addr: Addr::new(node, ports::SETTOP_AGENT),
        incarnation: ObjRef::STABLE,
        type_id: 0x5e77_0b0e,
        object_id: i,
    }
}

impl Rig {
    /// Brings the cluster up: NS group (elected), the CM replica group
    /// (settled and bound), MDS and MMS (bound), then `subs` leaf
    /// bindings under `subs/`, bound from two threads.
    pub fn launch(n_settops: usize, subs: usize) -> Result<Rig, String> {
        let cluster = RealCluster::launch(3, n_settops);
        let peers: Vec<Addr> = cluster
            .servers
            .iter()
            .map(|n| Addr::new(n.node(), ports::CMGR))
            .collect();
        let cm = Arc::new(Mutex::new(vec![None; peers.len()]));
        for (i, node) in cluster.servers.iter().enumerate() {
            let rt: Rt = node.clone();
            let cfg = cm_config(i as u32, peers.clone());
            let slots = Arc::clone(&cm);
            rt.clone().spawn_group(
                &format!("cmrep-{i}"),
                Box::new(move || {
                    let Ok(r) = CmReplica::start(rt.clone(), cfg) else {
                        return;
                    };
                    slots.lock()[i] = Some(r);
                    loop {
                        rt.sleep(Duration::from_secs(3600));
                    }
                }),
            );
        }
        let settled = || {
            let slots = cm.lock();
            slots.iter().all(|r| r.as_ref().is_some_and(|r| !r.in_probation()))
                && slots.iter().flatten().filter(|r| r.is_master()).count() == 1
        };
        wait_for("CM replica group election", settled)?;
        let cm_ref = cm
            .lock()
            .iter()
            .flatten()
            .find(|r| r.is_master())
            .map(|r| r.root_ref())
            .ok_or("CM master vanished")?;
        let ns_master = cluster.master_index().ok_or("no NS master")?;
        let ns = cluster.ns(ns_master);
        ns.bind("svc/cmgr/0", cm_ref)
            .map_err(|e| format!("bind svc/cmgr/0: {e}"))?;
        cluster.start_mds();
        cluster.start_mms(Duration::from_secs(5));
        wait_for("MMS and MDS bindings", || {
            ns.resolve("svc/mms").is_ok() && ns.list_repl("svc/mds").is_ok_and(|b| !b.is_empty())
        })?;
        ns.bind_new_context("zap")
            .map_err(|e| format!("bind zap: {e}"))?;
        if subs > 0 {
            ns.bind_new_context("subs")
                .map_err(|e| format!("bind subs: {e}"))?;
            let owner = cluster.settops[0].node();
            let errs: Vec<String> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2u64)
                    .map(|t| {
                        let ns = cluster.ns(ns_master);
                        s.spawn(move || {
                            for i in (t..subs as u64).step_by(2) {
                                if let Err(e) = ns.bind(&format!("subs/s{i}"), sub_ref(owner, i)) {
                                    return Some(format!("bind subs/s{i}: {e}"));
                                }
                            }
                            None
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .filter_map(|h| h.join().expect("populate thread panicked"))
                    .collect()
            });
            if let Some(e) = errs.into_iter().next() {
                return Err(e);
            }
        }
        Ok(Rig {
            cluster,
            cm,
            cm_ref,
            ns_master,
        })
    }

    /// Kills every process group on every node, waits for them to end,
    /// and stops the nodes' routers.
    pub fn shutdown(self) {
        let nodes: Vec<&Arc<RealNode>> =
            self.cluster.servers.iter().chain(self.cluster.settops.iter()).collect();
        for n in &nodes {
            n.kill_all_groups();
        }
        // Give cooperative unwinding a moment before the routers stop.
        std::thread::sleep(Duration::from_millis(300));
        for n in &nodes {
            n.stop();
        }
    }

    /// Live CM replicas.
    pub fn cm_replicas(&self) -> Vec<Arc<CmReplica>> {
        self.cm.lock().iter().flatten().cloned().collect()
    }

    /// A name-service handle from settop `i` to replica `i % 3`, as the
    /// settop's own reads go.
    pub fn settop_ns(&self, i: usize) -> NsHandle {
        let rt: Rt = self.cluster.settops[i].clone();
        NsHandle::new(ClientCtx::new(rt).with_timeout(CALL_TIMEOUT), self.ns_addr(i % 3))
    }

    /// Admits one stream straight at the CM primary and never releases
    /// it: the defect the self-test injects to prove the checks bite.
    fn leak_allocation(&self) {
        let rt: Rt = self.cluster.servers[0].clone();
        let cm = CmApiClient::attach(ClientCtx::new(rt).with_timeout(CALL_TIMEOUT), self.cm_ref)
            .expect("attach CM");
        let _ = cm.allocate(0, NodeId(99_999), self.cluster.servers[1].node(), CHANNEL_BPS);
    }

    fn ns_addr(&self, i: usize) -> Addr {
        Addr::new(self.cluster.servers[i].node(), ports::NS)
    }

    /// A counter summed over every node's telemetry registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.cluster
            .servers
            .iter()
            .chain(self.cluster.settops.iter())
            .map(|n| ocs_telemetry::NodeTelemetry::of(&**n).registry.counter(name).get())
            .sum()
    }

    /// A counter's largest per-node value (for counters every replica
    /// of a group bumps once per committed op).
    pub fn counter_max(&self, name: &str) -> u64 {
        self.cluster
            .servers
            .iter()
            .map(|n| ocs_telemetry::NodeTelemetry::of(&**n).registry.counter(name).get())
            .max()
            .unwrap_or(0)
    }

    /// Waits until every CM replica's table has `n` allocations.
    fn cm_converged(&self, n: usize) -> bool {
        wait_for("CM replicas converging", || {
            self.cm_replicas().iter().all(|r| r.allocations().len() == n)
        })
        .is_ok()
    }

    /// Indexed == scanned reserved bandwidth on every replica.
    fn cm_audits_exact(&self) -> bool {
        self.cm_replicas().iter().all(|r| {
            let (indexed, scanned) = r.audit_reserved_bps();
            indexed == scanned
        })
    }
}

/// What a vod-open leg measured and checked.
#[derive(Default)]
pub struct VodOut {
    /// Movie-open latency per session: resolve to play acknowledged.
    pub open_us: Vec<u64>,
    /// Per-step latencies of the session, for the traced run.
    pub mms_open_us: Vec<u64>,
    pub play_us: Vec<u64>,
    pub close_us: Vec<u64>,
    pub sessions: u64,
    /// Sessions started after the warm-up (the timed ones).
    pub measured: u64,
    pub failed: u64,
    /// Wall time of the timed part.
    pub wall_s: f64,
    /// Failed correctness checks, by description.
    pub violations: Vec<String>,
}

/// Runs closed-loop movie sessions from two settops (one thread each):
/// a warm-up second, then timed sessions until `budget` has passed and
/// at least `min_sessions` were timed.
pub fn run_vod(rig: &Rig, budget: Duration, min_sessions: u64, leak: bool) -> VodOut {
    let t0 = Instant::now() + WARMUP;
    let per_thread = min_sessions.div_ceil(2);
    let outs: Vec<VodOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2usize)
            .map(|i| {
                let node = Arc::clone(&rig.cluster.settops[i]);
                let ns_addr = rig.ns_addr(i % 3);
                s.spawn(move || settop_loop(node, ns_addr, t0, t0 + budget, per_thread))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("settop thread panicked"))
            .collect()
    });
    let mut out = VodOut {
        wall_s: t0.elapsed().as_secs_f64(),
        ..VodOut::default()
    };
    for o in outs {
        out.open_us.extend(o.open_us);
        out.mms_open_us.extend(o.mms_open_us);
        out.play_us.extend(o.play_us);
        out.close_us.extend(o.close_us);
        out.sessions += o.sessions;
        out.measured += o.measured;
        out.failed += o.failed;
        out.violations.extend(o.violations);
    }
    if leak {
        rig.leak_allocation();
    }
    check_vod_drained(rig, &mut out);
    out
}

fn settop_loop(node: Arc<RealNode>, ns_addr: Addr, from: Instant, until: Instant, min: u64) -> VodOut {
    let rt: Rt = node.clone();
    let mut out = VodOut::default();
    let stream = match rt.open(PortReq::Fixed(ports::SETTOP_STREAM)) {
        Ok(ep) => ep,
        Err(e) => {
            out.violations.push(format!("settop stream port: {e:?}"));
            return out;
        }
    };
    let ctx = ClientCtx::new(rt.clone()).with_timeout(CALL_TIMEOUT);
    let ns = NsHandle::new(ctx.clone(), ns_addr);
    let drain = || while stream.recv(Some(Duration::ZERO)).is_ok() {};
    let elapsed_us = |t: Instant| t.elapsed().as_micros() as u64;
    while Instant::now() < until || out.measured < min {
        out.sessions += 1;
        let t = Instant::now();
        let timed = t >= from;
        out.measured += u64::from(timed);
        let Ok(mms_ref) = ns.resolve("svc/mms") else {
            out.failed += 1;
            continue;
        };
        let t_res = Instant::now();
        let Ok(mms) = MmsApiClient::attach(ctx.clone(), mms_ref) else {
            out.failed += 1;
            continue;
        };
        let Ok(ticket) = mms.open(MOVIE_TITLE.into(), 0) else {
            out.failed += 1;
            continue;
        };
        let t_open = Instant::now();
        let played = MovieCtlClient::attach(ctx.clone(), ticket.movie)
            .map_err(|_| ())
            .and_then(|m| m.play(0).map_err(|_| ()));
        let t_play = Instant::now();
        if played.is_ok() && timed {
            out.open_us.push(t_play.duration_since(t).as_micros() as u64);
            out.mms_open_us.push(t_open.duration_since(t_res).as_micros() as u64);
            out.play_us.push(t_play.duration_since(t_open).as_micros() as u64);
        } else if played.is_err() {
            out.failed += 1;
        }
        let t_close = Instant::now();
        if mms.close(ticket.session).is_err() {
            out.failed += 1;
            continue;
        }
        if timed {
            out.close_us.push(elapsed_us(t_close));
        }
        drain();
    }
    // Segments already in flight when the last session closed.
    std::thread::sleep(Duration::from_millis(100));
    drain();
    out
}

fn check_vod_drained(rig: &Rig, out: &mut VodOut) {
    if out.failed > 0 {
        out.violations
            .push(format!("{} of {} opens returned no ticket", out.failed, out.sessions));
    }
    let rt: Rt = rig.cluster.servers[0].clone();
    let sessions = rig.cluster.mms_ref().and_then(|r| {
        MmsApiClient::attach(ClientCtx::new(rt).with_timeout(CALL_TIMEOUT), r)
            .ok()?
            .session_count()
            .ok()
    });
    if sessions != Some(0) {
        out.violations
            .push(format!("MMS session_count after drain is {sessions:?}, not 0"));
    }
    if !rig.cm_converged(0) {
        let held: Vec<usize> = rig.cm_replicas().iter().map(|r| r.allocations().len()).collect();
        out.violations
            .push(format!("CM replicas hold {held:?} allocations after drain, not 0"));
    }
    if !rig.cm_audits_exact() {
        out.violations
            .push("CM reserved-bandwidth index differs from a table scan".into());
    }
    let bounces = rig.counter("mds.stream.bounces");
    if bounces != 0 {
        out.violations.push(format!("mds.stream.bounces is {bounces}"));
    }
}

/// What a zap-admit leg measured and checked.
#[derive(Default)]
pub struct ZapOut {
    /// Channel-change latency from due time (release + allocate).
    pub zap_us: Vec<u64>,
    /// NS update latency from due time (bind and unbind).
    pub bind_us: Vec<u64>,
    /// Per-call service times (from issue, not due), for the traced run.
    pub alloc_svc_us: Vec<u64>,
    pub release_svc_us: Vec<u64>,
    pub bind_svc_us: Vec<u64>,
    /// How late the generator issued each op, in microseconds.
    pub late_us: Vec<u64>,
    pub zaps: u64,
    pub ns_ops: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

/// Settops the zap workload changes channels and names for.
const ZAP_SETTOPS: u32 = 32;

/// One scheduled zap-admit op: a channel change or a name update for
/// settop `who`, due `due` after the leg starts.
struct ZapOp {
    due: Duration,
    channel: bool,
    who: usize,
    token: u64,
}

/// Per-settop state: the channel it holds and the reference bound under
/// its name. Locked for the length of an op on that settop.
#[derive(Default)]
struct SettopState {
    conn: Option<u64>,
    bound: Option<ObjRef>,
}

/// The op schedule, drawn from `seed`: Poisson arrivals at `rate` ops/s,
/// each a channel change or a name update with equal odds, for a settop
/// picked uniformly. Long enough for `budget` after the warm-up and for
/// `min_each` timed ops of each kind.
fn zap_schedule(rate: f64, budget: Duration, min_each: u64, seed: u64) -> Vec<ZapOp> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    let (mut t, mut timed) = (Duration::ZERO, [0u64; 2]);
    loop {
        t += rng.exp_gap(1e6 / rate);
        if t >= WARMUP + budget && timed.iter().all(|&n| n >= min_each) {
            return ops;
        }
        let channel = rng.below(2) == 0;
        if t >= WARMUP {
            timed[usize::from(channel)] += 1;
        }
        ops.push(ZapOp {
            due: t,
            channel,
            who: rng.below(u64::from(ZAP_SETTOPS)) as usize,
            token: rng.next_u64() | 1,
        });
    }
}

/// Runs the open-loop zap workload: the seeded schedule of channel
/// changes and name updates at `rate` ops/s, shared by two generator
/// threads (whichever is free issues the next due op). Ops due in the
/// first second are a warm-up; the rest are timed from their due time.
pub fn run_zap(rig: &Rig, rate: f64, budget: Duration, min_each: u64, seed: u64, leak: bool) -> ZapOut {
    let ops = zap_schedule(rate, budget, min_each, seed);
    let settops: Vec<NodeId> = (0..ZAP_SETTOPS).map(|k| NodeId(50_000 + k)).collect();
    let state: Vec<Mutex<SettopState>> = settops.iter().map(|_| Mutex::default()).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let ns_addr = rig.ns_addr(rig.ns_master);
    let server = rig.cluster.servers[1].node();
    let outs: Vec<ZapOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2usize)
            .map(|g| {
                let rt: Rt = rig.cluster.settops[g].clone();
                let (ops, settops, state, next) = (&ops, &settops, &state, &next);
                let cm_ref = rig.cm_ref;
                s.spawn(move || {
                    let ctx = ClientCtx::new(rt).with_timeout(CALL_TIMEOUT);
                    let mut out = ZapOut::default();
                    let cm = match CmApiClient::attach(ctx.clone(), cm_ref) {
                        Ok(c) => c,
                        Err(e) => {
                            out.violations.push(format!("attach CM: {e:?}"));
                            return out;
                        }
                    };
                    let ns = NsHandle::new(ctx, ns_addr);
                    while let Some(op) = ops.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let due = start + op.due;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let timed = op.due >= WARMUP;
                        if timed {
                            out.late_us.push(due.elapsed().as_micros() as u64);
                        }
                        let mut st = state[op.who].lock();
                        let ok = if op.channel {
                            zap_once(&cm, &mut st, settops[op.who], server, op.token, timed, &mut out)
                        } else {
                            update_once(&ns, &mut st, settops[op.who], op.token, timed, &mut out)
                        };
                        drop(st);
                        if !ok {
                            out.failed += 1;
                        } else if timed {
                            let lat = due.elapsed().as_micros() as u64;
                            if op.channel {
                                out.zap_us.push(lat);
                            } else {
                                out.bind_us.push(lat);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("zap thread panicked"))
            .collect()
    });
    let mut out = ZapOut::default();
    for o in outs {
        out.zap_us.extend(o.zap_us);
        out.bind_us.extend(o.bind_us);
        out.alloc_svc_us.extend(o.alloc_svc_us);
        out.release_svc_us.extend(o.release_svc_us);
        out.bind_svc_us.extend(o.bind_svc_us);
        out.late_us.extend(o.late_us);
        out.zaps += o.zaps;
        out.ns_ops += o.ns_ops;
        out.failed += o.failed;
        out.violations.extend(o.violations);
    }
    let mut holders: BTreeMap<u64, NodeId> = BTreeMap::new();
    let mut names: Vec<(String, Option<ObjRef>)> = Vec::new();
    for (settop, st) in settops.iter().zip(&state) {
        let st = st.lock();
        if let Some(c) = st.conn {
            holders.insert(c, *settop);
        }
        names.push((zap_name(*settop), st.bound));
    }
    if leak {
        rig.leak_allocation();
    }
    check_zap(rig, &mut out, &holders, &names);
    out
}

fn zap_name(settop: NodeId) -> String {
    format!("zap/s{}", settop.0)
}

/// A channel change: release the settop's current channel, then admit
/// the next with a retry token.
fn zap_once(
    cm: &CmApiClient,
    st: &mut SettopState,
    settop: NodeId,
    server: NodeId,
    token: u64,
    timed: bool,
    out: &mut ZapOut,
) -> bool {
    out.zaps += 1;
    if let Some(conn) = st.conn.take() {
        let t = Instant::now();
        if cm.release(conn).is_err() {
            return false;
        }
        if timed {
            out.release_svc_us.push(t.elapsed().as_micros() as u64);
        }
    }
    let t = Instant::now();
    let Ok(conn) = cm.allocate(token, settop, server, CHANNEL_BPS) else {
        return false;
    };
    if timed {
        out.alloc_svc_us.push(t.elapsed().as_micros() as u64);
    }
    st.conn = Some(conn);
    true
}

/// A name update: bind the settop's name, or unbind it if bound.
fn update_once(ns: &NsHandle, st: &mut SettopState, settop: NodeId, token: u64, timed: bool, out: &mut ZapOut) -> bool {
    out.ns_ops += 1;
    let name = zap_name(settop);
    let t = Instant::now();
    let r = match st.bound {
        Some(_) => ns.unbind(&name).map(|_| None),
        None => {
            let obj = sub_ref(settop, token);
            ns.bind(&name, obj).map(|_| Some(obj))
        }
    };
    let Ok(bound) = r else {
        return false;
    };
    if timed {
        out.bind_svc_us.push(t.elapsed().as_micros() as u64);
    }
    st.bound = bound;
    true
}

fn check_zap(
    rig: &Rig,
    out: &mut ZapOut,
    holders: &BTreeMap<u64, NodeId>,
    names: &[(String, Option<ObjRef>)],
) {
    if out.failed > 0 {
        out.violations.push(format!("{} zap-admit ops failed", out.failed));
    }
    if !rig.cm_converged(holders.len()) {
        let held: Vec<usize> = rig.cm_replicas().iter().map(|r| r.allocations().len()).collect();
        out.violations.push(format!(
            "CM replicas hold {held:?} allocations; {} settops hold a channel",
            holders.len()
        ));
    }
    for r in rig.cm_replicas() {
        let (indexed, scanned) = r.audit_reserved_bps();
        let table: BTreeMap<u64, NodeId> =
            r.allocations().iter().map(|d| (d.conn, d.settop)).collect();
        if indexed != scanned || &table != holders {
            out.violations.push(format!(
                "CM replica audit: reserved {indexed} vs scan {scanned}, table {} conns vs {} held",
                table.len(),
                holders.len()
            ));
        }
    }
    let ns = rig.cluster.ns(rig.ns_master);
    for (name, want) in names {
        let got = ns.resolve(name).ok();
        if got != *want {
            out.violations
                .push(format!("{name} resolves to {got:?}, bound {want:?}"));
        }
    }
}
