//! The `failover-sim` workload: the deterministic simulator at deployed
//! fail-over tuning, with a settop population admitting through
//! `Rebinding` proxies while a seeded fault schedule kills and restarts
//! the NS primary and the CM primary in turn.
//!
//! Every figure except wall time is in virtual time, so a run is a pure
//! function of its seed: [`run`] twice with one seed must agree in every
//! field but its wall-clock times, and the benchmark asserts that it
//! does.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_media::{CmApiClient, CmBudgets, CmReplica, CmReplicaConfig, MediaError};
use ocs_name::{AlwaysAlive, NsConfig, NsError, NsHandle, NsReplica, RebindPolicy, Rebinding};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{
    Addr, FaultAction, KernelStats, LinkParams, Nemesis, NetConfig, NetStats, NodeId, NodeRt,
    NodeRtExt, Rt, ShardPolicy, Sim, SimConfig, SimNode, SimTime,
};
use parking_lot::Mutex;

use crate::stats::Rng;

const NS_PORT: u16 = 10;
const CM_PORT: u16 = 2000;
const CM_PATH: &str = "svc/cmgr/0";
/// Driver processes the population is sliced across (fixed, so the
/// schedule never depends on the host).
const DRIVERS: usize = 16;
/// Rebinding proxies per driver, sharing the node's resolve cache.
const PROXIES: usize = 2;
const SETTOPS: usize = 2_000;
/// Virtual admissions per second across the whole population.
const ADMIT_RATE: f64 = 200.0;
const STREAM_BPS: u64 = 3_000_000;
/// Fault schedule: the first kill at WARMUP, then one every PERIOD,
/// alternating NS primary and CM primary; each victim restarts DOWN
/// after its kill.
const WARMUP: Duration = Duration::from_secs(3);
const PERIOD: Duration = Duration::from_secs(4);
const DOWN: Duration = Duration::from_secs(2);
/// Each kill falls at a seeded offset up to this far into its period.
const KILL_JITTER: Duration = Duration::from_secs(1);
const TAIL: Duration = Duration::from_secs(3);
/// Probe period for the read, NS-update and CM-update probe streams.
const PROBE_EVERY: Duration = Duration::from_millis(50);
const READ_TIMEOUT: Duration = Duration::from_millis(250);
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);
/// How long a prober shuns a replica whose call timed out.
const COOLDOWN: Duration = Duration::from_secs(2);

/// Everything one run produced. All fields but `wall_s` and `setup_s`
/// are deterministic per (seed, kills).
#[derive(Clone, Debug, PartialEq)]
pub struct SimOut {
    /// Admission latency from due time, virtual µs.
    pub admit_us: Vec<u64>,
    /// Update blackout per kill, virtual seconds.
    pub blackouts_s: Vec<f64>,
    pub admits: u64,
    /// Client calls placed (admission calls, rebind rounds, probes).
    pub attempts: u64,
    /// Calls that failed or were refused.
    pub refused: u64,
    /// Admissions that never completed.
    pub failed_admits: u64,
    pub reads: u64,
    pub reads_ok: u64,
    /// E22 audit against the client record, worst replica.
    pub lost: u64,
    pub doubled: u64,
    pub audit_exact: bool,
    pub view_changes: u64,
    pub superseded: u64,
    pub trace_hash: u64,
    pub kernel: (u64, u64, u64, u64),
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub virt_s: f64,
    /// Wall-clock seconds: the whole run, and its set-up (building the
    /// world until both groups settled). The only nondeterministic
    /// fields.
    pub wall_s: f64,
    pub setup_s: f64,
}

impl SimOut {
    /// Whether `other` ran the same virtual-time schedule: identical trace
    /// hash, traffic and client-visible timings. (Scheduler switch counts
    /// legitimately differ between shard counts.)
    pub fn same_schedule(&self, other: &SimOut) -> bool {
        self.trace_hash == other.trace_hash
            && self.msgs_sent == other.msgs_sent
            && self.bytes_sent == other.bytes_sent
            && self.admit_us == other.admit_us
            && self.blackouts_s == other.blackouts_s
    }

    /// `self` with the wall-clock fields zeroed, for determinism checks.
    pub fn deterministic(&self) -> SimOut {
        SimOut {
            wall_s: 0.0,
            setup_s: 0.0,
            ..self.clone()
        }
    }
}

fn ns_cfg(i: u32, peers: Vec<Addr>) -> NsConfig {
    let mut cfg = NsConfig::paper_defaults(i, peers);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg
}

fn cm_cfg(i: u32, peers: Vec<Addr>) -> CmReplicaConfig {
    let budgets = CmBudgets {
        settop_down_bps: 6_000_000,
        server_egress_bps: u64::MAX / 4,
    };
    let mut cfg = CmReplicaConfig::paper_defaults(i, peers, budgets);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    // No expiry: the closing audit compares tables with the client's
    // record exactly.
    cfg.lease_ttl = None;
    cfg
}

type Slots<T> = Arc<Mutex<Vec<Option<Arc<T>>>>>;

struct World {
    sim: Sim,
    ns_nodes: Vec<Arc<SimNode>>,
    cm_nodes: Vec<Arc<SimNode>>,
    ns: Slots<NsReplica>,
    cm: Slots<CmReplica>,
    ns_peers: Vec<Addr>,
    cm_peers: Vec<Addr>,
}

/// An NS handle that tries each replica in turn (updates must reach the
/// primary; reads succeed on any live replica).
fn ns_any<T>(rt: &Rt, peers: &[Addr], timeout: Duration, f: impl Fn(&NsHandle) -> Result<T, NsError>) -> Result<T, NsError> {
    let mut last = NsError::NoMaster;
    for &p in peers {
        let ns = NsHandle::new(ClientCtx::new(rt.clone()).with_timeout(timeout), p);
        match f(&ns) {
            Ok(v) => return Ok(v),
            Err(e) => last = e,
        }
    }
    Err(last)
}

impl World {
    fn start_ns(&self, i: usize) {
        let rt: Rt = self.ns_nodes[i].clone();
        let r = NsReplica::start(rt, ns_cfg(i as u32, self.ns_peers.clone()), Arc::new(AlwaysAlive))
            .expect("NS replica starts on a fresh node");
        self.ns.lock()[i] = Some(r);
    }

    /// Starts CM replica `i` and its master-advertisement loop: while
    /// this replica is master, keep `svc/cmgr/0` pointing at it.
    fn start_cm(&self, i: usize) {
        let rt: Rt = self.cm_nodes[i].clone();
        let r = CmReplica::start(rt.clone(), cm_cfg(i as u32, self.cm_peers.clone()))
            .expect("CM replica starts on a fresh node");
        self.cm.lock()[i] = Some(Arc::clone(&r));
        let peers = self.ns_peers.clone();
        rt.clone().spawn_fn("cm-advertise", move || {
            let obj = r.root_ref();
            loop {
                if r.is_master()
                    && ns_any(&rt, &peers, READ_TIMEOUT, |ns| ns.resolve(CM_PATH)).ok() != Some(obj)
                {
                    let _ = ns_any(&rt, &peers, WRITE_TIMEOUT, |ns| ns.unbind(CM_PATH));
                    let _ = ns_any(&rt, &peers, WRITE_TIMEOUT, |ns| ns.bind(CM_PATH, obj));
                }
                rt.sleep(Duration::from_millis(200));
            }
        });
    }

    fn settled(&self) -> bool {
        fn one<T>(slots: &Slots<T>, master: impl Fn(&T) -> bool, probation: impl Fn(&T) -> bool) -> bool {
            let s = slots.lock();
            s.iter().all(|r| r.as_ref().is_some_and(|r| !probation(r)))
                && s.iter().flatten().filter(|r| master(r)).count() == 1
        }
        one(&self.ns, |r| r.is_master(), |r| r.in_probation())
            && one(&self.cm, |r| r.is_master(), |r| r.in_probation())
    }

    fn run_until(&self, limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = self.sim.now() + limit;
        while self.sim.now() < deadline {
            if cond() {
                return true;
            }
            self.sim.run_for(Duration::from_millis(20));
        }
        cond()
    }
}

/// Outcome of one probe call: when it started and ended, and whether it
/// succeeded.
#[derive(Clone, Copy)]
struct Probe {
    start: SimTime,
    end: SimTime,
    ok: bool,
}

#[derive(Default)]
struct Shared {
    admit_us: Vec<u64>,
    admits: u64,
    attempts: u64,
    refused: u64,
    failed_admits: u64,
    /// Live conn per settop, as the clients recorded it.
    record: BTreeMap<u32, u64>,
    reads: Vec<Probe>,
    ns_updates: Vec<Probe>,
    cm_updates: Vec<Probe>,
    probe_conn: Option<u64>,
    drivers_done: usize,
}

fn cm_at(rt: &Rt, peer: Addr) -> CmApiClient {
    let target = ObjRef {
        addr: peer,
        incarnation: ObjRef::STABLE,
        type_id: CmApiClient::TYPE_ID,
        object_id: 0,
    };
    CmApiClient::attach(ClientCtx::new(rt.clone()).with_timeout(WRITE_TIMEOUT), target)
        .expect("attach CM client")
}

/// Builds the world (3 NS and 3 CM replicas, the seeded name space)
/// and runs it until both groups have settled. Returns the world, the
/// admin node, and the wall seconds the set-up took.
fn build(seed: u64, shards: usize) -> (World, Arc<SimNode>, f64) {
    let wall = Instant::now();
    let sim = Sim::with_config(SimConfig {
        seed,
        net: NetConfig::default(),
        trace: false,
        fast: true,
        shards,
        policy: ShardPolicy::default(),
    });
    let ns_nodes: Vec<_> = (0..3).map(|i| sim.add_node(&format!("ns{i}"))).collect();
    let cm_nodes: Vec<_> = (0..3).map(|i| sim.add_node(&format!("cm{i}"))).collect();
    let ns_peers: Vec<Addr> = ns_nodes.iter().map(|n| Addr::new(n.node(), NS_PORT)).collect();
    let cm_peers: Vec<Addr> = cm_nodes.iter().map(|n| Addr::new(n.node(), CM_PORT)).collect();
    // The world owns the simulation: dropping the owner shuts it down.
    let w = World {
        sim,
        ns_nodes,
        cm_nodes,
        ns: Arc::new(Mutex::new(vec![None, None, None])),
        cm: Arc::new(Mutex::new(vec![None, None, None])),
        ns_peers,
        cm_peers,
    };
    for i in 0..3 {
        w.start_ns(i);
    }
    // Seed the name space once the NS group has a master.
    let admin = w.sim.add_node("admin");
    {
        let rt: Rt = admin.clone();
        let peers = w.ns_peers.clone();
        admin.spawn_fn("seed-ns", move || {
            for path in ["svc", "svc/cmgr"] {
                while !matches!(
                    ns_any(&rt, &peers, WRITE_TIMEOUT, |ns| ns.bind_new_context(path)),
                    Ok(_) | Err(NsError::AlreadyBound { .. })
                ) {
                    rt.sleep(Duration::from_millis(100));
                }
            }
            let leaf = probe_leaf(peers[0]);
            while !matches!(
                ns_any(&rt, &peers, WRITE_TIMEOUT, |ns| ns.bind("probe", leaf)),
                Ok(()) | Err(NsError::AlreadyBound { .. })
            ) {
                rt.sleep(Duration::from_millis(100));
            }
        });
    }
    for i in 0..3 {
        w.start_cm(i);
    }
    assert!(
        w.run_until(Duration::from_secs(60), || w.settled()),
        "failover-sim: replica groups never settled"
    );
    w.sim.run_for(Duration::from_secs(1));
    (w, admin, wall.elapsed().as_secs_f64())
}

/// Wall seconds to build and settle the world for `seed`, then tear it
/// down: one `failover-sim` set-up.
pub fn setup_s(seed: u64) -> f64 {
    let (w, _, secs) = build(seed, 1);
    drop(w);
    secs
}

/// Runs one failover-sim scenario. Its inputs come from `seed`: each
/// driver's access latency, the Poisson admission arrivals, which settop
/// changes channel, and each kill's offset within its period.
/// With `leak`, one admission is made outside the client record — the
/// defect the self-test injects to prove the audit bites.
pub fn run(seed: u64, shards: usize, kills: usize, leak: bool) -> SimOut {
    let wall = Instant::now();
    let (w, admin, setup_s) = build(seed, shards);
    let sim = w.sim.clone();
    if leak {
        let (rt, peer): (Rt, _) = (admin.clone(), w.cm_peers.clone());
        let settop = admin.node();
        admin.spawn_fn("leak", move || {
            while !peer.iter().any(|&p| cm_at(&rt, p).allocate(0, settop, settop, 1_000).is_ok()) {
                rt.sleep(Duration::from_millis(100));
            }
        });
    }
    let mut rng = Rng::new(seed);

    let shared = Arc::new(Mutex::new(Shared::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let t_start = w.sim.now();
    let schedule_end = t_start + WARMUP + PERIOD * kills as u32 + TAIL;

    // The settop population: DRIVERS processes, each owning a contiguous
    // slice and admitting at ADMIT_RATE / DRIVERS per virtual second,
    // with Poisson arrivals.
    let server = w.cm_nodes[0].node();
    for d in 0..DRIVERS {
        let node = sim.add_node(&format!("drv{d}"));
        // Per-gateway access latency, as in E17 (300–650 µs one-way).
        let access = LinkParams::latency_only(Duration::from_micros(300 + rng.below(351)));
        for n in w.ns_nodes.iter().chain(w.cm_nodes.iter()) {
            sim.set_link(node.node(), n.node(), access);
            sim.set_link(n.node(), node.node(), access);
        }
        let rt: Rt = node.clone();
        let ns = NsHandle::new(ClientCtx::new(rt.clone()), w.ns_peers[d % 3]);
        let policy = RebindPolicy {
            retry_interval: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(1),
            give_up_after: Duration::from_secs(20),
            jitter: true,
        };
        let proxies: Vec<Rebinding<CmApiClient>> = (0..PROXIES)
            .map(|_| Rebinding::new(ns.clone(), CM_PATH, policy))
            .collect();
        let shared = Arc::clone(&shared);
        let mean_gap_us = 1e6 * DRIVERS as f64 / ADMIT_RATE;
        let mut arrivals = Rng::new(rng.next_u64());
        node.spawn_fn("driver", move || {
            let lo = d * SETTOPS / DRIVERS;
            let hi = (d + 1) * SETTOPS / DRIVERS;
            let mut held: BTreeMap<u32, u64> = BTreeMap::new();
            let (mut lat, mut attempts, mut refused, mut failed, mut admits) = (Vec::new(), 0, 0, 0, 0);
            let (mut k, mut due) = (0u64, t_start);
            loop {
                due += arrivals.exp_gap(mean_gap_us);
                if due >= schedule_end {
                    break;
                }
                let now = rt.now();
                if now < due {
                    rt.sleep(due.saturating_since(now));
                }
                let s = (lo as u64 + arrivals.below((hi - lo) as u64)) as u32;
                let settop = NodeId(100_000 + s);
                let proxy = &proxies[k as usize % PROXIES];
                admits += 1;
                // A channel change: release the settop's current stream,
                // then admit the new one with a retry token.
                let mut ok = true;
                if let Some(conn) = held.remove(&s) {
                    ok = retried(&rt, &mut attempts, &mut refused, || {
                        match proxy.call_counted(|cm| cm.release(conn)) {
                            Ok((_, r)) => (true, r),
                            Err(MediaError::UnknownSession { .. }) => (true, 0),
                            Err(_) => (false, 0),
                        }
                    });
                }
                if ok {
                    let token = (seed << 32) ^ ((s as u64) << 12) ^ k | 1;
                    let mut got = None;
                    ok = retried(&rt, &mut attempts, &mut refused, || {
                        match proxy.call_counted(|cm| cm.allocate(token, settop, server, STREAM_BPS)) {
                            Ok((conn, r)) => {
                                got = Some(conn);
                                (true, r)
                            }
                            Err(_) => (false, 0),
                        }
                    });
                    if let Some(conn) = got {
                        held.insert(s, conn);
                    }
                }
                if ok {
                    lat.push(rt.now().saturating_since(due).as_micros() as u64);
                } else {
                    failed += 1;
                }
                k += 1;
            }
            let mut sh = shared.lock();
            sh.admit_us.extend(lat);
            sh.admits += admits;
            sh.attempts += attempts;
            sh.refused += refused;
            sh.failed_admits += failed;
            sh.record.extend(held);
            sh.drivers_done += 1;
        });
    }

    // Probe streams: reads (any replica resolves the probe name), NS
    // updates (a bind commits) and CM updates (an allocate or release
    // commits), every PROBE_EVERY.
    let prober = sim.add_node("prober");
    {
        let (rt, peers, shared, stop): (Rt, _, _, _) = (prober.clone(), w.ns_peers.clone(), Arc::clone(&shared), Arc::clone(&stop));
        prober.spawn_fn("read-probe", move || {
            while !stop.load(Ordering::Relaxed) {
                let start = rt.now();
                let ok = ns_any(&rt, &peers, READ_TIMEOUT, |ns| ns.resolve("probe")).is_ok();
                shared.lock().reads.push(Probe { start, end: rt.now(), ok });
                rt.sleep(PROBE_EVERY);
            }
        });
    }
    {
        let (rt, peers, shared, stop): (Rt, _, _, _) = (prober.clone(), w.ns_peers.clone(), Arc::clone(&shared), Arc::clone(&stop));
        prober.spawn_fn("ns-update-probe", move || {
            let leaf = probe_leaf(peers[0]);
            let mut cooldown = vec![SimTime::ZERO; peers.len()];
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let start = rt.now();
                let name = format!("probe-{}", i % 2);
                // Alternate bind and unbind of two names; a lost reply
                // that already committed counts as success.
                let ok = update_any(&rt, &peers, &mut cooldown, |ns| {
                    if i % 4 < 2 {
                        matches!(ns.bind(&name, leaf), Ok(()) | Err(NsError::AlreadyBound { .. }))
                    } else {
                        matches!(ns.unbind(&name), Ok(()) | Err(NsError::NotFound { .. }))
                    }
                });
                shared.lock().ns_updates.push(Probe { start, end: rt.now(), ok });
                if ok {
                    i += 1;
                }
                rt.sleep(PROBE_EVERY);
            }
        });
    }
    {
        let (rt, peers, shared, stop): (Rt, _, _, _) = (prober.clone(), w.cm_peers.clone(), Arc::clone(&shared), Arc::clone(&stop));
        let settop = prober.node();
        prober.spawn_fn("cm-update-probe", move || {
            let mut cooldown = vec![SimTime::ZERO; peers.len()];
            let mut held: Option<u64> = None;
            let mut token = (seed << 32) | 0x8000_0001;
            while !stop.load(Ordering::Relaxed) {
                let start = rt.now();
                let mut ok = false;
                for (pi, &peer) in peers.iter().enumerate() {
                    if rt.now() < cooldown[pi] {
                        continue;
                    }
                    let before = rt.now();
                    let cm = cm_at(&rt, peer);
                    let r = match held {
                        Some(conn) => match cm.release(conn) {
                            Ok(_) | Err(MediaError::UnknownSession { .. }) => Some(None),
                            Err(_) => None,
                        },
                        None => cm.allocate(token, settop, server, 1_000).ok().map(Some),
                    };
                    if let Some(next) = r {
                        if next.is_none() {
                            token += 2;
                        }
                        held = next;
                        ok = true;
                        break;
                    }
                    if rt.now().saturating_since(before) >= WRITE_TIMEOUT {
                        cooldown[pi] = rt.now() + COOLDOWN;
                    }
                }
                let mut sh = shared.lock();
                sh.cm_updates.push(Probe { start, end: rt.now(), ok });
                sh.probe_conn = held;
                drop(sh);
                rt.sleep(PROBE_EVERY);
            }
        });
    }

    // The fault schedule: one kill per PERIOD at a seeded offset.
    let mut killed: Vec<(SimTime, bool)> = Vec::new();
    for j in 0..kills {
        let jitter = Duration::from_micros(rng.below(KILL_JITTER.as_micros() as u64));
        let at = t_start + WARMUP + PERIOD * j as u32 + jitter;
        w.sim.run_until(at);
        let on_ns = j % 2 == 0;
        let master = if on_ns {
            w.ns.lock().iter().position(|r| r.as_ref().is_some_and(|r| r.is_master()))
        } else {
            w.cm.lock().iter().position(|r| r.as_ref().is_some_and(|r| r.is_master()))
        };
        let Some(m) = master else {
            panic!("failover-sim: no {} primary at kill {j}", if on_ns { "NS" } else { "CM" });
        };
        let victim = if on_ns { w.ns_nodes[m].node() } else { w.cm_nodes[m].node() };
        Nemesis::apply(&w.sim, &FaultAction::CrashNode(victim));
        if on_ns {
            w.ns.lock()[m] = None;
        } else {
            w.cm.lock()[m] = None;
        }
        killed.push((w.sim.now(), on_ns));
        w.sim.run_for(DOWN);
        Nemesis::apply(&w.sim, &FaultAction::RestartNode(victim));
        if on_ns {
            w.start_ns(m);
        } else {
            w.start_cm(m);
        }
    }
    w.sim.run_until(schedule_end);
    assert!(
        w.run_until(Duration::from_secs(120), || shared.lock().drivers_done == DRIVERS),
        "failover-sim: drivers never finished"
    );
    stop.store(true, Ordering::Relaxed);
    assert!(
        w.run_until(Duration::from_secs(60), || w.settled()),
        "failover-sim: groups never healed after the schedule"
    );
    w.sim.run_for(Duration::from_secs(2));

    let sh = shared.lock();
    // Blackout per kill: crash to the end of the first successful update
    // probe (of the killed service) that started after the crash.
    let blackouts_s = killed
        .iter()
        .map(|&(at, on_ns)| {
            let probes = if on_ns { &sh.ns_updates } else { &sh.cm_updates };
            probes
                .iter()
                .find(|p| p.ok && p.start >= at)
                .map(|p| p.end.saturating_since(at).as_secs_f64())
                .unwrap_or(f64::INFINITY)
        })
        .collect();
    // The E22 audit: every replica's table equals the client record.
    let mut want: Vec<u64> = sh.record.values().copied().chain(sh.probe_conn).collect();
    want.sort_unstable();
    let (mut lost, mut doubled, mut audit_exact) = (0u64, 0u64, true);
    for r in w.cm.lock().iter().flatten() {
        let mut have: Vec<u64> = r.allocations().iter().map(|d| d.conn).collect();
        have.sort_unstable();
        lost = lost.max(want.iter().filter(|c| have.binary_search(c).is_err()).count() as u64);
        doubled = doubled.max(have.iter().filter(|c| want.binary_search(c).is_err()).count() as u64);
        let (indexed, scanned) = r.audit_reserved_bps();
        audit_exact &= indexed == scanned && have == want;
    }
    let probes = sh.reads.len() + sh.ns_updates.len() + sh.cm_updates.len();
    let probe_fails = sh.reads.iter().chain(&sh.ns_updates).chain(&sh.cm_updates).filter(|p| !p.ok).count();
    let counter = |name: &str| -> u64 {
        w.ns_nodes
            .iter()
            .chain(w.cm_nodes.iter())
            .map(|n| ocs_telemetry::NodeTelemetry::of(&**n).registry.counter(name).get())
            .sum()
    };
    let ks: KernelStats = w.sim.kernel_stats();
    let net: NetStats = w.sim.net_stats();
    let out = SimOut {
        admit_us: sh.admit_us.clone(),
        blackouts_s,
        admits: sh.admits,
        attempts: sh.attempts + probes as u64,
        refused: sh.refused + probe_fails as u64,
        failed_admits: sh.failed_admits,
        reads: sh.reads.len() as u64,
        reads_ok: sh.reads.iter().filter(|p| p.ok).count() as u64,
        lost,
        doubled,
        audit_exact,
        view_changes: counter("ns.vsr.view_changes") + counter("cm.vsr.view_changes"),
        superseded: counter("ns.vsr.superseded") + counter("cm.vsr.superseded"),
        trace_hash: w.sim.trace_hash(),
        kernel: (ks.events, ks.driver_resumes, ks.direct_handoffs, ks.self_continues),
        msgs_sent: net.msgs_sent,
        bytes_sent: net.bytes_sent,
        virt_s: w.sim.now().saturating_since(t_start).as_secs_f64(),
        wall_s: 0.0,
        setup_s,
    };
    drop(sh);
    drop(w);
    drop(sim);
    drop(admin);
    SimOut {
        wall_s: wall.elapsed().as_secs_f64(),
        ..out
    }
}

/// Runs `call` until it succeeds or the retry window closes, counting
/// every call and every refused call or rebind round.
fn retried(rt: &Rt, attempts: &mut u64, refused: &mut u64, mut call: impl FnMut() -> (bool, u64)) -> bool {
    for _ in 0..3 {
        let (ok, rounds) = call();
        *attempts += 1 + rounds;
        *refused += rounds + u64::from(!ok);
        if ok {
            return true;
        }
        rt.sleep(Duration::from_millis(200));
    }
    false
}

/// One update-probe round over the replicas, skipping any in timeout
/// cooldown (a dead host), as E21's write prober does.
fn update_any(rt: &Rt, peers: &[Addr], cooldown: &mut [SimTime], f: impl Fn(&NsHandle) -> bool) -> bool {
    for (pi, &peer) in peers.iter().enumerate() {
        if rt.now() < cooldown[pi] {
            continue;
        }
        let before = rt.now();
        let ns = NsHandle::new(ClientCtx::new(rt.clone()).with_timeout(WRITE_TIMEOUT), peer);
        if f(&ns) {
            return true;
        }
        if rt.now().saturating_since(before) >= WRITE_TIMEOUT {
            cooldown[pi] = rt.now() + COOLDOWN;
        }
    }
    false
}

fn probe_leaf(addr: Addr) -> ObjRef {
    ObjRef {
        addr,
        incarnation: ObjRef::STABLE,
        type_id: 0x21,
        object_id: 0,
    }
}
