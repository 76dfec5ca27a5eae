//! Isolated per-layer costs, measured from outside each layer by timing
//! calls into its public functions: codec, ORB, TCP transport, name
//! state and cache, the VSR engine and the CM table.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_media::{CmBudgets, CmTable, CmUpdate, MovieTicket};
use ocs_name::{NsState, NsUpdate, ResolveCache, StaticEval, NAMING_TYPE_ID, ROOT_CTX};
use ocs_orb::{declare_interface, impl_rpc_fault, Caller, ClientCtx, NoAuth, ObjRef, Orb, OrbError, Servant, ThreadModel};
use ocs_sim::real::RealNet;
use ocs_sim::{Addr, NodeId, NodeRt, PortReq, Rt, SimTime};
use ocs_vsr::{Machine, OpOutcome, VsrCore};
use ocs_wire::{impl_wire_enum, Wire};

use crate::stats::{median, pct};

#[derive(Debug, PartialEq)]
pub enum EchoError {
    Comm { err: OrbError },
}
impl_wire_enum!(EchoError { 0 => Comm { err } });
impl_rpc_fault!(EchoError);

declare_interface! {
    /// A servant that returns its argument: the ORB's own cost.
    pub interface Echo [EchoClient, EchoServant]: "bench.echo" {
        1 => fn echo(&self, body: Vec<u8>) -> Result<Vec<u8>, EchoError>;
    }
}

struct EchoImpl;
impl Echo for EchoImpl {
    fn echo(&self, _caller: &Caller, body: Vec<u8>) -> Result<Vec<u8>, EchoError> {
        Ok(body)
    }
}

/// Mean nanoseconds per call of `f` over `n` calls.
fn ns_per(n: u32, mut f: impl FnMut(u32)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Median of `reps` repetitions of [`ns_per`].
fn ns_per_med(reps: usize, n: u32, mut f: impl FnMut(u32)) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| ns_per(n, &mut f)).collect();
    median(&xs)
}

pub fn sample_ticket() -> MovieTicket {
    MovieTicket {
        session: 0x1234_5678_9abc_def0,
        movie: ObjRef {
            addr: Addr::new(NodeId(1), 21),
            incarnation: 0x0000_1234_5678,
            type_id: 0x5a5a_5a5a,
            object_id: 42,
        },
        conn: 77,
        mds_node: NodeId(1),
    }
}

/// The body of a CM `prepare` call: view, entry view, op, commit, update.
type CmPrepareArgs = (u64, u64, u64, u64, CmUpdate);

fn sample_prepare() -> CmPrepareArgs {
    let update = CmUpdate::Allocate {
        token: 0xdead_beef,
        settop: NodeId(50_001),
        server: NodeId(1),
        down_bps: 3_000_000,
        now_us: 12_345_678,
    };
    (3, 3, 1_000, 999, update)
}

/// Encode and decode cost of a wire value, ns per operation.
fn codec<T: Wire>(v: &T) -> (f64, f64) {
    let enc = ns_per_med(5, 20_000, |_| {
        black_box(black_box(v).to_bytes());
    });
    let bytes = v.to_bytes();
    let dec = ns_per_med(5, 20_000, |_| {
        black_box(T::from_frame(black_box(&bytes)).expect("round trip"));
    });
    (enc, dec)
}

pub struct Wires {
    pub ticket: (f64, f64),
    pub cm_prepare: (f64, f64),
}

pub fn wire() -> Wires {
    Wires {
        ticket: codec(&sample_ticket()),
        cm_prepare: codec(&sample_prepare()),
    }
}

pub struct OrbCosts {
    pub echo_rtt_us: Vec<f64>,
    pub dispatch_ns: f64,
    pub tcp_64_us: f64,
    pub tcp_4k_us: f64,
}

/// ORB echo round trips over TCP loopback (per-request server threads),
/// in-process dispatch, and raw endpoint ping-pong at two frame sizes.
pub fn orb_and_net(calls: usize) -> OrbCosts {
    let net = RealNet::new();
    let srv = net.add_node("echo-server").expect("bind loopback");
    let cli = net.add_node("echo-client").expect("bind loopback");
    let srv_rt: Rt = srv.clone();
    let orb = Orb::build(srv_rt, PortReq::Fixed(30), ThreadModel::PerRequest, None, Arc::new(NoAuth))
        .expect("echo ORB");
    let obj = orb.export_root(Arc::new(EchoServant(Arc::new(EchoImpl))));
    orb.start();
    let cli_rt: Rt = cli.clone();
    let echo = EchoClient::attach(ClientCtx::new(cli_rt.clone()).with_timeout(Duration::from_secs(3)), obj)
        .expect("attach echo");
    let body = vec![7u8; 64];
    for _ in 0..100 {
        let _ = echo.echo(body.clone());
    }
    let echo_rtt_us: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            echo.echo(body.clone()).expect("echo call");
            t.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();

    let servant = EchoServant(Arc::new(EchoImpl));
    let caller = Caller::local(NodeId(0));
    let mut e = ocs_wire::Encoder::new();
    body.encode_into(&mut e);
    let args = e.finish();
    let dispatch_ns = ns_per_med(5, 20_000, |_| {
        black_box(servant.dispatch(&caller, 1, black_box(&args)).expect("dispatch"));
    });

    // Raw transport: an echo endpoint on the server node, no ORB.
    let ep_srv = srv.open(PortReq::Fixed(31)).expect("open echo port");
    let ep_cli = cli.open(PortReq::Ephemeral).expect("open client port");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let echo_thread = std::thread::spawn(move || {
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            if let Ok((from, msg)) = ep_srv.recv(Some(Duration::from_millis(50))) {
                let _ = ep_srv.send(from, msg);
            }
        }
    });
    let dest = Addr::new(srv.node(), 31);
    let ping = |size: usize| -> f64 {
        let msg = bytes::Bytes::from(vec![1u8; size]);
        let xs: Vec<f64> = (0..calls)
            .map(|_| {
                let t = Instant::now();
                ep_cli.send(dest, msg.clone()).expect("send");
                ep_cli.recv(Some(Duration::from_secs(3))).expect("echo reply");
                t.elapsed().as_nanos() as f64 / 1000.0
            })
            .collect();
        median(&xs)
    };
    let tcp_64_us = ping(64);
    let tcp_4k_us = ping(4096);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    echo_thread.join().expect("echo thread");
    srv.kill_all_groups();
    srv.stop();
    cli.stop();
    OrbCosts {
        echo_rtt_us,
        dispatch_ns,
        tcp_64_us,
        tcp_4k_us,
    }
}

/// A name space shaped like the benchmark cluster's: the `svc` tree
/// plus `subs` leaf bindings under `subs/`.
fn name_space(subs: usize) -> NsState {
    let mut st = NsState::new();
    let leaf = |i: u64| ObjRef {
        addr: Addr::new(NodeId(9), 99),
        incarnation: ObjRef::STABLE,
        type_id: 1,
        object_id: i,
    };
    let mut ops = vec![
        NsUpdate::NewContext { path: "svc".into() },
        NsUpdate::NewContext { path: "svc/cmgr".into() },
        NsUpdate::Bind { path: "svc/cmgr/0".into(), obj: leaf(0) },
        NsUpdate::Bind { path: "svc/mms".into(), obj: leaf(1) },
        NsUpdate::NewContext { path: "subs".into() },
    ];
    ops.extend((0..subs as u64).map(|i| NsUpdate::Bind {
        path: format!("subs/s{i}"),
        obj: leaf(i),
    }));
    for (seq, op) in ops.iter().enumerate() {
        st.apply(seq as u64 + 1, op).expect("name-space set-up op applies");
    }
    st
}

pub struct NameCosts {
    pub state_clone_us: f64,
    pub state_resolve_ns: f64,
    pub cache_hit_ns: f64,
}

pub fn name(subs: usize) -> NameCosts {
    let st = name_space(subs);
    let state_clone_us = ns_per_med(5, 200, |_| {
        black_box(black_box(&st).clone());
    }) / 1000.0;
    let me = ObjRef {
        addr: Addr::new(NodeId(0), 10),
        incarnation: ObjRef::STABLE,
        type_id: NAMING_TYPE_ID,
        object_id: 0,
    };
    let ctx_ref = |id: u64| ObjRef { object_id: id, ..me };
    let mut eval = StaticEval::default();
    let state_resolve_ns = ns_per_med(5, 20_000, |_| {
        black_box(
            st.resolve(ROOT_CTX, black_box("svc/mms"), NodeId(5), &ctx_ref, &mut eval, NAMING_TYPE_ID)
                .expect("svc/mms resolves"),
        );
    });
    let cache = ResolveCache::default();
    assert!(cache.install("svc/cmgr/0", 0, me), "fresh cache accepts an install");
    let cache_hit_ns = ns_per_med(5, 100_000, |_| {
        black_box(cache.lookup(black_box("svc/cmgr/0")).expect("cached"));
    });
    NameCosts {
        state_clone_us,
        state_resolve_ns,
        cache_hit_ns,
    }
}

fn budgets() -> CmBudgets {
    CmBudgets {
        settop_down_bps: 6_000_000,
        server_egress_bps: u64::MAX / 4,
    }
}

fn alloc_op(i: u32, now_us: u64) -> CmUpdate {
    CmUpdate::Allocate {
        token: 0,
        settop: NodeId(70_000 + i),
        server: NodeId(1),
        down_bps: 3_000_000,
        now_us,
    }
}

/// Three in-process `VsrCore<CmTable>` engines: one client op through
/// prepare on both backups and both acks to a `Done` outcome, ns per op.
/// Ops alternate allocate and release, so the table stays small.
pub fn vsr_engine_commit_ns(ops: u32) -> f64 {
    let mk = |id| {
        let mut e = VsrCore::with_machine(CmTable::new(budgets(), None), id, 3, 64, Duration::from_secs(1), SimTime::ZERO);
        e.end_probation(SimTime::ZERO);
        e
    };
    let mut engines = [mk(0), mk(1), mk(2)];
    let mut last_conn = 0u64;
    let mut commit = |i: u32, engines: &mut [VsrCore<CmTable>; 3]| {
        let op = if i.is_multiple_of(2) {
            alloc_op(i % 64, u64::from(i))
        } else {
            CmUpdate::Release { conn: last_conn, now_us: u64::from(i) }
        };
        let [p, b1, b2] = engines;
        let prep = p.client_op(op).expect("engine 0 is the view-0 primary");
        for (id, b) in [(1u32, b1), (2, b2)] {
            let ack = b.on_prepare(prep.view, prep.view, prep.op_num, prep.commit_num, prep.update.clone(), SimTime::ZERO);
            p.on_ack(id, &ack);
            b.take_events();
        }
        p.take_events();
        match p.outcome_of(prep.view, prep.op_num) {
            OpOutcome::Done(Ok(conn)) => last_conn = conn,
            other => panic!("engine op {i} did not commit: {other:?}"),
        }
    };
    for i in 0..200 {
        commit(i, &mut engines);
    }
    ns_per_med(5, ops, |i| commit(i, &mut engines))
}

/// `CmTable::apply` with `live` allocations held, ns per op (an
/// allocate and its release alternate on top of the live set).
pub fn cm_table_apply_ns(live: usize) -> f64 {
    let mut t = CmTable::new(budgets(), None);
    let mut seq = 0u64;
    for i in 0..live as u32 {
        seq += 1;
        t.apply(seq, &alloc_op(i, seq)).expect("live allocation fits its budget");
    }
    let mut conn = 0u64;
    ns_per_med(5, 20_000, |i| {
        seq += 1;
        let op = if i.is_multiple_of(2) {
            alloc_op(live as u32 + 1, seq)
        } else {
            CmUpdate::Release { conn, now_us: seq }
        };
        conn = t.apply(seq, black_box(&op)).expect("apply");
    })
}

/// p50 and p99 of a sample set.
pub fn p50_p99(xs: &[f64]) -> (f64, f64) {
    (median(xs), pct(xs, 0.99))
}
