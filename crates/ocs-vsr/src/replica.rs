//! The replica driver around the pure [`VsrCore`] engine, shared by every
//! replicated service: the name service, the Connection Manager and the
//! cluster service controller each run one [`Replica`] and differ only in
//! their [`ReplicaHooks`].
//!
//! The driver owns everything the engine leaves out: the ORB endpoint,
//! the replica-to-replica peer protocol, the heartbeat / view-change /
//! recovery loop, the client-op path (sequence as primary, forward as
//! backup, poll the viewstamped outcome) and the telemetry and flight
//! recorder entries for engine events. Engine methods are only ever
//! called with the engine lock held and no RPC in flight; every peer
//! call happens with the lock released.
//!
//! The peer protocol is declared once, here. Its wire surface is fixed
//! per service by [`Names::peer_type`] (the type id derives from it);
//! method ids, argument order and result encodings are common:
//!
//! | id | method              | arguments                                   | result            |
//! |----|---------------------|---------------------------------------------|-------------------|
//! | 1  | `prepare`           | view, entry_view, op_num, commit_num, op    | [`PeerAck`]       |
//! | 2  | `commit_hb`         | view, commit_num                            | [`PeerAck`]       |
//! | 3  | `start_view_change` | view, forced                                | [`SvcAck`]        |
//! | 4  | `do_view_change`    | [`DoViewChange`]                            | `()`              |
//! | 5  | `start_view`        | [`StartView`]                               | [`PeerAck`]       |
//! | 6  | `get_state`         | from_op                                     | [`StateTransfer`] |
//! | 7  | forward             | op                                          | the op's outcome  |
//! | 8  | `view_change_go`    | view                                        | `()`              |
//!
//! `prepare` carries the sender's current view (which gates acceptance)
//! next to the view that originally sequenced the entry (which the log
//! records), so a re-send never re-stamps an entry. Joining a view
//! change (`start_view_change`) does not release the joiner's
//! `DoViewChange`: that waits for the initiator's `view_change_go`,
//! sent only once a majority joined.

use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use ocs_orb::{Caller, ClientCtx, NoAuth, ObjRef, Orb, OrbError, RpcFault, Servant, ThreadModel};
use ocs_sim::{Addr, NetError, NodeRtExt, PortReq, Rt, SimTime};
use ocs_telemetry::NodeTelemetry;
use ocs_wire::{Decoder, Encoder, Wire};
use parking_lot::{Mutex, MutexGuard};

use crate::{
    DoViewChange, Machine, OpOutcome, PeerAck, Prepare, StartView, StateTransfer, SubmitRoute,
    SvcAck, VsrCore, VsrEvent,
};

/// Object id of the peer-protocol servant on every replica's ORB (the
/// service's client-facing servant is the root object, id 0).
const PEER_OBJ: u64 = 1;
/// Entries re-sent to one lagging backup per heartbeat round.
const RESEND_BATCH: usize = 32;

const PREPARE: u32 = 1;
const COMMIT_HB: u32 = 2;
const START_VIEW_CHANGE: u32 = 3;
const DO_VIEW_CHANGE: u32 = 4;
const START_VIEW: u32 = 5;
const GET_STATE: u32 = 6;
const FORWARD: u32 = 7;
const VIEW_CHANGE_GO: u32 = 8;

/// Configuration of one replica-group member.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// This replica's index into `peers`.
    pub replica_id: u32,
    /// The request endpoints of all replicas (including this one).
    pub peers: Vec<Addr>,
    /// Primary → backup heartbeat period.
    pub heartbeat_interval: Duration,
    /// Base primary-suspect timeout: how long a backup tolerates primary
    /// silence before proposing a view change (staggered per replica
    /// id, see [`ReplicaConfig::suspect_timeout`]).
    pub election_timeout: Duration,
    /// Timeout for replica-to-replica calls.
    pub peer_timeout: Duration,
    /// Committed log entries retained past the commit point for peer
    /// catch-up; a replica further behind recovers by snapshot transfer.
    pub log_retention: u64,
}

impl ReplicaConfig {
    /// The deployed fail-over parameters (§9.7): 2 s heartbeats, a 5 s
    /// suspect timeout, 800 ms peer calls.
    pub fn paper_defaults(replica_id: u32, peers: Vec<Addr>) -> ReplicaConfig {
        ReplicaConfig {
            replica_id,
            peers,
            heartbeat_interval: Duration::from_secs(2),
            election_timeout: Duration::from_secs(5),
            peer_timeout: Duration::from_millis(800),
            log_retention: 512,
        }
    }

    /// This replica's effective suspect timeout: the base plus an
    /// id-proportional stagger (half a heartbeat per id), so the lowest
    /// live backup usually proposes the view change alone.
    pub fn suspect_timeout(&self) -> Duration {
        self.election_timeout + (self.heartbeat_interval / 2) * self.replica_id
    }
}

/// Why a replica could not complete a client op. Each service maps
/// these onto its own error type ([`ReplicaHooks::unavailable`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unavailable {
    /// Nobody here can sequence the op: a view change is in progress or
    /// the primary lost its quorum.
    NoMaster,
    /// The op was sequenced but no majority acknowledged it before the
    /// deadline. It may still commit after a heal.
    NoQuorum,
    /// A view change committed a different op at this op number; the
    /// caller's op may be lost.
    Superseded,
}

/// The names a replica group shows the outside world. Each is part of a
/// stable surface — wire type ids, metric names, journal channels — so
/// they are fixed per service.
#[derive(Clone, Copy, Debug)]
pub struct Names {
    /// Type name of the peer interface; its type id derives from it.
    pub peer_type: &'static str,
    /// Name of peer method 7 (forward a client op to the primary), for
    /// span names.
    pub forward: &'static str,
    /// Metric prefix: the driver's metrics are `<metrics>.vsr.*`.
    pub metrics: &'static str,
    /// Flight-recorder channel of the driver's journal entries.
    pub journal: &'static str,
    /// Prefix of debug trace lines.
    pub trace: &'static str,
    /// Name of the driver process.
    pub process: &'static str,
    /// How journal entries and panics name one replica.
    pub replica: &'static str,
}

/// What a replicated service plugs into the shared [`Replica`] driver:
/// its machine, its names, its error type, and the few places where the
/// services genuinely differ.
pub trait ReplicaHooks: Send + Sync + Sized + 'static {
    /// The replicated state machine.
    type Machine: Machine<
            Op: Wire + Send + 'static,
            Snap: Wire + Send + 'static,
            Outcome = Result<Self::Ok, Self::Err>,
        > + Send
        + 'static;
    /// A committed op's client-visible result.
    type Ok: Wire + Send + 'static;
    /// The service's error type (also carries transport failures).
    type Err: Wire + RpcFault + Send + 'static;
    /// Service-side feeds drained from the machine, under the engine
    /// lock, whenever an engine call produced events.
    type Drained;

    /// The group's names.
    const NAMES: Names;

    /// Maps a driver-level failure onto the service's error type.
    fn unavailable(why: Unavailable) -> Self::Err;

    /// Stamps the sequencing primary's clock into an op before it is
    /// sequenced or forwarded. Machines that keep no time ignore it.
    fn stamp(&self, _op: &mut Op<Self>, _now_us: u64) {}

    /// An op the master submits every `interval` (for example a lease
    /// expiry tick), if any.
    fn periodic_op(&self) -> Option<(Duration, Op<Self>)> {
        None
    }

    /// Drains the machine's non-replicated feeds after engine events.
    fn drain(&self, machine: &mut Self::Machine) -> Self::Drained;

    /// Per-commit side effects, run after every engine call that
    /// produced `events` (with the engine lock released) and before the
    /// driver's own telemetry for them.
    fn on_events(
        replica: &Arc<Replica<Self>>,
        drained: Self::Drained,
        events: &[VsrEvent<Op<Self>>],
    );
}

/// The op type of a hooks implementation's machine.
pub type Op<H> = <<H as ReplicaHooks>::Machine as Machine>::Op;
type Snap<H> = <<H as ReplicaHooks>::Machine as Machine>::Snap;

/// Driver-side bookkeeping next to the engine.
struct Driver {
    /// Last heartbeat round the primary ran.
    last_hb_round: SimTime,
    /// When the ongoing view change was first suspected (fail-over
    /// latency clock, reported on `<metrics>.vsr.view_change_us`).
    vc_started: Option<SimTime>,
    /// Last periodic op this master submitted.
    last_periodic: SimTime,
}

/// Metric names, formatted once.
struct MetricNames {
    commits: String,
    suspects: String,
    view_changes: String,
    view: String,
    view_change_us: String,
    vc_aborted: String,
    transfer_snapshot: String,
    transfer_log: String,
    superseded: String,
    commit_gap: String,
}

impl MetricNames {
    fn new(prefix: &str) -> MetricNames {
        let m = |name: &str| format!("{prefix}.vsr.{name}");
        MetricNames {
            commits: m("commits"),
            suspects: m("suspects"),
            view_changes: m("view_changes"),
            view: m("view"),
            view_change_us: m("view_change_us"),
            vc_aborted: m("vc_aborted"),
            transfer_snapshot: m("state_transfer_snapshot"),
            transfer_log: m("state_transfer_log"),
            superseded: m("superseded"),
            commit_gap: m("commit_gap"),
        }
    }
}

/// One member of a replica group: the engine, the driver loop, and the
/// peer protocol servant.
pub struct Replica<H: ReplicaHooks> {
    rt: Rt,
    cfg: ReplicaConfig,
    hooks: H,
    st: Mutex<VsrCore<H::Machine>>,
    drv: Mutex<Driver>,
    orb: Mutex<Weak<Orb>>,
    metrics: MetricNames,
    /// Client span names of the peer methods, `<peer_type>.<method>`.
    op_names: Vec<String>,
}

impl<H: ReplicaHooks> Replica<H> {
    /// Opens the replica's endpoint, exports `root(&replica)` as the
    /// root object and the peer protocol next to it, and spawns the
    /// driver loop. Both objects are exported at the stable incarnation,
    /// so their references survive replica restarts. The replica holds
    /// its ORB weakly: the ORB's servants hold the replica.
    pub fn start(
        rt: Rt,
        cfg: ReplicaConfig,
        machine: H::Machine,
        hooks: H,
        root: impl FnOnce(&Arc<Self>) -> Arc<dyn Servant>,
    ) -> Result<Arc<Self>, NetError> {
        let names = H::NAMES;
        let my_addr = cfg.peers[cfg.replica_id as usize];
        assert_eq!(
            my_addr.node,
            rt.node(),
            "{} {} configured for a different node",
            names.replica,
            cfg.replica_id
        );
        let now = rt.now();
        let engine = VsrCore::with_machine(
            machine,
            cfg.replica_id,
            cfg.peers.len(),
            cfg.log_retention,
            cfg.suspect_timeout(),
            now,
        );
        let core = Arc::new(Replica {
            rt: rt.clone(),
            cfg,
            hooks,
            st: Mutex::new(engine),
            drv: Mutex::new(Driver {
                last_hb_round: now,
                vc_started: None,
                last_periodic: now,
            }),
            orb: Mutex::new(Weak::new()),
            metrics: MetricNames::new(names.metrics),
            op_names: (PREPARE..=VIEW_CHANGE_GO)
                .map(|m| format!("{}.{}", names.peer_type, method_name::<H>(m)))
                .collect(),
        });
        let orb = Orb::build(
            rt.clone(),
            PortReq::Fixed(my_addr.port),
            ThreadModel::PerRequest,
            Some(ObjRef::STABLE),
            Arc::new(NoAuth),
        )?;
        *core.orb.lock() = Arc::downgrade(&orb);
        orb.export_at(0, root(&core));
        orb.export_at(PEER_OBJ, Arc::new(PeerServant(Arc::clone(&core))));
        orb.start();
        if core.st.lock().in_probation() {
            NodeTelemetry::of(&*rt).journal.record(
                rt.now(),
                names.journal,
                format!(
                    "{} {} starting in recovery probation",
                    names.replica, core.cfg.replica_id
                ),
            );
        }
        let c = Arc::clone(&core);
        rt.spawn_fn(names.process, move || c.vsr_loop());
        Ok(core)
    }

    /// The node runtime.
    pub fn rt(&self) -> &Rt {
        &self.rt
    }

    /// The group configuration.
    pub fn config(&self) -> &ReplicaConfig {
        &self.cfg
    }

    /// The service's hooks (and whatever state it keeps in them).
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// Locks the engine for a read of the replicated state. Do not make
    /// RPCs or call back into the replica while holding it.
    pub fn engine(&self) -> MutexGuard<'_, VsrCore<H::Machine>> {
        self.st.lock()
    }

    /// The replica's ORB, while it is alive.
    pub fn orb(&self) -> Option<Arc<Orb>> {
        self.orb.lock().upgrade()
    }

    /// A stable reference to object `object_id` on this replica's ORB.
    pub fn stable_ref(&self, type_id: u32, object_id: u64) -> ObjRef {
        ObjRef {
            addr: self.cfg.peers[self.cfg.replica_id as usize],
            incarnation: ObjRef::STABLE,
            type_id,
            object_id,
        }
    }

    /// A client context for calls to peers and other services, bounded
    /// by the peer timeout.
    pub fn client_ctx(&self) -> ClientCtx {
        ClientCtx::new(self.rt.clone()).with_timeout(self.cfg.peer_timeout)
    }

    /// Whether this replica is currently the view primary with a quorum
    /// (the VSR notion of the paper's "master").
    pub fn is_master(&self) -> bool {
        self.st.lock().is_master()
    }

    /// Whether the replica is still in start-up/recovery probation.
    pub fn in_probation(&self) -> bool {
        self.st.lock().in_probation()
    }

    /// One-line engine state dump for test failure diagnostics.
    pub fn debug_status(&self) -> String {
        let st = self.st.lock();
        format!(
            "view={} status={:?} primary={} master={} probation={} catchup={} op={} commit={}",
            st.view(),
            st.status(),
            st.is_primary(),
            st.is_master(),
            st.in_probation(),
            st.needs_catchup(),
            st.op_num(),
            st.commit_num(),
        )
    }

    fn peer(&self, peer: u32) -> Peer<'_, H> {
        Peer {
            r: self,
            ctx: self.client_ctx(),
            target: ObjRef {
                addr: self.cfg.peers[peer as usize],
                incarnation: ObjRef::STABLE,
                type_id: ocs_wire::type_id_of(H::NAMES.peer_type),
                object_id: PEER_OBJ,
            },
        }
    }

    fn peer_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.cfg.peers.len() as u32).filter(move |i| *i != self.cfg.replica_id)
    }

    fn primary_of(&self, view: u64) -> u32 {
        (view % self.cfg.peers.len() as u64) as u32
    }

    /// Runs `f` against the engine, then post-processes the events it
    /// produced: the service's side effects first, then the driver's
    /// telemetry.
    fn with_engine<R>(self: &Arc<Self>, f: impl FnOnce(&mut VsrCore<H::Machine>) -> R) -> R {
        let (out, events, drained, probation_ended) = {
            let mut st = self.st.lock();
            let before = st.in_probation();
            let out = f(&mut st);
            let ended = before && !st.in_probation();
            let events = st.take_events();
            let drained = (!events.is_empty()).then(|| self.hooks.drain(st.state_mut()));
            (out, events, drained, ended)
        };
        if probation_ended {
            // Both exit paths (recovery-quorum probe and StartView)
            // funnel through here, so the flight recorder sees every one.
            NodeTelemetry::of(&*self.rt).journal.record(
                self.rt.now(),
                H::NAMES.journal,
                "recovery probation ended",
            );
        }
        if let Some(drained) = drained {
            H::on_events(self, drained, &events);
            self.apply_events(events);
        }
        out
    }

    /// Engine-event telemetry and flight-recorder entries.
    fn apply_events(&self, events: Vec<VsrEvent<Op<H>>>) {
        let names = H::NAMES;
        let m = &self.metrics;
        let tel = NodeTelemetry::of(&*self.rt);
        let reg = &tel.registry;
        let journal = |detail: String| tel.journal.record(self.rt.now(), names.journal, detail);
        for ev in events {
            match ev {
                VsrEvent::Committed { .. } => reg.counter(&m.commits).inc(),
                VsrEvent::Suspected { view } => {
                    reg.counter(&m.suspects).inc();
                    let started = {
                        let mut drv = self.drv.lock();
                        let fresh = drv.vc_started.is_none();
                        if fresh {
                            drv.vc_started = Some(self.rt.now());
                        }
                        fresh
                    };
                    if started {
                        journal(format!("view change started: proposing view {view}"));
                    }
                    self.rt.trace(&format!(
                        "{}: vsr suspect, proposing view {view}",
                        names.trace
                    ));
                }
                VsrEvent::ViewChanged { view, primary } => {
                    reg.counter(&m.view_changes).inc();
                    reg.gauge(&m.view).set(view as i64);
                    if let Some(started) = self.drv.lock().vc_started.take() {
                        let us = self.rt.now().saturating_since(started).as_micros() as u64;
                        reg.histo(&m.view_change_us).observe(us);
                    }
                    journal(format!(
                        "view change committed: view {view} primary {primary}"
                    ));
                    self.rt.trace(&format!(
                        "{}: vsr entered view {view} (primary {primary})",
                        names.trace
                    ));
                }
                VsrEvent::Aborted { view } => {
                    reg.counter(&m.vc_aborted).inc();
                    self.drv.lock().vc_started = None;
                    journal(format!(
                        "view change to {view} aborted: primary still healthy"
                    ));
                    self.rt.trace(&format!(
                        "{}: vsr view change to {view} aborted (primary still healthy)",
                        names.trace
                    ));
                }
                VsrEvent::CaughtUp { via_snapshot } => {
                    let (counter, detail) = if via_snapshot {
                        (
                            &m.transfer_snapshot,
                            "caught up via snapshot state transfer",
                        )
                    } else {
                        (&m.transfer_log, "caught up via log replay")
                    };
                    reg.counter(counter).inc();
                    tel.journal.record(self.rt.now(), names.journal, detail);
                }
            }
        }
    }

    // ---- client-op path ------------------------------------------------

    /// Sequences and replicates an op as the view primary: broadcast the
    /// prepare, then wait for the majority commit.
    fn drive_prepare(self: &Arc<Self>, prep: Prepare<Op<H>>) -> Result<H::Ok, H::Err> {
        for i in self.peer_ids() {
            let ack = self.peer(i).prepare(
                prep.view,
                prep.view,
                prep.op_num,
                prep.commit_num,
                &prep.update,
            );
            if let Ok(ack) = ack {
                self.with_engine(|c| c.on_ack(i, &ack));
            }
        }
        // The acks usually commit the op synchronously above; under
        // partial connectivity a later round's piggybacked watermark may
        // close the gap, so poll briefly before giving up. The poll is
        // keyed by the viewstamp `(view, op)` we sequenced, never the op
        // number alone: if we are deposed mid-poll and a view change
        // commits a *different* op at our op number, the client must
        // hear failure — its op may be lost — not the replacement's
        // success.
        let deadline = self.rt.now() + self.cfg.peer_timeout * 2;
        loop {
            match self.st.lock().outcome_of(prep.view, prep.op_num) {
                OpOutcome::Done(result) => return result,
                OpOutcome::Superseded => {
                    NodeTelemetry::of(&*self.rt)
                        .registry
                        .counter(&self.metrics.superseded)
                        .inc();
                    return Err(H::unavailable(Unavailable::Superseded));
                }
                OpOutcome::Pending => {}
            }
            if self.rt.now() >= deadline {
                // Sequenced but not committed: no quorum reachable.
                // Clients treat this like a master outage and retry.
                return Err(H::unavailable(Unavailable::NoQuorum));
            }
            self.rt.sleep(self.cfg.heartbeat_interval / 8);
        }
    }

    /// Sequences an op on this replica as primary, without forwarding.
    /// The primary re-stamps the op with its own clock so a forwarding
    /// backup's (or a retrying client's) stale stamp never enters the
    /// log.
    pub fn master_submit(self: &Arc<Self>, mut op: Op<H>) -> Result<H::Ok, H::Err> {
        self.hooks.stamp(&mut op, self.rt.now().as_micros());
        match self.with_engine(|c| c.client_op(op)) {
            Ok(prep) => self.drive_prepare(prep),
            Err(_) => Err(H::unavailable(Unavailable::NoMaster)),
        }
    }

    /// Routes a client op: sequence here if primary, forward to the
    /// primary if backup. Fails fast mid-view-change; the client retries
    /// (§8.2), idempotently where the op carries a token.
    pub fn submit(self: &Arc<Self>, mut op: Op<H>) -> Result<H::Ok, H::Err> {
        self.hooks.stamp(&mut op, self.rt.now().as_micros());
        match self.with_engine(|c| c.client_op(op.clone())) {
            Ok(prep) => self.drive_prepare(prep),
            Err(SubmitRoute::Forward(p)) => self.peer(p).forward(&op),
            Err(SubmitRoute::Unavailable) => Err(H::unavailable(Unavailable::NoMaster)),
        }
    }

    // ---- driver loop ---------------------------------------------------

    fn vsr_loop(self: Arc<Self>) {
        let tick = self.cfg.heartbeat_interval / 4;
        // Desynchronize the replicas' ticks.
        self.rt.sleep(self.rt.rand_jitter(tick));
        loop {
            enum Act {
                Probe,
                HeartbeatRound,
                CatchUp,
                ViewChange,
                Nothing,
            }
            let act = {
                let st = self.st.lock();
                let now = self.rt.now();
                if st.in_probation() {
                    Act::Probe
                } else if st.needs_catchup() {
                    // Must outrank the heartbeat arm: a stale primary
                    // that has learned of a higher view would otherwise
                    // heartbeat its dead view forever instead of
                    // catching up (found by the model-based proptest).
                    Act::CatchUp
                } else if st.is_primary() {
                    let mut drv = self.drv.lock();
                    if now.saturating_since(drv.last_hb_round) >= self.cfg.heartbeat_interval {
                        drv.last_hb_round = now;
                        Act::HeartbeatRound
                    } else {
                        Act::Nothing
                    }
                } else if st.suspects(now) || st.vc_stuck(now) {
                    Act::ViewChange
                } else {
                    Act::Nothing
                }
            };
            match act {
                Act::Probe => self.recovery_probe(),
                Act::HeartbeatRound => self.heartbeat_round(),
                Act::CatchUp => self.catch_up(),
                Act::ViewChange => self.run_view_change(),
                Act::Nothing => {}
            }
            self.periodic_tick();
            {
                let st = self.st.lock();
                let reg = &NodeTelemetry::of(&*self.rt).registry;
                reg.gauge(&self.metrics.view).set(st.view() as i64);
                reg.gauge(&self.metrics.commit_gap)
                    .set(st.commit_gap() as i64);
            }
            self.rt.sleep(tick);
        }
    }

    /// Submits the service's periodic op as the master once its interval
    /// has passed. Replicating the tick puts its effects (such as lease
    /// expiry) at the same log position on every replica.
    fn periodic_tick(self: &Arc<Self>) {
        let Some((interval, op)) = self.hooks.periodic_op() else {
            return;
        };
        let due = {
            let st = self.st.lock();
            if !st.is_master() {
                return;
            }
            let now = self.rt.now();
            let mut drv = self.drv.lock();
            let due = now.saturating_since(drv.last_periodic) >= interval;
            if due {
                drv.last_periodic = now;
            }
            due
        };
        if due {
            let _ = self.master_submit(op);
        }
    }

    /// One primary heartbeat round: broadcast the commit point, absorb
    /// the watermark acks, re-send log entries to lagging backups, and
    /// track quorum contact (§4.6 step-down on lost quorum).
    fn heartbeat_round(self: &Arc<Self>) {
        let (view, commit, op_num) = {
            let st = self.st.lock();
            if !st.is_primary() {
                return;
            }
            (st.view(), st.commit_num(), st.op_num())
        };
        let mut acked = 0;
        for i in self.peer_ids() {
            let Ok(ack) = self.peer(i).commit_hb(view, commit) else {
                continue;
            };
            self.with_engine(|c| c.on_ack(i, &ack));
            if ack.view == view && ack.accepted {
                acked += 1;
                if ack.op_num < op_num {
                    self.resend_to(i, view, ack.op_num);
                }
            }
        }
        self.with_engine(|c| c.note_round(acked));
    }

    /// Re-sends the log suffix after `from` to one lagging backup
    /// (bounded per round; state transfer covers bigger gaps).
    fn resend_to(self: &Arc<Self>, peer: u32, view: u64, from: u64) {
        let entries = {
            let st = self.st.lock();
            if !st.is_primary() || st.view() != view {
                return;
            }
            st.entries_from(from + 1)
        };
        // `None` means the suffix was compacted: the backup's gap spans
        // the retention window and it will request a snapshot itself.
        let Some(entries) = entries else { return };
        let client = self.peer(peer);
        for e in entries.into_iter().take(RESEND_BATCH) {
            let commit = self.st.lock().commit_num();
            // Sender view and the entry's original view travel
            // separately: a re-send never re-stamps the entry.
            let Ok(ack) = client.prepare(view, e.view, e.op, commit, &e.update) else {
                return;
            };
            self.with_engine(|c| c.on_ack(peer, &ack));
            if !ack.accepted {
                return;
            }
        }
    }

    /// Proposes (or re-proposes) a view change: broadcast the proposal,
    /// and either complete it or revert. Only after a majority has
    /// joined does anyone emit a `DoViewChange` — the initiator tells
    /// each joiner to release its payload (`view_change_go`) and then
    /// releases its own. Emitting earlier is unsafe: a payload from a
    /// replica that later reverts to an older view could complete the
    /// change with a log that omits ops newly committed there.
    fn run_view_change(self: &Arc<Self>) {
        let now = self.rt.now();
        let (proposed, forced) = self.with_engine(|c| {
            let v = c.begin_view_change(now);
            (v, c.vc_forced())
        });
        let mut joined = 1; // self
        let mut joiners = Vec::new();
        for i in self.peer_ids() {
            match self.peer(i).start_view_change(proposed, forced) {
                Ok(ack) if ack.joined => {
                    joined += 1;
                    joiners.push(i);
                }
                Ok(ack) => self.with_engine(|c| c.note_view(ack.view)),
                Err(_) => {}
            }
        }
        let majority = self.cfg.peers.len() / 2 + 1;
        if joined < majority {
            let now = self.rt.now();
            self.with_engine(|c| c.abort_view_change(proposed, now));
            return;
        }
        // Quorum joined: release the DoViewChanges toward the new
        // primary — the joiners' first, then our own.
        for i in joiners {
            let _ = self.peer(i).view_change_go(proposed);
        }
        if let Some(dvc) = self.with_engine(|c| c.emit_dvc(proposed)) {
            self.deliver_dvc(self.primary_of(proposed), dvc);
        }
    }

    /// Routes a `DoViewChange` to the new primary — locally when that is
    /// this replica, by RPC otherwise.
    fn deliver_dvc(self: &Arc<Self>, new_primary: u32, dvc: DoViewChange<Op<H>, Snap<H>>) {
        if new_primary == self.cfg.replica_id {
            let now = self.rt.now();
            if let Some(sv) = self.with_engine(|c| c.on_do_view_change(dvc, now)) {
                self.broadcast_start_view(sv);
            }
        } else {
            let _ = self.peer(new_primary).do_view_change(&dvc);
        }
    }

    /// New primary → backups: announce the chosen log. The acks double
    /// as prepare-oks, so the carried tail usually commits in-round.
    fn broadcast_start_view(self: &Arc<Self>, sv: StartView<Op<H>, Snap<H>>) {
        for i in self.peer_ids() {
            if let Ok(ack) = self.peer(i).start_view(&sv) {
                self.with_engine(|c| c.on_ack(i, &ack));
            }
        }
        self.drv.lock().last_hb_round = self.rt.now();
    }

    /// Collects `get_state` answers from every reachable peer. Only
    /// *authoritative* answers (Normal, out-of-probation responders)
    /// count toward `countable` and compete for `best`: a probationary
    /// or view-changing peer's log proves nothing about what committed.
    /// Genuinely cold answers (empty, view 0 — a cold-starting group)
    /// count toward `countable` but carry no state. Among authoritative
    /// answers the `(view, op_num, commit_num)` maximum is taken, which
    /// is the latest-view primary's log whenever the primary answered
    /// (a backup never out-runs its primary within a view) — the VSR
    /// recovery preference.
    fn poll_peers_state(self: &Arc<Self>) -> PeerPoll<H> {
        let commit = self.st.lock().commit_num();
        let mut poll = PeerPoll {
            answers: 0,
            countable: 0,
            best: None,
        };
        for i in self.peer_ids() {
            let Ok(st) = self.peer(i).get_state(commit) else {
                continue;
            };
            poll.answers += 1;
            if st.is_cold() {
                poll.countable += 1;
                continue;
            }
            if !st.authoritative() {
                continue;
            }
            poll.countable += 1;
            let better = match &poll.best {
                None => true,
                Some(b) => (st.view, st.op_num, st.commit_num) > (b.view, b.op_num, b.commit_num),
            };
            if better {
                poll.best = Some(st);
            }
        }
        poll
    }

    /// Routine state transfer for a replica that saw a gap or a higher
    /// view. Installs only authoritative (Normal-responder) state.
    fn catch_up(self: &Arc<Self>) {
        let poll = self.poll_peers_state();
        if poll.answers == 0 {
            return; // Nobody reachable; retry next tick.
        }
        if let Some(best) = poll.best {
            let now = self.rt.now();
            self.with_engine(|c| {
                c.on_state_transfer(best, now);
            });
        }
    }

    /// Start-up recovery: a (re)starting replica's log may have died
    /// with it, so it stays in probation — not acking, leading or
    /// joining view changes — until a recovery quorum of peers has
    /// answered *authoritatively* and the freshest such answer is
    /// installed. Any committed op appears in at least one of any `f+1`
    /// Normal peers' logs; answers from probationary or view-changing
    /// peers prove nothing and do not count (a group cold-starting in
    /// unison bootstraps through the cold-answer carve-out instead).
    fn recovery_probe(self: &Arc<Self>) {
        let required = self.st.lock().recovery_quorum();
        let poll = self.poll_peers_state();
        if poll.countable < required {
            return; // Keep probing; StartView can also end probation.
        }
        let now = self.rt.now();
        self.with_engine(|c| {
            if !c.in_probation() {
                return;
            }
            if let Some(best) = poll.best {
                c.on_state_transfer(best, now);
            }
            c.end_probation(now);
        });
    }

    // ---- peer-protocol handlers ----------------------------------------

    fn serve(self: &Arc<Self>, method: u32, d: &mut Decoder<'_>) -> Result<Bytes, OrbError> {
        fn arg<T: Wire>(d: &mut Decoder<'_>) -> Result<T, OrbError> {
            T::decode_from(d).map_err(|e| OrbError::Decode {
                what: e.to_string(),
            })
        }
        fn end(d: &Decoder<'_>) -> Result<(), OrbError> {
            d.expect_end().map_err(|e| OrbError::Decode {
                what: e.to_string(),
            })
        }
        fn reply<T: Wire, E: Wire>(r: Result<T, E>) -> Result<Bytes, OrbError> {
            Ok(r.to_bytes())
        }
        match method {
            PREPARE => {
                let (view, entry_view, op_num, commit_num) = (arg(d)?, arg(d)?, arg(d)?, arg(d)?);
                let update: Op<H> = arg(d)?;
                end(d)?;
                let now = self.rt.now();
                let ack = self.with_engine(|c| {
                    c.on_prepare(view, entry_view, op_num, commit_num, update, now)
                });
                reply(Ok::<_, H::Err>(ack))
            }
            COMMIT_HB => {
                let (view, commit_num) = (arg(d)?, arg(d)?);
                end(d)?;
                let now = self.rt.now();
                let ack = self.with_engine(|c| c.on_commit_hb(view, commit_num, now));
                reply(Ok::<_, H::Err>(ack))
            }
            START_VIEW_CHANGE => {
                let (view, forced) = (arg(d)?, arg(d)?);
                end(d)?;
                let now = self.rt.now();
                let ack = self.with_engine(|c| c.on_start_view_change(view, forced, now));
                reply(Ok::<_, H::Err>(ack))
            }
            DO_VIEW_CHANGE => {
                let dvc: DoViewChange<Op<H>, Snap<H>> = arg(d)?;
                end(d)?;
                let now = self.rt.now();
                if let Some(sv) = self.with_engine(|c| c.on_do_view_change(dvc, now)) {
                    self.broadcast_start_view(sv);
                }
                reply(Ok::<(), H::Err>(()))
            }
            START_VIEW => {
                let sv: StartView<Op<H>, Snap<H>> = arg(d)?;
                end(d)?;
                let now = self.rt.now();
                reply(Ok::<_, H::Err>(
                    self.with_engine(|c| c.on_start_view(sv, now)),
                ))
            }
            GET_STATE => {
                let from_op: u64 = arg(d)?;
                end(d)?;
                reply(Ok::<_, H::Err>(self.st.lock().on_get_state(from_op)))
            }
            FORWARD => {
                let op: Op<H> = arg(d)?;
                end(d)?;
                reply(self.master_submit(op))
            }
            VIEW_CHANGE_GO => {
                let view: u64 = arg(d)?;
                end(d)?;
                // The initiator saw a join majority for `view`: releasing
                // our DoViewChange is now safe — a majority has left
                // older views, so no new op can commit below `view`
                // behind our back.
                if let Some(dvc) = self.with_engine(|c| c.emit_dvc(view)) {
                    self.deliver_dvc(self.primary_of(view), dvc);
                }
                reply(Ok::<(), H::Err>(()))
            }
            _ => Err(OrbError::UnknownMethod),
        }
    }
}

/// Result of one `get_state` sweep over the peer set.
struct PeerPoll<H: ReplicaHooks> {
    /// Peers that answered at all (reachability signal).
    answers: usize,
    /// Answers that count toward a recovery quorum: authoritative
    /// (Normal) ones plus genuinely cold ones.
    countable: usize,
    /// Freshest authoritative answer by `(view, op_num, commit_num)`.
    best: Option<StateTransfer<Op<H>, Snap<H>>>,
}

fn method_name<H: ReplicaHooks>(method: u32) -> &'static str {
    match method {
        PREPARE => "prepare",
        COMMIT_HB => "commit_hb",
        START_VIEW_CHANGE => "start_view_change",
        DO_VIEW_CHANGE => "do_view_change",
        START_VIEW => "start_view",
        GET_STATE => "get_state",
        FORWARD => H::NAMES.forward,
        VIEW_CHANGE_GO => "view_change_go",
        _ => "?",
    }
}

/// Client side of the peer protocol: one peer, one client context.
struct Peer<'a, H: ReplicaHooks> {
    r: &'a Replica<H>,
    ctx: ClientCtx,
    target: ObjRef,
}

impl<H: ReplicaHooks> Peer<'_, H> {
    fn call<T: Wire>(&self, method: u32, args: impl FnOnce(&mut Encoder)) -> Result<T, H::Err> {
        let mut e = Encoder::new();
        args(&mut e);
        let op = &self.r.op_names[(method - 1) as usize];
        match self.ctx.call_named(&self.target, method, e.finish(), op) {
            Ok(body) => Result::<T, H::Err>::from_bytes(&body).unwrap_or_else(|we| {
                Err(H::Err::from_orb(OrbError::Decode {
                    what: we.to_string(),
                }))
            }),
            Err(orb) => Err(H::Err::from_orb(orb)),
        }
    }

    fn prepare(
        &self,
        view: u64,
        entry_view: u64,
        op_num: u64,
        commit_num: u64,
        update: &Op<H>,
    ) -> Result<PeerAck, H::Err> {
        self.call(PREPARE, |e| {
            view.encode_into(e);
            entry_view.encode_into(e);
            op_num.encode_into(e);
            commit_num.encode_into(e);
            update.encode_into(e);
        })
    }

    fn commit_hb(&self, view: u64, commit_num: u64) -> Result<PeerAck, H::Err> {
        self.call(COMMIT_HB, |e| {
            view.encode_into(e);
            commit_num.encode_into(e);
        })
    }

    fn start_view_change(&self, view: u64, forced: bool) -> Result<SvcAck, H::Err> {
        self.call(START_VIEW_CHANGE, |e| {
            view.encode_into(e);
            forced.encode_into(e);
        })
    }

    fn do_view_change(&self, dvc: &DoViewChange<Op<H>, Snap<H>>) -> Result<(), H::Err> {
        self.call(DO_VIEW_CHANGE, |e| dvc.encode_into(e))
    }

    fn start_view(&self, sv: &StartView<Op<H>, Snap<H>>) -> Result<PeerAck, H::Err> {
        self.call(START_VIEW, |e| sv.encode_into(e))
    }

    fn get_state(&self, from_op: u64) -> Result<StateTransfer<Op<H>, Snap<H>>, H::Err> {
        self.call(GET_STATE, |e| from_op.encode_into(e))
    }

    fn forward(&self, op: &Op<H>) -> Result<H::Ok, H::Err> {
        self.call(FORWARD, |e| op.encode_into(e))
    }

    fn view_change_go(&self, view: u64) -> Result<(), H::Err> {
        self.call(VIEW_CHANGE_GO, |e| view.encode_into(e))
    }
}

/// Server side of the peer protocol.
struct PeerServant<H: ReplicaHooks>(Arc<Replica<H>>);

impl<H: ReplicaHooks> Servant for PeerServant<H> {
    fn type_id(&self) -> u32 {
        ocs_wire::type_id_of(H::NAMES.peer_type)
    }

    fn type_name(&self) -> &'static str {
        H::NAMES.peer_type
    }

    fn method_name(&self, method: u32) -> &'static str {
        method_name::<H>(method)
    }

    fn dispatch(&self, _caller: &Caller, method: u32, args: &[u8]) -> Result<Bytes, OrbError> {
        self.0.serve(method, &mut Decoder::new(args))
    }
}
