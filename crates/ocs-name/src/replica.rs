//! One name-service replica (§4.6, rebuilt on Viewstamped Replication).
//!
//! A replica runs on every server node. All replicas answer `resolve`
//! and `list` from local state; every mutation flows through the
//! VSR-replicated update log: the view primary sequences it, broadcasts
//! `prepare`, commits at a majority of acks and applies committed
//! updates in order. Backups forward client updates to the primary.
//! When backups stop hearing from the primary they run a view change —
//! sub-second with the deployed timeouts, versus the ~25 s master
//! re-election window the paper measured — and a replica rejoining after
//! a crash recovers by state transfer: log replay while the peers still
//! retain the missing suffix, snapshot installation once compaction has
//! dropped it.
//!
//! The replication itself is the shared [`ocs_vsr::Replica`] driver; this
//! module supplies its [`ReplicaHooks`] (resolve-cache invalidation and
//! context-servant export on every commit) and the client-facing naming
//! servants with their local read path.
//!
//! The primary also runs the §4.7 audit: every `audit_interval` it asks
//! the liveness oracle (in the full system, the local Resource Audit
//! Service) about every bound object and unbinds the dead ones — the
//! mechanism that breaks a failed primary's binding so that a §5.2
//! backup's retried `bind` can succeed.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{Caller, ObjRef};
use ocs_sim::{Addr, NetError, NodeId, NodeRtExt, Rt, Semaphore};
use ocs_telemetry::NodeTelemetry;
use ocs_vsr::{Names, Replica, ReplicaConfig, ReplicaHooks, Unavailable, VsrEvent, VsrStatus};
use parking_lot::Mutex;

use crate::cache::ResolveCache;
use crate::iface::{NamingContext, NamingContextServant, SelectorClient, NAMING_TYPE_ID};
use crate::selector::eval_static;
use crate::state::{CtxId, NsState, ResolveOut, SelectorEval, ROOT_CTX};
use crate::types::{Binding, NsError, NsUpdate, SelectorSpec};

/// Object ids of non-root context servants start here.
const CTX_OBJ_BASE: u64 = 16;

/// Deciding liveness of bound objects for the audit (§4.7). The real
/// oracle is the local Resource Audit Service; tests may plug anything.
pub trait LivenessOracle: Send + Sync {
    /// For each `(path, object)` pair, report whether it is alive.
    fn check(&self, objs: &[(String, ObjRef)]) -> Vec<bool>;
}

/// An oracle that never declares anything dead (auditing disabled).
pub struct AlwaysAlive;

impl LivenessOracle for AlwaysAlive {
    fn check(&self, objs: &[(String, ObjRef)]) -> Vec<bool> {
        vec![true; objs.len()]
    }
}

/// Configuration of a name-service replica group member.
#[derive(Clone, Debug)]
pub struct NsConfig {
    /// This replica's index into `peers`.
    pub replica_id: u32,
    /// The request endpoints of all replicas (including this one).
    pub peers: Vec<Addr>,
    /// Primary → backup heartbeat period.
    pub heartbeat_interval: Duration,
    /// Base primary-suspect timeout: how long a backup tolerates primary
    /// silence before proposing a view change. Each replica adds a small
    /// id-proportional stagger so one backup moves first.
    pub election_timeout: Duration,
    /// How often the primary audits bound objects against the liveness
    /// oracle (the paper's "name service polls RAS every 10 seconds").
    pub audit_interval: Duration,
    /// Timeout for replica-to-replica calls.
    pub peer_timeout: Duration,
    /// Modelled CPU cost of one resolve/list, serialized per replica.
    pub resolve_cost: Duration,
    /// Committed log entries retained past the commit point for peer
    /// catch-up; a replica further behind recovers by snapshot transfer.
    pub log_retention: u64,
}

impl NsConfig {
    /// The paper's deployed parameters (§9.7) for a replica group.
    pub fn paper_defaults(replica_id: u32, peers: Vec<Addr>) -> NsConfig {
        let vsr = ReplicaConfig::paper_defaults(replica_id, peers);
        NsConfig {
            replica_id,
            peers: vsr.peers,
            heartbeat_interval: vsr.heartbeat_interval,
            election_timeout: vsr.election_timeout,
            audit_interval: Duration::from_secs(10),
            peer_timeout: vsr.peer_timeout,
            resolve_cost: Duration::from_micros(200),
            log_retention: vsr.log_retention,
        }
    }

    fn replica_config(&self) -> ReplicaConfig {
        ReplicaConfig {
            replica_id: self.replica_id,
            peers: self.peers.clone(),
            heartbeat_interval: self.heartbeat_interval,
            election_timeout: self.election_timeout,
            peer_timeout: self.peer_timeout,
            log_retention: self.log_retention,
        }
    }
}

/// The name service's hooks into the shared replica driver, plus the
/// per-replica state its read path and audit use.
struct Naming {
    resolve_cost: Duration,
    cpu: Semaphore,
    rr: AtomicU64,
    oracle: Mutex<Arc<dyn LivenessOracle>>,
    exported: Mutex<HashSet<CtxId>>,
}

type Core = Replica<Naming>;

impl ReplicaHooks for Naming {
    type Machine = NsState;
    type Ok = ();
    type Err = NsError;
    type Drained = ();

    const NAMES: Names = Names {
        peer_type: "ocs.ns-peer",
        forward: "forward_update",
        metrics: "ns",
        journal: "vsr",
        trace: "ns",
        process: "ns-vsr",
        replica: "replica",
    };

    fn unavailable(_why: Unavailable) -> NsError {
        // Every flavour reads as a master outage: the client's rebind
        // library retries (§8.2).
        NsError::NoMaster
    }

    fn drain(&self, _state: &mut NsState) {}

    /// Node-wide resolve-cache invalidation piggybacked on commit
    /// application, and servant export for new contexts.
    fn on_events(core: &Arc<Core>, _drained: (), events: &[VsrEvent<NsUpdate>]) {
        let reg = &NodeTelemetry::of(&**core.rt()).registry;
        let mut ctxs_changed = false;
        for ev in events {
            match ev {
                VsrEvent::Committed { update, .. } => {
                    let path = match update {
                        NsUpdate::Bind { path, .. }
                        | NsUpdate::Unbind { path }
                        | NsUpdate::NewContext { path }
                        | NsUpdate::NewReplContext { path, .. }
                        | NsUpdate::ReportLoad { path, .. } => path,
                    };
                    ResolveCache::of(&**core.rt()).invalidate(path);
                    reg.counter("ns.vsr.cache_invalidations").inc();
                    ctxs_changed |= matches!(
                        update,
                        NsUpdate::NewContext { .. } | NsUpdate::NewReplContext { .. }
                    );
                }
                VsrEvent::CaughtUp { .. } => ctxs_changed = true,
                _ => {}
            }
        }
        if ctxs_changed {
            sync_ctx_exports(core);
        }
    }
}

/// A running name-service replica.
pub struct NsReplica {
    core: Arc<Core>,
}

impl NsReplica {
    /// Opens the replica's endpoint, exports the root context and peer
    /// objects, and spawns the VSR and audit processes.
    pub fn start(
        rt: Rt,
        cfg: NsConfig,
        oracle: Arc<dyn LivenessOracle>,
    ) -> Result<Arc<NsReplica>, NetError> {
        let hooks = Naming {
            resolve_cost: cfg.resolve_cost,
            cpu: Semaphore::new(&rt, 1),
            rr: AtomicU64::new(0),
            oracle: Mutex::new(oracle),
            exported: Mutex::new(HashSet::new()),
        };
        let core = Replica::start(
            rt.clone(),
            cfg.replica_config(),
            NsState::default(),
            hooks,
            |core| {
                Arc::new(NamingContextServant(Arc::new(CtxView {
                    core: Arc::clone(core),
                    ctx: ROOT_CTX,
                })))
            },
        )?;
        let c = Arc::clone(&core);
        rt.spawn_fn("ns-audit", move || audit_loop(c, cfg.audit_interval));
        Ok(Arc::new(NsReplica { core }))
    }

    /// The stable reference to this replica's root context (valid across
    /// replica restarts — the paper's name-service exception to the
    /// reference-lifetime rule, §3.2.1).
    pub fn root_ref(&self) -> ObjRef {
        ctx_objref(&self.core, ROOT_CTX)
    }

    /// Whether this replica is currently the view primary with a quorum
    /// (the VSR notion of the paper's "master").
    pub fn is_master(&self) -> bool {
        self.core.is_master()
    }

    /// Whether the replica is still in start-up/recovery probation.
    pub fn in_probation(&self) -> bool {
        self.core.in_probation()
    }

    /// One-line engine state dump for test failure diagnostics.
    pub fn debug_status(&self) -> String {
        self.core.debug_status()
    }

    /// Replaces the liveness oracle (wired to the local RAS at cluster
    /// start-up, after the RAS itself is running).
    pub fn set_oracle(&self, oracle: Arc<dyn LivenessOracle>) {
        *self.core.hooks().oracle.lock() = oracle;
    }
}

impl ocs_vsr::GroupMember for NsReplica {
    fn is_master(&self) -> bool {
        self.core.is_master()
    }

    fn in_probation(&self) -> bool {
        self.core.in_probation()
    }

    fn debug_status(&self) -> String {
        NsReplica::debug_status(self)
    }
}

fn ctx_objref(core: &Core, ctx: CtxId) -> ObjRef {
    let object_id = if ctx == ROOT_CTX {
        0
    } else {
        CTX_OBJ_BASE + ctx
    };
    core.stable_ref(NAMING_TYPE_ID, object_id)
}

/// Ensures a context servant is exported for every live context id.
fn sync_ctx_exports(core: &Arc<Core>) {
    let Some(orb) = core.orb() else {
        return;
    };
    let ids: Vec<CtxId> = core.engine().state().context_ids();
    let mut exported = core.hooks().exported.lock();
    for id in ids {
        if id != ROOT_CTX && !exported.contains(&id) {
            orb.export_at(
                CTX_OBJ_BASE + id,
                Arc::new(NamingContextServant(Arc::new(CtxView {
                    core: Arc::clone(core),
                    ctx: id,
                }))),
            );
            exported.insert(id);
        }
    }
}

fn audit_loop(core: Arc<Core>, interval: Duration) {
    let rt = core.rt().clone();
    loop {
        rt.sleep(interval);
        if !core.is_master() {
            continue;
        }
        let leaves: Vec<(String, ObjRef)> = core
            .engine()
            .state()
            .collect_leaves()
            .into_iter()
            // Stable references (other name-service contexts) survive
            // restarts and are not auditable by incarnation; skip them.
            .filter(|(_, obj)| obj.incarnation != ObjRef::STABLE)
            .collect();
        if leaves.is_empty() {
            continue;
        }
        let oracle = Arc::clone(&*core.hooks().oracle.lock());
        let alive = oracle.check(&leaves);
        for ((path, _), alive) in leaves.iter().zip(alive) {
            if !alive {
                rt.trace(&format!("ns: audit removing dead {path}"));
                NodeTelemetry::of(&*rt)
                    .registry
                    .counter("ns.server.audit_removed")
                    .inc();
                let _ = core.master_submit(NsUpdate::Unbind { path: path.clone() });
            }
        }
    }
}

/// Selector evaluation with remote-selector support.
struct ReplicaEval<'a> {
    core: &'a Core,
}

impl SelectorEval for ReplicaEval<'_> {
    fn select(
        &mut self,
        spec: &SelectorSpec,
        caller: NodeId,
        candidates: &[Binding],
    ) -> Option<usize> {
        match spec {
            SelectorSpec::Remote { selector } => {
                let client = SelectorClient::attach(self.core.client_ctx(), *selector).ok()?;
                let idx = client.select(caller, candidates.to_vec()).ok()? as usize;
                (idx < candidates.len()).then_some(idx)
            }
            other => {
                let rr = &self.core.hooks().rr;
                let mut next = rr.load(Ordering::Relaxed);
                let out = eval_static(other, caller, candidates, &mut next);
                rr.store(next, Ordering::Relaxed);
                out
            }
        }
    }
}

/// Servant view of one context (exported per context id).
struct CtxView {
    core: Arc<Core>,
    ctx: CtxId,
}

impl CtxView {
    /// Absolute path of a name bound in this context.
    fn abs_path(&self, name: &str) -> Result<String, NsError> {
        match self.core.engine().state().path_of_ctx(self.ctx) {
            Some(prefix) if prefix.is_empty() => Ok(name.to_string()),
            Some(prefix) => Ok(format!("{prefix}/{name}")),
            None => Err(NsError::NotFound {
                name: name.to_string(),
            }),
        }
    }

    fn submit(&self, name: &str, update: impl FnOnce(String) -> NsUpdate) -> Result<(), NsError> {
        let path = self.abs_path(name)?;
        self.core.submit(update(path))
    }

    fn read_state(&self) -> NsState {
        self.core.engine().state().clone()
    }

    fn charge_resolve(&self) {
        let hooks = self.core.hooks();
        if hooks.resolve_cost > Duration::ZERO {
            hooks.cpu.acquire();
            self.core.rt().busy(hooks.resolve_cost);
            hooks.cpu.release();
        }
    }

    /// If a local resolve miss on this backup may be stale — it holds
    /// prepared-but-unapplied ops, so the primary has committed writes
    /// we have not applied yet — returns the primary to re-ask
    /// (read-your-writes for a client that bound through the primary
    /// and immediately resolves through a backup). Peer replicas never
    /// get forwarded again, so forwards cannot loop.
    fn stale_miss_primary(&self, caller: NodeId) -> Option<u32> {
        if self.core.config().peers.iter().any(|p| p.node == caller) {
            return None;
        }
        let st = self.core.engine();
        if st.status() == VsrStatus::Normal
            && !st.is_primary()
            && !st.in_probation()
            && st.commit_gap() > 0
        {
            Some(st.primary_of(st.view()))
        } else {
            None
        }
    }

    fn resolve_local(&self, name: &str, caller: NodeId) -> Result<ObjRef, NsError> {
        NodeTelemetry::of(&**self.core.rt())
            .registry
            .counter("ns.server.resolves")
            .inc();
        self.charge_resolve();
        let ns = self.read_state();
        let ctx_ref = |id: CtxId| ctx_objref(&self.core, id);
        let mut eval = ReplicaEval { core: &self.core };
        match ns.resolve(self.ctx, name, caller, &ctx_ref, &mut eval, NAMING_TYPE_ID)? {
            ResolveOut::Obj(obj) => Ok(obj),
            ResolveOut::LocalCtx(id) => Ok(ctx_objref(&self.core, id)),
            ResolveOut::Forward { ctx, rest } => {
                // Recursive resolve through a remotely implemented
                // context (§4.3).
                let remote = crate::iface::NamingContextClient::attach(self.core.client_ctx(), ctx)
                    .map_err(|err| NsError::Comm { err })?;
                remote.resolve(rest)
            }
        }
    }

    fn list_local(&self, name: &str, caller: NodeId, all: bool) -> Result<Vec<Binding>, NsError> {
        self.charge_resolve();
        let ns = self.read_state();
        let ctx_ref = |id: CtxId| ctx_objref(&self.core, id);
        let mut eval = ReplicaEval { core: &self.core };
        ns.list(
            self.ctx,
            name,
            caller,
            all,
            &ctx_ref,
            &mut eval,
            NAMING_TYPE_ID,
        )
    }
}

impl NamingContext for CtxView {
    fn resolve(&self, caller: &Caller, name: String) -> Result<ObjRef, NsError> {
        let local = self.resolve_local(&name, caller.node);
        if let Err(NsError::NotFound { .. }) = &local {
            if let Some(primary) = self.stale_miss_primary(caller.node) {
                let mut target = ctx_objref(&self.core, self.ctx);
                target.addr = self.core.config().peers[primary as usize];
                if let Ok(remote) =
                    crate::iface::NamingContextClient::attach(self.core.client_ctx(), target)
                {
                    if let Ok(obj) = remote.resolve(name) {
                        NodeTelemetry::of(&**self.core.rt())
                            .registry
                            .counter("ns.vsr.read_forwards")
                            .inc();
                        return Ok(obj);
                    }
                }
            }
        }
        local
    }

    fn bind(&self, _caller: &Caller, name: String, obj: ObjRef) -> Result<(), NsError> {
        self.submit(&name, |path| NsUpdate::Bind { path, obj })
    }

    fn unbind(&self, _caller: &Caller, name: String) -> Result<(), NsError> {
        self.submit(&name, |path| NsUpdate::Unbind { path })
    }

    fn bind_new_context(&self, caller: &Caller, name: String) -> Result<ObjRef, NsError> {
        self.submit(&name, |path| NsUpdate::NewContext { path })?;
        // Commit application is synchronous on the primary but may
        // still be in flight here on a backup — retry once after a beat.
        match self.resolve_local(&name, caller.node) {
            Ok(obj) => Ok(obj),
            Err(NsError::NotFound { .. }) => {
                self.core.rt().sleep(self.core.config().peer_timeout);
                self.resolve_local(&name, caller.node)
            }
            Err(e) => Err(e),
        }
    }

    fn bind_repl_context(
        &self,
        _caller: &Caller,
        name: String,
        selector: SelectorSpec,
    ) -> Result<ObjRef, NsError> {
        self.submit(&name, |path| NsUpdate::NewReplContext { path, selector })?;
        // A replicated context resolves to a *member*, so return the
        // context reference by id lookup instead.
        let id = self.core.engine().state().ctx_of_name(self.ctx, &name);
        Ok(ctx_objref(&self.core, id.unwrap_or(self.ctx)))
    }

    fn list(&self, caller: &Caller, name: String) -> Result<Vec<Binding>, NsError> {
        self.list_local(&name, caller.node, false)
    }

    fn list_repl(&self, caller: &Caller, name: String) -> Result<Vec<Binding>, NsError> {
        self.list_local(&name, caller.node, true)
    }

    fn report_load(&self, _caller: &Caller, name: String, load: u32) -> Result<(), NsError> {
        self.submit(&name, |path| NsUpdate::ReportLoad { path, load })
    }
}
