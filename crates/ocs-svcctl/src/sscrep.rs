//! The replicated service controller: the placement/config table on the
//! same Viewstamped Replication driver the name service and the
//! Connection Manager use, instead of the §6.2 primary/backup CSC that
//! recovers by regeneration.
//!
//! Three replicas run [`SscTable`] behind an [`ocs_vsr::Replica`]. Every
//! placement decision — define, place, unplace, down report, retire —
//! becomes an [`SscUpdate`] on the replicated log: the view primary
//! stamps it with its clock, sequences it, broadcasts `prepare`, commits
//! at a majority and answers with the viewstamped outcome (the decision
//! epoch). Backups forward decisions to the primary and serve reads from
//! local (possibly marginally stale) state. When the primary dies, a
//! sub-second view change promotes a backup *that already holds the
//! placement table* — services stay placed, and recovery re-hosts the
//! instances that actually died instead of regenerating the whole
//! configuration by querying every SSC.
//!
//! This module supplies the driver's [`ReplicaHooks`] (clock stamping,
//! decision journaling, the epoch gauge) and the placement-table reads.
//! The client-facing root servant (the `CscApi`) is supplied by the
//! caller — see [`crate::Csc`] — so the controller logic (SSC side
//! effects, reconcile) stays out of the replication driver.

use std::sync::Arc;

use ocs_db::ServicePlacement;
use ocs_orb::{ObjRef, Servant};
use ocs_sim::{NetError, NodeId, Rt};
use ocs_telemetry::NodeTelemetry;
use ocs_vsr::{Names, Replica, ReplicaHooks, Unavailable, VsrEvent};

use crate::ssctable::{SscTable, SscUpdate};
use crate::types::SvcError;

/// Configuration of one replicated-controller group member: the shared
/// driver's configuration, whose `paper_defaults` are the same NS-grade
/// fail-over timeouts the replicated CM runs with.
pub type SscReplicaConfig = ocs_vsr::ReplicaConfig;

/// The service controller's hooks into the shared replica driver.
struct SscHooks;

type Core = Replica<SscHooks>;

impl ReplicaHooks for SscHooks {
    type Machine = SscTable;
    type Ok = u64;
    type Err = SvcError;
    /// Decisions the committed ops recorded, and the decision epoch.
    type Drained = (Vec<String>, u64);

    const NAMES: Names = Names {
        peer_type: "ocs.svc-peer",
        forward: "forward_op",
        metrics: "ssc",
        journal: "svc-vsr",
        trace: "svc",
        process: "svc-vsr",
        replica: "svc replica",
    };

    fn unavailable(why: Unavailable) -> SvcError {
        let what = match why {
            Unavailable::NoMaster => "svc: no master",
            Unavailable::NoQuorum => "svc: no replication quorum",
            Unavailable::Superseded => "svc: op superseded by view change",
        };
        SvcError::Dependency { what: what.into() }
    }

    fn stamp(&self, op: &mut SscUpdate, now_us: u64) {
        op.stamp(now_us);
    }

    fn drain(&self, table: &mut SscTable) -> (Vec<String>, u64) {
        (table.take_decisions(), table.epoch())
    }

    fn on_events(
        core: &Arc<Core>,
        (decisions, epoch): (Vec<String>, u64),
        _: &[VsrEvent<SscUpdate>],
    ) {
        let tel = NodeTelemetry::of(&**core.rt());
        for d in decisions {
            tel.registry.counter("ssc.vsr.decisions").inc();
            tel.journal.record(core.rt().now(), "svc-vsr", d);
        }
        tel.registry.gauge("ssc.vsr.epoch").set(epoch as i64);
    }
}

/// A running replicated-controller group member.
pub struct SscReplica {
    core: Arc<Core>,
}

impl SscReplica {
    /// Opens the replica's endpoint, exports the caller's `CscApi`
    /// servant as the root object and the peer protocol next to it, and
    /// spawns the VSR driver loop. `root` is exported at the stable
    /// incarnation, so `root_ref` survives replica restarts.
    pub fn start(
        rt: Rt,
        cfg: SscReplicaConfig,
        root: Arc<dyn Servant>,
    ) -> Result<Arc<SscReplica>, NetError> {
        let core = Replica::start(rt, cfg, SscTable::new(), SscHooks, |_| root)?;
        Ok(Arc::new(SscReplica { core }))
    }

    /// The stable reference to this replica's root (`CscApi`) servant.
    pub fn root_ref(&self) -> ObjRef {
        self.core.stable_ref(crate::types::CscApiClient::TYPE_ID, 0)
    }

    /// Whether this replica is the view primary with a quorum.
    pub fn is_master(&self) -> bool {
        self.core.is_master()
    }

    /// Whether the replica is still in start-up/recovery probation.
    pub fn in_probation(&self) -> bool {
        self.core.in_probation()
    }

    /// The local replicated placement table, in service-name order (the
    /// E23 post-storm audit compares this across replicas).
    pub fn placements(&self) -> Vec<ServicePlacement> {
        self.core.engine().state().placements_list()
    }

    /// Whether `name` is placed on `node`, per local committed state.
    pub fn is_placed(&self, name: &str, node: NodeId) -> bool {
        self.core.engine().state().is_placed(name, node)
    }

    /// Services placed on `node`, in name order.
    pub fn services_on(&self, node: NodeId) -> Vec<String> {
        self.core.engine().state().services_on(node)
    }

    /// Nodes currently marked down for `name`.
    pub fn down_nodes(&self, name: &str) -> Vec<NodeId> {
        self.core.engine().state().down_nodes(name)
    }

    /// Cross-checks the incrementally maintained node index against a
    /// full table rescan.
    pub fn audit_ok(&self) -> bool {
        self.core.engine().state().audit_ok()
    }

    /// Routes a placement decision: sequence here if primary, forward
    /// to the primary if backup. Fails fast mid-view-change; callers
    /// retry with the same token.
    pub fn submit(&self, op: SscUpdate) -> Result<u64, SvcError> {
        self.core.submit(op)
    }

    /// One-line engine state dump for test failure diagnostics.
    pub fn debug_status(&self) -> String {
        let (epoch, services) = {
            let st = self.core.engine();
            (st.state().epoch(), st.state().services_len())
        };
        format!(
            "{} epoch={epoch} services={services}",
            self.core.debug_status()
        )
    }
}
