//! The replicated Connection Manager: the allocation/lease table on the
//! same Viewstamped Replication driver the name service uses, instead of
//! the §5.2 primary/backup pair that starts empty and waits for MMS
//! reassertion.
//!
//! Three replicas run [`CmTable`] behind an [`ocs_vsr::Replica`]. Every
//! mutating `CmApi` call — allocate, release, reassert — becomes a
//! [`CmUpdate`] on the replicated log: the view primary stamps it with
//! its clock, sequences it, broadcasts `prepare`, commits at a majority
//! and answers the client with the viewstamped outcome. Backups forward
//! mutations to the primary and serve `usage`/`accounting` from local
//! (possibly marginally stale) state. When the primary dies, a
//! sub-second view change promotes a backup *that already holds the
//! admission table* — no reassertion window during which a retried
//! `allocate` could double-book bandwidth or a release could be lost.
//!
//! The primary also submits periodic [`CmUpdate::Expire`] ticks, so
//! lease expiry happens at deterministic log positions: every replica
//! reclaims the same leases at the same sequence numbers, and a
//! promoted backup inherits lease stamps granted by the old primary
//! rather than re-deriving them from its own clock.
//!
//! This module supplies the driver's [`ReplicaHooks`] (clock stamping,
//! the expiry tick, lease-expiry journaling) and the client-facing
//! `CmApi` servant.

use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{Caller, ObjRef};
use ocs_sim::{Addr, NetError, NodeId, Rt};
use ocs_vsr::{Names, Replica, ReplicaConfig, ReplicaHooks, Unavailable, VsrEvent};

use crate::cmgr::{CmAccountRow, CmApi, CmApiServant, CmBudgets, CmMetrics};
use crate::cmtable::{CmTable, CmUpdate};
use crate::types::{CmUsage, ConnDesc, MediaError};

/// Configuration of one replicated-CM group member.
#[derive(Clone, Debug)]
pub struct CmReplicaConfig {
    /// This replica's index into `peers`.
    pub replica_id: u32,
    /// The request endpoints of all replicas (including this one).
    pub peers: Vec<Addr>,
    /// Primary → backup heartbeat period.
    pub heartbeat_interval: Duration,
    /// Base primary-suspect timeout (staggered per replica id).
    pub election_timeout: Duration,
    /// Timeout for replica-to-replica calls.
    pub peer_timeout: Duration,
    /// Committed log entries retained for peer catch-up.
    pub log_retention: u64,
    /// Admission-control budgets (identical on every replica).
    pub budgets: CmBudgets,
    /// Lease TTL; `None` disables expiry.
    pub lease_ttl: Option<Duration>,
}

impl CmReplicaConfig {
    /// The deployed parameters: NS-grade fail-over timeouts with the
    /// trial's budgets and a 20 s lease.
    pub fn paper_defaults(
        replica_id: u32,
        peers: Vec<Addr>,
        budgets: CmBudgets,
    ) -> CmReplicaConfig {
        let vsr = ReplicaConfig::paper_defaults(replica_id, peers);
        CmReplicaConfig {
            replica_id,
            peers: vsr.peers,
            heartbeat_interval: vsr.heartbeat_interval,
            election_timeout: vsr.election_timeout,
            peer_timeout: vsr.peer_timeout,
            log_retention: vsr.log_retention,
            budgets,
            lease_ttl: Some(Duration::from_secs(20)),
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

/// The Connection Manager's hooks into the shared replica driver.
struct CmHooks {
    metrics: CmMetrics,
    lease_ttl: Option<Duration>,
}

type Core = Replica<CmHooks>;

impl ReplicaHooks for CmHooks {
    type Machine = CmTable;
    type Ok = u64;
    type Err = MediaError;
    /// Leases the committed ops expired, and the live allocation count.
    type Drained = (Vec<ConnDesc>, usize);

    const NAMES: Names = Names {
        peer_type: "itv.cm-peer",
        forward: "forward_op",
        metrics: "cm",
        journal: "cm-vsr",
        trace: "cm",
        process: "cm-vsr",
        replica: "cm replica",
    };

    fn unavailable(why: Unavailable) -> MediaError {
        let what = match why {
            Unavailable::NoMaster => "cm: no master",
            Unavailable::NoQuorum => "cm: no replication quorum",
            Unavailable::Superseded => "cm: op superseded by view change",
        };
        MediaError::Dependency { what: what.into() }
    }

    fn stamp(&self, op: &mut CmUpdate, now_us: u64) {
        op.stamp(now_us);
    }

    /// A lease-expiry tick a few times per TTL.
    fn periodic_op(&self) -> Option<(Duration, CmUpdate)> {
        self.lease_ttl
            .map(|ttl| (ttl / 4, CmUpdate::Expire { now_us: 0 }))
    }

    fn drain(&self, table: &mut CmTable) -> (Vec<ConnDesc>, usize) {
        (table.take_expired(), table.allocations_len())
    }

    fn on_events(
        core: &Arc<Core>,
        (expired, live): (Vec<ConnDesc>, usize),
        _: &[VsrEvent<CmUpdate>],
    ) {
        let metrics = &core.hooks().metrics;
        for d in expired {
            metrics.expired.inc();
            metrics.journal.record(
                core.rt().now(),
                "cm",
                format!(
                    "lease expired: conn {} (settop {}, {} bps reclaimed)",
                    d.conn, d.settop, d.down_bps
                ),
            );
        }
        metrics.active_allocs.set(live as i64);
    }
}

/// A running replicated-CM group member.
pub struct CmReplica {
    core: Arc<Core>,
}

impl CmReplica {
    /// Opens the replica's endpoint, exports the `CmApi` (root) and the
    /// peer protocol, and spawns the VSR driver loop.
    pub fn start(rt: Rt, cfg: CmReplicaConfig) -> Result<Arc<CmReplica>, NetError> {
        let table = CmTable::new(cfg.budgets, cfg.lease_ttl.map(|d| d.as_micros() as u64));
        let hooks = CmHooks {
            metrics: CmMetrics::of(&rt),
            lease_ttl: cfg.lease_ttl,
        };
        let core = Replica::start(rt, cfg.replica_config(), table, hooks, |core| {
            Arc::new(CmApiServant(Arc::new(ApiView {
                core: Arc::clone(core),
            })))
        })?;
        Ok(Arc::new(CmReplica { core }))
    }

    /// The stable reference to this replica's `CmApi` servant.
    pub fn root_ref(&self) -> ObjRef {
        self.core.stable_ref(crate::cmgr::CmApiClient::TYPE_ID, 0)
    }

    /// Whether this replica is the view primary with a quorum.
    pub fn is_master(&self) -> bool {
        self.core.is_master()
    }

    /// Whether the replica is still in start-up/recovery probation.
    pub fn in_probation(&self) -> bool {
        self.core.in_probation()
    }

    /// Local utilization snapshot (no lease tick; may trail the primary
    /// by the commit gap).
    pub fn usage(&self) -> CmUsage {
        self.core.engine().state().usage()
    }

    /// The live allocation table (for the E22 post-storm audit).
    pub fn allocations(&self) -> Vec<ConnDesc> {
        self.core.engine().state().allocations_list()
    }

    /// Cross-checks the incrementally maintained reserved-bandwidth
    /// total against a full table scan; returns `(indexed, scanned)`.
    pub fn audit_reserved_bps(&self) -> (u64, u64) {
        let st = self.core.engine();
        (
            st.state().usage().reserved_down_bps,
            st.state().audit_reserved_bps(),
        )
    }

    /// One-line engine state dump for test failure diagnostics.
    pub fn debug_status(&self) -> String {
        let allocs = self.core.engine().state().allocations_len();
        format!("{} allocs={allocs}", self.core.debug_status())
    }
}

impl ocs_vsr::GroupMember for CmReplica {
    fn is_master(&self) -> bool {
        self.core.is_master()
    }

    fn in_probation(&self) -> bool {
        self.core.in_probation()
    }

    fn debug_status(&self) -> String {
        CmReplica::debug_status(self)
    }
}

/// Servant view of the client-facing `CmApi`.
struct ApiView {
    core: Arc<Core>,
}

impl CmApi for ApiView {
    fn allocate(
        &self,
        _caller: &Caller,
        token: u64,
        settop: NodeId,
        server: NodeId,
        down_bps: u64,
    ) -> Result<u64, MediaError> {
        let out = self.core.submit(CmUpdate::Allocate {
            token,
            settop,
            server,
            down_bps,
            now_us: 0,
        });
        match &out {
            Ok(conn) => {
                self.core.hooks().metrics.accepted.inc();
                self.core.hooks().metrics.journal.record(
                    self.core.rt().now(),
                    "cm",
                    format!("lease granted: conn {conn} settop {settop} {down_bps} bps"),
                );
            }
            Err(MediaError::NoBandwidth) => self.core.hooks().metrics.rejected.inc(),
            Err(_) => {}
        }
        out
    }

    fn release(&self, _caller: &Caller, conn: u64) -> Result<(), MediaError> {
        let out = self.core.submit(CmUpdate::Release { conn, now_us: 0 });
        if out.is_ok() {
            self.core.hooks().metrics.released.inc();
        }
        out.map(|_| ())
    }

    fn reassert(&self, _caller: &Caller, desc: ConnDesc) -> Result<(), MediaError> {
        let known = self.core.engine().state().allocation(desc.conn).is_some();
        let out = self.core.submit(CmUpdate::Reassert { desc, now_us: 0 });
        if out.is_ok() && !known {
            self.core.hooks().metrics.reasserted.inc();
            self.core.hooks().metrics.journal.record(
                self.core.rt().now(),
                "cm",
                format!(
                    "lease reasserted: conn {} settop {} re-admitted after restart",
                    desc.conn, desc.settop
                ),
            );
        }
        out.map(|_| ())
    }

    fn usage(&self, _caller: &Caller) -> Result<CmUsage, MediaError> {
        Ok(self.core.engine().state().usage())
    }

    fn accounting(&self, _caller: &Caller) -> Result<Vec<CmAccountRow>, MediaError> {
        let now = self.core.rt().now().as_micros();
        Ok(self.core.engine().state().accounting(now))
    }
}
