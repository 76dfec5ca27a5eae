//! The experiment suite regenerating the paper's evaluation (see
//! EXPERIMENTS.md for the experiment ↔ paper-section mapping and the
//! recorded results).

mod availability;
mod cluster_exps;
mod cm_failover;
mod failover;
mod kernel_bench;
mod saturation;
mod standalone;
mod svc_failover;

pub use availability::{e19, e21};
pub use cluster_exps::{e1, e13, e14, e15, e16, e2, e4, e7, e8};
pub use cm_failover::e22;
pub use failover::e20;
pub use kernel_bench::e18;
pub use saturation::e17;
pub use standalone::{e10, e11, e12, e3, e5, e6, e9};
pub use svc_failover::e23;

use std::sync::Arc;
use std::time::Duration;

use itv_cluster::{Cluster, ClusterConfig};
use ocs_sim::{NodeRt, NodeRtExt, Sim, SimChan, SimTime};

/// The post-storm audit of E22 and E23: every surviving replica's
/// committed set must be exactly the client's record of what committed.
/// `lost` and `doubled` are the worst per-replica counts of committed
/// entries missing and of entries that never committed.
pub(crate) struct Audit<T> {
    want: Vec<T>,
    pub(crate) lost: u64,
    pub(crate) doubled: u64,
    pub(crate) ok: bool,
}

impl<T: Ord> Audit<T> {
    /// An audit against the client's record `want`.
    pub(crate) fn new(mut want: Vec<T>) -> Audit<T> {
        want.sort();
        Audit {
            want,
            lost: 0,
            doubled: 0,
            ok: true,
        }
    }

    /// Checks one replica's committed set, failing it also when the
    /// replica's own index audit (`self_ok`) failed. Returns whether the
    /// replica passed.
    pub(crate) fn check(&mut self, mut have: Vec<T>, self_ok: bool) -> bool {
        have.sort();
        let lost = self.want.iter().filter(|x| !have.contains(x)).count() as u64;
        let doubled = have.iter().filter(|x| !self.want.contains(x)).count() as u64;
        self.lost = self.lost.max(lost);
        self.doubled = self.doubled.max(doubled);
        let ok = have == self.want && self_ok;
        self.ok &= ok;
        ok
    }

    /// Size of the client's record.
    pub(crate) fn expected(&self) -> usize {
        self.want.len()
    }
}

/// Builds a cluster and runs it to the fully-ready state (services
/// placed, settops booted).
pub(crate) fn ready_cluster(seed: u64, cfg: ClusterConfig) -> (Sim, Cluster) {
    let sim = Sim::new(seed);
    let mut cluster = Cluster::build(&sim, cfg);
    sim.run_until(SimTime::from_secs(40));
    cluster.boot_settops();
    sim.run_until(SimTime::from_secs(75));
    (sim, cluster)
}

/// Finds which server a primary/backup service's binding points at.
pub(crate) fn primary_server_of(cluster: &Cluster, path: &str) -> Option<(usize, ocs_orb::ObjRef)> {
    let ns = cluster.ns(0);
    let out: SimChan<Option<ocs_orb::ObjRef>> = SimChan::new(&cluster.sim);
    let out2 = out.clone();
    let node = cluster.servers[0].node.clone();
    let path = path.to_string();
    node.spawn_fn("find-primary", move || {
        out2.send(ns.resolve(&path).ok());
    });
    cluster.sim.run_for(Duration::from_secs(1));
    let obj = out.try_recv().flatten()?;
    let idx = cluster
        .servers
        .iter()
        .position(|s| s.node.node() == obj.addr.node)?;
    Some((idx, obj))
}

/// Spawns a watcher that records when `path` resolves to a reference
/// other than `old` AND the object answers; returns a channel yielding
/// the virtual time of recovery.
pub(crate) fn watch_rebind(
    cluster: &Cluster,
    path: &str,
    old: ocs_orb::ObjRef,
) -> SimChan<SimTime> {
    let out: SimChan<SimTime> = SimChan::new(&cluster.sim);
    let out2 = out.clone();
    let ns = cluster.ns(0);
    let node = cluster.servers[0].node.clone();
    let node2 = node.clone();
    let path = path.to_string();
    node.spawn_fn("watch-rebind", move || loop {
        if let Ok(r) = ns.resolve(&path) {
            if r != old {
                out2.send(node2.now());
                return;
            }
        }
        node2.sleep(Duration::from_millis(200));
    });
    out
}

/// Runs `f` inside a fresh process on `node`, returning its result
/// through a channel once the simulation has run `window`.
pub(crate) fn probe<T: Send + 'static>(
    sim: &Sim,
    node: &Arc<ocs_sim::SimNode>,
    window: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let out: SimChan<T> = SimChan::new(sim);
    let out2 = out.clone();
    node.spawn_fn("probe", move || {
        out2.send(f());
    });
    sim.run_for(window);
    out.try_recv()
}
