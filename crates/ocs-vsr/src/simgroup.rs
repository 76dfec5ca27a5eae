//! The one simulated replica-group harness: `n` members of a replicated
//! service on their own simulator nodes, plus a client node to drive
//! calls from. The name service, Connection Manager and service
//! controller fail-over experiments (E20–E23) and their integration
//! tests all run on it, so "settled", "kill the primary" and "retry
//! against any replica" mean the same thing everywhere.
//!
//! Every fault goes through [`Nemesis`], so each victim's flight
//! recorder journals its crash and restart. Stepping is in fixed
//! virtual-time increments (the group's poll step), which keeps a run's
//! observations identical for a given seed.

use std::sync::Arc;
use std::time::Duration;

use ocs_orb::ClientCtx;
use ocs_sim::{Addr, FaultAction, Nemesis, NodeRt, NodeRtExt, Rt, Sim, SimNode, SimTime};
use parking_lot::Mutex;

/// What the harness reads from a group member.
pub trait GroupMember {
    /// Whether the member is the view primary with a quorum.
    fn is_master(&self) -> bool;
    /// Whether the member is still starting up or in recovery probation.
    fn in_probation(&self) -> bool;
    /// One-line state dump for failure messages.
    fn debug_status(&self) -> String;
}

/// How long [`SimGroup::settle`] and [`SimGroup::call_any`] step before
/// they declare the group wedged.
const LIMIT: Duration = Duration::from_secs(120);

/// The default poll step (see [`SimGroup::with_step`]).
const STEP: Duration = Duration::from_millis(20);

type Start<M> = Box<dyn Fn(&SimGroup<M>, usize) -> Arc<M>>;

/// A simulated replica group: member `i` runs on `nodes[i]` and serves
/// at `peers[i]`.
pub struct SimGroup<M> {
    /// The simulation the group lives in.
    pub sim: Sim,
    /// One node per member, in member order.
    pub nodes: Vec<Arc<SimNode>>,
    /// Each member's service address.
    pub peers: Vec<Addr>,
    /// The node [`SimGroup::call_any`] runs its calls on.
    pub client: Arc<SimNode>,
    step: Duration,
    members: Mutex<Vec<Option<Arc<M>>>>,
    start: Start<M>,
}

impl<M: GroupMember> SimGroup<M> {
    /// Adds member nodes `{prefix}0`, `{prefix}1`, … serving on `port`
    /// and a client node named `client` to a fresh simulation, then
    /// starts each member in order with `start(group, i)` (also used by
    /// [`SimGroup::restart`]). The group polls every 20 ms of virtual
    /// time unless [`SimGroup::with_step`] says otherwise.
    pub fn new(
        seed: u64,
        prefix: &str,
        n: usize,
        port: u16,
        client: &str,
        start: impl Fn(&SimGroup<M>, usize) -> Arc<M> + 'static,
    ) -> SimGroup<M> {
        let sim = Sim::new(seed);
        let nodes: Vec<Arc<SimNode>> = (0..n)
            .map(|i| sim.add_node(&format!("{prefix}{i}")))
            .collect();
        let peers = nodes.iter().map(|n| Addr::new(n.node(), port)).collect();
        let client = sim.add_node(client);
        let group = SimGroup {
            sim,
            nodes,
            peers,
            client,
            step: STEP,
            members: Mutex::new(vec![None; n]),
            start: Box::new(start),
        };
        for i in 0..n {
            let m = (group.start)(&group, i);
            group.members.lock()[i] = Some(m);
        }
        group
    }

    /// Sets the virtual-time poll step of [`SimGroup::run_until`],
    /// [`SimGroup::settle`] and the client calls.
    pub fn with_step(mut self, step: Duration) -> SimGroup<M> {
        self.step = step;
        self
    }

    /// Every member started and not killed since, with its index.
    pub fn live(&self) -> Vec<(usize, Arc<M>)> {
        self.members
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.clone().map(|m| (i, m)))
            .collect()
    }

    fn up(&self, i: usize) -> bool {
        self.sim.node_up(self.nodes[i].node())
    }

    /// Indexes of the members on live nodes that report being master.
    pub fn masters(&self) -> Vec<usize> {
        self.live()
            .into_iter()
            .filter(|(i, m)| self.up(*i) && m.is_master())
            .map(|(i, _)| i)
            .collect()
    }

    /// One master, and every member on a live node out of probation
    /// (killing a member before then would strand the group below its
    /// recovery quorum).
    pub fn settled(&self) -> bool {
        self.masters().len() == 1
            && self
                .live()
                .iter()
                .all(|(i, m)| !self.up(*i) || !m.in_probation())
    }

    /// Every member's [`GroupMember::debug_status`] ("down" if killed).
    pub fn status(&self) -> Vec<String> {
        self.members
            .lock()
            .iter()
            .map(|m| {
                m.as_ref()
                    .map_or_else(|| "down".into(), |m| m.debug_status())
            })
            .collect()
    }

    /// Steps virtual time by the poll step until `cond` holds, for at
    /// most `limit`. Returns whether it held.
    pub fn run_until(&self, limit: Duration, cond: impl FnMut() -> bool) -> bool {
        step_until(&self.sim, self.step, limit, cond)
    }

    /// Runs until the group is [`settled`](SimGroup::settled); panics
    /// with every member's status if it does not settle.
    pub fn settle(&self) {
        assert!(
            self.run_until(LIMIT, || self.settled()),
            "replica group failed to settle: {:?}",
            self.status()
        );
    }

    /// Crashes member `i`'s node and drops the member; returns the
    /// crash instant.
    pub fn kill(&self, i: usize) -> SimTime {
        let at = self.sim.now();
        Nemesis::apply(&self.sim, &FaultAction::CrashNode(self.nodes[i].node()));
        self.members.lock()[i] = None;
        at
    }

    /// Crashes the current master's node; returns its index and the
    /// crash instant.
    pub fn kill_master(&self) -> (usize, SimTime) {
        let master = *self.masters().first().expect("a master to kill");
        (master, self.kill(master))
    }

    /// Brings member `i`'s node back up and starts a fresh member on it.
    pub fn restart(&self, i: usize) {
        Nemesis::apply(&self.sim, &FaultAction::RestartNode(self.nodes[i].node()));
        let m = (self.start)(self, i);
        self.members.lock()[i] = Some(m);
    }

    /// The client retry loop in miniature: up to `attempts` sweeps over
    /// every member, each call bounded by `timeout`, sleeping `backoff`
    /// between sweeps. `f` makes one call against one member and
    /// returns `Some` once the answer is final — a commit or a committed
    /// refusal — or `None` to try the next member. Callers pass the same
    /// request (and token) on every attempt, so a reply lost in a crash
    /// is retried, never doubled. `None` if no member gave a final
    /// answer.
    pub fn call_any<R: Send + 'static>(
        &self,
        attempts: usize,
        timeout: Duration,
        backoff: Duration,
        f: impl Fn(ClientCtx, Addr) -> Option<R> + Send + 'static,
    ) -> Option<R> {
        let peers = self.peers.clone();
        call_on(&self.sim, &self.client, self.step, LIMIT, move |rt| {
            let ctx = ClientCtx::new(rt.clone()).with_timeout(timeout);
            for _ in 0..attempts {
                for &peer in &peers {
                    if let Some(r) = f(ctx.clone(), peer) {
                        return Some(r);
                    }
                }
                rt.sleep(backoff);
            }
            None
        })
    }
}

/// Steps `sim` by `step` until `cond` holds, for at most `limit` of
/// virtual time. Returns whether it held.
fn step_until(sim: &Sim, step: Duration, limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = sim.now() + limit;
    while sim.now() < deadline {
        if cond() {
            return true;
        }
        sim.run_for(step);
    }
    cond()
}

/// Runs `f` on `node` (RPCs only work from inside the simulation) and
/// steps `sim` by `step` until it returns; panics if that takes longer
/// than `limit` of virtual time.
pub fn call_on<T: Send + 'static>(
    sim: &Sim,
    node: &Arc<SimNode>,
    step: Duration,
    limit: Duration,
    f: impl FnOnce(Rt) -> T + Send + 'static,
) -> T {
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    let rt: Rt = node.clone();
    node.spawn_fn("client-call", move || {
        let r = f(rt);
        *out.lock() = Some(r);
    });
    assert!(
        step_until(sim, step, limit, || slot.lock().is_some()),
        "client call did not complete within {limit:?}"
    );
    let got = slot.lock().take();
    got.expect("call result")
}
