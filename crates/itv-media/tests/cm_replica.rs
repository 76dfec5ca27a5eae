//! Fail-over regressions for the replicated Connection Manager: a
//! 3-replica VSR group in the simulator, with the primary killed
//! mid-lease. The scenarios here are exactly the ones the old §5.2
//! primary/backup CM got wrong — a retried `allocate` double-booking
//! bandwidth after the reply was lost in a crash, and the admission
//! table evaporating until MMS reassertion refilled it.

use std::time::Duration;

use itv_media::{CmApiClient, CmBudgets, CmReplica, CmReplicaConfig, MediaError};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{Addr, NodeId, NodeRt, Rt, SimTime};
use ocs_vsr::SimGroup;

const CM_PORT: u16 = 2000;
/// Client retry loop: per-call timeout and the sleep between sweeps.
const TIMEOUT: Duration = Duration::from_secs(2);
const BACKOFF: Duration = Duration::from_millis(100);
/// How long the group may take to settle, and one client call to finish.
const SETTLE_LIMIT: Duration = Duration::from_secs(30);
const CALL_LIMIT: Duration = Duration::from_secs(60);

/// Deployed-tuning timeouts (the E20 real-cluster values) so a
/// fail-over completes in about a second of virtual time.
fn tuned(i: u32, peers: Vec<Addr>, lease_ttl: Option<Duration>) -> CmReplicaConfig {
    let mut cfg = CmReplicaConfig::paper_defaults(i, peers, CmBudgets::default());
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg.log_retention = 128;
    cfg.lease_ttl = lease_ttl;
    cfg
}

/// A 3-replica CM group plus a client node to issue calls from.
fn cm_group(seed: u64, lease_ttl: Option<Duration>) -> SimGroup<CmReplica> {
    SimGroup::new(seed, "cm", 3, CM_PORT, "client", move |g, i| {
        let rt: Rt = g.nodes[i].clone();
        CmReplica::start(rt, tuned(i as u32, g.peers.clone(), lease_ttl))
            .expect("cm replica starts")
    })
}

fn settle(group: &SimGroup<CmReplica>) {
    assert!(
        group.run_until(SETTLE_LIMIT, || group.settled()),
        "cm group failed to settle: {:?}",
        group.status()
    );
}

/// Asserts that a client call started at `start` finished within
/// [`CALL_LIMIT`] of virtual time.
fn assert_call_time(group: &SimGroup<CmReplica>, start: SimTime, what: &str) {
    let took = group.sim.now() - start;
    assert!(
        took <= CALL_LIMIT,
        "{what} did not complete within {CALL_LIMIT:?} (took {took:?})"
    );
}

fn cm_at(ctx: ClientCtx, peer: Addr) -> CmApiClient {
    let target = ObjRef {
        addr: peer,
        incarnation: ObjRef::STABLE,
        type_id: CmApiClient::TYPE_ID,
        object_id: 0,
    };
    CmApiClient::attach(ctx, target).expect("attach cm client")
}

/// Allocate against whichever replica answers, retrying until one
/// commits the op. This is the MMS retry loop in miniature: the same
/// `token` travels with every attempt, so a lost reply can never
/// double-book.
fn allocate(
    group: &SimGroup<CmReplica>,
    token: u64,
    settop: NodeId,
    down_bps: u64,
) -> Result<u64, MediaError> {
    let server = group.nodes[0].node();
    let start = group.sim.now();
    let got = group.call_any(100, TIMEOUT, BACKOFF, move |ctx, peer| {
        match cm_at(ctx, peer).allocate(token, settop, server, down_bps) {
            Ok(conn) => Some(Ok(conn)),
            // Admission verdicts are final; routing/quorum errors
            // mean "try the next replica".
            Err(MediaError::NoBandwidth) => Some(Err(MediaError::NoBandwidth)),
            Err(_) => None,
        }
    });
    assert_call_time(group, start, "allocate");
    got.unwrap_or_else(|| {
        Err(MediaError::Dependency {
            what: "test: no replica accepted the allocate".into(),
        })
    })
}

fn release(group: &SimGroup<CmReplica>, conn: u64) -> Result<(), MediaError> {
    let start = group.sim.now();
    let got = group.call_any(100, TIMEOUT, BACKOFF, move |ctx, peer| {
        match cm_at(ctx, peer).release(conn) {
            // An earlier attempt committed but its reply was lost
            // mid-fail-over; the conn being gone IS the commit
            // (nothing else removes it here — expiry is far beyond
            // the test horizon).
            Ok(()) | Err(MediaError::UnknownSession { .. }) => Some(()),
            Err(_) => None,
        }
    });
    assert_call_time(group, start, "release");
    got.ok_or_else(|| MediaError::Dependency {
        what: "test: no replica accepted the release".into(),
    })
}

/// Asserts every live replica agrees on the allocation count and that
/// the incremental reserved-bandwidth total matches a full table scan
/// (the E22 consistency audit, in miniature).
fn assert_consistent(group: &SimGroup<CmReplica>, want_allocs: u32, want_bps: u64) {
    // Let backups drain the commit gap first.
    group.sim.run_for(Duration::from_secs(1));
    for (i, r) in group.live() {
        if !group.sim.node_up(group.nodes[i].node()) {
            continue;
        }
        let u = r.usage();
        assert_eq!(
            u.allocations,
            want_allocs,
            "replica {i} allocation count diverged: {}",
            r.debug_status()
        );
        assert_eq!(
            u.reserved_down_bps,
            want_bps,
            "replica {i} reserved bandwidth diverged: {}",
            r.debug_status()
        );
        let (indexed, scanned) = r.audit_reserved_bps();
        assert_eq!(
            indexed, scanned,
            "replica {i} reserved-bps index drifted from the table"
        );
    }
}

/// Satellite 2, the headline regression: the client's `allocate` commits
/// on the primary, the primary dies before (as far as the client knows)
/// the reply arrives, and the client retries the same token against the
/// new primary. The old CM double-reserved here; the replicated table
/// must return the original conn id and keep exactly one reservation.
#[test]
fn retried_allocate_across_failover_returns_original_conn() {
    let group = cm_group(8_001, Some(Duration::from_secs(20)));
    settle(&group);
    let settop = group.client.node();

    let conn = allocate(&group, 77, settop, 4_000_000).expect("first allocate");
    assert_consistent(&group, 1, 4_000_000);

    // Crash the primary that answered; treat the reply as lost and retry.
    let (victim, _) = group.kill_master();
    assert!(
        group.run_until(Duration::from_secs(30), || {
            group.masters().first().is_some_and(|m| *m != victim)
        }),
        "no new master after killing the CM primary: {:?}",
        group.status()
    );

    let retried = allocate(&group, 77, settop, 4_000_000).expect("retried allocate");
    assert_eq!(
        retried, conn,
        "retry with the same token must resolve to the original allocation"
    );
    assert_consistent(&group, 1, 4_000_000);

    // The healed replica catches up to the same single allocation.
    group.restart(victim);
    settle(&group);
    assert_consistent(&group, 1, 4_000_000);
}

/// The tentpole behavior: admission state survives the primary. A
/// settop saturating its downstream budget stays saturated across the
/// fail-over (no free re-admission window), and releasing a lease
/// granted by the dead primary works on its successor.
#[test]
fn failover_preserves_admission_state() {
    let group = cm_group(8_002, Some(Duration::from_secs(20)));
    settle(&group);
    let settop = group.client.node();

    // Saturate the per-settop budget (6 Mbit/s by default).
    let conn = allocate(&group, 1, settop, 6_000_000).expect("saturating allocate");
    assert_consistent(&group, 1, 6_000_000);

    let (victim, _) = group.kill_master();
    assert!(
        group.run_until(Duration::from_secs(30), || {
            group.masters().first().is_some_and(|m| *m != victim)
        }),
        "no new master after killing the CM primary: {:?}",
        group.status()
    );

    // A *new* request (fresh token) must still be refused: the successor
    // inherited the reservation rather than starting from an empty table.
    let refused = allocate(&group, 2, settop, 1_000_000);
    assert!(
        matches!(refused, Err(MediaError::NoBandwidth)),
        "budget must survive fail-over, got {refused:?}"
    );

    // And the old primary's lease is releasable on the new one.
    release(&group, conn).expect("release on the new primary");
    allocate(&group, 3, settop, 1_000_000).expect("allocate after release");
    assert_consistent(&group, 1, 1_000_000);
}

/// Lease expiry is a replicated op: the primary's periodic `Expire`
/// tick reclaims the lease at the same log position on every replica,
/// so all copies converge to zero without local clocks disagreeing.
#[test]
fn replicated_lease_expiry_reclaims_on_every_replica() {
    let group = cm_group(8_003, Some(Duration::from_secs(2)));
    settle(&group);
    let settop = group.client.node();

    allocate(&group, 5, settop, 3_000_000).expect("allocate");
    assert_consistent(&group, 1, 3_000_000);

    // Nothing renews the lease; the 2 s TTL lapses and the master's
    // expire tick (every TTL/4) reclaims it everywhere.
    assert!(
        group.run_until(Duration::from_secs(20), || {
            group.live().iter().all(|(_, r)| r.usage().allocations == 0)
        }),
        "lease never expired: {:?}",
        group.status()
    );
    assert_consistent(&group, 0, 0);
    let expired = group
        .live()
        .iter()
        .map(|(_, r)| r.usage().expired)
        .collect::<Vec<_>>();
    assert!(
        expired.iter().all(|&e| e == 1),
        "every replica must count exactly one replicated expiry, got {expired:?}"
    );
}
