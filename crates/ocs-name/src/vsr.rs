//! The name service's replicated update log: the reusable VSR engine
//! from `ocs-vsr` instantiated over [`NsState`].
//!
//! The protocol itself — majority commit, sticky-primary view change,
//! two-phase `DoViewChange` release, snapshot state transfer, f+1
//! recovery probation — and the replica driver live in [`ocs_vsr`];
//! this module only teaches the engine how to drive the naming state
//! machine ([`Machine`]).

use ocs_vsr::Machine;

use crate::state::{NsState, Snapshot};
use crate::types::{NsError, NsUpdate};

impl Machine for NsState {
    type Op = NsUpdate;
    type Outcome = Result<(), NsError>;
    type Snap = Snapshot;

    fn apply(&mut self, seq: u64, op: &NsUpdate) -> Result<(), NsError> {
        NsState::apply(self, seq, op)
    }

    fn snapshot(&self) -> Snapshot {
        NsState::snapshot(self)
    }

    fn restore(&mut self, snap: Snapshot) {
        NsState::restore(self, snap)
    }

    fn snap_seq(snap: &Snapshot) -> u64 {
        snap.last_seq
    }
}
