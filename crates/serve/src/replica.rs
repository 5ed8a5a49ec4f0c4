//! Leader/follower replication: a [`Follower`] fleet built from shipped
//! ops.
//!
//! The fleet's determinism story (PR 5/7: `Fleet::apply` is deterministic,
//! so a recorded op-log replays to a byte-identical snapshot) is promoted
//! here from test artifact to architecture. A follower owns its **own**
//! [`Fleet`] and applies the leader's accepted mutations in leader order,
//! each through the same `Fleet::apply` interpreter the leader used — so at
//! every epoch the follower reaches, its state (predictions, estimates,
//! manifest) is **bit-identical** to the leader's state at that epoch, and
//! it serves `Predict`/`Estimate`/ranged reads from its own epoch-published
//! views at a bounded, observable epoch lag ([`Follower::lag`]).
//!
//! The ops arrive on `cpa-transport`'s subscription client
//! (`FleetOp::SubscribeOps`; `cpa-serve` sits *below* `cpa-transport` in
//! the crate graph, so the caller owns the socket and hands each frame in
//! as a [`ShippedOp`]). The leader's server pushes every accepted mutation
//! as an epoch-tagged [`FleetReply::OpApplied`](crate::FleetReply) frame
//! the moment its view is published, and [`Follower::apply_shipped`]
//! checks each frame's op and tag against the epoch the follower's apply
//! would produce before anything changes. The stream carries accepted
//! mutations only, so a shipped read or `Shutdown` is refused like any
//! other frame that would not reproduce the leader's state.
//!
//! **Failover** is replay-to-head then promote: when the stream ends (the
//! leader closed it), the follower has already applied everything the
//! leader acked; [`Follower::promote`] hands back the fleet, which then
//! accepts mutations as the new leader. Because the follower replayed the
//! leader's exact mutation sequence, the promoted fleet's manifest is
//! byte-for-byte the leader's final manifest (locked by
//! `tests/replication.rs`).

use crate::fleet::Fleet;
use crate::protocol::{FleetOp, FleetReply};
use crate::view::ViewHandle;

/// One op delivered to a follower: the mutation and the epoch the
/// leader's apply produced — checked against the follower's state before
/// applying.
#[derive(Debug, Clone)]
pub struct ShippedOp {
    /// The epoch this op created on the leader.
    pub epoch: u64,
    /// The op itself, exactly as the leader applied it.
    pub op: FleetOp,
}

impl ShippedOp {
    /// An epoch-tagged op (the `OpApplied` frame shape).
    pub fn tagged(epoch: u64, op: FleetOp) -> Self {
        Self { epoch, op }
    }
}

/// Why the follower refused a shipped op. A refused op was not applied:
/// the follower's fleet, epoch and head are as they were.
#[derive(Debug)]
pub enum ReplicaError {
    /// The shipped op is not a mutation (the stream ships accepted
    /// mutations only), or the replica fleet rejected it — divergent state
    /// or a corrupted stream.
    Rejected {
        /// The op's stable name.
        op: &'static str,
        /// Why the op was refused.
        message: String,
    },
    /// The epoch tag the leader pushed is not the epoch applying the op
    /// would produce — a gap, a reorder or a foreign lineage in the shipped
    /// stream.
    EpochMismatch {
        /// The epoch tag on the shipped frame.
        pushed: u64,
        /// The epoch applying the op would produce: the follower's epoch
        /// plus one, or a `Restore` manifest's recorded epoch.
        expected: u64,
        /// The op's stable name.
        op: &'static str,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Rejected { op, message } => {
                write!(f, "follower rejected shipped {op} op: {message}")
            }
            ReplicaError::EpochMismatch {
                pushed,
                expected,
                op,
            } => write!(
                f,
                "shipped {op} op tagged epoch {pushed} but the follower expected \
                 epoch {expected} — gap, reorder or foreign lineage in the shipped \
                 stream; not applied"
            ),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// A replica fleet built by applying a leader's shipped mutations in order.
///
/// The follower serves reads from its own fleet the whole time — in
/// process via [`Follower::fleet`] (`predict_all`, `estimate_all`, the
/// ranged forms), or through its epoch-published [`Follower::view_handle`]
/// exactly like a leader's readers — always at some epoch ≤ the leader's
/// head, with the gap observable as [`Follower::lag`].
#[derive(Debug)]
pub struct Follower {
    fleet: Fleet,
    /// Highest leader epoch observed (`observe_head` + applied frame tags).
    head: u64,
}

impl Follower {
    /// Wraps a fleet (normally fresh, of the leader's construction; or
    /// pre-seeded by replaying a mutation prefix, for mid-stream resume).
    pub fn new(fleet: Fleet) -> Self {
        let head = fleet.epoch();
        Self { fleet, head }
    }

    /// The replica fleet (reads go here; mutations wait for
    /// [`Follower::promote`]).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The epoch the follower currently serves.
    pub fn epoch(&self) -> u64 {
        self.fleet.epoch()
    }

    /// The highest leader epoch observed so far (through
    /// [`Follower::observe_head`] and every applied frame's tag) — the
    /// known head of the stream.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// The observable replication lag, in epochs: how far the known leader
    /// head is ahead of what this follower serves. Zero once caught up.
    pub fn lag(&self) -> u64 {
        self.head.saturating_sub(self.fleet.epoch())
    }

    /// Records a leader-head observation (e.g. the epoch on the
    /// `Subscribed` ack, or a head the operator learned out of band).
    pub fn observe_head(&mut self, epoch: u64) {
        self.head = self.head.max(epoch);
    }

    /// A handle onto the replica's epoch-published read view — the same
    /// read path a leader's transport handlers use.
    pub fn view_handle(&self) -> ViewHandle {
        self.fleet.view_handle()
    }

    /// Applies one shipped op and returns the epoch the follower reached.
    /// The op and its tag are checked *before* anything changes: the op
    /// must be a mutation, and the tag the epoch applying it produces — a
    /// `Restore`'s manifest epoch, any other mutation the follower's epoch
    /// plus one. An op that passes goes through [`Fleet::apply`], and only
    /// an applied op's tag raises the observed head.
    ///
    /// # Errors
    /// [`ReplicaError::Rejected`] for a non-mutation or an op the replica
    /// fleet rejects (divergent state), and [`ReplicaError::EpochMismatch`]
    /// on a tag the op would not produce (gap, reorder or foreign lineage
    /// in the stream). Either way the follower is left as it was.
    pub fn apply_shipped(&mut self, shipped: ShippedOp) -> Result<u64, ReplicaError> {
        let ShippedOp { epoch: pushed, op } = shipped;
        let name = op.name();
        if !op.is_mutation() {
            return Err(ReplicaError::Rejected {
                op: name,
                message: "not a mutation; the op stream ships accepted mutations only".into(),
            });
        }
        let expected = match &op {
            FleetOp::Restore { manifest } => manifest.epoch,
            _ => self.fleet.epoch() + 1,
        };
        if pushed != expected {
            return Err(ReplicaError::EpochMismatch {
                pushed,
                expected,
                op: name,
            });
        }
        match self.fleet.apply(op) {
            FleetReply::Error { message } => Err(ReplicaError::Rejected { op: name, message }),
            _ => {
                self.observe_head(pushed);
                Ok(self.fleet.epoch())
            }
        }
    }

    /// Failover: hands the replica fleet back as a plain [`Fleet`], ready
    /// to accept mutations as the new leader. Call once the op stream has
    /// ended and every frame is applied; the promoted fleet's snapshot is
    /// then byte-for-byte the old leader's final manifest.
    pub fn promote(self) -> Fleet {
        self.fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_core::engine::DynEngine;
    use cpa_core::{BatchCpa, CpaConfig};

    fn tiny_fleet() -> Fleet {
        let (i, u, c) = (4, 3, 2);
        Fleet::new(2, 1, i, u, c, |_| {
            Box::new(BatchCpa::new(
                CpaConfig::default().with_truncation(3, 4),
                i,
                u,
                c,
            )) as DynEngine
        })
    }

    fn ingest(worker: usize, item: usize) -> FleetOp {
        FleetOp::Ingest {
            workers: vec![worker],
            answers: vec![(item, worker, vec![1])],
        }
    }

    #[test]
    fn follower_applies_tagged_mutations_in_order() {
        let mut follower = Follower::new(tiny_fleet());
        assert_eq!(follower.lag(), 0);
        follower.observe_head(3);
        assert_eq!(follower.lag(), 3);
        assert_eq!(
            follower
                .apply_shipped(ShippedOp::tagged(1, ingest(0, 0)))
                .unwrap(),
            1
        );
        assert_eq!(
            follower
                .apply_shipped(ShippedOp::tagged(2, FleetOp::Refit))
                .unwrap(),
            2
        );
        assert_eq!(follower.epoch(), 2);
        assert_eq!(follower.head(), 3);
        assert_eq!(follower.lag(), 1);
    }

    #[test]
    fn a_refused_frame_leaves_the_follower_as_it_was() {
        let mut follower = Follower::new(tiny_fleet());
        follower
            .apply_shipped(ShippedOp::tagged(1, ingest(0, 0)))
            .unwrap();
        let state = |f: &Follower| (f.epoch(), f.head(), f.lag(), f.fleet().snapshot().to_json());
        let before = state(&follower);
        // A tagged non-mutation: the stream ships accepted mutations only,
        // so its tag is no head observation.
        let err = follower
            .apply_shipped(ShippedOp::tagged(1_000, FleetOp::Predict))
            .unwrap_err();
        assert!(
            matches!(err, ReplicaError::Rejected { op: "Predict", .. }),
            "{err}"
        );
        assert_eq!(state(&follower), before);
        // A gap frame is refused before its tag raises the head.
        let err = follower
            .apply_shipped(ShippedOp::tagged(5, FleetOp::Refit))
            .unwrap_err();
        assert!(matches!(err, ReplicaError::EpochMismatch { .. }), "{err}");
        assert_eq!(state(&follower), before);
    }

    #[test]
    fn epoch_gaps_and_rejections_are_named_errors() {
        let mut follower = Follower::new(tiny_fleet());
        let before = follower.fleet().snapshot().to_json();
        // A frame tagged 2 against an epoch-0 follower is a gap, refused
        // before it applies: the replica keeps exactly the leader's state.
        let err = follower
            .apply_shipped(ShippedOp::tagged(2, ingest(0, 0)))
            .unwrap_err();
        assert!(
            matches!(
                err,
                ReplicaError::EpochMismatch {
                    pushed: 2,
                    expected: 1,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(follower.fleet().snapshot().to_json(), before);
        // A `Restore` must carry its manifest's epoch (a foreign lineage
        // otherwise), and is refused the same way.
        let manifest = follower.fleet().snapshot();
        let err = follower
            .apply_shipped(ShippedOp::tagged(1, FleetOp::Restore { manifest }))
            .unwrap_err();
        assert!(
            matches!(
                err,
                ReplicaError::EpochMismatch {
                    pushed: 1,
                    expected: 0,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(follower.fleet().snapshot().to_json(), before);
        // Re-shipping an already-arrived worker violates the arrival
        // contract on the replica: a named rejection, not a panic.
        follower
            .apply_shipped(ShippedOp::tagged(1, ingest(0, 0)))
            .unwrap();
        let err = follower
            .apply_shipped(ShippedOp::tagged(2, ingest(0, 1)))
            .unwrap_err();
        assert!(
            matches!(err, ReplicaError::Rejected { op: "Ingest", .. }),
            "{err}"
        );
    }

    #[test]
    fn promote_hands_back_a_mutable_fleet_at_head() {
        let mut follower = Follower::new(tiny_fleet());
        follower
            .apply_shipped(ShippedOp::tagged(1, ingest(1, 2)))
            .unwrap();
        let mut fleet = follower.promote();
        assert_eq!(fleet.epoch(), 1);
        // The promoted fleet accepts mutations — it is the new leader.
        assert!(matches!(
            fleet.apply(FleetOp::Refit),
            FleetReply::Refitted { epoch: 2 }
        ));
    }
}
