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
//! Where the ops come from is abstracted behind [`OpFeed`] so the runtime
//! is transport-agnostic (`cpa-serve` sits *below* `cpa-transport` in the
//! crate graph):
//!
//! - **live stream** — `cpa-transport`'s subscription client
//!   (`FleetOp::SubscribeOps`) implements `OpFeed`: the leader's server
//!   pushes every accepted mutation as an epoch-tagged
//!   [`FleetReply::OpApplied`](crate::FleetReply)
//!   frame the moment its view is published, and each frame's epoch tag is
//!   checked against the epoch the follower's apply would produce before
//!   the op is applied;
//! - **live on-disk op-log** — [`OpLogTailFeed`] tails a growing JSONL
//!   op-log through the tolerant `cpa_data::io::oplog_tail_jsonl` reader
//!   (a partially-appended final record is a clean resumable boundary, not
//!   corruption), yielding untagged ops whose epochs the follower derives
//!   by applying them.
//!
//! **Failover** is replay-to-head then promote: when the feed ends (the
//! leader closed the stream, or the log went quiet past the tail feed's
//! idle timeout), [`Follower::sync`] has already applied everything the
//! leader acked; [`Follower::promote`] hands back the fleet, which then
//! accepts mutations as the new leader. Because the follower replayed the
//! leader's exact mutation sequence, the promoted fleet's manifest is
//! byte-for-byte the leader's final manifest (locked by
//! `tests/replication.rs`).
//!
//! A `Shutdown` in the shipped stream is the **leader's** shutdown, not the
//! follower's: it is skipped like any non-mutating op (the
//! [`StopAt::End`](crate::fleet::StopAt::End) discipline), so a follower
//! tails cleanly past the marker a local replay would stop at.

use crate::fleet::Fleet;
use crate::protocol::{FleetOp, FleetReply};
use crate::view::ViewHandle;
use std::time::{Duration, Instant};

/// One op delivered to a follower: the mutation plus, when the feed knows
/// it (subscription frames do, raw log tails don't), the epoch the leader's
/// apply produced — checked against the follower's state before applying.
#[derive(Debug, Clone)]
pub struct ShippedOp {
    /// The epoch this op created on the leader, if the feed carries tags.
    pub epoch: Option<u64>,
    /// The op itself, exactly as the leader applied it.
    pub op: FleetOp,
}

impl ShippedOp {
    /// An epoch-tagged op (the subscription-frame shape).
    pub fn tagged(epoch: u64, op: FleetOp) -> Self {
        Self {
            epoch: Some(epoch),
            op,
        }
    }

    /// An untagged op (the raw-op-log shape; the follower derives the
    /// epoch by applying).
    pub fn untagged(op: FleetOp) -> Self {
        Self { epoch: None, op }
    }
}

/// A source of shipped ops a follower tails.
///
/// `next_op` blocks until the next op is available, and returns `Ok(None)`
/// when the stream has ended — the leader closed the subscription, or a
/// log tail went idle past its deadline. After `Ok(None)` the follower is
/// at the stream's head and ready to [`Follower::promote`].
pub trait OpFeed {
    /// The next shipped op, `Ok(None)` at end of stream.
    ///
    /// # Errors
    /// [`ReplicaError::Feed`] on any transport/parse failure underneath.
    fn next_op(&mut self) -> Result<Option<ShippedOp>, ReplicaError>;
}

/// What [`Follower::apply_shipped`] did with one shipped op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A mutation was applied; the follower now serves this epoch.
    Mutation(u64),
    /// A non-mutating op (a read in a raw log, or the leader's `Shutdown`)
    /// was skipped; the follower's epoch is unchanged.
    Skipped,
}

/// Why replication stopped.
#[derive(Debug)]
pub enum ReplicaError {
    /// The feed underneath failed (socket death, log corruption, …).
    Feed(String),
    /// The leader rejected-and-shipped nothing, but the follower rejected:
    /// the shipped op did not apply cleanly — divergent state or a
    /// corrupted stream.
    Rejected {
        /// The op's stable name.
        op: &'static str,
        /// The follower fleet's rejection message.
        message: String,
    },
    /// The epoch tag the leader pushed is not the epoch applying the op
    /// would produce — a gap, a reorder or a foreign lineage in the shipped
    /// stream. The op was not applied.
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
            ReplicaError::Feed(message) => write!(f, "op feed failed: {message}"),
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
    /// Highest leader epoch observed (subscription ack + frame tags).
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

    /// The highest leader epoch observed so far (from the subscription ack
    /// and every frame's tag) — the known head of the stream.
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

    /// Applies one shipped op. Non-mutations (reads recorded in a raw log,
    /// the **leader's** `Shutdown`) are skipped. When the frame carries an
    /// epoch tag, it is checked *before* the mutation is applied: a
    /// `Restore` must carry its manifest's epoch, any other mutation the
    /// follower's epoch plus one. Mutations that pass go through
    /// [`Fleet::apply`].
    ///
    /// # Errors
    /// [`ReplicaError::EpochMismatch`] on a tag the op would not produce
    /// (gap, reorder or foreign lineage in the stream), and
    /// [`ReplicaError::Rejected`] if the replica fleet rejects the op
    /// (divergent state). Either way the replica fleet is left untouched.
    pub fn apply_shipped(&mut self, shipped: ShippedOp) -> Result<Applied, ReplicaError> {
        let ShippedOp { epoch, op } = shipped;
        if let Some(pushed) = epoch {
            self.observe_head(pushed);
        }
        if !op.is_mutation() {
            return Ok(Applied::Skipped);
        }
        let name = op.name();
        if let Some(pushed) = epoch {
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
        }
        match self.fleet.apply(op) {
            FleetReply::Error { message } => Err(ReplicaError::Rejected { op: name, message }),
            _ => {
                // Post-restore lineages can jump the epoch backwards; the
                // head tracks the lineage the fleet is actually on.
                let applied = self.fleet.epoch();
                self.head = self.head.max(applied);
                Ok(Applied::Mutation(applied))
            }
        }
    }

    /// Drains `feed` to the end of stream, applying every shipped mutation
    /// — replay-to-head. Returns the epoch the follower finished at.
    ///
    /// # Errors
    /// Any [`ReplicaError`] from the feed or from applying.
    pub fn sync(&mut self, feed: &mut dyn OpFeed) -> Result<u64, ReplicaError> {
        while let Some(shipped) = feed.next_op()? {
            self.apply_shipped(shipped)?;
        }
        Ok(self.fleet.epoch())
    }

    /// Failover: hands the replica fleet back as a plain [`Fleet`], ready
    /// to accept mutations as the new leader. Call after
    /// [`Follower::sync`] has drained the stream to its head; the promoted
    /// fleet's snapshot is then byte-for-byte the old leader's final
    /// manifest.
    pub fn promote(self) -> Fleet {
        self.fleet
    }
}

/// An [`OpFeed`] tailing a live, append-in-progress JSONL op-log on disk
/// through the tolerant `cpa_data::io::oplog_tail_jsonl` reader: a
/// partially-appended final record is a clean resumable boundary (the next
/// poll re-reads it once its newline lands), never a parse error.
///
/// The feed re-reads the file each poll and yields the records beyond what
/// it already delivered, untagged (the follower derives epochs by
/// applying). The stream "ends" — `next_op` returns `Ok(None)` — once the
/// log has grown no new complete record for `idle_timeout`: the writer is
/// presumed dead, which is the failover trigger for log-shipping setups.
#[derive(Debug)]
pub struct OpLogTailFeed {
    path: std::path::PathBuf,
    delivered: usize,
    poll_interval: Duration,
    idle_timeout: Duration,
}

impl OpLogTailFeed {
    /// Tails `path`, polling every `poll_interval`, declaring end of
    /// stream after `idle_timeout` without a new complete record.
    pub fn new(
        path: impl Into<std::path::PathBuf>,
        poll_interval: Duration,
        idle_timeout: Duration,
    ) -> Self {
        Self {
            path: path.into(),
            delivered: 0,
            poll_interval,
            idle_timeout,
        }
    }

    /// Records delivered so far (monotone; survives partial final records).
    pub fn delivered(&self) -> usize {
        self.delivered
    }
}

impl OpFeed for OpLogTailFeed {
    fn next_op(&mut self) -> Result<Option<ShippedOp>, ReplicaError> {
        let deadline = Instant::now() + self.idle_timeout;
        loop {
            // A not-yet-created file is a writer that has not started; an
            // empty or header-only file is a log with no records yet. Both
            // are idle states, not errors, until the deadline.
            let text = std::fs::read_to_string(&self.path).unwrap_or_default();
            let tail = cpa_data::io::oplog_tail_jsonl::<FleetOp>(&text)
                .map_err(|e| ReplicaError::Feed(format!("{}: {e}", self.path.display())))?;
            if let Some(op) = tail.ops.into_iter().nth(self.delivered) {
                self.delivered += 1;
                return Ok(Some(ShippedOp::untagged(op)));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(self.poll_interval);
        }
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
    fn follower_applies_tagged_mutations_and_skips_leader_shutdown() {
        let mut follower = Follower::new(tiny_fleet());
        assert_eq!(follower.lag(), 0);
        follower.observe_head(3);
        assert_eq!(follower.lag(), 3);
        assert_eq!(
            follower
                .apply_shipped(ShippedOp::tagged(1, ingest(0, 0)))
                .unwrap(),
            Applied::Mutation(1)
        );
        // The leader's shutdown marker is not the follower's.
        assert_eq!(
            follower
                .apply_shipped(ShippedOp::untagged(FleetOp::Shutdown))
                .unwrap(),
            Applied::Skipped
        );
        assert_eq!(
            follower
                .apply_shipped(ShippedOp::tagged(2, FleetOp::Refit))
                .unwrap(),
            Applied::Mutation(2)
        );
        assert_eq!(follower.epoch(), 2);
        assert_eq!(follower.head(), 3);
        assert_eq!(follower.lag(), 1);
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
