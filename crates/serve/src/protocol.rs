//! The fleet command protocol: every mutation of a [`crate::Fleet`] as a
//! serializable op.
//!
//! [`FleetOp`] is the closed vocabulary of things a fleet can be asked to
//! do, and [`FleetReply`] the typed result of each. The fleet's public
//! methods (`ingest`, `refit_all`, `snapshot`, …) are thin wrappers that
//! build an op and hand it to [`crate::Fleet::apply`] — the **one**
//! interpreter every mutation flows through — so anything that can produce
//! an op stream can drive a fleet with exactly the live semantics:
//!
//! - a transport (`cpa-transport` frames ops over TCP),
//! - a recorded **op-log** ([`ops_to_jsonl`] / [`ops_from_jsonl`], the
//!   versioned JSONL format of `cpa_data::io`) replayed through
//!   [`crate::Fleet::replay`] — the one recorded form of an arrival stream,
//! - or plain in-process code ([`crate::Fleet::apply`], or
//!   [`crate::Fleet::drive`] over a `cpa_data::stream::MemorySource`).
//!
//! [`FleetOp::Ingest`] is the only way an arrival batch enters a fleet, on
//! every one of these paths.
//!
//! Because `apply` is deterministic (the PR 3/4 determinism story lifted to
//! the serving tier), replaying a recorded op-log against a fresh fleet
//! reproduces the live run's snapshot **byte for byte** — locked by
//! `tests/transport_roundtrip.rs`.
//!
//! # Wire shapes
//!
//! Ops and replies serialize through the workspace serde shim's externally
//! tagged enum encoding: unit variants as a JSON string (`"Refit"`), struct
//! variants as a one-key object (`{"Ingest": {...}}`). An ingest batch
//! carries the arriving workers plus their answers as
//! `(item, worker, labels)` triples, checked by the arrival contract
//! ([`cpa_data::queue::validate_batch`]). The batch's item set is derived
//! from the answers, so an op is self-contained.

use crate::fleet::FleetManifest;
use crate::view::ReadKind;
use cpa_core::truth::TruthEstimate;
use cpa_data::answers::AnswerMatrix;
use cpa_data::io::IoError;
use cpa_data::labels::LabelSet;
use cpa_data::stream::WorkerBatch;
use serde::{Deserialize, Serialize};

/// One command against a serving fleet. See the module docs for the wire
/// encoding and [`crate::Fleet::apply`] for the semantics of each op.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FleetOp {
    /// Ingest one arrival batch: the arriving workers plus their answers as
    /// `(item, worker, labels)` triples, validated against the arrival
    /// contract before anything is mutated.
    Ingest {
        /// Workers arriving in this batch.
        workers: Vec<usize>,
        /// Their answers as `(item, worker, labels)` triples.
        answers: Vec<(usize, usize, Vec<usize>)>,
    },
    /// Refit every shard (no-op for incremental engines).
    Refit,
    /// Merged consensus predictions in global item order.
    Predict,
    /// Merged soft-truth estimate in global item order.
    Estimate,
    /// Consensus predictions for exactly the requested items, echoed back
    /// in request order (duplicates allowed, any order, empty is valid).
    /// The all-items form stays [`FleetOp::Predict`]; this variant bounds
    /// the reply by the request.
    PredictItems {
        /// The items to predict, in the order the reply should echo.
        items: Vec<usize>,
    },
    /// Per-item soft-truth rows for exactly the requested items (same
    /// request semantics as [`FleetOp::PredictItems`]). Each row carries
    /// the item-indexed estimate fields only — the population-level
    /// `worker_weight`/`community_reliability` vectors stay on the
    /// all-items [`FleetOp::Estimate`] form.
    EstimateItems {
        /// The items to estimate, in the order the reply should echo.
        items: Vec<usize>,
    },
    /// Capture the whole fleet as a versioned manifest.
    Snapshot,
    /// Replace the fleet with one restored from `manifest` (requires a
    /// restore hook, [`crate::Fleet::with_restore_hook`]).
    Restore {
        /// The manifest to restore from.
        manifest: FleetManifest,
    },
    /// Subscribe to the fleet's **mutation stream**: after one
    /// [`FleetReply::Subscribed`] ack carrying the current epoch, the
    /// interpreter pushes every accepted mutation with an epoch greater
    /// than `from_epoch` as a [`FleetReply::OpApplied`] frame — first the
    /// recorded backlog (when op recording is on), then each new mutation
    /// the moment its view is published. This is the op-shipping channel a
    /// replication [`crate::replica::Follower`] tails. Only a transport
    /// that keeps the connection open serves it: a bare in-process fleet
    /// ([`crate::Fleet::apply`]) refuses it with an `Error`.
    SubscribeOps {
        /// Resume point: only mutations with epoch > `from_epoch` are
        /// pushed (0 subscribes from the beginning of the lineage).
        from_epoch: u64,
    },
    /// Subscribe to the fleet's **read deltas**: the interpreter acks with a
    /// bootstrap snapshot — a [`FleetReply::PredictedDelta`] /
    /// [`FleetReply::EstimatedDelta`] carrying every subscribed item's row
    /// at the current epoch — and thereafter (over a transport that retains
    /// the subscription) pushes one delta frame per accepted mutation,
    /// carrying rows for **only the dirty shards'** subscribed items. A
    /// delta whose mutation dirtied no subscribed shard still arrives (with
    /// zero rows) so the subscriber's epoch tracks the head. A bare
    /// in-process fleet refuses it with an `Error`, as it does
    /// [`FleetOp::SubscribeOps`].
    SubscribeReads {
        /// Which read to subscribe to: consensus predictions or soft-truth
        /// estimate rows.
        kind: ReadKind,
        /// `None` subscribes to the full universe at subscription time;
        /// `Some(items)` to exactly those items. The item set is
        /// normalized (sorted, deduplicated) and echoed in the bootstrap.
        items: Option<Vec<usize>>,
    },
    /// Stop serving. The fleet itself is untouched; interpreters (the
    /// transport server, [`crate::Fleet::replay`]) stop consuming ops.
    Shutdown,
}

impl FleetOp {
    /// Builds the ingest op equivalent to one [`WorkerBatch`] over its
    /// source universe: each batch worker's answers to the batch's items,
    /// as self-contained triples. This is how `Fleet::ingest(answers,
    /// batch)` and `Fleet::drive` lower into the protocol.
    pub fn ingest_from(answers: &AnswerMatrix, batch: &WorkerBatch) -> FleetOp {
        let mut triples = Vec::new();
        for &w in &batch.workers {
            for (item, labels) in answers.worker_answers(w) {
                let item = *item as usize;
                if batch.items.binary_search(&item).is_ok() {
                    triples.push((item, w, labels.to_vec()));
                }
            }
        }
        FleetOp::Ingest {
            workers: batch.workers.clone(),
            answers: triples,
        }
    }

    /// The op's stable display name ("Ingest", "Refit", …).
    pub fn name(&self) -> &'static str {
        match self {
            FleetOp::Ingest { .. } => "Ingest",
            FleetOp::Refit => "Refit",
            FleetOp::Predict => "Predict",
            FleetOp::Estimate => "Estimate",
            FleetOp::PredictItems { .. } => "PredictItems",
            FleetOp::EstimateItems { .. } => "EstimateItems",
            FleetOp::Snapshot => "Snapshot",
            FleetOp::Restore { .. } => "Restore",
            FleetOp::SubscribeOps { .. } => "SubscribeOps",
            FleetOp::SubscribeReads { .. } => "SubscribeReads",
            FleetOp::Shutdown => "Shutdown",
        }
    }

    /// True for ops that mutate fleet state when accepted (`Ingest`,
    /// `Refit`, `Restore`); reads and `Shutdown` leave it untouched.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            FleetOp::Ingest { .. } | FleetOp::Refit | FleetOp::Restore { .. }
        )
    }
}

/// The typed result of applying one [`FleetOp`]. Each accepted op maps to
/// exactly one success variant; any rejection is [`FleetReply::Error`] with
/// a human-readable message, and the fleet is left untouched.
///
/// # Epoch tags
///
/// Every state-bearing reply carries the fleet **epoch** it reflects — the
/// number of accepted mutations applied so far (see `Fleet::epoch`).
/// Mutation acks (`Ingested`, `Refitted`, `Restored`) report the epoch the
/// mutation *created*; read replies (`Predictions`, `Estimated`) report the
/// epoch of the published view they were answered from, so replaying the
/// recorded mutation prefix up to that epoch reproduces the reply's payload
/// bit for bit (`Fleet::replay_to_epoch`). `Manifest` carries its epoch
/// inside the manifest itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FleetReply {
    /// An `Ingest` was absorbed as arrival batch number `batch` (1-based).
    Ingested {
        /// The arrival index assigned to the batch.
        batch: usize,
        /// The fleet epoch this ingest created.
        epoch: u64,
    },
    /// A `Refit` completed on every shard.
    Refitted {
        /// The fleet epoch this refit created.
        epoch: u64,
    },
    /// A `Predict`'s merged consensus label sets, in global item order.
    Predictions {
        /// One label set per item.
        predictions: Vec<LabelSet>,
        /// The epoch of the read view these predictions came from.
        epoch: u64,
    },
    /// An `Estimate`'s merged soft-truth estimate.
    Estimated {
        /// The merged estimate (see `Fleet::estimate_all` for the merge).
        estimate: TruthEstimate,
        /// The epoch of the read view this estimate came from.
        epoch: u64,
    },
    /// A `PredictItems`' consensus label sets, echoing the request.
    PredictedItems {
        /// The requested items, in request order.
        items: Vec<usize>,
        /// One label set per requested item, aligned with `items`.
        predictions: Vec<LabelSet>,
        /// The epoch of the read view these predictions came from.
        epoch: u64,
    },
    /// An `EstimateItems`' per-item soft-truth rows, echoing the request.
    EstimatedItems {
        /// The requested items, in request order.
        items: Vec<usize>,
        /// One estimate row per requested item, aligned with `items`.
        rows: Vec<ItemEstimate>,
        /// The epoch of the read view these rows came from.
        epoch: u64,
    },
    /// A `Snapshot`'s versioned fleet manifest.
    Manifest {
        /// The captured manifest (carries the epoch it was captured at).
        manifest: FleetManifest,
    },
    /// A `Restore` replaced the fleet state.
    Restored {
        /// The restored fleet's epoch — adopted from the manifest, so it
        /// may jump backwards relative to the pre-restore lineage.
        epoch: u64,
    },
    /// A `SubscribeOps` was accepted; [`FleetReply::OpApplied`] frames
    /// follow (over a transport that retains the subscription).
    Subscribed {
        /// The fleet epoch at subscription time — the stream's head, so a
        /// subscriber can bound its observable lag from the first frame.
        epoch: u64,
    },
    /// A predictions read-delta frame: the bootstrap ack of a
    /// `SubscribeReads { kind: Predictions, .. }` (all subscribed rows,
    /// every covered shard listed dirty) and every pushed delta thereafter
    /// (rows for the subscribed items of the mutation's dirty shards only).
    /// `items` and `predictions` are aligned, in ascending item order.
    PredictedDelta {
        /// The subscribed items this frame carries rows for, ascending —
        /// the full subscription in a bootstrap, the dirty subset in a
        /// delta (possibly empty).
        items: Vec<usize>,
        /// One label set per carried item, aligned with `items`.
        predictions: Vec<LabelSet>,
        /// The shards contributing rows to this frame, ascending: every
        /// shard covering the subscription in a bootstrap; in a delta, the
        /// mutation's dirty shards that intersect the subscription.
        dirty_shards: Vec<usize>,
        /// The epoch of the published view this frame reflects. Applying
        /// the frame leaves a subscriber's row set bit-identical to a poll
        /// refetch at this epoch.
        epoch: u64,
    },
    /// An estimate read-delta frame — the [`FleetReply::PredictedDelta`]
    /// shape with per-item soft-truth rows ([`ItemEstimate`]).
    EstimatedDelta {
        /// The subscribed items this frame carries rows for, ascending.
        items: Vec<usize>,
        /// One estimate row per carried item, aligned with `items`.
        rows: Vec<ItemEstimate>,
        /// The shards contributing rows to this frame, ascending.
        dirty_shards: Vec<usize>,
        /// The epoch of the published view this frame reflects.
        epoch: u64,
    },
    /// One accepted mutation pushed to a `SubscribeOps` subscriber, tagged
    /// with the epoch the mutation created. Applying the op to a follower
    /// fleet whose epoch is `epoch - 1` reproduces the leader's state at
    /// `epoch` bit for bit (the replay guarantee, frame by frame).
    OpApplied {
        /// The epoch the mutation created on the publisher.
        epoch: u64,
        /// The mutation itself, exactly as the publisher applied it.
        op: FleetOp,
    },
    /// A `Shutdown` was acknowledged; no further ops will be consumed.
    ShuttingDown,
    /// The op was rejected; the fleet is unchanged.
    Error {
        /// Why the op was rejected.
        message: String,
    },
}

/// One item's slice of the merged soft-truth estimate — the row type of
/// [`FleetReply::EstimatedItems`]. A row carries exactly the item-indexed
/// fields of [`TruthEstimate`] for its item; the population-level vectors
/// (`worker_weight`, `community_reliability`) are not item-sliceable and
/// stay on the all-items `Estimated` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemEstimate {
    /// Sparse `(label, probability)` pairs — `TruthEstimate::soft[item]`.
    pub soft: Vec<(usize, f64)>,
    /// Expected label-set size — `TruthEstimate::expected_size[item]`.
    pub expected_size: f64,
}

impl ItemEstimate {
    /// Slices one item's row out of a merged estimate.
    ///
    /// # Panics
    /// Panics if `item` is outside the estimate's universe.
    pub fn from_estimate(estimate: &TruthEstimate, item: usize) -> Self {
        Self {
            soft: estimate.soft[item].clone(),
            expected_size: estimate.expected_size[item],
        }
    }
}

impl FleetReply {
    /// The reply's stable display name ("Ingested", "Error", …).
    pub fn name(&self) -> &'static str {
        match self {
            FleetReply::Ingested { .. } => "Ingested",
            FleetReply::Refitted { .. } => "Refitted",
            FleetReply::Predictions { .. } => "Predictions",
            FleetReply::Estimated { .. } => "Estimated",
            FleetReply::PredictedItems { .. } => "PredictedItems",
            FleetReply::EstimatedItems { .. } => "EstimatedItems",
            FleetReply::Manifest { .. } => "Manifest",
            FleetReply::Restored { .. } => "Restored",
            FleetReply::Subscribed { .. } => "Subscribed",
            FleetReply::PredictedDelta { .. } => "PredictedDelta",
            FleetReply::EstimatedDelta { .. } => "EstimatedDelta",
            FleetReply::OpApplied { .. } => "OpApplied",
            FleetReply::ShuttingDown => "ShuttingDown",
            FleetReply::Error { .. } => "Error",
        }
    }

    /// The epoch tag carried by a state-bearing reply ([`FleetReply`] docs):
    /// `None` for `Shutdown` acks and errors; a `Manifest` reply reports the
    /// epoch recorded inside the manifest.
    pub fn epoch(&self) -> Option<u64> {
        match self {
            FleetReply::Ingested { epoch, .. }
            | FleetReply::Refitted { epoch }
            | FleetReply::Predictions { epoch, .. }
            | FleetReply::Estimated { epoch, .. }
            | FleetReply::PredictedItems { epoch, .. }
            | FleetReply::EstimatedItems { epoch, .. }
            | FleetReply::Restored { epoch }
            | FleetReply::Subscribed { epoch }
            | FleetReply::PredictedDelta { epoch, .. }
            | FleetReply::EstimatedDelta { epoch, .. }
            | FleetReply::OpApplied { epoch, .. } => Some(*epoch),
            FleetReply::Manifest { manifest } => Some(manifest.epoch),
            FleetReply::ShuttingDown | FleetReply::Error { .. } => None,
        }
    }

    /// Shorthand for an [`FleetReply::Error`] from any displayable cause.
    pub fn err(cause: impl std::fmt::Display) -> FleetReply {
        FleetReply::Error {
            message: cause.to_string(),
        }
    }
}

/// The items a [`FleetOp::SubscribeReads`] watches over a `num_items`
/// universe: its list sorted and deduplicated, or for `None` every item (a
/// full subscription pins the universe it saw). The bootstrap echoes this
/// list, and every later delta carries rows for a subset of it.
pub fn subscribed_items(items: Option<Vec<usize>>, num_items: usize) -> Vec<usize> {
    match items {
        Some(mut list) => {
            list.sort_unstable();
            list.dedup();
            list
        }
        None => (0..num_items).collect(),
    }
}

/// Serializes an op stream as a versioned JSONL op-log
/// ([`cpa_data::io::oplog_to_jsonl`]): a `{"op_log_version": 1}` header
/// line, then one op per line in applied order.
pub fn ops_to_jsonl(ops: &[FleetOp]) -> String {
    cpa_data::io::oplog_to_jsonl(ops)
}

/// Parses an op-log written by [`ops_to_jsonl`], with version-first
/// rejection and truncated-line hardening (see
/// [`cpa_data::io::oplog_from_jsonl`]).
///
/// # Errors
/// Fails on a missing/malformed header, a version mismatch, or a line that
/// does not decode as a [`FleetOp`] (named by its 1-based line number).
pub fn ops_from_jsonl(text: &str) -> Result<Vec<FleetOp>, IoError> {
    cpa_data::io::oplog_from_jsonl(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_roundtrip_through_the_jsonl_oplog() {
        let ops = vec![
            FleetOp::Ingest {
                workers: vec![0, 2],
                answers: vec![(0, 0, vec![1]), (1, 2, vec![0, 2])],
            },
            FleetOp::Refit,
            FleetOp::Predict,
            FleetOp::PredictItems {
                items: vec![3, 1, 1],
            },
            FleetOp::EstimateItems { items: vec![] },
            FleetOp::Snapshot,
            FleetOp::Shutdown,
        ];
        let jsonl = ops_to_jsonl(&ops);
        assert_eq!(jsonl.lines().count(), ops.len() + 1, "header + one op/line");
        let back = ops_from_jsonl(&jsonl).unwrap();
        assert_eq!(back.len(), ops.len());
        // Compare through JSON (FleetManifest/Checkpoint carry no PartialEq).
        for (a, b) in ops.iter().zip(&back) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
    }

    #[test]
    fn truncated_oplog_is_rejected_with_the_line_number() {
        let ops = vec![FleetOp::Refit, FleetOp::Predict, FleetOp::Shutdown];
        let jsonl = ops_to_jsonl(&ops);
        // Cut inside the final line (a crash mid-append).
        let cut = jsonl.len() - 3;
        let err = ops_from_jsonl(&jsonl[..cut]).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn op_and_reply_names_are_stable() {
        assert_eq!(FleetOp::Refit.name(), "Refit");
        assert_eq!(
            FleetOp::Ingest {
                workers: vec![],
                answers: vec![]
            }
            .name(),
            "Ingest"
        );
        assert!(FleetOp::Refit.is_mutation());
        assert!(!FleetOp::Predict.is_mutation());
        assert_eq!(
            FleetOp::PredictItems { items: vec![0] }.name(),
            "PredictItems"
        );
        assert_eq!(
            FleetOp::EstimateItems { items: vec![0] }.name(),
            "EstimateItems"
        );
        // Ranged reads are reads: they never bump the epoch.
        assert!(!FleetOp::PredictItems { items: vec![0] }.is_mutation());
        assert!(!FleetOp::EstimateItems { items: vec![0] }.is_mutation());
        assert_eq!(FleetReply::err("nope").name(), "Error");
    }

    #[test]
    fn subscription_variants_are_additive_reads_with_epoch_tags() {
        // SubscribeOps is a read: it must never bump the epoch (a follower
        // subscribing cannot perturb the leader's lineage).
        let op = FleetOp::SubscribeOps { from_epoch: 7 };
        assert_eq!(op.name(), "SubscribeOps");
        assert!(!op.is_mutation());
        let subscribed = FleetReply::Subscribed { epoch: 12 };
        assert_eq!(subscribed.name(), "Subscribed");
        assert_eq!(subscribed.epoch(), Some(12));
        let pushed = FleetReply::OpApplied {
            epoch: 13,
            op: FleetOp::Refit,
        };
        assert_eq!(pushed.name(), "OpApplied");
        assert_eq!(pushed.epoch(), Some(13));
        // Both sides of the shipping channel survive the wire encoding.
        for json in [
            serde_json::to_string(&op).unwrap(),
            serde_json::to_string(&pushed).unwrap(),
        ] {
            assert!(json.contains("7") || json.contains("13"), "{json}");
        }
        let back: FleetReply =
            serde_json::from_str(&serde_json::to_string(&pushed).unwrap()).unwrap();
        match back {
            FleetReply::OpApplied { epoch, op } => {
                assert_eq!(epoch, 13);
                assert_eq!(op.name(), "Refit");
            }
            other => panic!("unexpected decode {}", other.name()),
        }
    }

    #[test]
    fn read_subscription_variants_roundtrip_and_never_mutate() {
        // SubscribeReads is a read: the epoch lineage must not notice a
        // subscriber arriving.
        let full = FleetOp::SubscribeReads {
            kind: ReadKind::Predictions,
            items: None,
        };
        let ranged = FleetOp::SubscribeReads {
            kind: ReadKind::Estimate,
            items: Some(vec![4, 1, 4]),
        };
        for op in [&full, &ranged] {
            assert_eq!(op.name(), "SubscribeReads");
            assert!(!op.is_mutation());
            let json = serde_json::to_string(op).unwrap();
            let back: FleetOp = serde_json::from_str(&json).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
        // `items: None` rides the wire as null and comes back as None.
        assert!(serde_json::to_string(&full).unwrap().contains("null"));

        let delta = FleetReply::PredictedDelta {
            items: vec![0, 3],
            predictions: vec![],
            dirty_shards: vec![1],
            epoch: 6,
        };
        assert_eq!(delta.name(), "PredictedDelta");
        assert_eq!(delta.epoch(), Some(6));
        let est = FleetReply::EstimatedDelta {
            items: vec![],
            rows: vec![],
            dirty_shards: vec![],
            epoch: 2,
        };
        assert_eq!(est.name(), "EstimatedDelta");
        assert_eq!(est.epoch(), Some(2));
        for reply in [&delta, &est] {
            let json = serde_json::to_string(reply).unwrap();
            let back: FleetReply = serde_json::from_str(&json).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn ranged_replies_carry_epoch_tags_and_names() {
        let predicted = FleetReply::PredictedItems {
            items: vec![2, 0],
            predictions: vec![],
            epoch: 5,
        };
        assert_eq!(predicted.name(), "PredictedItems");
        assert_eq!(predicted.epoch(), Some(5));
        let estimated = FleetReply::EstimatedItems {
            items: vec![1],
            rows: vec![ItemEstimate {
                soft: vec![(0, 0.75)],
                expected_size: 1.5,
            }],
            epoch: 9,
        };
        assert_eq!(estimated.name(), "EstimatedItems");
        assert_eq!(estimated.epoch(), Some(9));
        // Both survive the wire encoding round trip.
        let json = serde_json::to_string(&estimated).unwrap();
        let back: FleetReply = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
