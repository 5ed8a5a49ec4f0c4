//! **cpa-serve** — the sharded serving layer over the uniform engine seam.
//!
//! The paper's streaming inference (Algorithm 2/3) handles one answer
//! stream; serving heavy traffic needs many. This crate scales the
//! `cpa_core::engine::Engine` abstraction horizontally:
//!
//! - [`router::ShardRouter`] — deterministic item → shard routing (the
//!   canonical `cpa_data::stream::shard_of` hash) plus shard-local views of
//!   answer universes and arrival batches;
//! - [`protocol`] — the [`protocol::FleetOp`] / [`protocol::FleetReply`]
//!   command vocabulary every fleet mutation is expressed in, plus the
//!   versioned JSONL **op-log** ([`protocol::ops_to_jsonl`] /
//!   [`protocol::ops_from_jsonl`]) for record/replay;
//! - [`fleet::Fleet`] — K shards, each owning a `Box<dyn Engine + Send>`,
//!   driven concurrently on the workspace thread pool behind **one op
//!   interpreter**, [`fleet::Fleet::apply`] (the named
//!   `ingest` / `refit_all` / `predict_all` / `estimate_all` methods are
//!   thin wrappers), with per-item results merged back into global item
//!   order;
//! - [`fleet::FleetManifest`] — fleet-wide snapshot/restore as a versioned
//!   manifest of per-shard checkpoints plus arrival state (and the fleet
//!   epoch), with the same **bit-identical resume** guarantee the
//!   single-engine checkpoints give;
//! - [`view`] — the epoch-published read path: every accepted mutation
//!   bumps the fleet epoch and publishes an immutable
//!   [`view::ReadView`] through an `Arc`-swapped [`view::ViewHandle`], so
//!   `Predict`/`Estimate` — all-items or item-ranged
//!   (`PredictItems`/`EstimateItems`) — are answered from per-shard slabs
//!   and reply rows cached once per epoch, without re-driving the shards —
//!   and, over `cpa-transport`, by splicing those rows, with a driver
//!   round trip only to fill a cold slab ([`fleet::Fleet::fill`]).
//!   Publication is **incremental**: shards untouched by a mutation carry
//!   their filled `Arc` cells into the next epoch's view.
//! - [`push`] — the read-delta subscription cache: a [`push::ReadCache`]
//!   built from a `SubscribeReads` bootstrap applies the per-mutation
//!   delta frames a leader pushes (rows for only the dirty shards'
//!   subscribed items), holding, at every epoch, rows bit-identical to a
//!   poll refetch — zero-RTT reads off a one-way stream.
//! - [`replica`] — leader/follower replication by op shipping: a
//!   [`replica::Follower`] owns its own fleet and applies the leader's
//!   epoch-tagged accepted mutations (the `SubscribeOps` stream over
//!   `cpa-transport`) through the same `Fleet::apply` interpreter, serving
//!   reads bit-identical to the leader at every epoch it reaches, with
//!   observable lag — failover is replay-to-head then
//!   [`replica::Follower::promote`].
//!
//! Live traffic enters one way: as [`protocol::FleetOp::Ingest`] ops
//! through [`fleet::Fleet::apply`], which checks each batch against the
//! arrival contract (`cpa_data::queue::validate_batch`). In process,
//! [`fleet::Fleet::drive`] lowers every batch of a
//! `cpa_data::stream::MemorySource` into one; from another process, the
//! `cpa-transport` TCP front-end frames the same ops over a socket and
//! funnels them into `apply`; a recorded op-log replays them through
//! [`fleet::Fleet::replay`].
//!
//! ```
//! use cpa_core::engine::DynEngine;
//! use cpa_core::{BatchCpa, CpaConfig};
//! use cpa_data::profile::DatasetProfile;
//! use cpa_data::simulate::simulate;
//! use cpa_data::stream::MemorySource;
//! use cpa_serve::fleet::Fleet;
//! use cpa_serve::{FleetOp, FleetReply};
//!
//! let sim = simulate(&DatasetProfile::movie().scaled(0.04), 7);
//! let d = &sim.dataset;
//! let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
//!
//! // A 2-shard fleet of batch engines, fed every worker in one batch.
//! let mut fleet = Fleet::new(2, 1, i, u, c, |_| {
//!     Box::new(BatchCpa::new(CpaConfig::default().with_truncation(4, 5), i, u, c)) as DynEngine
//! });
//! fleet.drive(&mut MemorySource::single_batch(&d.answers));
//! let consensus = fleet.predict_all();
//! assert_eq!(consensus.len(), i);
//!
//! // A batch that breaks the arrival contract is refused, fleet untouched.
//! let again = FleetOp::Ingest { workers: vec![0, 0], answers: vec![] };
//! assert!(matches!(fleet.apply(again), FleetReply::Error { .. }));
//! assert_eq!(fleet.predict_all(), consensus);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod fleet;
pub mod protocol;
pub mod push;
pub mod replica;
pub mod router;
pub mod view;

pub use fleet::{Fleet, FleetError, FleetManifest, FLEET_MANIFEST_VERSION};
pub use protocol::{
    ops_from_jsonl, ops_to_jsonl, subscribed_items, FleetOp, FleetReply, ItemEstimate,
};
pub use push::{AppliedDelta, PushError, ReadCache};
pub use replica::{Follower, ReplicaError, ShippedOp};
pub use router::{ShardIndex, ShardRouter};
pub use view::{EncodedRows, ReadKind, ReadView, ViewHandle, WIRE_SLOTS};

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_core::engine::{drive, DynEngine, Engine};
    use cpa_core::{BatchCpa, CpaConfig};
    use cpa_data::profile::DatasetProfile;
    use cpa_data::simulate::simulate;
    use cpa_data::stream::{MemorySource, WorkerStream};
    use cpa_math::rng::seeded;
    use std::sync::Arc;

    fn cfg() -> CpaConfig {
        CpaConfig::default().with_truncation(4, 5).with_seed(31)
    }

    fn batch_fleet(k: usize, threads: usize, i: usize, u: usize, c: usize) -> Fleet {
        Fleet::new(k, threads, i, u, c, |_| {
            Box::new(BatchCpa::new(cfg(), i, u, c)) as DynEngine
        })
    }

    #[test]
    fn single_shard_fleet_equals_plain_engine() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 31);
        let d = &sim.dataset;
        let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
        let mut rng = seeded(32);
        let batches = WorkerStream::new(d, 7, &mut rng).into_batches();

        let mut fleet = batch_fleet(1, 1, i, u, c);
        fleet.drive(&mut MemorySource::new(&d.answers, batches.clone()));

        let mut engine = BatchCpa::new(cfg(), i, u, c);
        drive(&mut engine, &mut MemorySource::new(&d.answers, batches));

        assert_eq!(fleet.predict_all(), engine.predict_all());
        assert_eq!(fleet.num_answers_seen(), d.answers.num_answers());
        let (fe, ee) = (fleet.estimate_all(), engine.estimate());
        assert_eq!(fe.soft, ee.soft);
        assert_eq!(fe.expected_size, ee.expected_size);
        assert_eq!(fe.worker_weight, ee.worker_weight);
    }

    #[test]
    fn sharded_fleet_covers_every_answer_exactly_once() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 33);
        let d = &sim.dataset;
        let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
        let mut rng = seeded(34);
        let batches = WorkerStream::new(d, 6, &mut rng).into_batches();
        let mut fleet = batch_fleet(4, 2, i, u, c);
        fleet.drive(&mut MemorySource::new(&d.answers, batches));
        assert_eq!(fleet.num_answers_seen(), d.answers.num_answers());
        // Each shard holds exactly the answers of the items it owns.
        let router = fleet.router();
        for s in 0..fleet.num_shards() {
            let seen = fleet.shard(s).seen_answers();
            for item in 0..i {
                let full = d.answers.item_answers(item);
                let here = seen.item_answers(item);
                if router.route(item) == s {
                    assert_eq!(here, full, "shard {s} item {item}");
                } else {
                    assert!(here.is_empty(), "shard {s} leaked item {item}");
                }
            }
        }
        let preds = fleet.predict_all();
        assert_eq!(preds.len(), i);
        assert!(preds.iter().all(|p| p.universe() == c));
    }

    #[test]
    fn epochs_count_accepted_mutations_and_survive_restore() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 41);
        let d = &sim.dataset;
        let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
        let mut rng = seeded(42);
        let batches = WorkerStream::new(d, 5, &mut rng).into_batches();
        let mut fleet = batch_fleet(2, 1, i, u, c);
        assert_eq!(fleet.epoch(), 0);
        fleet.drive(&mut MemorySource::new(&d.answers, batches));
        // drive = one Ingest per batch + one final Refit, all accepted.
        assert_eq!(fleet.epoch(), fleet.batches_ingested() as u64 + 1);
        let epoch = fleet.epoch();

        // Reads never bump the epoch, and fill every shard's slab of the
        // published view exactly once.
        let preds = fleet.predict_all();
        assert_eq!(fleet.epoch(), epoch);
        let view = fleet.view_handle().current();
        assert_eq!(view.epoch(), epoch);
        let slabs: Vec<_> = (0..fleet.num_shards())
            .map(|s| view.shard_predictions(s).expect("slab filled by read"))
            .collect();
        assert_eq!(fleet.predict_all(), preds);
        for (s, slab) in slabs.iter().enumerate() {
            assert!(Arc::ptr_eq(slab, &view.shard_predictions(s).unwrap()));
        }
        match fleet.apply(FleetOp::Predict) {
            FleetReply::Predictions {
                predictions,
                epoch: tag,
            } => {
                assert_eq!(tag, epoch);
                assert_eq!(predictions, preds);
            }
            other => panic!("unexpected reply {}", other.name()),
        }

        // Rejected ops leave the epoch (and the published view) untouched.
        let manifest = fleet.snapshot();
        assert_eq!(manifest.epoch, epoch);
        let reply = fleet.apply(FleetOp::Restore {
            manifest: manifest.clone(),
        });
        assert!(
            matches!(reply, FleetReply::Error { .. }),
            "no hook installed"
        );
        assert_eq!(fleet.epoch(), epoch);

        // A restored fleet resumes tagging from the manifest's epoch.
        let restored = Fleet::restore(manifest, 1, |cp| {
            BatchCpa::restore(cp).map(|e| Box::new(e) as DynEngine)
        })
        .unwrap();
        assert_eq!(restored.epoch(), epoch);
        assert_eq!(restored.view_handle().current().epoch(), epoch);
    }

    #[test]
    fn subscriptions_are_refused_in_process() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 43);
        let d = &sim.dataset;
        let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
        let mut rng = seeded(44);
        let batches = WorkerStream::new(d, 5, &mut rng).into_batches();
        let mut fleet = batch_fleet(2, 1, i, u, c);
        fleet.drive(&mut MemorySource::new(&d.answers, batches));
        fleet.predict_all();
        let (epoch, view) = (fleet.epoch(), fleet.view_handle().current());

        for op in [
            FleetOp::SubscribeOps { from_epoch: 0 },
            FleetOp::SubscribeReads {
                kind: ReadKind::Predictions,
                items: None,
            },
        ] {
            let name = op.name();
            match fleet.apply(op) {
                FleetReply::Error { message } => {
                    assert!(message.contains("keeps the connection open"), "{message}")
                }
                other => panic!("{name}: expected an Error, got {}", other.name()),
            }
            assert_eq!(fleet.epoch(), epoch, "{name}");
            assert!(
                Arc::ptr_eq(&fleet.view_handle().current(), &view),
                "{name} published a view"
            );
        }
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 35);
        let d = &sim.dataset;
        let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
        let mut fleet = batch_fleet(2, 1, i, u, c);
        fleet.drive(&mut MemorySource::single_batch(&d.answers));
        let json = fleet.snapshot().to_json();
        let manifest = FleetManifest::from_json(&json).unwrap();
        let restored = Fleet::restore(manifest, 1, |cp| {
            BatchCpa::restore(cp).map(|e| Box::new(e) as DynEngine)
        })
        .unwrap();
        assert_eq!(restored.predict_all(), fleet.predict_all());
        assert_eq!(restored.num_answers_seen(), fleet.num_answers_seen());
    }

    #[test]
    fn manifest_version_mismatch_is_rejected_before_payload() {
        let text = format!(
            "{{\"version\": {}, \"num_items\": 1, \"num_workers\": 1, \"num_labels\": 1, \
             \"shards\": \"future\"}}",
            FLEET_MANIFEST_VERSION + 1
        );
        let err = FleetManifest::from_json(&text).unwrap_err();
        assert!(
            matches!(err, FleetError::Version { found, .. } if found == FLEET_MANIFEST_VERSION + 1),
            "{err}"
        );
    }

    #[test]
    fn reordered_manifest_shards_are_rejected() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 37);
        let d = &sim.dataset;
        let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
        let mut fleet = batch_fleet(2, 1, i, u, c);
        fleet.drive(&mut MemorySource::single_batch(&d.answers));
        let mut manifest = fleet.snapshot();
        manifest.shards.swap(0, 1);
        let err = Fleet::restore(manifest, 1, |cp| {
            BatchCpa::restore(cp).map(|e| Box::new(e) as DynEngine)
        })
        .unwrap_err();
        assert!(matches!(err, FleetError::Invalid(_)), "{err}");
    }

    #[test]
    fn shard_restore_failure_names_the_shard() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 39);
        let d = &sim.dataset;
        let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
        let mut fleet = batch_fleet(2, 1, i, u, c);
        fleet.drive(&mut MemorySource::single_batch(&d.answers));
        let mut manifest = fleet.snapshot();
        manifest.shards[1].engine = "no-such-engine".into();
        let err = Fleet::restore(manifest, 1, |cp| {
            BatchCpa::restore(cp).map(|e| Box::new(e) as DynEngine)
        })
        .unwrap_err();
        assert!(matches!(err, FleetError::Shard { shard: 1, .. }), "{err}");
    }

    #[test]
    fn empty_manifest_is_rejected() {
        let manifest = FleetManifest {
            version: FLEET_MANIFEST_VERSION,
            num_items: 1,
            num_workers: 1,
            num_labels: 1,
            arrived_workers: Vec::new(),
            batches_ingested: 0,
            epoch: 0,
            shards: Vec::new(),
        };
        let err = Fleet::restore(manifest, 1, |cp| {
            BatchCpa::restore(cp).map(|e| Box::new(e) as DynEngine)
        })
        .unwrap_err();
        assert!(matches!(err, FleetError::Invalid(_)), "{err}");
    }
}
