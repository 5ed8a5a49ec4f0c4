//! Incremental read views: carry-forward ≡ full recompute, and item-ranged
//! reads ≡ slices of all-items reads.
//!
//! Contract 1 (incremental ≡ from-scratch): after every accepted mutation
//! of a random mutation sequence, a fleet whose views carried clean
//! shards' slabs across epochs serves **bit-identical** per-shard slabs,
//! merged predictions, and merged estimates to a fresh fleet that replayed
//! the same prefix from scratch (whose view never carried anything) — at
//! K ∈ {1, 2, 4}.
//!
//! Contract 2 (ranged ≡ sliced): `PredictItems { items }` echoes exactly
//! the corresponding slice of the all-items `Predict` at every epoch, and
//! `EstimateItems` rows equal the per-item fields of the merged estimate —
//! in-process and over both wire codecs (JSON and negotiated binary).
//!
//! Contract 3 (carry-forward is zero-copy): after an ingest routed to 1 of
//! K=4 shards, the clean shards' slab `Arc`s in the newly published view
//! are **pointer-identical** to the previous epoch's, and only the dirty
//! shard's slab is recomputed on first read.

use cpa::data::dataset::Dataset;
use cpa::data::labels::LabelSet;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::WorkerStream;
use cpa::eval::runner::Method;
use cpa::math::rng::seeded;
use cpa::serve::{Fleet, FleetOp, FleetReply};
use cpa::transport::{FleetClient, FleetServer, ServerConfig, WireFormat};
use proptest::prelude::*;
use rand::Rng;
use std::sync::Arc;

const SEED: u64 = 9203;

fn fleet_for(d: &Dataset, shards: usize, threads: usize) -> Fleet {
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    Fleet::new(shards, threads, i, u, c, |_| {
        Method::CpaSvi.engine(i, u, c, SEED)
    })
}

/// A small random crowd, as in `serving_properties.rs`.
fn arbitrary_dataset(items: usize, workers: usize, labels: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let mut m = cpa::data::answers::AnswerMatrix::new(items, workers, labels);
    for i in 0..items {
        for u in 0..workers {
            if rng.random::<f64>() < 0.6 {
                let n = 1 + rng.random_range(0..labels.min(3));
                let mut l = LabelSet::empty(labels);
                for _ in 0..n {
                    l.insert(rng.random_range(0..labels));
                }
                m.insert(i, u, l);
            }
        }
    }
    Dataset::new("prop", m, vec![LabelSet::empty(labels); items])
}

/// A ranged request with some structure: every third item, plus a
/// duplicate of the first requested item (duplicates are allowed and
/// echoed in request order).
fn probe_items(num_items: usize) -> Vec<usize> {
    let mut items: Vec<usize> = (0..num_items).step_by(3).collect();
    if let Some(&first) = items.first() {
        items.push(first);
    }
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_views_equal_full_recompute(
        items in 6usize..18,
        workers in 5usize..12,
        labels in 2usize..5,
        seed in 0u64..10_000,
        k_pick in 0usize..3,
        batch_size in 1usize..4,
    ) {
        let k = [1usize, 2, 4][k_pick];
        let d = arbitrary_dataset(items, workers, labels, seed);
        let mut rng = seeded(seed ^ 0x71);
        let batches = WorkerStream::new(&d, batch_size, &mut rng).into_batches();
        // One Ingest per batch with a Refit spliced in at a seed-chosen
        // position — a random mutation sequence over the protocol.
        let mut ops: Vec<FleetOp> = batches
            .iter()
            .map(|b| FleetOp::ingest_from(&d.answers, b))
            .collect();
        prop_assert!(!ops.is_empty(), "active workers always yield batches");
        ops.insert(seed as usize % (ops.len() + 1), FleetOp::Refit);

        let probe = probe_items(items);
        let mut incremental = fleet_for(&d, k, 1);
        for applied in 1..=ops.len() {
            let reply = incremental.apply(ops[applied - 1].clone());
            prop_assert!(
                !matches!(reply, FleetReply::Error { .. }),
                "mutation {} rejected", applied
            );

            // From-scratch reference: a fresh fleet replaying the prefix —
            // its view never carried anything across epochs.
            let mut scratch = fleet_for(&d, k, 1);
            scratch.replay(ops[..applied].iter().cloned());
            prop_assert_eq!(incremental.epoch(), scratch.epoch());

            // Merged reads, bit for bit.
            let merged = incremental.predict_all();
            prop_assert_eq!(&merged, &scratch.predict_all());
            let (inc_est, scr_est) = (incremental.estimate_all(), scratch.estimate_all());
            prop_assert_eq!(&inc_est.soft, &scr_est.soft);
            prop_assert_eq!(&inc_est.expected_size, &scr_est.expected_size);
            prop_assert_eq!(&inc_est.worker_weight, &scr_est.worker_weight);

            // Per-shard slabs, bit for bit (the reads above filled them).
            let inc_view = incremental.view_handle().current();
            let scr_view = scratch.view_handle().current();
            for s in 0..k {
                prop_assert_eq!(
                    &*inc_view.shard_predictions(s).expect("filled by predict_all"),
                    &*scr_view.shard_predictions(s).expect("filled by predict_all")
                );
                prop_assert_eq!(
                    &inc_view.shard_estimate(s).expect("filled").soft,
                    &scr_view.shard_estimate(s).expect("filled").soft
                );
            }

            // Ranged reads are exactly slices of the all-items forms.
            let sliced: Vec<LabelSet> = probe.iter().map(|&i| merged[i].clone()).collect();
            prop_assert_eq!(&incremental.predict_items(&probe), &sliced);
            match incremental.apply(FleetOp::PredictItems { items: probe.clone() }) {
                FleetReply::PredictedItems { items: echoed, predictions, epoch } => {
                    prop_assert_eq!(&echoed, &probe);
                    prop_assert_eq!(&predictions, &sliced);
                    prop_assert_eq!(epoch, incremental.epoch());
                }
                other => prop_assert!(false, "unexpected reply {}", other.name()),
            }
            let rows = incremental.estimate_items(&probe);
            for (&i, row) in probe.iter().zip(&rows) {
                prop_assert_eq!(&row.soft, &inc_est.soft[i]);
                prop_assert_eq!(row.expected_size, inc_est.expected_size[i]);
            }
        }
    }
}

#[test]
fn clean_shard_slabs_are_pointer_identical_across_epochs() {
    let sim = simulate(&DatasetProfile::movie().scaled(0.05), SEED);
    let d = &sim.dataset;
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    let k = 4;
    let mut fleet = fleet_for(d, k, 1);
    let router = fleet.router();

    // Drive every active worker except one held back for the probe ingest.
    let mut rng = seeded(SEED + 1);
    let batches = WorkerStream::new(d, 8, &mut rng).into_batches();
    let held_back = *batches
        .last()
        .and_then(|b| b.workers.first())
        .expect("stream has batches");
    for b in &batches {
        let workers: Vec<usize> = b
            .workers
            .iter()
            .copied()
            .filter(|&w| w != held_back)
            .collect();
        if workers.is_empty() {
            continue;
        }
        let op = FleetOp::Ingest {
            workers: workers.clone(),
            answers: workers
                .iter()
                .flat_map(|&w| {
                    d.answers
                        .worker_answers(w)
                        .iter()
                        .map(move |(item, labels)| (*item as usize, w, labels.to_vec()))
                })
                .collect(),
        };
        assert!(matches!(fleet.apply(op), FleetReply::Ingested { .. }));
    }

    // Fill every shard's slabs at this epoch.
    fleet.predict_all();
    fleet.estimate_all();
    let before = fleet.view_handle().current();
    let slabs_before: Vec<_> = (0..k)
        .map(|s| before.shard_predictions(s).expect("filled"))
        .collect();

    // One answer by the held-back worker to item 0: the batch routes to
    // exactly one shard, so exactly that shard is dirtied.
    let dirty_shard = router.route(0);
    let reply = fleet.apply(FleetOp::Ingest {
        workers: vec![held_back],
        answers: vec![(0, held_back, vec![0])],
    });
    assert!(matches!(reply, FleetReply::Ingested { .. }), "probe ingest");

    let after = fleet.view_handle().current();
    assert_eq!(after.epoch(), before.epoch() + 1);
    for (s, slab_before) in slabs_before.iter().enumerate() {
        if s == dirty_shard {
            assert!(
                after.shard_predictions(s).is_none(),
                "dirty shard {s} slab must be dropped at publish"
            );
        } else {
            let carried = after
                .shard_predictions(s)
                .expect("clean shard slab carried forward");
            assert!(
                Arc::ptr_eq(slab_before, &carried),
                "clean shard {s} slab must carry pointer-identically"
            );
            assert!(
                Arc::ptr_eq(
                    &before.shard_estimate(s).expect("filled"),
                    &after.shard_estimate(s).expect("carried"),
                ),
                "clean shard {s} estimate slab must carry pointer-identically"
            );
        }
    }
    // The first read refills only the dirty shard's slab.
    assert!(after.shard_predictions(dirty_shard).is_none());
    let merged = fleet.predict_all();
    assert_eq!(merged.len(), i);
    let refilled = fleet.view_handle().current();
    for (s, slab_before) in slabs_before.iter().enumerate() {
        let now = refilled.shard_predictions(s).expect("filled by the read");
        assert_eq!(
            Arc::ptr_eq(slab_before, &now),
            s != dirty_shard,
            "only the dirty shard's slab is recomputed"
        );
    }

    // Ranged reads bound their work the same way: an out-of-range item is
    // a protocol error, not a panic.
    match fleet.apply(FleetOp::PredictItems { items: vec![i] }) {
        FleetReply::Error { message } => assert!(message.contains("universe"), "{message}"),
        other => panic!("unexpected reply {}", other.name()),
    }
    let _ = (u, c);
}

/// Ranged reads over a real socket, both codecs: every reply is the exact
/// slice of the all-items reply at the same epoch, served from per-shard
/// row caches after the first request.
#[test]
fn ranged_reads_match_sliced_full_reads_over_the_wire() {
    let sim = simulate(&DatasetProfile::movie().scaled(0.05), SEED + 7);
    let d = &sim.dataset;
    let num_items = d.num_items();
    let mut rng = seeded(SEED + 8);
    let batches = WorkerStream::new(d, 8, &mut rng).into_batches();

    for format in [WireFormat::Json, WireFormat::Binary] {
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let fleet = fleet_for(d, 4, 2);
        let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));

        let mut client = FleetClient::connect_with(addr, format).expect("connect");
        assert_eq!(client.wire_format(), format, "{format:?} negotiates");
        for b in &batches {
            client
                .apply_op(&FleetOp::ingest_from(&d.answers, b))
                .expect("ingest over the wire");
        }
        client.refit_tagged().expect("refit");

        // A ranged read at a fresh epoch (no slabs filled yet) asks the
        // driver to fill the owning shards' slabs and still answers
        // correctly.
        let probe = probe_items(num_items);
        let (cold_rows, cold_epoch) = client
            .predict_items_tagged(probe.clone())
            .expect("cold ranged read");
        let (full, full_epoch) = client.predict_tagged().expect("full read");
        assert_eq!(
            cold_epoch, full_epoch,
            "{format:?}: same epoch, no mutations between"
        );
        let sliced: Vec<LabelSet> = probe.iter().map(|&i| full[i].clone()).collect();
        assert_eq!(cold_rows, sliced, "{format:?}: cold ranged ≡ sliced full");

        // Warm repeat (row caches filled): identical bytes decoded, and
        // duplicates/empty requests echo exactly.
        let (warm_rows, warm_epoch) = client
            .predict_items_tagged(probe.clone())
            .expect("warm ranged read");
        assert_eq!((warm_rows, warm_epoch), (sliced, full_epoch), "{format:?}");
        let (empty, _) = client
            .predict_items_tagged(Vec::new())
            .expect("empty request");
        assert!(empty.is_empty(), "{format:?}");

        let (est, est_epoch) = client.estimate_tagged().expect("full estimate");
        let (rows, rows_epoch) = client
            .estimate_items_tagged(probe.clone())
            .expect("ranged estimate");
        assert_eq!(est_epoch, rows_epoch, "{format:?}");
        for (&i, row) in probe.iter().zip(&rows) {
            assert_eq!(row.soft, est.soft[i], "{format:?}: item {i} soft row");
            assert_eq!(row.expected_size, est.expected_size[i], "{format:?}");
        }

        // Out-of-range items are a protocol rejection over the wire too.
        let err = client.predict_items_tagged(vec![num_items]).unwrap_err();
        assert!(
            matches!(err, cpa::transport::TransportError::Rejected(_)),
            "{format:?}: {err}"
        );

        client.shutdown().expect("shutdown");
        running.join().expect("server thread");
    }
}
