//! The engine conformance suite: one parameterized contract, executed
//! against **every** method in `Method::all()` with zero per-engine
//! special-casing — so any future engine added to the roster inherits the
//! whole suite for free.
//!
//! The contract, per engine:
//!
//! 1. **full protocol** — ingest every arrival batch → refit → predict
//!    yields one well-formed label set per item;
//! 2. **bitwise resume** — pausing mid-stream (snapshot → JSON → restore
//!    through the tag-dispatching `restore_engine` hook) and continuing is
//!    bit-identical to never pausing: predictions, truth estimate, and the
//!    seen answer count all match exactly;
//! 3. **wrong-tag restore rejected** — a checkpoint whose engine tag is
//!    edited to an unknown name, or to *any other* method's name, must fail
//!    to restore (never silently restore as a different method);
//! 4. **empty-ingest safe** — ingesting an empty batch (no workers, no
//!    items) before, between, or after real batches never panics and keeps
//!    predictions well-formed.

use cpa::core::engine::{drive, Checkpoint};
use cpa::data::labels::LabelSet;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::{simulate, SimulatedDataset};
use cpa::data::stream::{MemorySource, WorkerBatch, WorkerStream};
use cpa::eval::runner::{engine_for, restore_engine, Method};
use cpa::math::rng::seeded;

const SEED: u64 = 4111;

fn fixture() -> (SimulatedDataset, Vec<WorkerBatch>) {
    let sim = simulate(&DatasetProfile::movie().scaled(0.05), SEED);
    let mut rng = seeded(SEED + 1);
    let batches = WorkerStream::new(&sim.dataset, 8, &mut rng).into_batches();
    assert!(
        batches.len() >= 4,
        "need enough batches to pause mid-stream"
    );
    (sim, batches)
}

fn assert_well_formed(preds: &[LabelSet], num_items: usize, num_labels: usize, ctx: &str) {
    assert_eq!(preds.len(), num_items, "{ctx}: one prediction per item");
    for (i, p) in preds.iter().enumerate() {
        assert_eq!(p.universe(), num_labels, "{ctx}: item {i} universe");
    }
}

/// Exact (bitwise, via `==` on the raw values) equality of two estimates.
fn assert_estimates_identical(
    a: &cpa::core::truth::TruthEstimate,
    b: &cpa::core::truth::TruthEstimate,
    ctx: &str,
) {
    assert_eq!(a.soft, b.soft, "{ctx}: soft labels diverged");
    assert_eq!(
        a.expected_size, b.expected_size,
        "{ctx}: expected sizes diverged"
    );
    assert_eq!(
        a.worker_weight, b.worker_weight,
        "{ctx}: worker weights diverged"
    );
}

#[test]
fn every_engine_runs_the_full_protocol_and_resumes_bit_identically() {
    let (sim, batches) = fixture();
    let d = &sim.dataset;
    let pause_at = batches.len() / 2;

    for method in Method::all() {
        let name = method.name();

        // Uninterrupted run: the reference trajectory.
        let mut uninterrupted = engine_for(method, d, SEED);
        drive(
            uninterrupted.as_mut(),
            &mut MemorySource::new(&d.answers, batches.clone()),
        );
        let expected_preds = uninterrupted.predict_all();
        assert_well_formed(&expected_preds, d.num_items(), d.num_labels(), name);

        // Paused run: half the stream, snapshot → JSON → restore-by-tag,
        // continue with the remaining batches, refit.
        let mut paused = engine_for(method, d, SEED);
        let mut head = MemorySource::new(&d.answers, batches[..pause_at].to_vec());
        while let Some(batch) = head.next_batch() {
            paused.ingest(head.answers(), &batch);
        }
        let json = paused.snapshot().to_json();
        drop(paused);
        let mut resumed = restore_engine(Checkpoint::from_json(&json).unwrap())
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
        assert_eq!(
            resumed.name(),
            name,
            "restore-by-tag picked the wrong engine"
        );
        drive(
            resumed.as_mut(),
            &mut MemorySource::new(&d.answers, batches[pause_at..].to_vec()),
        );

        assert_eq!(
            resumed.predict_all(),
            expected_preds,
            "{name}: predictions diverged after mid-stream resume"
        );
        assert_estimates_identical(&resumed.estimate(), &uninterrupted.estimate(), name);
        assert_eq!(
            resumed.seen_answers().num_answers(),
            d.answers.num_answers(),
            "{name}: answers lost across the checkpoint"
        );
    }
}

#[test]
fn wrong_tag_restore_is_rejected_for_every_engine() {
    let (sim, batches) = fixture();
    let d = &sim.dataset;

    for method in Method::all() {
        let name = method.name();
        let mut engine = engine_for(method, d, SEED);
        drive(
            engine.as_mut(),
            &mut MemorySource::new(&d.answers, batches.clone()),
        );
        let checkpoint = engine.snapshot();

        // An unknown tag must be rejected by the dispatching hook.
        let mut unknown = checkpoint.clone();
        unknown.engine = "no-such-engine".to_string();
        let err = restore_engine(Checkpoint::from_json(&unknown.to_json()).unwrap())
            .err()
            .unwrap_or_else(|| panic!("{name}: unknown tag restored"));
        assert!(err.to_string().contains("no-such-engine"), "{name}: {err}");

        // Retagging as any *other* method must be rejected too — a payload
        // must never restore as a different method.
        for other in Method::all() {
            if other == method {
                continue;
            }
            let mut retagged = checkpoint.clone();
            retagged.engine = other.name().to_string();
            let result = restore_engine(Checkpoint::from_json(&retagged.to_json()).unwrap());
            assert!(
                result.is_err(),
                "{name} checkpoint retagged `{}` restored instead of failing",
                other.name()
            );
        }
    }
}

#[test]
fn empty_ingest_is_safe_for_every_engine() {
    let (sim, batches) = fixture();
    let d = &sim.dataset;
    let empty = |index: usize| WorkerBatch {
        index,
        workers: Vec::new(),
        items: Vec::new(),
    };

    for method in Method::all() {
        let name = method.name();
        let mut engine = engine_for(method, d, SEED);

        // Empty ingest + refit on a completely fresh engine (zero answers).
        engine.ingest(&d.answers, &empty(1));
        engine.refit();
        assert_well_formed(
            &engine.predict_all(),
            d.num_items(),
            d.num_labels(),
            &format!("{name} after empty-only ingest"),
        );
        assert_eq!(engine.seen_answers().num_answers(), 0, "{name}");

        // Real data with an empty batch in the middle and at the end.
        engine.ingest(&d.answers, &batches[0]);
        engine.ingest(&d.answers, &empty(3));
        engine.ingest(&d.answers, &batches[1]);
        engine.refit();
        assert_well_formed(
            &engine.predict_all(),
            d.num_items(),
            d.num_labels(),
            &format!("{name} after mixed ingest"),
        );
        engine.ingest(&d.answers, &empty(5));
        engine.refit();
        assert_well_formed(
            &engine.predict_all(),
            d.num_items(),
            d.num_labels(),
            &format!("{name} after trailing empty ingest"),
        );
        let expected: usize = batches[..2]
            .iter()
            .flat_map(|b| &b.workers)
            .map(|&w| d.answers.worker_answers(w).len())
            .sum();
        assert_eq!(
            engine.seen_answers().num_answers(),
            expected,
            "{name}: empty batches must not change the seen set"
        );
    }
}
