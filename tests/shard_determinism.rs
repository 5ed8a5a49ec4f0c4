//! Shard determinism: the fleet contract of `cpa-serve`, pinned at multiple
//! thread counts.
//!
//! Contract 1 (shard equivalence): a K-shard fleet's merged predictions are
//! **bit-identical** to driving each shard's engine standalone over that
//! shard's universe and the **non-empty** batches of its batch split —
//! sharding is pure partitioning (a shard's engine observes exactly the
//! arrival batches that routed answers to it, which is also what lets
//! clean shards' read slabs carry across epochs), and it never changes
//! what any single shard computes.
//!
//! Contract 2 (manifest resume): pausing a fleet mid-stream — manifest →
//! JSON → restore through the `restore_engine` hook — and continuing is
//! bit-identical to never pausing.
//!
//! Both are exercised for K ∈ {1, 2, 4} at 1 and 4 fleet threads plus the
//! `RAYON_NUM_THREADS` CI matrix value, with the incremental CPA-SVI engine
//! (whose learning-rate schedule makes it the hardest case). The fleet
//! installs its own pool of that width around every shard fan-out, and the
//! standalone reference runs with a pool of the same width installed. K=1
//! is additionally pinned to the completely unsharded engine run.

use cpa::core::engine::drive;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::{MemorySource, WorkerBatch, WorkerStream};
use cpa::eval::runner::{engine_for, restore_engine, Method};
use cpa::math::rng::seeded;
use cpa::serve::{Fleet, FleetManifest, ShardRouter};

const SEED: u64 = 5417;

/// Thread counts to pin: 1 and 4, plus the CI matrix value when it differs.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 4];
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0 && !counts.contains(&n))
    {
        counts.push(n);
    }
    counts
}

fn fixture() -> (cpa::data::dataset::Dataset, Vec<WorkerBatch>) {
    let sim = simulate(&DatasetProfile::movie().scaled(0.06), SEED);
    let mut rng = seeded(SEED + 1);
    let batches = WorkerStream::new(&sim.dataset, 9, &mut rng).into_batches();
    assert!(
        batches.len() >= 4,
        "need enough batches to pause mid-stream"
    );
    (sim.dataset, batches)
}

fn fleet_for(d: &cpa::data::dataset::Dataset, shards: usize, threads: usize) -> Fleet {
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    Fleet::new(shards, threads, i, u, c, |_| {
        Method::CpaSvi.engine(i, u, c, SEED)
    })
}

#[test]
fn merged_predictions_equal_standalone_shard_engines() {
    let (d, batches) = fixture();
    for threads in thread_counts() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds");
        for k in [1usize, 2, 4] {
            let mut fleet = fleet_for(&d, k, threads);
            fleet.drive(&mut MemorySource::new(&d.answers, batches.clone()));
            let merged = fleet.predict_all();

            // Standalone reference: one engine per shard, driven over that
            // shard's universe and the non-empty batches of its split, no
            // fleet involved — the fleet skips a shard entirely when a
            // batch routes it nothing, so the standalone engine must too.
            let router = ShardRouter::new(k);
            let shard_universes = router.split_answers(&d.answers);
            for (s, universe) in shard_universes.iter().enumerate() {
                let mut engine =
                    Method::CpaSvi.engine(d.num_items(), d.num_workers(), d.num_labels(), SEED);
                let shard_batches: Vec<WorkerBatch> = batches
                    .iter()
                    .map(|b| b.shard_split(&d.answers, k)[s].clone())
                    .filter(|split| !split.items.is_empty())
                    .collect();
                let standalone = pool.install(|| {
                    drive(
                        engine.as_mut(),
                        &mut MemorySource::new(universe, shard_batches),
                    );
                    engine.predict_all()
                });
                for i in 0..d.num_items() {
                    if router.route(i) == s {
                        assert_eq!(
                            merged[i], standalone[i],
                            "item {i}: fleet K={k} diverged from standalone shard {s} \
                             at {threads} thread(s)"
                        );
                    }
                }
            }

            // K=1 is exactly the unsharded engine.
            if k == 1 {
                let mut engine = engine_for(Method::CpaSvi, &d, SEED);
                let unsharded = pool.install(|| {
                    drive(
                        engine.as_mut(),
                        &mut MemorySource::new(&d.answers, batches.clone()),
                    );
                    engine.predict_all()
                });
                assert_eq!(
                    merged, unsharded,
                    "K=1 fleet diverged from the unsharded engine at {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn fleet_predictions_are_identical_across_thread_counts() {
    let (d, batches) = fixture();
    for k in [1usize, 2, 4] {
        let mut reference = None;
        for threads in thread_counts() {
            let mut fleet = fleet_for(&d, k, threads);
            fleet.drive(&mut MemorySource::new(&d.answers, batches.clone()));
            let preds = fleet.predict_all();
            let est = fleet.estimate_all();
            match &reference {
                None => reference = Some((preds, est)),
                Some((ref_preds, ref_est)) => {
                    assert_eq!(&preds, ref_preds, "K={k}: thread count changed predictions");
                    assert_eq!(est.soft, ref_est.soft, "K={k}");
                    assert_eq!(est.worker_weight, ref_est.worker_weight, "K={k}");
                }
            }
        }
    }
}

#[test]
fn manifest_resume_is_bit_identical_to_never_pausing() {
    let (d, batches) = fixture();
    let pause_at = batches.len() / 2;
    for threads in thread_counts() {
        for k in [1usize, 2, 4] {
            // Uninterrupted run.
            let mut uninterrupted = fleet_for(&d, k, threads);
            uninterrupted.drive(&mut MemorySource::new(&d.answers, batches.clone()));

            // Paused run: half the stream, manifest → JSON → restore,
            // continue, refit.
            let mut paused = fleet_for(&d, k, threads);
            let mut head = MemorySource::new(&d.answers, batches[..pause_at].to_vec());
            while let Some(batch) = head.next_batch() {
                paused.ingest(&d.answers, &batch);
            }
            let json = paused.snapshot().to_json();
            drop(paused);
            let manifest = FleetManifest::from_json(&json).expect("manifest parses");
            let mut resumed =
                Fleet::restore(manifest, threads, restore_engine).expect("manifest restores");
            assert_eq!(resumed.num_shards(), k);
            resumed.drive(&mut MemorySource::new(
                &d.answers,
                batches[pause_at..].to_vec(),
            ));

            assert_eq!(
                resumed.predict_all(),
                uninterrupted.predict_all(),
                "K={k}: predictions diverged after manifest resume at {threads} thread(s)"
            );
            let (a, b) = (resumed.estimate_all(), uninterrupted.estimate_all());
            assert_eq!(a.soft, b.soft, "K={k} at {threads} thread(s)");
            assert_eq!(a.expected_size, b.expected_size, "K={k}");
            assert_eq!(a.worker_weight, b.worker_weight, "K={k}");
            assert_eq!(
                resumed.num_answers_seen(),
                d.answers.num_answers(),
                "K={k}: answers lost across the manifest"
            );
        }
    }
}
