//! Worker-batch streaming for the online experiments.
//!
//! The paper's SVI (Algorithm 2) consumes "the b-th batch of answers of users
//! U_b for items N_b" — batches are groups of *workers* together with all of
//! their answers. [`WorkerStream`] partitions a dataset's workers into
//! shuffled batches; the Fig. 6 data-arrival experiment replays them in
//! order, measuring accuracy after each arrival step.
//!
//! Engines do not consume [`WorkerStream`] directly: they pull batches from
//! a [`MemorySource`] — a batch sequence over the answer universe it
//! indexes into — through `cpa_core::engine::drive`, or (for a `cpa-serve`
//! fleet) `Fleet::drive`, which lowers each batch into a `FleetOp::Ingest`.

use crate::answers::AnswerMatrix;
use crate::dataset::Dataset;
use rand::seq::SliceRandom;
use rand::Rng;

/// One batch of arriving data: worker indices plus the set of items they
/// touched.
#[derive(Debug, Clone)]
pub struct WorkerBatch {
    /// Batch index `b` (1-based, as in the paper's learning-rate schedule).
    pub index: usize,
    /// Workers arriving in this batch (`U_b`).
    pub workers: Vec<usize>,
    /// Items answered by those workers (`N_b`), sorted and deduplicated.
    pub items: Vec<usize>,
}

/// The canonical item → shard assignment used by every sharding consumer
/// (the serving fleet, the shard-split of batches, the determinism tests):
/// a splitmix64 finalizer over the item index, reduced mod `num_shards`.
/// Hashing (rather than `item % num_shards`) keeps shard loads balanced even
/// when item ids carry structure (e.g. items appended per source in blocks).
///
/// With one shard, every item maps to shard 0, so K=1 sharding is the
/// identity configuration.
///
/// # Panics
/// Panics if `num_shards == 0`.
pub fn shard_of(item: usize, num_shards: usize) -> usize {
    assert!(num_shards > 0, "shard count must be positive");
    if num_shards == 1 {
        return 0;
    }
    // splitmix64 finalizer: a cheap, well-mixed stateless hash.
    let mut z = (item as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % num_shards as u64) as usize
}

impl WorkerBatch {
    /// Splits this batch into `num_shards` per-shard batches under the
    /// canonical [`shard_of`] item assignment: shard `s` receives the batch
    /// items owned by `s`, plus the batch workers that answered at least one
    /// of those items in `answers`. Worker order and item order are
    /// preserved, so the split is deterministic.
    ///
    /// Properties (locked by `tests/serving_properties.rs`):
    /// - every batch item lands in exactly one shard (union == input);
    /// - a batch worker appears in exactly the shards it answered into, so
    ///   the union of shard workers is the batch workers with at least one
    ///   answer to a batch item in `answers`;
    /// - a shard receiving nothing yields an *empty* batch (same `index`,
    ///   no workers, no items) rather than being dropped — every shard of a
    ///   fleet observes every arrival step;
    /// - with `num_shards == 1`, shard 0 is the identity split for any batch
    ///   whose workers all have answers (the well-formed case).
    ///
    /// # Panics
    /// Panics if `num_shards == 0`.
    pub fn shard_split(&self, answers: &AnswerMatrix, num_shards: usize) -> Vec<WorkerBatch> {
        assert!(num_shards > 0, "shard count must be positive");
        debug_assert!(
            self.items.windows(2).all(|w| w[0] < w[1]),
            "WorkerBatch.items must be sorted and deduplicated (batch {})",
            self.index
        );
        let mut shards: Vec<WorkerBatch> = (0..num_shards)
            .map(|_| WorkerBatch {
                index: self.index,
                workers: Vec::new(),
                items: Vec::new(),
            })
            .collect();
        for &item in &self.items {
            shards[shard_of(item, num_shards)].items.push(item);
        }
        // A worker joins every shard it answered into *within this batch's
        // items*; scanning its CSR slice once covers all shards in one pass.
        // (`self.items` is sorted, so membership is a binary search.)
        let mut hit = vec![false; num_shards];
        for &w in &self.workers {
            hit.fill(false);
            for (item, _) in answers.worker_answers(w) {
                let item = *item as usize;
                if self.items.binary_search(&item).is_ok() {
                    hit[shard_of(item, num_shards)] = true;
                }
            }
            for (s, shard_hit) in hit.iter().enumerate() {
                if *shard_hit {
                    shards[s].workers.push(w);
                }
            }
        }
        shards
    }
}

/// Splits a dataset's workers into consecutive batches in a shuffled order.
#[derive(Debug, Clone)]
pub struct WorkerStream {
    batches: Vec<WorkerBatch>,
}

impl WorkerStream {
    /// Creates a stream with `batch_size` workers per batch (the final batch
    /// may be smaller). Workers with no answers are skipped.
    ///
    /// # Panics
    /// Panics if `batch_size == 0`.
    pub fn new<R: Rng + ?Sized>(dataset: &Dataset, batch_size: usize, rng: &mut R) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut workers: Vec<usize> = (0..dataset.num_workers())
            .filter(|&w| !dataset.answers.worker_answers(w).is_empty())
            .collect();
        workers.shuffle(rng);
        let batches = workers
            .chunks(batch_size)
            .enumerate()
            .map(|(i, chunk)| {
                let mut items: Vec<usize> = chunk
                    .iter()
                    .flat_map(|&w| {
                        dataset
                            .answers
                            .worker_answers(w)
                            .iter()
                            .map(|(it, _)| *it as usize)
                    })
                    .collect();
                items.sort_unstable();
                items.dedup();
                WorkerBatch {
                    index: i + 1,
                    workers: chunk.to_vec(),
                    items,
                }
            })
            .collect();
        Self { batches }
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when the stream has no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The batches in arrival order.
    pub fn batches(&self) -> &[WorkerBatch] {
        &self.batches
    }

    /// Iterates over batches.
    pub fn iter(&self) -> impl Iterator<Item = &WorkerBatch> {
        self.batches.iter()
    }

    /// Consumes the stream, yielding its batches (the [`MemorySource`]
    /// construction path).
    pub fn into_batches(self) -> Vec<WorkerBatch> {
        self.batches
    }
}

/// A pull-based supply of worker batches: a borrowed answer matrix plus a
/// precomputed batch sequence (the shuffled-arrival experiments). Engines
/// pull one batch at a time and copy that batch's answers out of
/// [`MemorySource::answers`]; the source is exhausted once
/// [`MemorySource::next_batch`] returns `None`.
#[derive(Debug, Clone)]
pub struct MemorySource<'a> {
    answers: &'a AnswerMatrix,
    batches: Vec<WorkerBatch>,
    cursor: usize,
}

impl<'a> MemorySource<'a> {
    /// Wraps an explicit batch sequence over `answers`.
    pub fn new(answers: &'a AnswerMatrix, batches: Vec<WorkerBatch>) -> Self {
        Self {
            answers,
            batches,
            cursor: 0,
        }
    }

    /// Shuffled worker arrival, as in the paper's online experiments: the
    /// dataset's active workers in random order, `batch_size` per batch.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` (see [`WorkerStream::new`]).
    pub fn shuffled<R: Rng + ?Sized>(dataset: &'a Dataset, batch_size: usize, rng: &mut R) -> Self {
        Self::new(
            &dataset.answers,
            WorkerStream::new(dataset, batch_size, rng).into_batches(),
        )
    }

    /// Every active worker in one batch — the degenerate stream that turns a
    /// streaming engine into a batch run.
    pub fn single_batch(answers: &'a AnswerMatrix) -> Self {
        let workers: Vec<usize> = (0..answers.num_workers())
            .filter(|&w| !answers.worker_answers(w).is_empty())
            .collect();
        let mut items: Vec<usize> = workers
            .iter()
            .flat_map(|&w| answers.worker_answers(w).iter().map(|(it, _)| *it as usize))
            .collect();
        items.sort_unstable();
        items.dedup();
        let batches = if workers.is_empty() {
            Vec::new()
        } else {
            vec![WorkerBatch {
                index: 1,
                workers,
                items,
            }]
        };
        Self::new(answers, batches)
    }

    /// The full answer universe the batches index into.
    pub fn answers(&self) -> &AnswerMatrix {
        self.answers
    }

    /// Pulls the next batch in arrival order, or `None` when exhausted.
    pub fn next_batch(&mut self) -> Option<WorkerBatch> {
        let batch = self.batches.get(self.cursor).cloned();
        self.cursor += batch.is_some() as usize;
        batch
    }

    /// Total number of batches this source yields.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when the source yields no batches at all.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

/// The learning-rate schedule of the paper (§4.1): `ω_b = (1 + b)^{−r}` with
/// forgetting rate `r ∈ (0.5, 1]` for provable convergence; the paper finds
/// `r ∈ [0.85, 0.9]` works best and fixes 0.875 for its experiments.
pub fn learning_rate(batch_index: usize, forgetting_rate: f64) -> f64 {
    // The lower bound is exclusive: r = 0.5 makes Σ ω_b² diverge, voiding the
    // Robbins–Monro convergence guarantee the paper relies on.
    assert!(
        forgetting_rate > 0.5 && forgetting_rate <= 1.0,
        "forgetting rate must lie in (0.5, 1] for convergence"
    );
    (1.0 + batch_index as f64).powf(-forgetting_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DatasetProfile;
    use crate::simulate::simulate;
    use cpa_math::rng::seeded;

    #[test]
    fn stream_covers_all_active_workers_once() {
        let sim = simulate(&DatasetProfile::image().scaled(0.05), 61);
        let mut rng = seeded(1);
        let s = WorkerStream::new(&sim.dataset, 7, &mut rng);
        let mut seen = vec![false; sim.dataset.num_workers()];
        for b in s.iter() {
            for &w in &b.workers {
                assert!(!seen[w], "worker {w} in two batches");
                seen[w] = true;
            }
            assert!(!b.items.is_empty());
            assert!(b.items.windows(2).all(|w| w[0] < w[1]));
        }
        for (w, &was_seen) in seen.iter().enumerate() {
            let active = !sim.dataset.answers.worker_answers(w).is_empty();
            assert_eq!(was_seen, active);
        }
    }

    #[test]
    fn batch_sizes() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 62);
        let mut rng = seeded(2);
        let s = WorkerStream::new(&sim.dataset, 10, &mut rng);
        for (i, b) in s.iter().enumerate() {
            assert_eq!(b.index, i + 1);
            if i + 1 < s.len() {
                assert_eq!(b.workers.len(), 10);
            } else {
                assert!(b.workers.len() <= 10);
            }
        }
    }

    #[test]
    fn batch_items_are_those_answered() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 63);
        let mut rng = seeded(3);
        let s = WorkerStream::new(&sim.dataset, 5, &mut rng);
        let b = &s.batches()[0];
        for &item in &b.items {
            assert!(b
                .workers
                .iter()
                .any(|&w| sim.dataset.answers.get(item, w).is_some()));
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn rejects_zero_batch_size() {
        // batch_size == 0 would chunk into nothing and silently drop every
        // worker; the boundary must fail loudly instead.
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 64);
        let mut rng = seeded(4);
        WorkerStream::new(&sim.dataset, 0, &mut rng);
    }

    #[test]
    fn memory_source_yields_stream_batches_in_order() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 65);
        let mut rng = seeded(5);
        let expected = WorkerStream::new(&sim.dataset, 8, &mut rng).into_batches();
        let mut rng = seeded(5);
        let mut source = MemorySource::shuffled(&sim.dataset, 8, &mut rng);
        assert_eq!(source.len(), expected.len());
        for want in &expected {
            let got = source.next_batch().expect("same batch count");
            assert_eq!(got.index, want.index);
            assert_eq!(got.workers, want.workers);
            assert_eq!(got.items, want.items);
        }
        assert!(source.next_batch().is_none());
        assert!(source.next_batch().is_none(), "stays exhausted");
    }

    #[test]
    fn single_batch_covers_all_active_workers() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 66);
        let mut source = MemorySource::single_batch(&sim.dataset.answers);
        assert_eq!(source.len(), 1);
        let b = source.next_batch().expect("one batch");
        assert_eq!(b.index, 1);
        for &w in &b.workers {
            assert!(!sim.dataset.answers.worker_answers(w).is_empty());
        }
        let active = (0..sim.dataset.num_workers())
            .filter(|&w| !sim.dataset.answers.worker_answers(w).is_empty())
            .count();
        assert_eq!(b.workers.len(), active);
        assert!(b.items.windows(2).all(|w| w[0] < w[1]));
        assert!(source.next_batch().is_none());
    }

    #[test]
    fn learning_rate_schedule() {
        // Decreasing, in (0, 1), matching (1+b)^-r.
        let r = 0.875;
        let w1 = learning_rate(1, r);
        let w2 = learning_rate(2, r);
        assert!((w1 - 2f64.powf(-r)).abs() < 1e-12);
        assert!(w2 < w1);
        assert!(w1 < 1.0 && w1 > 0.0);
    }

    #[test]
    #[should_panic(expected = "forgetting rate")]
    fn learning_rate_rejects_bad_r() {
        learning_rate(1, 0.3);
    }

    #[test]
    #[should_panic(expected = "forgetting rate")]
    fn learning_rate_lower_bound_is_exclusive() {
        // r ∈ (0.5, 1]: exactly 0.5 must be rejected.
        learning_rate(1, 0.5);
    }

    #[test]
    fn learning_rate_accepts_boundary_one() {
        assert!((learning_rate(1, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for k in [1usize, 2, 4, 7] {
            for item in 0..200 {
                let s = shard_of(item, k);
                assert!(s < k);
                assert_eq!(s, shard_of(item, k), "assignment must be stable");
            }
        }
        // K=1 is the identity configuration.
        assert!((0..100).all(|i| shard_of(i, 1) == 0));
        // Hashing spreads items: with 4 shards over 200 items no shard
        // should be empty.
        let mut counts = [0usize; 4];
        for item in 0..200 {
            counts[shard_of(item, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn shard_of_rejects_zero_shards() {
        shard_of(0, 0);
    }

    #[test]
    fn shard_split_partitions_items_and_routes_workers() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 67);
        let mut rng = seeded(7);
        let s = WorkerStream::new(&sim.dataset, 6, &mut rng);
        let answers = &sim.dataset.answers;
        for batch in s.iter() {
            for k in [1usize, 2, 4] {
                let shards = batch.shard_split(answers, k);
                assert_eq!(shards.len(), k);
                // Items: each batch item in exactly the shard that owns it.
                let mut union: Vec<usize> = Vec::new();
                for (si, shard) in shards.iter().enumerate() {
                    assert_eq!(shard.index, batch.index);
                    assert!(shard.items.windows(2).all(|w| w[0] < w[1]));
                    for &i in &shard.items {
                        assert_eq!(shard_of(i, k), si);
                    }
                    union.extend(&shard.items);
                }
                union.sort_unstable();
                assert_eq!(union, batch.items, "item union at K={k}");
                // Workers: present exactly in the shards they answered into.
                for (si, shard) in shards.iter().enumerate() {
                    for &w in &shard.workers {
                        assert!(
                            answers
                                .worker_answers(w)
                                .iter()
                                .any(|(i, _)| shard_of(*i as usize, k) == si),
                            "worker {w} has no answer in shard {si}"
                        );
                    }
                }
                let mut wunion: Vec<usize> =
                    shards.iter().flat_map(|s| s.workers.clone()).collect();
                wunion.sort_unstable();
                wunion.dedup();
                let mut expect = batch.workers.clone();
                expect.sort_unstable();
                assert_eq!(wunion, expect, "worker union at K={k}");
            }
            // K=1 identity.
            let shards = batch.shard_split(answers, 1);
            assert_eq!(shards[0].workers, batch.workers);
            assert_eq!(shards[0].items, batch.items);
        }
    }

    #[test]
    fn shard_split_yields_empty_batch_for_untouched_shard() {
        // One item, many shards: every shard except the owner must come back
        // as an empty batch (same index), not be dropped.
        let mut answers = AnswerMatrix::new(1, 1, 2);
        answers.insert(0, 0, crate::labels::LabelSet::from_labels(2, [0]));
        let batch = WorkerBatch {
            index: 3,
            workers: vec![0],
            items: vec![0],
        };
        let k = 4;
        let shards = batch.shard_split(&answers, k);
        let owner = shard_of(0, k);
        for (si, shard) in shards.iter().enumerate() {
            assert_eq!(shard.index, 3);
            if si == owner {
                assert_eq!(shard.workers, vec![0]);
                assert_eq!(shard.items, vec![0]);
            } else {
                assert!(shard.workers.is_empty() && shard.items.is_empty());
            }
        }
    }
}
