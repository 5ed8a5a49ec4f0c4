//! Property and boundary tests for the serving-layer data plumbing:
//! `WorkerBatch::shard_split` (K=1 identity, exact partition of items,
//! workers routed to every shard they answered into, empty shards
//! preserved).

use cpa::data::dataset::Dataset;
use cpa::data::labels::LabelSet;
use cpa::data::stream::{shard_of, WorkerStream};
use cpa::math::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// A small random crowd (every worker answers something with probability
/// ~0.7 per item, so some workers may be inactive).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shard_split_is_an_exact_partition(
        items in 2usize..14,
        workers in 2usize..10,
        labels in 2usize..6,
        seed in 0u64..10_000,
        k in 1usize..6,
    ) {
        let d = arbitrary_dataset(items, workers, labels, seed);
        let mut rng = seeded(seed ^ 0x5eed);
        let stream = WorkerStream::new(&d, 3, &mut rng);
        for batch in stream.iter() {
            let shards = batch.shard_split(&d.answers, k);
            prop_assert_eq!(shards.len(), k);
            // Items: exact partition, each in its owning shard.
            let mut union: Vec<usize> = Vec::new();
            for (s, shard) in shards.iter().enumerate() {
                prop_assert_eq!(shard.index, batch.index);
                for &i in &shard.items {
                    prop_assert_eq!(shard_of(i, k), s);
                }
                union.extend(&shard.items);
            }
            union.sort_unstable();
            prop_assert_eq!(&union, &batch.items);
            // Workers: in exactly the shards they answered into; the union
            // covers every batch worker (WorkerStream workers are active).
            let mut wunion: Vec<usize> = Vec::new();
            for (s, shard) in shards.iter().enumerate() {
                for &w in &shard.workers {
                    prop_assert!(
                        d.answers
                            .worker_answers(w)
                            .iter()
                            .any(|(i, _)| shard_of(*i as usize, k) == s),
                        "worker {} in shard {} without an answer there", w, s
                    );
                }
                wunion.extend(&shard.workers);
            }
            wunion.sort_unstable();
            wunion.dedup();
            let mut expect = batch.workers.clone();
            expect.sort_unstable();
            prop_assert_eq!(wunion, expect);
        }
    }

    #[test]
    fn single_shard_split_is_identity(
        items in 2usize..12,
        workers in 2usize..8,
        labels in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let d = arbitrary_dataset(items, workers, labels, seed);
        let mut rng = seeded(seed ^ 0x1d);
        let stream = WorkerStream::new(&d, 4, &mut rng);
        for batch in stream.iter() {
            let shards = batch.shard_split(&d.answers, 1);
            prop_assert_eq!(shards.len(), 1);
            prop_assert_eq!(&shards[0].workers, &batch.workers);
            prop_assert_eq!(&shards[0].items, &batch.items);
        }
    }
}
