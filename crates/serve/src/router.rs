//! Item → shard routing and the shard-local views it induces.
//!
//! The router is pure arithmetic over the canonical
//! [`cpa_data::stream::shard_of`] hash — no state, no configuration beyond
//! the shard count — so every component of the serving layer (the
//! [`crate::fleet::Fleet`], the determinism tests, external producers that
//! want to pre-partition traffic) computes the same assignment.
//!
//! Sharding partitions **items**: each shard owns a subset of the item
//! space and sees only the answers to its items, while the worker and label
//! dimensions stay global. Engines therefore keep the full population shape
//! (`num_items × num_workers × num_labels`), which keeps item/worker indices
//! stable across shards — merging predictions back into global item order is
//! a gather, not an index translation.

use cpa_data::answers::{AnswerMatrix, AnswerMatrixBuilder};
use cpa_data::stream::shard_of;

/// Deterministic item → shard assignment for a fixed shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    num_shards: usize,
}

impl ShardRouter {
    /// A router over `num_shards` shards.
    ///
    /// # Panics
    /// Panics if `num_shards == 0`.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "shard count must be positive");
        Self { num_shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard owning `item` (the canonical [`shard_of`] assignment).
    pub fn route(&self, item: usize) -> usize {
        shard_of(item, self.num_shards)
    }

    /// Splits a full answer universe into per-shard universes: shard `s`
    /// receives exactly the answers to its items, at the *global* population
    /// shape (unowned items are simply empty rows).
    pub fn split_answers(&self, answers: &AnswerMatrix) -> Vec<AnswerMatrix> {
        let mut builders: Vec<AnswerMatrixBuilder> = (0..self.num_shards)
            .map(|_| {
                AnswerMatrixBuilder::new(
                    answers.num_items(),
                    answers.num_workers(),
                    answers.num_labels(),
                )
            })
            .collect();
        for a in answers.iter() {
            builders[self.route(a.item as usize)].insert(
                a.item as usize,
                a.worker as usize,
                a.labels,
            );
        }
        builders
            .into_iter()
            .map(AnswerMatrixBuilder::build)
            .collect()
    }
}

/// The router's assignment materialized over a fixed item universe: shard
/// and within-shard position per item, and the owned item list per shard.
///
/// A fleet builds one index at construction and shares it (`Arc`) with
/// every published read view, so the read path can slice per-shard slabs
/// and assemble item-ranged replies without re-hashing items.
#[derive(Debug, PartialEq, Eq)]
pub struct ShardIndex {
    router: ShardRouter,
    shard_of_item: Vec<u32>,
    pos_in_shard: Vec<u32>,
    items_of_shard: Vec<Vec<u32>>,
}

impl ShardIndex {
    /// Materializes `router`'s assignment over `0..num_items`.
    ///
    /// # Panics
    /// Panics if `num_items` or the shard count exceeds `u32::MAX` (the
    /// index stores positions as `u32`).
    pub fn new(router: ShardRouter, num_items: usize) -> Self {
        assert!(num_items <= u32::MAX as usize, "item universe too large");
        assert!(router.num_shards() <= u32::MAX as usize, "too many shards");
        let mut shard_of_item = Vec::with_capacity(num_items);
        let mut pos_in_shard = Vec::with_capacity(num_items);
        let mut items_of_shard = vec![Vec::new(); router.num_shards()];
        for item in 0..num_items {
            let s = router.route(item);
            shard_of_item.push(s as u32);
            pos_in_shard.push(items_of_shard[s].len() as u32);
            items_of_shard[s].push(item as u32);
        }
        Self {
            router,
            shard_of_item,
            pos_in_shard,
            items_of_shard,
        }
    }

    /// The router this index materializes.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.items_of_shard.len()
    }

    /// Size of the item universe.
    pub fn num_items(&self) -> usize {
        self.shard_of_item.len()
    }

    /// The shard owning `item`.
    ///
    /// # Panics
    /// Panics if `item` is outside the indexed universe.
    pub fn shard_of(&self, item: usize) -> usize {
        self.shard_of_item[item] as usize
    }

    /// `item`'s position within its owning shard's
    /// [`items_of`](Self::items_of) list.
    ///
    /// # Panics
    /// Panics if `item` is outside the indexed universe.
    pub fn pos_in_shard(&self, item: usize) -> usize {
        self.pos_in_shard[item] as usize
    }

    /// The items shard `s` owns, ascending.
    ///
    /// # Panics
    /// Panics if `s` is not a valid shard.
    pub fn items_of(&self, s: usize) -> &[u32] {
        &self.items_of_shard[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_data::labels::LabelSet;

    fn ls(labels: &[usize]) -> LabelSet {
        LabelSet::from_labels(4, labels.iter().copied())
    }

    #[test]
    fn split_answers_partitions_by_owner() {
        let mut m = AnswerMatrix::new(8, 3, 4);
        for i in 0..8 {
            m.insert(i, i % 3, ls(&[i % 4]));
        }
        let router = ShardRouter::new(3);
        let parts = router.split_answers(&m);
        assert_eq!(parts.len(), 3);
        let mut total = 0;
        for (s, part) in parts.iter().enumerate() {
            // Global shape is preserved.
            assert_eq!(part.num_items(), 8);
            assert_eq!(part.num_workers(), 3);
            assert_eq!(part.num_labels(), 4);
            assert!(part.check_consistency());
            for a in part.iter() {
                assert_eq!(router.route(a.item as usize), s);
                assert_eq!(m.get(a.item as usize, a.worker as usize), Some(&a.labels));
            }
            total += part.num_answers();
        }
        assert_eq!(total, m.num_answers(), "no answer lost or duplicated");
    }

    #[test]
    fn single_shard_split_is_the_whole_universe() {
        let mut m = AnswerMatrix::new(4, 2, 4);
        m.insert(0, 0, ls(&[1]));
        m.insert(3, 1, ls(&[2, 3]));
        let parts = ShardRouter::new(1).split_answers(&m);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].num_answers(), m.num_answers());
        assert_eq!(parts[0].get(3, 1), m.get(3, 1));
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        ShardRouter::new(0);
    }

    #[test]
    fn shard_index_matches_the_router_and_partitions_items() {
        for k in [1usize, 2, 3, 4] {
            let router = ShardRouter::new(k);
            let idx = ShardIndex::new(router, 17);
            assert_eq!(idx.num_shards(), k);
            assert_eq!(idx.num_items(), 17);
            let mut seen = 0usize;
            for s in 0..k {
                for (pos, &item) in idx.items_of(s).iter().enumerate() {
                    let item = item as usize;
                    assert_eq!(router.route(item), s);
                    assert_eq!(idx.shard_of(item), s);
                    assert_eq!(idx.pos_in_shard(item), pos);
                    seen += 1;
                }
                // Owned item lists ascend.
                assert!(idx.items_of(s).windows(2).all(|w| w[0] < w[1]));
            }
            assert_eq!(seen, 17, "items partition exactly across shards");
        }
    }
}
