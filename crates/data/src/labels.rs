//! Compact label sets.
//!
//! Answers `x_iu ⊆ Z` and truths `y_i ⊆ Z` are subsets of the label universe
//! `Z = {0, .., C−1}` (paper §2.2; the paper indexes labels from 1, we use
//! 0-based indices). A `LabelSet` is a fixed-width bitset sized for the
//! dataset's `C`, which keeps the entity profile (C = 1450) at 23 machine
//! words per answer and makes the set-based precision/recall metrics (§5.1)
//! cheap popcount work.

use serde::{Deserialize, Serialize};

/// A set of labels out of a universe of `num_labels` possible labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LabelSet {
    num_labels: usize,
    blocks: Vec<u64>,
}

impl LabelSet {
    /// Creates an empty set over a universe of `num_labels` labels.
    pub fn empty(num_labels: usize) -> Self {
        Self {
            num_labels,
            blocks: vec![0; num_labels.div_ceil(64)],
        }
    }

    /// Creates a set from an iterator of label indices.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn from_labels<I: IntoIterator<Item = usize>>(num_labels: usize, labels: I) -> Self {
        let mut s = Self::empty(num_labels);
        for c in labels {
            s.insert(c);
        }
        s
    }

    /// Size of the label universe `C`.
    pub fn universe(&self) -> usize {
        self.num_labels
    }

    /// True when the bitset is exactly the universe wide: one block per 64
    /// labels and no bit past the last label. Every constructor keeps this;
    /// only a decoded set can break it.
    pub(crate) fn is_well_formed(&self) -> bool {
        let tail = self.num_labels % 64;
        self.blocks.len() == self.num_labels.div_ceil(64)
            && (tail == 0 || self.blocks.last().is_some_and(|&b| b >> tail == 0))
    }

    /// Adds a label.
    ///
    /// # Panics
    /// Panics if `label >= universe`.
    pub fn insert(&mut self, label: usize) {
        assert!(label < self.num_labels, "label {label} out of range");
        self.blocks[label / 64] |= 1u64 << (label % 64);
    }

    /// Removes a label (no-op if absent).
    pub fn remove(&mut self, label: usize) {
        assert!(label < self.num_labels, "label {label} out of range");
        self.blocks[label / 64] &= !(1u64 << (label % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, label: usize) -> bool {
        debug_assert!(label < self.num_labels);
        self.blocks[label / 64] & (1u64 << (label % 64)) != 0
    }

    /// Number of labels in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True when no labels are set. An empty answer means "worker gave no
    /// answer for this item" in the answer matrix (paper: `x_iu = ∅`).
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Iterates the set labels in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let tz = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(bi * 64 + tz)
                }
            })
        })
    }

    /// Collects the set labels into a sorted vector.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// `|self ∩ other|` — the numerator of both set-based precision and recall
    /// (paper §5.1).
    pub fn intersection_len(&self, other: &LabelSet) -> usize {
        debug_assert_eq!(self.num_labels, other.num_labels);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Set union.
    pub fn union(&self, other: &LabelSet) -> LabelSet {
        debug_assert_eq!(self.num_labels, other.num_labels);
        LabelSet {
            num_labels: self.num_labels,
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &LabelSet) -> LabelSet {
        debug_assert_eq!(self.num_labels, other.num_labels);
        LabelSet {
            num_labels: self.num_labels,
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a & !b)
                .collect(),
        }
    }

    /// Jaccard similarity `|∩| / |∪|` (1 for two empty sets).
    pub fn jaccard(&self, other: &LabelSet) -> f64 {
        let i = self.intersection_len(other);
        let u = self.len() + other.len() - i;
        if u == 0 {
            1.0
        } else {
            i as f64 / u as f64
        }
    }

    /// Dense 0/1 vector view of length `C` (the multinomial count vector of
    /// paper §3.2).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.num_labels];
        for c in self.iter() {
            v[c] = 1.0;
        }
        v
    }
}

impl IntoIterator for &LabelSet {
    type Item = usize;
    type IntoIter = std::vec::IntoIter<usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_ops() {
        let mut s = LabelSet::empty(100);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(1));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.to_vec(), vec![0, 64, 99]);
    }

    #[test]
    fn from_labels_dedups() {
        let s = LabelSet::from_labels(10, [3, 3, 7]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range() {
        LabelSet::empty(5).insert(5);
    }

    #[test]
    fn intersection_and_union() {
        let a = LabelSet::from_labels(70, [1, 5, 65]);
        let b = LabelSet::from_labels(70, [5, 65, 69]);
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.union(&b).to_vec(), vec![1, 5, 65, 69]);
        assert_eq!(a.difference(&b).to_vec(), vec![1]);
    }

    #[test]
    fn jaccard_cases() {
        let a = LabelSet::from_labels(10, [1, 2]);
        let b = LabelSet::from_labels(10, [2, 3]);
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-12);
        let e = LabelSet::empty(10);
        assert_eq!(e.jaccard(&e), 1.0);
        assert_eq!(a.jaccard(&e), 0.0);
    }

    #[test]
    fn dense_roundtrip() {
        let s = LabelSet::from_labels(6, [0, 4]);
        assert_eq!(s.to_dense(), vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn iter_order_sorted() {
        let s = LabelSet::from_labels(200, [150, 3, 64, 128, 63]);
        let v = s.to_vec();
        assert_eq!(v, vec![3, 63, 64, 128, 150]);
    }

    #[test]
    fn zero_label_universe() {
        let s = LabelSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.to_vec(), Vec::<usize>::new());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(labels in proptest::collection::btree_set(0usize..300, 0..40)) {
            let v: Vec<usize> = labels.iter().copied().collect();
            let s = LabelSet::from_labels(300, v.clone());
            prop_assert_eq!(s.to_vec(), v);
            prop_assert_eq!(s.len(), labels.len());
        }

        #[test]
        fn prop_inclusion_exclusion(
            a in proptest::collection::btree_set(0usize..128, 0..30),
            b in proptest::collection::btree_set(0usize..128, 0..30),
        ) {
            let sa = LabelSet::from_labels(128, a.iter().copied());
            let sb = LabelSet::from_labels(128, b.iter().copied());
            let inter = sa.intersection_len(&sb);
            let uni = sa.union(&sb).len();
            prop_assert_eq!(sa.len() + sb.len(), inter + uni);
        }
    }
}
