//! The sparse answer matrix `M` (paper §2.2), stored in CSR layout.
//!
//! Crowdsourcing matrices are extremely sparse — each item is answered by a
//! handful of workers — so the matrix is stored in *compressed sparse row*
//! (CSR) form in **both** orientations: by item (needed by per-item updates,
//! prediction and the baselines) and by worker (needed by the per-worker
//! community updates and by SVI's worker batches). Each orientation is a flat
//! `offsets` array plus one contiguous entry array, so per-item and
//! per-worker iteration — the inner loops of every inference engine — is a
//! single contiguous scan with no pointer chasing.
//!
//! # CSR invariants
//!
//! The two orientations are kept consistent by construction. For the
//! item-major orientation (`item_offsets`, `item_entries`); the worker-major
//! one (`worker_offsets`, `worker_entries`) mirrors each rule with the roles
//! of item and worker swapped:
//!
//! 1. `item_offsets.len() == num_items + 1`, `item_offsets[0] == 0`, and the
//!    offsets are non-decreasing with
//!    `item_offsets[num_items] == item_entries.len()`;
//! 2. item `i`'s answers are exactly
//!    `item_entries[item_offsets[i]..item_offsets[i + 1]]`, as `(worker,
//!    labels)` pairs **sorted by worker index** with no duplicate worker;
//! 3. every entry's label set is non-empty and has universe `num_labels`
//!    (an empty set means "did not answer", which is represented by
//!    *absence* from the matrix);
//! 4. both orientations contain the same `(item, worker, labels)` triples,
//!    and `num_answers == item_entries.len() == worker_entries.len()`.
//!
//! [`AnswerMatrix::check_consistency`] verifies all four invariants, plus
//! every item, worker and label index against its dimension, and is
//! exercised by the test suite. Decoding runs the same check, so a
//! malformed matrix in a checkpoint, a fleet manifest or a binary frame is
//! a decode error, never a panic on first use.
//!
//! # Construction and mutation
//!
//! Bulk construction goes through [`AnswerMatrixBuilder`] (adjacency lists,
//! flattened once at [`AnswerMatrixBuilder::build`]) and bulk ingestion of a
//! streaming batch through [`AnswerMatrix::extend_bulk`] (one ordered merge
//! pass). Point mutations ([`AnswerMatrix::insert`] /
//! [`AnswerMatrix::remove`]) remain available for perturbations and tests
//! but splice the flat arrays — O(answers) per call — so hot paths should
//! prefer the bulk APIs.

use crate::labels::LabelSet;
use serde::{Deserialize, Serialize};

/// One worker's answer to one item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Answer {
    /// Item index.
    pub item: u32,
    /// Worker index.
    pub worker: u32,
    /// The assigned label set (non-empty; an empty set means "did not
    /// answer", which is represented by *absence* from the matrix).
    pub labels: LabelSet,
}

/// Sparse `I × U` answer matrix over `C` labels in dual-orientation CSR
/// layout (see the module docs for the invariants).
#[derive(Debug, Clone, Serialize)]
pub struct AnswerMatrix {
    num_items: usize,
    num_workers: usize,
    num_labels: usize,
    /// CSR offsets into `item_entries`; length `num_items + 1`.
    item_offsets: Vec<usize>,
    /// Item-major `(worker, labels)` entries, sorted by worker within item.
    item_entries: Vec<(u32, LabelSet)>,
    /// CSR offsets into `worker_entries`; length `num_workers + 1`.
    worker_offsets: Vec<usize>,
    /// Worker-major `(item, labels)` entries, sorted by item within worker.
    worker_entries: Vec<(u32, LabelSet)>,
    num_answers: usize,
}

/// The serialized fields of an [`AnswerMatrix`], decoded as they stand and
/// checked before they become one.
#[derive(Deserialize)]
struct CsrFields {
    num_items: usize,
    num_workers: usize,
    num_labels: usize,
    item_offsets: Vec<usize>,
    item_entries: Vec<(u32, LabelSet)>,
    worker_offsets: Vec<usize>,
    worker_entries: Vec<(u32, LabelSet)>,
    num_answers: usize,
}

impl Deserialize for AnswerMatrix {
    fn deserialize<'de, D: serde::Deserializer<'de>>(d: &mut D) -> Result<Self, serde::Error> {
        let f = CsrFields::deserialize(d)?;
        let m = AnswerMatrix {
            num_items: f.num_items,
            num_workers: f.num_workers,
            num_labels: f.num_labels,
            item_offsets: f.item_offsets,
            item_entries: f.item_entries,
            worker_offsets: f.worker_offsets,
            worker_entries: f.worker_entries,
            num_answers: f.num_answers,
        };
        m.validate()
            .map_err(|e| serde::Error::custom(format!("malformed answer matrix: {e}")))?;
        Ok(m)
    }
}

impl AnswerMatrix {
    /// Creates an empty matrix of the given shape.
    pub fn new(num_items: usize, num_workers: usize, num_labels: usize) -> Self {
        Self {
            num_items,
            num_workers,
            num_labels,
            item_offsets: vec![0; num_items + 1],
            item_entries: Vec::new(),
            worker_offsets: vec![0; num_workers + 1],
            worker_entries: Vec::new(),
            num_answers: 0,
        }
    }

    /// Number of items `I`.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of workers `U`.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Number of labels `C`.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of non-empty answers (worker-item pairs).
    pub fn num_answers(&self) -> usize {
        self.num_answers
    }

    /// Fraction of the full `I × U` grid that is *not* answered.
    pub fn sparsity(&self) -> f64 {
        let total = self.num_items * self.num_workers;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.num_answers as f64 / total as f64
    }

    /// All `(worker, labels)` answers for an item, sorted by worker index —
    /// one contiguous CSR slice.
    #[inline]
    pub fn item_answers(&self, item: usize) -> &[(u32, LabelSet)] {
        &self.item_entries[self.item_offsets[item]..self.item_offsets[item + 1]]
    }

    /// All `(item, labels)` answers of a worker, sorted by item index — one
    /// contiguous CSR slice.
    #[inline]
    pub fn worker_answers(&self, worker: usize) -> &[(u32, LabelSet)] {
        &self.worker_entries[self.worker_offsets[worker]..self.worker_offsets[worker + 1]]
    }

    /// The answer of `worker` for `item`, if any.
    pub fn get(&self, item: usize, worker: usize) -> Option<&LabelSet> {
        let row = self.item_answers(item);
        row.binary_search_by_key(&(worker as u32), |e| e.0)
            .ok()
            .map(|pos| &row[pos].1)
    }

    /// Inserts an answer. Replaces any previous answer by the same worker for
    /// the same item. Empty label sets are rejected — absence encodes
    /// "no answer".
    ///
    /// This is a point mutation on the flat CSR arrays — O(answers) per call;
    /// prefer [`AnswerMatrixBuilder`] or [`AnswerMatrix::extend_bulk`] for
    /// anything bulk.
    ///
    /// # Panics
    /// Panics on out-of-range indices, a label universe mismatch, or an empty
    /// label set.
    pub fn insert(&mut self, item: usize, worker: usize, labels: LabelSet) {
        assert!(item < self.num_items, "item {item} out of range");
        assert!(worker < self.num_workers, "worker {worker} out of range");
        assert_eq!(
            labels.universe(),
            self.num_labels,
            "label universe mismatch"
        );
        assert!(!labels.is_empty(), "empty answers are encoded by absence");
        let istart = self.item_offsets[item];
        let row = &self.item_entries[istart..self.item_offsets[item + 1]];
        match row.binary_search_by_key(&(worker as u32), |e| e.0) {
            Ok(pos) => {
                self.item_entries[istart + pos].1 = labels.clone();
                let wstart = self.worker_offsets[worker];
                let wrow = &self.worker_entries[wstart..self.worker_offsets[worker + 1]];
                let wpos = wrow
                    .binary_search_by_key(&(item as u32), |e| e.0)
                    .expect("orientations out of sync");
                self.worker_entries[wstart + wpos].1 = labels;
            }
            Err(pos) => {
                self.item_entries
                    .insert(istart + pos, (worker as u32, labels.clone()));
                for off in &mut self.item_offsets[item + 1..] {
                    *off += 1;
                }
                let wstart = self.worker_offsets[worker];
                let wrow = &self.worker_entries[wstart..self.worker_offsets[worker + 1]];
                let wpos = wrow
                    .binary_search_by_key(&(item as u32), |e| e.0)
                    .expect_err("orientations out of sync");
                self.worker_entries
                    .insert(wstart + wpos, (item as u32, labels));
                for off in &mut self.worker_offsets[worker + 1..] {
                    *off += 1;
                }
                self.num_answers += 1;
            }
        }
    }

    /// Removes the answer of `worker` for `item`; returns whether one
    /// existed. Point mutation, O(answers) — see [`AnswerMatrix::insert`].
    pub fn remove(&mut self, item: usize, worker: usize) -> bool {
        if item >= self.num_items || worker >= self.num_workers {
            return false;
        }
        let istart = self.item_offsets[item];
        let row = &self.item_entries[istart..self.item_offsets[item + 1]];
        if let Ok(pos) = row.binary_search_by_key(&(worker as u32), |e| e.0) {
            self.item_entries.remove(istart + pos);
            for off in &mut self.item_offsets[item + 1..] {
                *off -= 1;
            }
            let wstart = self.worker_offsets[worker];
            let wrow = &self.worker_entries[wstart..self.worker_offsets[worker + 1]];
            let wpos = wrow
                .binary_search_by_key(&(item as u32), |e| e.0)
                .expect("orientations out of sync");
            self.worker_entries.remove(wstart + wpos);
            for off in &mut self.worker_offsets[worker + 1..] {
                *off -= 1;
            }
            self.num_answers -= 1;
            true
        } else {
            false
        }
    }

    /// Merges a batch of answers in one pass: O(answers + batch·log batch)
    /// instead of O(answers) *per answer* as repeated [`AnswerMatrix::insert`]
    /// calls would cost. Later duplicates (within the batch or against
    /// existing answers) replace earlier ones, exactly like `insert`.
    ///
    /// # Panics
    /// Same conditions as [`AnswerMatrix::insert`].
    pub fn extend_bulk<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (usize, usize, LabelSet)>,
    {
        let mut incoming: Vec<(u32, u32, LabelSet)> = batch
            .into_iter()
            .map(|(item, worker, labels)| {
                assert!(item < self.num_items, "item {item} out of range");
                assert!(worker < self.num_workers, "worker {worker} out of range");
                assert_eq!(
                    labels.universe(),
                    self.num_labels,
                    "label universe mismatch"
                );
                assert!(!labels.is_empty(), "empty answers are encoded by absence");
                (item as u32, worker as u32, labels)
            })
            .collect();
        if incoming.is_empty() {
            return;
        }
        // Stable sort keeps arrival order among duplicates; keep the last.
        incoming.sort_by_key(|&(i, w, _)| (i, w));
        let mut deduped: Vec<(u32, u32, LabelSet)> = Vec::with_capacity(incoming.len());
        for e in incoming {
            match deduped.last_mut() {
                Some(last) if last.0 == e.0 && last.1 == e.1 => *last = e,
                _ => deduped.push(e),
            }
        }

        // Ordered merge of the existing item-major stream with the batch.
        let mut merged: Vec<(u32, u32, LabelSet)> =
            Vec::with_capacity(self.item_entries.len() + deduped.len());
        let mut new_iter = deduped.into_iter().peekable();
        for item in 0..self.num_items {
            let row = self.item_offsets[item]..self.item_offsets[item + 1];
            let mut old_iter = self.item_entries[row].iter().peekable();
            loop {
                // The batch is (item, worker)-sorted, so only its head can
                // belong to the current item.
                let new_worker = new_iter
                    .peek()
                    .filter(|&&(ni, _, _)| ni as usize == item)
                    .map(|&(_, nw, _)| nw);
                match (old_iter.peek(), new_worker) {
                    (None, None) => break,
                    (Some(_), None) => {
                        let (w, l) = old_iter.next().expect("peeked");
                        merged.push((item as u32, *w, l.clone()));
                    }
                    (old, Some(nw)) => {
                        match old {
                            Some(&&(ow, _)) if ow < nw => {
                                let (w, l) = old_iter.next().expect("peeked");
                                merged.push((item as u32, *w, l.clone()));
                                continue;
                            }
                            Some(&&(ow, _)) if ow == nw => {
                                old_iter.next(); // replaced by the batch entry
                            }
                            _ => {}
                        }
                        let (i, w, l) = new_iter.next().expect("peeked");
                        merged.push((i, w, l));
                    }
                }
            }
        }
        debug_assert!(new_iter.peek().is_none(), "batch items exhausted in merge");
        self.rebuild_from_item_major(merged);
    }

    /// Copies every answer of `workers` out of `source` into `self` with one
    /// [`AnswerMatrix::extend_bulk`] merge — the ingestion step every
    /// streaming engine performs per worker batch.
    ///
    /// # Panics
    /// Panics under the same conditions as [`AnswerMatrix::extend_bulk`]
    /// (out-of-range indices against `self`'s dimensions, label-universe
    /// mismatch).
    pub fn extend_from_workers(&mut self, source: &AnswerMatrix, workers: &[usize]) {
        self.extend_bulk(workers.iter().flat_map(|&u| {
            source
                .worker_answers(u)
                .iter()
                .map(move |(item, labels)| (*item as usize, u, labels.clone()))
        }));
    }

    /// Rebuilds both CSR orientations from item-major `(item, worker,
    /// labels)` triples that are already sorted by `(item, worker)` and
    /// duplicate-free.
    fn rebuild_from_item_major(&mut self, triples: Vec<(u32, u32, LabelSet)>) {
        self.num_answers = triples.len();
        // Item orientation: counting pass then a linear fill.
        let mut item_counts = vec![0usize; self.num_items];
        let mut worker_counts = vec![0usize; self.num_workers];
        for &(i, w, _) in &triples {
            item_counts[i as usize] += 1;
            worker_counts[w as usize] += 1;
        }
        self.item_offsets = prefix_sum(&item_counts);
        self.worker_offsets = prefix_sum(&worker_counts);

        // Worker orientation via counting sort: scanning item-major order
        // yields increasing item indices within each worker automatically.
        let mut cursor = self.worker_offsets.clone();
        let mut worker_slots: Vec<Option<(u32, LabelSet)>> = vec![None; triples.len()];
        let mut item_entries = Vec::with_capacity(triples.len());
        for (i, w, l) in triples {
            worker_slots[cursor[w as usize]] = Some((i, l.clone()));
            cursor[w as usize] += 1;
            item_entries.push((w, l));
        }
        self.item_entries = item_entries;
        self.worker_entries = worker_slots
            .into_iter()
            .map(|s| s.expect("every slot filled by the counting sort"))
            .collect();
    }

    /// Iterates all answers in item-major order.
    pub fn iter(&self) -> impl Iterator<Item = Answer> + '_ {
        (0..self.num_items).flat_map(move |i| {
            self.item_answers(i).iter().map(move |(w, l)| Answer {
                item: i as u32,
                worker: *w,
                labels: l.clone(),
            })
        })
    }

    /// Grows the worker dimension (used by spammer injection).
    pub fn grow_workers(&mut self, new_num_workers: usize) {
        assert!(new_num_workers >= self.num_workers);
        let end = *self.worker_offsets.last().expect("offsets non-empty");
        self.worker_offsets.resize(new_num_workers + 1, end);
        self.num_workers = new_num_workers;
    }

    /// Per-label positive-vote counts and answer counts for an item:
    /// `(votes_for_label, total_answers)`. This is the sufficient statistic of
    /// majority voting and of the per-label baseline decomposition.
    pub fn item_vote_counts(&self, item: usize) -> (Vec<u32>, u32) {
        let mut votes = vec![0u32; self.num_labels];
        let answers = self.item_answers(item);
        for (_, labels) in answers {
            for c in labels.iter() {
                votes[c] += 1;
            }
        }
        (votes, answers.len() as u32)
    }

    /// Checks the CSR invariants (module docs), including the agreement of
    /// the two orientations and every index against its dimension. Never
    /// panics, whatever the arrays hold. Exposed for tests.
    pub fn check_consistency(&self) -> bool {
        self.validate().is_ok()
    }

    /// The check behind [`AnswerMatrix::check_consistency`] and decoding:
    /// the first violation found, naming its invariant.
    fn validate(&self) -> Result<(), String> {
        // Offset shape (invariant 1, both orientations). Once it holds,
        // every row slice below is in bounds. `len - 1` cannot overflow once
        // a first offset exists; `rows + 1` could, on a decoded dimension.
        let offsets_ok = |name: &str, offsets: &[usize], rows: usize, entries: usize| {
            if offsets.first() == Some(&0)
                && offsets.len() - 1 == rows
                && offsets.windows(2).all(|w| w[0] <= w[1])
                && offsets[rows] == entries
            {
                Ok(())
            } else {
                Err(format!(
                    "invariant 1: {name} must be one more than its {rows} rows, \
                     non-decreasing from 0 to {entries}"
                ))
            }
        };
        offsets_ok(
            "item_offsets",
            &self.item_offsets,
            self.num_items,
            self.item_entries.len(),
        )?;
        offsets_ok(
            "worker_offsets",
            &self.worker_offsets,
            self.num_workers,
            self.worker_entries.len(),
        )?;
        if self.num_answers != self.item_entries.len()
            || self.num_answers != self.worker_entries.len()
        {
            return Err(format!(
                "invariant 4: num_answers {} against {} item-major and {} worker-major entries",
                self.num_answers,
                self.item_entries.len(),
                self.worker_entries.len()
            ));
        }
        // Strictly increasing in-range indices per row (invariant 2, both
        // orientations).
        let rows_ok = |name: &str, offsets: &[usize], entries: &[(u32, LabelSet)], dim: usize| {
            for (r, span) in offsets.windows(2).enumerate() {
                let row = &entries[span[0]..span[1]];
                if let Some(&(x, _)) = row.iter().find(|e| e.0 as usize >= dim) {
                    return Err(format!(
                        "invariant 2: {name} row {r} names index {x} of {dim}"
                    ));
                }
                if !row.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(format!(
                        "invariant 2: {name} row {r} is not strictly increasing"
                    ));
                }
            }
            Ok(())
        };
        rows_ok(
            "item-major",
            &self.item_offsets,
            &self.item_entries,
            self.num_workers,
        )?;
        rows_ok(
            "worker-major",
            &self.worker_offsets,
            &self.worker_entries,
            self.num_items,
        )?;
        for i in 0..self.num_items {
            for (w, l) in self.item_answers(i) {
                // Non-empty label sets of the right universe (invariant 3).
                if l.is_empty() || l.universe() != self.num_labels || !l.is_well_formed() {
                    return Err(format!(
                        "invariant 3: the answer of worker {w} to item {i} is not a \
                         non-empty set of the {}-label universe",
                        self.num_labels
                    ));
                }
                // Orientation agreement (invariant 4). The rows are sorted
                // and equally many, so matching every item-major entry
                // matches every worker-major one.
                let wrow = self.worker_answers(*w as usize);
                match wrow.binary_search_by_key(&(i as u32), |e| e.0) {
                    Ok(pos) if wrow[pos].1 == *l => {}
                    _ => {
                        return Err(format!(
                            "invariant 4: the answer of worker {w} to item {i} differs \
                             between the orientations"
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

/// `counts` → CSR offsets (exclusive prefix sum with a trailing total).
fn prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

/// Mutable accumulation buffer for building an [`AnswerMatrix`] without
/// paying CSR splice costs: answers land in per-item adjacency lists and are
/// flattened into both CSR orientations once, at [`AnswerMatrixBuilder::build`].
#[derive(Debug, Clone)]
pub struct AnswerMatrixBuilder {
    num_items: usize,
    num_workers: usize,
    num_labels: usize,
    /// Per item, `(worker, labels)` in arrival order, possibly with duplicate
    /// workers (resolved last-wins at build time).
    by_item: Vec<Vec<(u32, LabelSet)>>,
}

impl AnswerMatrixBuilder {
    /// Starts an empty builder of the given shape.
    pub fn new(num_items: usize, num_workers: usize, num_labels: usize) -> Self {
        Self {
            num_items,
            num_workers,
            num_labels,
            by_item: vec![Vec::new(); num_items],
        }
    }

    /// Records an answer in O(1) amortised. Replace semantics against an
    /// earlier answer by the same worker for the same item are applied at
    /// [`AnswerMatrixBuilder::build`] (last insert wins).
    ///
    /// # Panics
    /// Panics on out-of-range indices, a label universe mismatch, or an empty
    /// label set.
    pub fn insert(&mut self, item: usize, worker: usize, labels: LabelSet) {
        assert!(item < self.num_items, "item {item} out of range");
        assert!(worker < self.num_workers, "worker {worker} out of range");
        assert_eq!(
            labels.universe(),
            self.num_labels,
            "label universe mismatch"
        );
        assert!(!labels.is_empty(), "empty answers are encoded by absence");
        self.by_item[item].push((worker as u32, labels));
    }

    /// Flattens into the dual-orientation CSR matrix.
    pub fn build(self) -> AnswerMatrix {
        let mut out = AnswerMatrix::new(self.num_items, self.num_workers, self.num_labels);
        let mut triples: Vec<(u32, u32, LabelSet)> = Vec::new();
        for (item, mut row) in self.by_item.into_iter().enumerate() {
            // Stable sort: equal workers stay in arrival order, so keeping
            // the last duplicate implements replace semantics.
            row.sort_by_key(|e| e.0);
            let mut deduped: Vec<(u32, LabelSet)> = Vec::with_capacity(row.len());
            for e in row {
                match deduped.last_mut() {
                    Some(last) if last.0 == e.0 => *last = e,
                    _ => deduped.push(e),
                }
            }
            triples.extend(deduped.into_iter().map(|(w, l)| (item as u32, w, l)));
        }
        out.rebuild_from_item_major(triples);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(c: usize, labels: &[usize]) -> LabelSet {
        LabelSet::from_labels(c, labels.iter().copied())
    }

    #[test]
    fn insert_get_both_views() {
        let mut m = AnswerMatrix::new(3, 2, 5);
        m.insert(0, 1, ls(5, &[0, 2]));
        m.insert(2, 1, ls(5, &[4]));
        m.insert(0, 0, ls(5, &[1]));
        assert_eq!(m.num_answers(), 3);
        assert_eq!(m.get(0, 1).unwrap().to_vec(), vec![0, 2]);
        assert!(m.get(1, 0).is_none());
        assert_eq!(m.item_answers(0).len(), 2);
        assert_eq!(m.worker_answers(1).len(), 2);
        assert!(m.check_consistency());
    }

    #[test]
    fn insert_replaces() {
        let mut m = AnswerMatrix::new(1, 1, 4);
        m.insert(0, 0, ls(4, &[0]));
        m.insert(0, 0, ls(4, &[1, 2]));
        assert_eq!(m.num_answers(), 1);
        assert_eq!(m.get(0, 0).unwrap().to_vec(), vec![1, 2]);
        assert!(m.check_consistency());
    }

    #[test]
    fn remove_works() {
        let mut m = AnswerMatrix::new(2, 2, 3);
        m.insert(0, 0, ls(3, &[0]));
        m.insert(1, 0, ls(3, &[1]));
        assert!(m.remove(0, 0));
        assert!(!m.remove(0, 0));
        assert_eq!(m.num_answers(), 1);
        assert!(m.get(0, 0).is_none());
        assert_eq!(m.worker_answers(0).len(), 1);
        assert!(m.check_consistency());
    }

    #[test]
    #[should_panic(expected = "empty answers")]
    fn rejects_empty_answer() {
        let mut m = AnswerMatrix::new(1, 1, 3);
        m.insert(0, 0, LabelSet::empty(3));
    }

    #[test]
    fn sparsity_and_counts() {
        let mut m = AnswerMatrix::new(2, 2, 3);
        assert_eq!(m.sparsity(), 1.0);
        m.insert(0, 0, ls(3, &[0, 1]));
        m.insert(0, 1, ls(3, &[1]));
        assert_eq!(m.sparsity(), 0.5);
        let (votes, n) = m.item_vote_counts(0);
        assert_eq!(votes, vec![1, 2, 0]);
        assert_eq!(n, 2);
    }

    #[test]
    fn grow_workers_preserves() {
        let mut m = AnswerMatrix::new(1, 1, 2);
        m.insert(0, 0, ls(2, &[0]));
        m.grow_workers(3);
        assert_eq!(m.num_workers(), 3);
        m.insert(0, 2, ls(2, &[1]));
        assert_eq!(m.num_answers(), 2);
        assert!(m.check_consistency());
    }

    #[test]
    fn iter_visits_all() {
        let mut m = AnswerMatrix::new(2, 3, 4);
        m.insert(0, 2, ls(4, &[1]));
        m.insert(1, 0, ls(4, &[2]));
        m.insert(1, 1, ls(4, &[3]));
        let all: Vec<Answer> = m.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].item, 0);
        assert_eq!(all[0].worker, 2);
    }

    #[test]
    fn builder_matches_point_inserts() {
        let mut b = AnswerMatrixBuilder::new(3, 3, 4);
        let mut m = AnswerMatrix::new(3, 3, 4);
        for &(i, w, ref labels) in &[
            (2usize, 1usize, vec![0usize]),
            (0, 2, vec![1, 3]),
            (0, 0, vec![2]),
            (1, 1, vec![0, 1]),
            (0, 2, vec![0]), // replaces (0, 2)
        ] {
            b.insert(i, w, ls(4, labels));
            m.insert(i, w, ls(4, labels));
        }
        let built = b.build();
        assert!(built.check_consistency());
        assert_eq!(built.num_answers(), m.num_answers());
        for i in 0..3 {
            assert_eq!(built.item_answers(i), m.item_answers(i));
        }
        for w in 0..3 {
            assert_eq!(built.worker_answers(w), m.worker_answers(w));
        }
        assert_eq!(built.get(0, 2).unwrap().to_vec(), vec![0]);
    }

    #[test]
    fn extend_bulk_matches_point_inserts() {
        let base = |m: &mut AnswerMatrix| {
            m.insert(0, 0, ls(3, &[0]));
            m.insert(2, 1, ls(3, &[1, 2]));
        };
        let batch = vec![
            (1usize, 1usize, ls(3, &[2])),
            (0, 0, ls(3, &[1])), // replaces existing (0, 0)
            (2, 0, ls(3, &[0])),
            (1, 1, ls(3, &[0])), // replaces earlier batch entry (1, 1)
        ];
        let mut bulk = AnswerMatrix::new(3, 2, 3);
        base(&mut bulk);
        bulk.extend_bulk(batch.clone());
        let mut point = AnswerMatrix::new(3, 2, 3);
        base(&mut point);
        for (i, w, l) in batch {
            point.insert(i, w, l);
        }
        assert!(bulk.check_consistency());
        assert_eq!(bulk.num_answers(), point.num_answers());
        for i in 0..3 {
            assert_eq!(bulk.item_answers(i), point.item_answers(i));
        }
        for w in 0..2 {
            assert_eq!(bulk.worker_answers(w), point.worker_answers(w));
        }
    }

    #[test]
    fn extend_from_workers_copies_exactly_those_workers() {
        let mut source = AnswerMatrix::new(3, 3, 4);
        source.insert(0, 0, ls(4, &[0]));
        source.insert(1, 0, ls(4, &[1, 2]));
        source.insert(1, 1, ls(4, &[3]));
        source.insert(2, 2, ls(4, &[0, 3]));
        let mut m = AnswerMatrix::new(3, 3, 4);
        m.extend_from_workers(&source, &[0, 2]);
        assert!(m.check_consistency());
        assert_eq!(m.num_answers(), 3);
        assert_eq!(m.get(1, 0), source.get(1, 0));
        assert_eq!(m.get(2, 2), source.get(2, 2));
        assert!(m.get(1, 1).is_none(), "worker 1 was not in the batch");
    }

    #[test]
    fn extend_bulk_empty_is_noop() {
        let mut m = AnswerMatrix::new(2, 2, 3);
        m.insert(0, 0, ls(3, &[0]));
        m.extend_bulk(Vec::new());
        assert_eq!(m.num_answers(), 1);
        assert!(m.check_consistency());
    }

    /// A 3-item × 3-worker × 4-label matrix with four answers.
    fn sample() -> AnswerMatrix {
        let mut m = AnswerMatrix::new(3, 3, 4);
        m.insert(0, 0, ls(4, &[0]));
        m.insert(0, 2, ls(4, &[1, 3]));
        m.insert(1, 0, ls(4, &[2]));
        m.insert(2, 1, ls(4, &[0, 1]));
        m
    }

    /// Decodes `m` from JSON and from the binary codec.
    fn decode(m: &AnswerMatrix) -> [Result<AnswerMatrix, String>; 2] {
        [
            serde_json::from_str(&serde_json::to_string(m).unwrap()).map_err(|e| e.to_string()),
            crate::codec::from_bytes(&crate::codec::to_bytes(m)).map_err(|e| e.to_string()),
        ]
    }

    /// `sample()` with `defect` applied must fail to decode under both
    /// codecs, naming `invariant`, and `check_consistency` must say no
    /// without panicking.
    fn refused(defect: impl Fn(&mut AnswerMatrix), invariant: &str) {
        let mut m = sample();
        defect(&mut m);
        assert!(!m.check_consistency());
        for decoded in decode(&m) {
            let err = decoded.expect_err("a malformed matrix decodes");
            assert!(
                err.contains("malformed answer matrix") && err.contains(invariant),
                "{err}"
            );
        }
    }

    #[test]
    fn valid_matrices_round_trip_under_both_codecs() {
        for m in [
            sample(),
            AnswerMatrix::new(0, 0, 0),
            AnswerMatrix::new(2, 3, 70),
        ] {
            for decoded in decode(&m) {
                let back = decoded.expect("a valid matrix decodes");
                assert!(back.check_consistency());
                assert_eq!(back.num_answers(), m.num_answers());
                assert!(back.iter().eq(m.iter()));
            }
        }
    }

    #[test]
    fn decoding_refuses_malformed_offsets() {
        // Invariant 1: length, start, order and end, both orientations.
        refused(|m| m.item_offsets = vec![0], "invariant 1: item_offsets");
        refused(|m| m.item_offsets[0] = 1, "invariant 1: item_offsets");
        refused(|m| m.item_offsets.swap(1, 2), "invariant 1: item_offsets");
        refused(
            |m| *m.item_offsets.last_mut().unwrap() = 9,
            "invariant 1: item_offsets",
        );
        refused(|m| m.worker_offsets.push(4), "invariant 1: worker_offsets");
        refused(
            |m| {
                m.num_items = usize::MAX;
                m.item_offsets.clear();
            },
            "invariant 1: item_offsets",
        );
    }

    #[test]
    fn decoding_refuses_unsorted_or_out_of_range_rows() {
        // Invariant 2, plus every item and worker index in range.
        refused(
            |m| m.item_entries.swap(0, 1),
            "invariant 2: item-major row 0",
        );
        refused(|m| m.item_entries[3].0 = 3, "index 3 of 3");
        refused(|m| m.worker_entries[0].0 = 7, "index 7 of 3");
        refused(
            |m| m.worker_entries.swap(0, 1),
            "invariant 2: worker-major row 0",
        );
    }

    #[test]
    fn decoding_refuses_empty_or_foreign_label_sets() {
        // Invariant 3: non-empty, of the matrix's universe, no label past it.
        refused(|m| m.item_entries[0].1 = LabelSet::empty(4), "invariant 3");
        refused(|m| m.item_entries[0].1 = ls(5, &[0]), "invariant 3");
        let wide: LabelSet = serde_json::from_str(r#"{"num_labels":4,"blocks":[17]}"#).unwrap();
        refused(move |m| m.item_entries[0].1 = wide.clone(), "invariant 3");
        let long: LabelSet = serde_json::from_str(r#"{"num_labels":4,"blocks":[1,0]}"#).unwrap();
        refused(move |m| m.item_entries[0].1 = long.clone(), "invariant 3");
    }

    #[test]
    fn decoding_refuses_orientations_that_disagree() {
        // Invariant 4: the same triples, equally many, in both orientations.
        refused(|m| m.num_answers = 5, "invariant 4: num_answers");
        refused(|m| m.worker_entries[0].1 = ls(4, &[3]), "invariant 4");
        refused(
            |m| {
                // Worker 2's answer moved to item 1 on the worker side only.
                let last = m.worker_entries.len() - 1;
                m.worker_entries[last].0 = 1;
            },
            "invariant 4",
        );
    }

    #[test]
    fn builder_empty_rows_ok() {
        let built = AnswerMatrixBuilder::new(4, 4, 2).build();
        assert_eq!(built.num_answers(), 0);
        assert!(built.check_consistency());
        assert!(built.item_answers(3).is_empty());
        assert!(built.worker_answers(0).is_empty());
    }
}
