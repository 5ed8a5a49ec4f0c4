//! The arrival contract: what one batch of arriving workers must satisfy
//! before any engine sees it.
//!
//! The paper's streaming inference (Algorithm 2) consumes arrival batches:
//! some workers plus all of their answers. [`validate_batch`] is the one
//! implementation of the checks such a batch must pass, and `cpa-serve`'s
//! `Fleet::apply` runs it on every `Ingest` op — in process, replayed from
//! an op-log, or arriving over `cpa-transport` — before anything is
//! mutated:
//!
//! - batches partition the workers — a worker that already arrived, or
//!   that appears twice in one batch, is rejected
//!   ([`QueueError::WorkerAlreadyArrived`]), because engine ingestion
//!   copies a worker's answers exactly once, at its arrival batch;
//! - every answer belongs to a worker of its own batch;
//! - item, worker and label indices lie inside the declared universe;
//! - label sets are non-empty, and no `(item, worker)` pair is answered
//!   twice in one batch.
//!
//! An empty batch (no workers, no answers) is valid.

use crate::labels::LabelSet;
use std::collections::BTreeSet;

/// Why an arrival batch was rejected.
///
/// Every rejection carries the worker it is pinned on where one is known —
/// both in the variant payload and through [`QueueError::worker`] — so a
/// producer on the far side of a socket can report *which* arrival was
/// bad, not just that one was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// The worker already arrived, in an earlier batch or earlier in this
    /// one; batches must partition the workers (see the module docs).
    WorkerAlreadyArrived {
        /// The recurring worker.
        worker: usize,
    },
    /// An answer names a worker that is not in its batch's worker list.
    ForeignWorker {
        /// The worker outside the batch.
        worker: usize,
    },
    /// An item, worker, or label index lies outside the declared universe.
    OutOfRange {
        /// The worker the offending index belongs to, when one is known.
        worker: Option<usize>,
        /// What was out of range.
        message: String,
    },
    /// An answer carried an empty label set ("did not answer" is encoded by
    /// absence, never by an empty set).
    EmptyLabels {
        /// Item of the offending answer.
        item: usize,
        /// Worker of the offending answer.
        worker: usize,
    },
    /// The same `(item, worker)` pair was answered twice in one batch — an
    /// answer is one label *set*, never two rows.
    DuplicateAnswer {
        /// Item of the duplicated answer.
        item: usize,
        /// Worker of the duplicated answer.
        worker: usize,
    },
}

impl QueueError {
    /// The worker this rejection is pinned on, when one is known (an
    /// out-of-range *worker* index is its own offender).
    pub fn worker(&self) -> Option<usize> {
        match *self {
            QueueError::WorkerAlreadyArrived { worker }
            | QueueError::ForeignWorker { worker }
            | QueueError::EmptyLabels { worker, .. }
            | QueueError::DuplicateAnswer { worker, .. } => Some(worker),
            QueueError::OutOfRange { worker, .. } => worker,
        }
    }
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::WorkerAlreadyArrived { worker } => write!(
                f,
                "worker {worker} already arrived in an earlier batch \
                 (batches must partition workers)"
            ),
            QueueError::ForeignWorker { worker } => {
                write!(
                    f,
                    "answer by worker {worker} who is not in the batch's worker list"
                )
            }
            QueueError::OutOfRange { worker, message } => match worker {
                Some(w) => write!(f, "index out of range for worker {w}: {message}"),
                None => write!(f, "index out of range: {message}"),
            },
            QueueError::EmptyLabels { item, worker } => {
                write!(f, "empty label set for item {item}, worker {worker}")
            }
            QueueError::DuplicateAnswer { item, worker } => {
                write!(f, "duplicate answer for item {item} by worker {worker}")
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// Validates one arrival batch against the arrival contract (module docs):
/// workers in range and not already arrived (in `arrived` or earlier in
/// `workers` itself), every answer by a batch worker, indices inside the
/// `num_items × num_workers × num_labels` universe, label sets non-empty,
/// no `(item, worker)` pair answered twice.
///
/// # Errors
/// The first violation found, as a [`QueueError`] carrying the offending
/// worker where one is known.
pub fn validate_batch(
    num_items: usize,
    num_workers: usize,
    num_labels: usize,
    arrived: &BTreeSet<usize>,
    workers: &[usize],
    answers: &[(usize, usize, LabelSet)],
) -> Result<(), QueueError> {
    let mut batch_workers: BTreeSet<usize> = BTreeSet::new();
    for &w in workers {
        if w >= num_workers {
            return Err(QueueError::OutOfRange {
                worker: Some(w),
                message: format!("worker {w} (universe has {num_workers})"),
            });
        }
        // A duplicate inside one batch is the same contract violation as a
        // worker recurring across batches.
        if !batch_workers.insert(w) || arrived.contains(&w) {
            return Err(QueueError::WorkerAlreadyArrived { worker: w });
        }
    }
    let mut seen_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (item, worker, labels) in answers {
        if *item >= num_items {
            return Err(QueueError::OutOfRange {
                worker: Some(*worker),
                message: format!("item {item} (universe has {num_items})"),
            });
        }
        if !batch_workers.contains(worker) {
            return Err(QueueError::ForeignWorker { worker: *worker });
        }
        if labels.universe() != num_labels {
            return Err(QueueError::OutOfRange {
                worker: Some(*worker),
                message: format!(
                    "label universe {} (declared {num_labels})",
                    labels.universe()
                ),
            });
        }
        if labels.is_empty() {
            return Err(QueueError::EmptyLabels {
                item: *item,
                worker: *worker,
            });
        }
        if !seen_pairs.insert((*item, *worker)) {
            return Err(QueueError::DuplicateAnswer {
                item: *item,
                worker: *worker,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(labels: &[usize]) -> LabelSet {
        LabelSet::from_labels(3, labels.iter().copied())
    }

    /// Validates against a 2-item × 3-worker × 3-label universe in which
    /// worker 2 already arrived.
    fn check(workers: &[usize], answers: &[(usize, usize, LabelSet)]) -> Result<(), QueueError> {
        validate_batch(2, 3, 3, &BTreeSet::from([2]), workers, answers)
    }

    #[test]
    fn an_empty_batch_is_accepted() {
        assert_eq!(check(&[], &[]), Ok(()));
        assert_eq!(
            check(&[0, 1], &[(0, 0, ls(&[0])), (1, 1, ls(&[1, 2]))]),
            Ok(())
        );
    }

    #[test]
    fn a_worker_outside_the_universe_is_out_of_range() {
        let err = check(&[3], &[]).unwrap_err();
        assert!(
            matches!(&err, QueueError::OutOfRange { worker: Some(3), message } if message.contains("worker 3")),
            "{err:?}"
        );
        assert_eq!(err.worker(), Some(3));
    }

    #[test]
    fn a_worker_twice_in_one_batch_already_arrived() {
        let err = check(&[1, 1], &[(0, 1, ls(&[0]))]).unwrap_err();
        assert_eq!(err, QueueError::WorkerAlreadyArrived { worker: 1 });
        assert_eq!(err.worker(), Some(1));
    }

    #[test]
    fn a_worker_in_arrived_already_arrived() {
        let err = check(&[0, 2], &[(0, 2, ls(&[0]))]).unwrap_err();
        assert_eq!(err, QueueError::WorkerAlreadyArrived { worker: 2 });
        assert_eq!(err.worker(), Some(2));
    }

    #[test]
    fn an_answer_by_a_worker_outside_the_batch_is_foreign() {
        let err = check(&[0], &[(0, 0, ls(&[0])), (1, 1, ls(&[1]))]).unwrap_err();
        assert_eq!(err, QueueError::ForeignWorker { worker: 1 });
        assert_eq!(err.worker(), Some(1));
    }

    #[test]
    fn an_item_outside_the_universe_is_out_of_range() {
        let err = check(&[0], &[(2, 0, ls(&[0]))]).unwrap_err();
        assert!(
            matches!(&err, QueueError::OutOfRange { worker: Some(0), message } if message.contains("item 2")),
            "{err:?}"
        );
        assert_eq!(err.worker(), Some(0));
    }

    #[test]
    fn a_label_set_of_another_universe_is_out_of_range() {
        let err = check(&[1], &[(0, 1, LabelSet::from_labels(5, [0]))]).unwrap_err();
        assert!(
            matches!(&err, QueueError::OutOfRange { worker: Some(1), message } if message.contains("label universe 5")),
            "{err:?}"
        );
        assert_eq!(err.worker(), Some(1));
    }

    #[test]
    fn an_empty_label_set_is_rejected() {
        let err = check(&[0], &[(1, 0, LabelSet::empty(3))]).unwrap_err();
        assert_eq!(err, QueueError::EmptyLabels { item: 1, worker: 0 });
        assert_eq!(err.worker(), Some(0));
    }

    #[test]
    fn a_duplicate_item_worker_pair_is_rejected() {
        let err = check(
            &[0, 1],
            &[(1, 0, ls(&[0])), (0, 1, ls(&[1])), (1, 0, ls(&[2]))],
        )
        .unwrap_err();
        assert_eq!(err, QueueError::DuplicateAnswer { item: 1, worker: 0 });
        assert_eq!(err.worker(), Some(0));
    }
}
