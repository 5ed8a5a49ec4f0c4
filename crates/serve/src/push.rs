//! Client-side read-delta cache: the receiving half of
//! `FleetOp::SubscribeReads`.
//!
//! A [`ReadCache`] is built from the subscription's bootstrap frame (a
//! [`FleetReply::PredictedDelta`] / [`FleetReply::EstimatedDelta`] carrying
//! every subscribed item's row at the epoch the server acked) and then
//! [`ReadCache::apply`]s each pushed delta frame — rows for only the dirty
//! shards' subscribed items. After every applied frame the cache holds, for
//! each subscribed item, exactly the row a poll refetch
//! (`PredictItems` / `EstimateItems` over the same items) would return at
//! the cache's epoch — bit-identical values with the same epoch tag, at
//! zero round trips (locked by `tests/push_reads.rs`).
//!
//! Like every epoch-tagged surface, the cache is comparable within one
//! mutation lineage: a `Restore` on the publisher ships as a whole-universe
//! delta whose epoch may jump backwards, and the cache adopts it — the
//! restore is a new lineage, not a regression.
//!
//! The cache is transport-agnostic (it consumes [`FleetReply`] values, not
//! sockets) — `cpa-transport`'s `ReadSubscription` owns the socket and
//! feeds one of these, the same split as `OpSubscription` feeding a
//! [`crate::replica::Follower`].

use crate::protocol::{FleetReply, ItemEstimate};
use crate::view::ReadKind;
use cpa_data::labels::LabelSet;
use std::collections::BTreeMap;
use std::fmt;

/// Why a frame could not construct or apply to a [`ReadCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The frame is not a read-delta frame, or its row kind does not match
    /// the subscription's [`ReadKind`].
    KindMismatch {
        /// The offending frame's reply name.
        frame: String,
    },
    /// The frame carries a row for an item the subscription never covered.
    UnknownItem {
        /// The offending item.
        item: usize,
    },
    /// The frame's `items` and row payload disagree in length.
    RowCount {
        /// Number of items the frame names.
        items: usize,
        /// Number of rows it carries.
        rows: usize,
    },
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::KindMismatch { frame } => {
                write!(f, "frame {frame} does not match the subscription kind")
            }
            PushError::UnknownItem { item } => {
                write!(f, "delta row for item {item} outside the subscription")
            }
            PushError::RowCount { items, rows } => {
                write!(f, "delta names {items} items but carries {rows} rows")
            }
        }
    }
}

impl std::error::Error for PushError {}

/// What one applied delta frame changed — the per-frame accounting a
/// subscriber (or a bench measuring bytes-per-epoch) reads off
/// [`ReadCache::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedDelta {
    /// The epoch the cache now reflects.
    pub epoch: u64,
    /// Rows the frame replaced (0 for a clean-shard epoch bump).
    pub rows: usize,
    /// Shards that contributed those rows.
    pub dirty_shards: usize,
}

/// The subscribed rows, kind-specific. Exactly one side is populated for
/// the life of a cache.
#[derive(Debug, Clone)]
enum Rows {
    Predictions(Vec<LabelSet>),
    Estimates(Vec<ItemEstimate>),
}

/// A locally materialized, epoch-tagged row set maintained by applying
/// read-delta frames. See the module docs for the fidelity contract.
#[derive(Debug, Clone)]
pub struct ReadCache {
    kind: ReadKind,
    /// The subscribed items, ascending — the order rows are held and
    /// served in (the bootstrap's normalized echo).
    items: Vec<usize>,
    /// item → position in `items`.
    slot: BTreeMap<usize, usize>,
    epoch: u64,
    rows: Rows,
}

impl ReadCache {
    /// Builds the cache from a subscription's bootstrap frame.
    ///
    /// # Errors
    /// [`PushError::KindMismatch`] if the frame is not a delta frame of
    /// `kind`; [`PushError::RowCount`] if its items and rows misalign.
    pub fn from_bootstrap(kind: ReadKind, bootstrap: &FleetReply) -> Result<ReadCache, PushError> {
        let (items, rows, epoch) = match (kind, bootstrap) {
            (
                ReadKind::Predictions,
                FleetReply::PredictedDelta {
                    items,
                    predictions,
                    epoch,
                    ..
                },
            ) => (items, Rows::Predictions(predictions.clone()), *epoch),
            (
                ReadKind::Estimate,
                FleetReply::EstimatedDelta {
                    items, rows, epoch, ..
                },
            ) => (items, Rows::Estimates(rows.clone()), *epoch),
            _ => {
                return Err(PushError::KindMismatch {
                    frame: bootstrap.name().to_string(),
                })
            }
        };
        let len = match &rows {
            Rows::Predictions(r) => r.len(),
            Rows::Estimates(r) => r.len(),
        };
        if len != items.len() {
            return Err(PushError::RowCount {
                items: items.len(),
                rows: len,
            });
        }
        let slot = items.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        Ok(ReadCache {
            kind,
            items: items.clone(),
            slot,
            epoch,
            rows,
        })
    }

    /// Applies one pushed delta frame: replaces the named items' rows and
    /// adopts the frame's epoch. A frame with zero rows is a pure epoch
    /// bump (the mutation dirtied no subscribed shard). On any error the
    /// cache is left **unchanged**.
    ///
    /// # Errors
    /// [`PushError::KindMismatch`] for a non-delta frame or the wrong row
    /// kind, [`PushError::RowCount`] for misaligned items/rows,
    /// [`PushError::UnknownItem`] for a row outside the subscription.
    pub fn apply(&mut self, delta: &FleetReply) -> Result<AppliedDelta, PushError> {
        let (items, epoch, dirty_shards) = match (self.kind, delta) {
            (
                ReadKind::Predictions,
                FleetReply::PredictedDelta {
                    items,
                    predictions,
                    dirty_shards,
                    epoch,
                },
            ) => {
                if predictions.len() != items.len() {
                    return Err(PushError::RowCount {
                        items: items.len(),
                        rows: predictions.len(),
                    });
                }
                let slots = self.slots_of(items)?;
                let Rows::Predictions(rows) = &mut self.rows else {
                    unreachable!("kind and rows are constructed together");
                };
                for (&slot, row) in slots.iter().zip(predictions) {
                    rows[slot] = row.clone();
                }
                (items, *epoch, dirty_shards.len())
            }
            (
                ReadKind::Estimate,
                FleetReply::EstimatedDelta {
                    items,
                    rows: new_rows,
                    dirty_shards,
                    epoch,
                },
            ) => {
                if new_rows.len() != items.len() {
                    return Err(PushError::RowCount {
                        items: items.len(),
                        rows: new_rows.len(),
                    });
                }
                let slots = self.slots_of(items)?;
                let Rows::Estimates(rows) = &mut self.rows else {
                    unreachable!("kind and rows are constructed together");
                };
                for (&slot, row) in slots.iter().zip(new_rows) {
                    rows[slot] = row.clone();
                }
                (items, *epoch, dirty_shards.len())
            }
            _ => {
                return Err(PushError::KindMismatch {
                    frame: delta.name().to_string(),
                })
            }
        };
        self.epoch = epoch;
        Ok(AppliedDelta {
            epoch,
            rows: items.len(),
            dirty_shards,
        })
    }

    /// Resolves every named item to its row slot, or fails before anything
    /// is mutated (keeping `apply` all-or-nothing).
    fn slots_of(&self, items: &[usize]) -> Result<Vec<usize>, PushError> {
        items
            .iter()
            .map(|&i| {
                self.slot
                    .get(&i)
                    .copied()
                    .ok_or(PushError::UnknownItem { item: i })
            })
            .collect()
    }

    /// The subscription's read kind.
    pub fn kind(&self) -> ReadKind {
        self.kind
    }

    /// The subscribed items, ascending — the order [`ReadCache::predictions`]
    /// / [`ReadCache::estimates`] rows are served in.
    pub fn items(&self) -> &[usize] {
        &self.items
    }

    /// The epoch the cached rows reflect — the tag a poll refetch returning
    /// these exact rows would carry.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cached consensus rows, aligned with [`ReadCache::items`] —
    /// the zero-RTT equivalent of `predict_items(items)` at
    /// [`ReadCache::epoch`]. `None` for an estimate subscription.
    pub fn predictions(&self) -> Option<&[LabelSet]> {
        match &self.rows {
            Rows::Predictions(rows) => Some(rows),
            Rows::Estimates(_) => None,
        }
    }

    /// The cached estimate rows, aligned with [`ReadCache::items`] — the
    /// zero-RTT equivalent of `estimate_items(items)` at
    /// [`ReadCache::epoch`]. `None` for a predictions subscription.
    pub fn estimates(&self) -> Option<&[ItemEstimate]> {
        match &self.rows {
            Rows::Estimates(rows) => Some(rows),
            Rows::Predictions(_) => None,
        }
    }

    /// One item's cached consensus row, or `None` if the item is outside
    /// the subscription (or the kind is `Estimate`).
    pub fn predict(&self, item: usize) -> Option<&LabelSet> {
        let slot = *self.slot.get(&item)?;
        self.predictions().map(|rows| &rows[slot])
    }

    /// One item's cached estimate row, or `None` if the item is outside
    /// the subscription (or the kind is `Predictions`).
    pub fn estimate(&self, item: usize) -> Option<&ItemEstimate> {
        let slot = *self.slot.get(&item)?;
        self.estimates().map(|rows| &rows[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(n: usize) -> LabelSet {
        LabelSet::from_labels(4, vec![n % 4])
    }

    fn bootstrap(items: Vec<usize>, epoch: u64) -> FleetReply {
        let predictions = items.iter().map(|&i| label(i)).collect();
        FleetReply::PredictedDelta {
            items: items.clone(),
            predictions,
            dirty_shards: vec![0],
            epoch,
        }
    }

    #[test]
    fn bootstrap_then_deltas_maintain_rows_and_epoch() {
        let mut cache =
            ReadCache::from_bootstrap(ReadKind::Predictions, &bootstrap(vec![1, 3, 5], 2)).unwrap();
        assert_eq!(cache.epoch(), 2);
        assert_eq!(cache.items(), &[1, 3, 5]);
        assert_eq!(cache.predict(3), Some(&label(3)));
        assert_eq!(cache.predict(2), None, "outside the subscription");
        assert!(cache.estimates().is_none());

        // A delta replacing one row bumps the epoch and touches only it.
        let applied = cache
            .apply(&FleetReply::PredictedDelta {
                items: vec![3],
                predictions: vec![label(0)],
                dirty_shards: vec![1],
                epoch: 3,
            })
            .unwrap();
        assert_eq!(
            applied,
            AppliedDelta {
                epoch: 3,
                rows: 1,
                dirty_shards: 1
            }
        );
        assert_eq!(cache.predict(3), Some(&label(0)));
        assert_eq!(cache.predict(1), Some(&label(1)), "untouched row kept");
        assert_eq!(cache.epoch(), 3);

        // An empty delta is a pure epoch bump (clean-shard mutation).
        cache
            .apply(&FleetReply::PredictedDelta {
                items: vec![],
                predictions: vec![],
                dirty_shards: vec![],
                epoch: 4,
            })
            .unwrap();
        assert_eq!(cache.epoch(), 4);
    }

    #[test]
    fn bad_frames_are_rejected_and_leave_the_cache_unchanged() {
        let mut cache =
            ReadCache::from_bootstrap(ReadKind::Predictions, &bootstrap(vec![0, 2], 1)).unwrap();
        // Unknown item: rejected atomically, even when another row in the
        // same frame is valid.
        let err = cache
            .apply(&FleetReply::PredictedDelta {
                items: vec![0, 9],
                predictions: vec![label(3), label(3)],
                dirty_shards: vec![0],
                epoch: 2,
            })
            .unwrap_err();
        assert_eq!(err, PushError::UnknownItem { item: 9 });
        assert_eq!(cache.epoch(), 1, "failed apply must not advance");
        assert_eq!(cache.predict(0), Some(&label(0)), "no partial write");

        // Misaligned rows.
        let err = cache
            .apply(&FleetReply::PredictedDelta {
                items: vec![0, 2],
                predictions: vec![label(1)],
                dirty_shards: vec![0],
                epoch: 2,
            })
            .unwrap_err();
        assert_eq!(err, PushError::RowCount { items: 2, rows: 1 });

        // Wrong kind (an estimate frame on a predictions subscription) and
        // non-delta frames.
        for frame in [
            FleetReply::EstimatedDelta {
                items: vec![0],
                rows: vec![ItemEstimate {
                    soft: vec![],
                    expected_size: 0.0,
                }],
                dirty_shards: vec![0],
                epoch: 2,
            },
            FleetReply::ShuttingDown,
        ] {
            let err = cache.apply(&frame).unwrap_err();
            assert!(matches!(err, PushError::KindMismatch { .. }), "{err}");
        }
        assert_eq!(cache.epoch(), 1);

        // A bootstrap of the wrong kind is refused up front.
        let err =
            ReadCache::from_bootstrap(ReadKind::Estimate, &bootstrap(vec![0], 1)).unwrap_err();
        assert!(matches!(err, PushError::KindMismatch { .. }), "{err}");
    }

    #[test]
    fn estimate_caches_hold_item_rows() {
        let row = |e: f64| ItemEstimate {
            soft: vec![(0, 0.5)],
            expected_size: e,
        };
        let boot = FleetReply::EstimatedDelta {
            items: vec![4, 7],
            rows: vec![row(1.0), row(2.0)],
            dirty_shards: vec![0, 1],
            epoch: 5,
        };
        let mut cache = ReadCache::from_bootstrap(ReadKind::Estimate, &boot).unwrap();
        assert_eq!(cache.estimate(7), Some(&row(2.0)));
        assert!(cache.predictions().is_none());
        cache
            .apply(&FleetReply::EstimatedDelta {
                items: vec![4],
                rows: vec![row(9.0)],
                dirty_shards: vec![0],
                epoch: 6,
            })
            .unwrap();
        assert_eq!(cache.estimates(), Some(&[row(9.0), row(2.0)][..]));
        // A restore on the publisher may jump the epoch backwards: the
        // cache adopts the new lineage rather than rejecting it.
        cache
            .apply(&FleetReply::EstimatedDelta {
                items: vec![4, 7],
                rows: vec![row(0.5), row(0.25)],
                dirty_shards: vec![0, 1],
                epoch: 2,
            })
            .unwrap();
        assert_eq!(cache.epoch(), 2);
    }
}
