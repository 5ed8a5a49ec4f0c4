//! Epoch-published immutable read views: the fleet's read path.
//!
//! Every accepted fleet mutation (`Ingest` / `Refit` / `Restore`) bumps the
//! fleet's **epoch** — a monotonically increasing count of accepted
//! mutations — and publishes a fresh [`ReadView`] for it by atomically
//! swapping the `Arc` inside the fleet's [`ViewHandle`]. A view is an
//! immutable token of "the fleet as of epoch E":
//!
//! - readers (transport connection handlers, in-process callers) grab the
//!   current view with [`ViewHandle::current`] — one `Arc` clone, no lock
//!   held afterwards — and answer `Predict`/`Estimate` (full or
//!   item-ranged) from it without touching the fleet or its driver thread;
//! - the view's cells are **lazily filled, once per epoch**: publication
//!   after a mutation costs one small allocation, and shard slabs are
//!   computed only when the epoch is actually read. The first read of an
//!   epoch pays the work; every later read of the same epoch is a cache
//!   hit.
//!
//! # Two cells per shard
//!
//! Every cell is held **per shard**: shard `s`'s `predict_all` / `estimate`
//! slab lives in its own `Arc`, alongside its per-item pre-encoded reply
//! rows per wire slot. There are no all-items cells: `cpa-transport`
//! answers a full `Predict` by splicing every shard's cached rows in item
//! order, exactly as it splices ranged reads and push deltas, and the
//! in-process merges gather from the slabs.
//!
//! # Incremental publication (dirty shards)
//!
//! When a mutation dirties only some shards (an `Ingest` whose batch
//! routed to 1 of K shards dirties exactly that shard; `Refit` / `Restore`
//! dirty all), `ViewHandle::publish` **carries the clean shards' filled
//! `Arc` cells forward unchanged** into the new epoch's view — same
//! allocation, zero recompute, zero copy (the carried `Arc`s are
//! pointer-identical across epochs). Only the dirty shards' slabs are
//! recomputed on the new epoch's first read, so that read costs O(items/K)
//! after a single-shard ingest instead of O(items).
//!
//! # Consistency
//!
//! A view can never tear: all of its cells are derived from the fleet state
//! at one epoch (the fleet fills them while it is at that epoch, and a
//! mutation publishes a *new* view rather than touching the old one).
//! Carrying a clean shard's cell forward preserves that: the shard's
//! engine was untouched by the mutation, so recomputing its slab at the
//! new epoch would reproduce the carried bytes bit for bit (locked by
//! `tests/view_incremental.rs`). Replies built from a view carry its epoch
//! tag, and replaying the recorded mutation prefix up to epoch E on a
//! fresh fleet of the same construction reproduces exactly the
//! predictions a client read at E (`Fleet::replay_to_epoch`, locked by
//! `tests/read_view_stress.rs`).
//!
//! Epoch tags are comparable within one mutation lineage: a `Restore` op
//! adopts the manifest's recorded epoch (so replaying a log that contains
//! the restore reproduces the same tags), which may jump the counter
//! backwards — clients caching by epoch across a restore must treat the
//! restore as a new lineage.

use crate::router::ShardIndex;
use cpa_core::truth::TruthEstimate;
use cpa_data::labels::LabelSet;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of wire-encoding slots each shard's reply rows are cached under —
/// one per wire codec (`cpa-transport` maps its JSON codec to slot 0 and
/// the binary codec to slot 1). `cpa-serve` itself never encodes; it only
/// provides the per-epoch cells.
pub const WIRE_SLOTS: usize = 2;

/// Which read a [`ReadView`] cell answers.
///
/// Serializes as its variant name (`"Predictions"` / `"Estimate"`) so it can
/// ride inside wire ops like `FleetOp::SubscribeReads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadKind {
    /// `FleetOp::Predict` / `PredictItems` — consensus label sets.
    Predictions,
    /// `FleetOp::Estimate` / `EstimateItems` — soft-truth estimate.
    Estimate,
}

impl ReadKind {
    fn index(self) -> usize {
        match self {
            ReadKind::Predictions => 0,
            ReadKind::Estimate => 1,
        }
    }
}

/// One shard's pre-encoded reply rows under one wire slot: each owned
/// item's standalone encode, back to back in one buffer in
/// [`ShardIndex::items_of`] order, with the offset where each row ends.
#[derive(Debug, Default)]
pub struct EncodedRows {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl EncodedRows {
    /// Appends one row: `encode` writes it to the end of the buffer.
    pub fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(&mut self.bytes);
        self.ends.push(self.bytes.len());
    }

    /// The bytes of row `pos` (the shard's `pos`-th owned item).
    ///
    /// # Panics
    /// Panics if `pos` is not a pushed row.
    pub fn row(&self, pos: usize) -> &[u8] {
        let start = pos.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.bytes[start..self.ends[pos]]
    }
}

/// One shard's lazily-filled cells: its raw `predict_all` / `estimate`
/// slabs (global population shape — unowned rows are junk and never read)
/// and its [`EncodedRows`] per [`ReadKind`] × wire slot.
#[derive(Debug, Default)]
struct ShardCells {
    predictions: OnceLock<Arc<Vec<LabelSet>>>,
    estimate: OnceLock<Arc<TruthEstimate>>,
    rows: [OnceLock<Arc<EncodedRows>>; 2 * WIRE_SLOTS],
}

impl ShardCells {
    /// A copy carrying every *filled* cell forward by `Arc` clone — the
    /// clean-shard publication step. Unfilled cells stay lazily fillable
    /// at the new epoch.
    fn carry(&self) -> ShardCells {
        let next = ShardCells::default();
        if let Some(p) = self.predictions.get() {
            let _ = next.predictions.set(p.clone());
        }
        if let Some(e) = self.estimate.get() {
            let _ = next.estimate.set(e.clone());
        }
        for (cell, prev) in next.rows.iter().zip(&self.rows) {
            if let Some(rows) = prev.get() {
                let _ = cell.set(rows.clone());
            }
        }
        next
    }
}

/// One epoch's immutable read state: the epoch number, the shared
/// [`ShardIndex`], per-shard cells (slabs + pre-encoded reply rows), and
/// the set of shards the publishing mutation dirtied.
///
/// Views are only ever constructed (and their slabs only ever filled) by
/// the owning `Fleet`; transport handlers fill the row cells from the
/// slabs. Readers observe views through [`ViewHandle::current`].
#[derive(Debug)]
pub struct ReadView {
    epoch: u64,
    index: Arc<ShardIndex>,
    shards: Vec<ShardCells>,
    /// The shards the mutation that published this view dirtied, ascending —
    /// exactly the slabs a reader of the previous epoch must refresh. A
    /// fresh or restored view dirties every shard.
    dirty: Vec<usize>,
}

impl ReadView {
    pub(crate) fn new(epoch: u64, index: Arc<ShardIndex>) -> Self {
        let shards = (0..index.num_shards())
            .map(|_| ShardCells::default())
            .collect();
        Self {
            epoch,
            dirty: (0..index.num_shards()).collect(),
            index,
            shards,
        }
    }

    /// The epoch-`E+1` view after a mutation that dirtied `dirty`: clean
    /// shards' filled cells are carried forward by `Arc` clone
    /// (pointer-identical, zero recompute); dirty shards' cells start
    /// empty.
    pub(crate) fn carried(epoch: u64, prev: &ReadView, dirty: &[bool]) -> Self {
        assert_eq!(dirty.len(), prev.shards.len(), "dirty set vs shard count");
        let shards = prev
            .shards
            .iter()
            .zip(dirty)
            .map(|(cells, &is_dirty)| {
                if is_dirty {
                    ShardCells::default()
                } else {
                    cells.carry()
                }
            })
            .collect();
        Self {
            epoch,
            index: prev.index.clone(),
            shards,
            dirty: dirty
                .iter()
                .enumerate()
                .filter_map(|(s, &is_dirty)| is_dirty.then_some(s))
                .collect(),
        }
    }

    /// The epoch this view was published at: the number of accepted
    /// mutations the fleet had applied.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The item → shard index this view's fleet routes by.
    pub fn index(&self) -> &Arc<ShardIndex> {
        &self.index
    }

    /// The shards the mutation that published this view dirtied, ascending
    /// — the delta set relative to the previous epoch. A fresh or restored
    /// view reports every shard dirty (nothing carried).
    pub fn dirty_shards(&self) -> &[usize] {
        &self.dirty
    }

    /// Shard `s`'s raw `predict_all` slab, if filled this epoch (possibly
    /// carried from an earlier epoch the shard was clean across).
    pub fn shard_predictions(&self, s: usize) -> Option<Arc<Vec<LabelSet>>> {
        self.shards[s].predictions.get().cloned()
    }

    /// Shard `s`'s raw `estimate` slab, if filled this epoch.
    pub fn shard_estimate(&self, s: usize) -> Option<Arc<TruthEstimate>> {
        self.shards[s].estimate.get().cloned()
    }

    /// Fills (or reads) shard `s`'s predictions slab — called by the
    /// fleet, which owns the engine the slab is computed from.
    pub(crate) fn shard_predictions_or_init(
        &self,
        s: usize,
        init: impl FnOnce() -> Vec<LabelSet>,
    ) -> Arc<Vec<LabelSet>> {
        self.shards[s]
            .predictions
            .get_or_init(|| Arc::new(init()))
            .clone()
    }

    /// Fills (or reads) shard `s`'s estimate slab — called by the fleet.
    pub(crate) fn shard_estimate_or_init(
        &self,
        s: usize,
        init: impl FnOnce() -> TruthEstimate,
    ) -> Arc<TruthEstimate> {
        self.shards[s]
            .estimate
            .get_or_init(|| Arc::new(init()))
            .clone()
    }

    /// Shard `s`'s pre-encoded per-item reply rows for `kind` under wire
    /// `slot` — one encoded value per owned item, in
    /// [`ShardIndex::items_of`] order — if some reader already encoded
    /// them this epoch.
    ///
    /// # Panics
    /// Panics if `slot >= WIRE_SLOTS`.
    pub fn rows(&self, kind: ReadKind, slot: usize, s: usize) -> Option<Arc<EncodedRows>> {
        assert!(slot < WIRE_SLOTS, "wire slot {slot} out of range");
        self.shards[s].rows[kind.index() * WIRE_SLOTS + slot]
            .get()
            .cloned()
    }

    /// Publishes shard `s`'s pre-encoded per-item reply rows for `kind`
    /// under wire `slot` (one per owned item, in
    /// [`ShardIndex::items_of`] order) and returns the cell's content: the
    /// given rows, or whatever another reader raced in first — both encode
    /// the same slab, so the bytes are identical either way.
    ///
    /// # Panics
    /// Panics if `slot >= WIRE_SLOTS`, or if the row count does not match
    /// the shard's owned-item count.
    pub fn fill_rows(
        &self,
        kind: ReadKind,
        slot: usize,
        s: usize,
        rows: EncodedRows,
    ) -> Arc<EncodedRows> {
        assert!(slot < WIRE_SLOTS, "wire slot {slot} out of range");
        assert_eq!(
            rows.ends.len(),
            self.index.items_of(s).len(),
            "one encoded row per owned item"
        );
        self.shards[s].rows[kind.index() * WIRE_SLOTS + slot]
            .get_or_init(|| Arc::new(rows))
            .clone()
    }
}

/// A cloneable handle onto a fleet's current [`ReadView`].
///
/// The fleet swaps the inner `Arc` on every accepted mutation; readers call
/// [`ViewHandle::current`] per request and hold only the returned `Arc`
/// (never the lock), so reads proceed fully concurrently with each other
/// and with fleet mutations. Handles stay valid across `Restore` ops: the
/// fleet re-attaches the same handle to the restored state.
///
/// # Poison recovery
///
/// The slot deliberately ignores lock poisoning: the guarded value is a
/// single `Arc` that is only ever *replaced* (never mutated in place), so a
/// thread that panics while holding the lock still leaves a coherent view
/// behind — the one published before the panic. Treating poison as fatal
/// would turn one panicking publisher into a permanent all-reads-panic
/// cascade on every connection, which is exactly backwards for a serving
/// path (locked by `a_panicking_lock_holder_does_not_poison_reads`).
#[derive(Debug, Clone)]
pub struct ViewHandle {
    slot: Arc<RwLock<Arc<ReadView>>>,
}

impl ViewHandle {
    pub(crate) fn new(epoch: u64, index: Arc<ShardIndex>) -> Self {
        Self {
            slot: Arc::new(RwLock::new(Arc::new(ReadView::new(epoch, index)))),
        }
    }

    /// The currently published view (one `Arc` clone under a read lock).
    /// Never panics on a poisoned slot — see the type docs.
    pub fn current(&self) -> Arc<ReadView> {
        self.slot
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Swaps in the view for `epoch`, carrying forward the filled cells of
    /// every shard `dirty` marks clean — the publication step of every
    /// accepted mutation.
    pub(crate) fn publish(&self, epoch: u64, dirty: &[bool]) {
        let mut slot = self
            .slot
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Arc::new(ReadView::carried(epoch, &slot, dirty));
    }

    /// Swaps in a fresh, empty view for `epoch` over (possibly) a new
    /// index — the publication step of a `Restore`, which may change the
    /// shard count and invalidates everything.
    pub(crate) fn reset(&self, epoch: u64, index: Arc<ShardIndex>) {
        *self
            .slot
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) =
            Arc::new(ReadView::new(epoch, index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardRouter;
    use cpa_data::labels::LabelSet;

    fn index(k: usize, items: usize) -> Arc<ShardIndex> {
        Arc::new(ShardIndex::new(ShardRouter::new(k), items))
    }

    /// `n` one-byte rows, each `byte`.
    fn rows_of(n: usize, byte: u8) -> EncodedRows {
        let mut rows = EncodedRows::default();
        for _ in 0..n {
            rows.push(|out| out.push(byte));
        }
        rows
    }

    #[test]
    fn encoded_rows_slice_back_to_back_rows() {
        let mut rows = EncodedRows::default();
        for row in [&b"ab"[..], b"", b"cde"] {
            rows.push(|out| out.extend_from_slice(row));
        }
        assert_eq!(rows.row(0), b"ab");
        assert_eq!(rows.row(1), b"");
        assert_eq!(rows.row(2), b"cde");
    }

    #[test]
    fn row_cells_are_per_shard_kind_and_slot() {
        let idx = index(2, 4);
        let owned = idx.items_of(0).len();
        let view = ReadView::new(2, idx);
        assert!(view.rows(ReadKind::Predictions, 0, 0).is_none());
        let rows = view.fill_rows(ReadKind::Predictions, 0, 0, rows_of(owned, 7));
        assert_eq!(rows.row(owned - 1), [7]);
        assert!(view.rows(ReadKind::Predictions, 1, 0).is_none());
        assert!(view.rows(ReadKind::Predictions, 0, 1).is_none());
        assert!(view.rows(ReadKind::Estimate, 0, 0).is_none());
        // Racing fills keep the first value.
        let kept = view.fill_rows(ReadKind::Predictions, 0, 0, rows_of(owned, 9));
        assert!(Arc::ptr_eq(&rows, &kept));
    }

    #[test]
    fn publish_carries_clean_shard_cells_and_drops_dirty_ones() {
        let handle = ViewHandle::new(0, index(2, 5));
        let before = handle.current();
        let clean = before.shard_predictions_or_init(0, || vec![LabelSet::empty(2); 5]);
        let stale = before.shard_predictions_or_init(1, || vec![LabelSet::empty(2); 5]);
        let owned = before.index().items_of(0).len();
        before.fill_rows(ReadKind::Predictions, 0, 0, rows_of(owned, 1));

        handle.publish(1, &[false, true]);
        let after = handle.current();
        assert_eq!(after.epoch(), 1);
        // The view remembers its own delta set; a fresh view dirties all.
        assert_eq!(after.dirty_shards(), &[1]);
        assert_eq!(before.dirty_shards(), &[0, 1]);
        // Clean shard 0: slab and rows carried, pointer-identical.
        let carried = after.shard_predictions(0).expect("carried forward");
        assert!(Arc::ptr_eq(&clean, &carried));
        assert!(after.rows(ReadKind::Predictions, 0, 0).is_some());
        // Dirty shard 1: dropped.
        assert!(after.shard_predictions(1).is_none());
        // The old view is untouched by the swap — readers that grabbed it
        // keep a consistent epoch-0 token.
        assert_eq!(before.epoch(), 0);
        assert!(Arc::ptr_eq(&stale, &before.shard_predictions(1).unwrap()));

        // Reset (the Restore publication) drops everything, clean or not.
        handle.reset(9, index(2, 5));
        let fresh = handle.current();
        assert_eq!(fresh.epoch(), 9);
        assert!(fresh.shard_predictions(0).is_none());
        assert_eq!(fresh.dirty_shards(), &[0, 1]);
    }

    #[test]
    fn a_panicking_lock_holder_does_not_poison_reads() {
        let handle = ViewHandle::new(3, index(2, 5));
        // Poison the slot the way a handler panic under the lock would: a
        // thread dies while holding the write guard.
        let holder = handle.clone();
        std::thread::spawn(move || {
            let _guard = holder.slot.write().unwrap();
            panic!("handler panicked while publishing");
        })
        .join()
        .unwrap_err();
        assert!(handle.slot.is_poisoned(), "the panic must poison the lock");
        // Reads keep serving the last published (coherent) view, and later
        // publications keep working — no permanent panic cascade.
        assert_eq!(handle.current().epoch(), 3);
        handle.publish(4, &[true, true]);
        assert_eq!(handle.current().epoch(), 4);
        handle.reset(1, index(1, 5));
        assert_eq!(handle.current().epoch(), 1);
    }
}
