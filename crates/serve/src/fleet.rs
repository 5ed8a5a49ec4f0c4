//! The shard fleet: K engines behind one ingest/refit/predict surface, with
//! fleet-wide snapshot/restore.
//!
//! A [`Fleet`] owns `K` [`cpa_core::engine::Engine`]s, one per shard of the
//! item space (see [`crate::router::ShardRouter`]). Every arrival batch is
//! shard-split and handed to the shards **on the fleet's thread pool**, one
//! task per shard; results are merged back in shard order, so any pool
//! width is bit-identical to the serial path.
//!
//! Engines own no pool: the fleet installs its `threads`-wide pool around
//! every shard fan-out (ingest, refit, slab fill). By the rayon shim's
//! width rule (`shims/README.md`), a fan-out over several shards runs each
//! shard's kernels at width 1, and one over a single shard (a write that
//! dirties one shard, one cold slab) runs them at the pool's full width.
//!
//! # Split read/write paths
//!
//! Mutations (`Ingest`/`Refit`/`Restore`) flow through one interpreter,
//! [`Fleet::apply`], in one global order; each accepted mutation bumps the
//! fleet **epoch** and publishes an immutable [`crate::view::ReadView`]
//! through the fleet's [`crate::view::ViewHandle`]. Publication is
//! **incremental**: `apply` computes the mutation's **dirty-shard set**
//! (an `Ingest` dirties exactly the shards its batch routed answers to;
//! `Refit`/`Restore` dirty all), and the new view carries the clean
//! shards' already-filled per-shard slabs forward by `Arc` — zero
//! recompute, zero copy. Reads (`Predict`/`Estimate`, full or
//! item-ranged) are answered **from the published view's per-shard
//! slabs**, not by re-driving the shards. [`Fleet::fill`] is the one step
//! that computes slabs: it fills only the ones the view is missing, so the
//! first read of an epoch computes the dirty shards' slabs and every later
//! read of that epoch reuses them. In-process `predict_all`/`estimate_all`
//! gather from the view `fill` returns; transport connection handlers
//! splice reads from rows encoded once per (epoch, shard, codec),
//! concurrently with mutations, and ask the driver to `fill` only when a
//! needed slab is cold (see `cpa-transport`).
//!
//! # Determinism contract
//!
//! Locked by `tests/shard_determinism.rs` and `tests/read_view_stress.rs`:
//!
//! - the fleet's merged predictions are **bit-identical** to driving each
//!   shard's engine standalone over the *non-empty* batches of that
//!   shard's universe split (a shard's engine observes exactly the
//!   arrival batches that routed answers to it — see
//!   [`Fleet::apply`]'s dirty-shard rule);
//! - [`Fleet::snapshot`] → JSON → [`Fleet::restore`] → continue is
//!   bit-identical to never pausing, at every thread count;
//! - replaying the recorded mutation prefix up to epoch E
//!   ([`Fleet::replay_to_epoch`]) reproduces exactly the predictions a
//!   reader was served at E.
//!
//! These follow from the engines' own checkpoint contract plus two fleet
//! invariants: the shard split is deterministic, and merges always read
//! shards in shard order.
//!
//! # What sharding trades away
//!
//! Shards never exchange posterior state: a shard infers worker communities
//! from its own items only. K=1 is exactly the unsharded engine; larger K
//! buys ingest/refit parallelism and a smaller per-shard working set at the
//! cost of cross-shard pooling (measured by the `sharded` experiment in
//! `cpa-eval`).

use crate::protocol::{FleetOp, FleetReply, ItemEstimate};
use crate::router::{ShardIndex, ShardRouter};
use crate::view::{ReadKind, ReadView, ViewHandle};
use cpa_core::engine::{Checkpoint, CheckpointError, DynEngine, RestoreFn};
use cpa_core::truth::TruthEstimate;
use cpa_data::answers::{AnswerMatrix, AnswerMatrixBuilder};
use cpa_data::labels::LabelSet;
use cpa_data::queue::{validate_batch, QueueError};
use cpa_data::stream::{MemorySource, WorkerBatch};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Format version written into every [`FleetManifest`]. Bump on any
/// incompatible change to the manifest layout.
///
/// History: v1 — per-shard checkpoints + population shape; v2 — the
/// manifest additionally captures the fleet's **arrival state**
/// (`arrived_workers`, `batches_ingested`), so a restored fleet keeps
/// enforcing the worker-partition contract and numbers its next arrival
/// batch exactly as the uninterrupted run would; v3 — the manifest records
/// the fleet **epoch** (accepted-mutation count), so a restored fleet tags
/// read replies exactly as the uninterrupted run would and
/// [`Fleet::replay_to_epoch`] works across a restore.
pub const FLEET_MANIFEST_VERSION: u32 = 3;

/// A sharded serving fleet: K engines, one per item shard, driven together.
///
/// Every mutation flows through one interpreter, [`Fleet::apply`], taking a
/// [`FleetOp`] and returning a [`FleetReply`]; the named methods (`ingest`,
/// `refit_all`, …) are thin wrappers that build the corresponding op. See
/// the [`crate::protocol`] docs for what that buys (transports, op-logs,
/// replay).
pub struct Fleet {
    /// The router's assignment materialized over the item universe (the
    /// fleet's router and item count), shared (`Arc`) with every published
    /// read view.
    index: Arc<ShardIndex>,
    /// Installed around every shard fan-out; its width is the fleet's
    /// `threads`.
    pool: rayon::ThreadPool,
    engines: Vec<DynEngine>,
    num_workers: usize,
    num_labels: usize,
    /// Workers that already arrived — the state the arrival contract
    /// (`cpa_data::queue::validate_batch`) checks each batch against.
    arrived: BTreeSet<usize>,
    /// Arrival batches absorbed so far; the next batch is numbered
    /// `batches_ingested + 1`, the 1-based numbering of `WorkerStream`.
    batches_ingested: usize,
    /// Engine-construction hook for [`FleetOp::Restore`]; `None` until
    /// installed by [`Fleet::with_restore_hook`] or [`Fleet::restore`].
    restore_hook: Option<RestoreFn>,
    /// Accepted mutations applied so far; every read reply is tagged with
    /// the epoch of the view it was answered from.
    epoch: u64,
    /// The fleet's published read view: swapped (empty) on every accepted
    /// mutation, filled lazily by the first read of each epoch.
    views: ViewHandle,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("num_shards", &self.num_shards())
            .field("threads", &self.pool.current_num_threads())
            .field(
                "engines",
                &self.engines.iter().map(|e| e.name()).collect::<Vec<_>>(),
            )
            .field("num_items", &self.index.num_items())
            .field("num_workers", &self.num_workers)
            .field("num_labels", &self.num_labels)
            .field("arrived_workers", &self.arrived.len())
            .field("batches_ingested", &self.batches_ingested)
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// Runs one closure per shard payload with `pool` installed. Output order
/// always follows input (shard) order, which is what makes the fleet
/// bit-deterministic in the thread count.
fn per_shard<T: Send, R: Send>(
    pool: &rayon::ThreadPool,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync + Send,
) -> Vec<R> {
    pool.install(|| items.into_par_iter().map(f).collect())
}

/// The fleet's pool: `threads` wide, at least 1 (0 means serial, as it
/// always has for a fleet).
fn fleet_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("thread pool builds")
}

impl Fleet {
    /// Builds a fleet of `num_shards` engines over a global
    /// `num_items × num_workers × num_labels` population, constructing each
    /// shard's engine with `factory` (called with the shard index). Shard
    /// work fans out over a pool of `threads` OS threads (0 or 1 = serial),
    /// installed around every shard fan-out (see the module docs).
    ///
    /// Every engine must be built at the *global* population shape — item
    /// and worker indices are never remapped.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or a factory-built engine does not have
    /// the global population shape.
    pub fn new(
        num_shards: usize,
        threads: usize,
        num_items: usize,
        num_workers: usize,
        num_labels: usize,
        mut factory: impl FnMut(usize) -> DynEngine,
    ) -> Self {
        let router = ShardRouter::new(num_shards);
        let engines: Vec<DynEngine> = (0..num_shards).map(&mut factory).collect();
        for (s, engine) in engines.iter().enumerate() {
            let seen = engine.seen_answers();
            assert!(
                seen.num_items() == num_items
                    && seen.num_workers() == num_workers
                    && seen.num_labels() == num_labels,
                "shard {s} engine has shape {}x{}x{}, fleet is {num_items}x{num_workers}x{num_labels}",
                seen.num_items(),
                seen.num_workers(),
                seen.num_labels(),
            );
        }
        let index = Arc::new(ShardIndex::new(router, num_items));
        Self {
            views: ViewHandle::new(0, index.clone()),
            index,
            pool: fleet_pool(threads),
            engines,
            num_workers,
            num_labels,
            arrived: BTreeSet::new(),
            batches_ingested: 0,
            restore_hook: None,
            epoch: 0,
        }
    }

    /// Installs the engine-construction hook [`FleetOp::Restore`] restores
    /// shards through (`cpa-eval`'s `restore_engine` covers every built-in
    /// method). Without one, `Restore` ops are rejected with an error reply.
    #[must_use]
    pub fn with_restore_hook(mut self, restore: RestoreFn) -> Self {
        self.restore_hook = Some(restore);
        self
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.index.num_shards()
    }

    /// The fleet's item → shard router.
    pub fn router(&self) -> ShardRouter {
        self.index.router()
    }

    /// Borrow one shard's engine (for inspection; driving goes through the
    /// fleet methods so the shard split stays consistent).
    pub fn shard(&self, shard: usize) -> &dyn cpa_core::engine::Engine {
        self.engines[shard].as_ref()
    }

    /// Total answers absorbed across all shards.
    pub fn num_answers_seen(&self) -> usize {
        self.engines
            .iter()
            .map(|e| e.seen_answers().num_answers())
            .sum()
    }

    /// Applies one [`FleetOp`] — **the** interpreter every fleet mutation
    /// flows through. The named methods (`ingest`, `refit_all`, `drive`,
    /// `snapshot`) lower into ops and call this, so a transport, an op-log
    /// replay, and in-process code all share one set of semantics:
    ///
    /// - `Ingest` — the one way an arrival batch enters a fleet — validates
    ///   the batch against the arrival contract
    ///   ([`cpa_data::queue::validate_batch`] — worker partition, in-range
    ///   indices, non-empty labels) **before anything is mutated**, then
    ///   shard-splits it and ingests it into exactly the shards the batch
    ///   routed answers to (its **dirty set** — a batch with no answers
    ///   degenerates to stepping every shard), numbering it
    ///   `batches_ingested + 1`;
    /// - `Refit` refits every shard concurrently (dirties all);
    /// - `Predict` / `Estimate` are reads, merged from the per-shard slabs
    ///   of the view [`Fleet::fill`] returns — the first read of an epoch
    ///   computes only the slabs the view is missing (clean shards' slabs
    ///   were carried forward at publish), later reads of the same epoch
    ///   reuse them;
    /// - `PredictItems` / `EstimateItems` are item-ranged reads: they fill
    ///   only the slabs of the shards owning the requested items and echo
    ///   the request order (duplicates allowed; an out-of-range item
    ///   rejects the whole op);
    /// - `Snapshot` reads the raw engine state (never the view) into a
    ///   manifest;
    /// - `Restore` replaces the whole fleet from a manifest through the
    ///   installed restore hook (rejected if none is installed);
    /// - `SubscribeOps` / `SubscribeReads` are refused with an `Error`: a
    ///   subscription is a stream of frames after the reply, so only a
    ///   transport that keeps the connection open can serve one (the
    ///   `cpa-transport` server answers both before they reach `apply`);
    /// - `Shutdown` is acknowledged and leaves the fleet untouched — it is
    ///   a signal to whatever is consuming the op stream.
    ///
    /// Every **accepted mutation** bumps the fleet epoch and publishes the
    /// next view *before* the ack reply is built, so a client that observes
    /// the ack reads at least that epoch afterwards. The new view starts
    /// empty only where the mutation dirtied: clean shards' filled slabs
    /// carry forward pointer-identically. A rejected op returns
    /// [`FleetReply::Error`], leaves the fleet exactly as it was, and does
    /// not bump the epoch.
    pub fn apply(&mut self, op: FleetOp) -> FleetReply {
        match op {
            FleetOp::Ingest { workers, answers } => match self.apply_ingest(workers, answers) {
                Ok((batch, dirty)) => {
                    let epoch = self.bump_epoch(&dirty);
                    FleetReply::Ingested { batch, epoch }
                }
                Err(e) => FleetReply::err(e),
            },
            FleetOp::Refit => {
                let engines = std::mem::take(&mut self.engines);
                self.engines = per_shard(&self.pool, engines, |mut engine| {
                    engine.refit();
                    engine
                });
                let epoch = self.bump_epoch(&vec![true; self.num_shards()]);
                FleetReply::Refitted { epoch }
            }
            FleetOp::Predict => {
                let (predictions, epoch) = self
                    .gather_predictions(None)
                    .expect("a full read names no item to reject");
                FleetReply::Predictions { predictions, epoch }
            }
            FleetOp::Estimate => {
                let (estimate, epoch) = self.merge_estimate();
                FleetReply::Estimated { estimate, epoch }
            }
            FleetOp::PredictItems { items } => match self.gather_predictions(Some(&items)) {
                Ok((predictions, epoch)) => FleetReply::PredictedItems {
                    items,
                    predictions,
                    epoch,
                },
                Err(e) => FleetReply::err(e),
            },
            FleetOp::EstimateItems { items } => match self.gather_estimates(&items) {
                Ok((rows, epoch)) => FleetReply::EstimatedItems { items, rows, epoch },
                Err(e) => FleetReply::err(e),
            },
            FleetOp::Snapshot => FleetReply::Manifest {
                manifest: self.snapshot(),
            },
            FleetOp::Restore { manifest } => match self.restore_hook {
                Some(hook) => match Fleet::restore(manifest, self.pool.current_num_threads(), hook)
                {
                    Ok(mut restored) => {
                        // Keep existing reader handles live across the
                        // restore: re-attach this fleet's handle and reset
                        // it to a fresh view at the restored (manifest)
                        // epoch over the restored index — a restore dirties
                        // everything and may change the shard count.
                        restored.views = self.views.clone();
                        restored.views.reset(restored.epoch, restored.index.clone());
                        let epoch = restored.epoch;
                        *self = restored;
                        FleetReply::Restored { epoch }
                    }
                    Err(e) => FleetReply::err(e),
                },
                None => FleetReply::err("no restore hook installed (see Fleet::with_restore_hook)"),
            },
            FleetOp::SubscribeOps { .. } | FleetOp::SubscribeReads { .. } => FleetReply::err(
                "a subscription needs a transport that keeps the connection open \
                 (serve the fleet with cpa-transport)",
            ),
            FleetOp::Shutdown => FleetReply::ShuttingDown,
        }
    }

    /// Commits one accepted mutation to the read path: bump the epoch and
    /// publish the next lazily-filled view, carrying forward the filled
    /// slabs of every shard `dirty` marks clean. Returns the new epoch.
    fn bump_epoch(&mut self, dirty: &[bool]) -> u64 {
        self.epoch += 1;
        self.views.publish(self.epoch, dirty);
        self.epoch
    }

    /// The `Ingest` arm of [`Fleet::apply`]: validate against the arrival
    /// contract, convert the triples into per-shard views, ingest the
    /// routed shards concurrently, then (and only then) commit the arrival
    /// state. Returns the batch number and the dirty-shard set.
    fn apply_ingest(
        &mut self,
        workers: Vec<usize>,
        answers: Vec<(usize, usize, Vec<usize>)>,
    ) -> Result<(usize, Vec<bool>), QueueError> {
        // Label indices are range-checked up front so `LabelSet` construction
        // below cannot panic on a bad op.
        for &(item, worker, ref labels) in &answers {
            if let Some(&c) = labels.iter().find(|&&c| c >= self.num_labels) {
                return Err(QueueError::OutOfRange {
                    worker: Some(worker),
                    message: format!(
                        "label {c} for item {item} (universe has {})",
                        self.num_labels
                    ),
                });
            }
        }
        let triples: Vec<(usize, usize, LabelSet)> = answers
            .into_iter()
            .map(|(item, worker, labels)| {
                (item, worker, LabelSet::from_labels(self.num_labels, labels))
            })
            .collect();
        validate_batch(
            self.index.num_items(),
            self.num_workers,
            self.num_labels,
            &self.arrived,
            &workers,
            &triples,
        )?;
        let index = self.batches_ingested + 1;
        // The batch's item set is derived from its answers (sorted,
        // deduplicated) — exactly how `WorkerStream` derives it.
        let mut items: Vec<usize> = triples.iter().map(|&(item, _, _)| item).collect();
        items.sort_unstable();
        items.dedup();
        let batch = WorkerBatch {
            index,
            workers,
            items,
        };
        let dirty = self.ingest_shard_split(triples, &batch);
        self.arrived.extend(batch.workers);
        self.batches_ingested = index;
        Ok((index, dirty))
    }

    /// Shard-splits one validated arrival batch (the same split
    /// [`cpa_data::stream::WorkerBatch::shard_split`] computes, fused with
    /// building each shard's view of the batch answers into one scan of the
    /// batch triples), then runs `ingest` concurrently on exactly the
    /// shards the batch routed answers to. Returns that **dirty set**.
    ///
    /// Shards with an empty split are skipped entirely — their engines
    /// observe nothing, so their published read slabs stay valid and carry
    /// forward across the epoch. A shard's engine therefore steps once per
    /// arrival batch that routed answers to it, exactly matching a
    /// standalone engine driven over the non-empty batches of that shard's
    /// split stream. The degenerate batch with no answers at all routes
    /// nowhere; it steps (and dirties) every shard, which keeps K=1
    /// exactly the unsharded engine on any op stream.
    fn ingest_shard_split(
        &mut self,
        triples: Vec<(usize, usize, LabelSet)>,
        batch: &WorkerBatch,
    ) -> Vec<bool> {
        let k = self.num_shards();
        // One pass over each batch worker's answers decides shard
        // membership AND collects the shard views — the per-worker scan
        // `shard_split` would do, without doing it twice. Built serially
        // (cheap scans); the engine updates below are the parallel part.
        // Triples are grouped and inserted by move: the common 1-of-K
        // route never clones a `LabelSet`.
        let mut by_worker: std::collections::BTreeMap<usize, Vec<(usize, LabelSet)>> =
            std::collections::BTreeMap::new();
        for (item, worker, labels) in triples {
            by_worker.entry(worker).or_default().push((item, labels));
        }
        let mut shard_workers: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut views: Vec<AnswerMatrixBuilder> = (0..k)
            .map(|_| {
                AnswerMatrixBuilder::new(self.index.num_items(), self.num_workers, self.num_labels)
            })
            .collect();
        let mut hit = vec![false; k];
        for &w in &batch.workers {
            hit.fill(false);
            for (item, labels) in by_worker.remove(&w).unwrap_or_default() {
                let s = self.index.shard_of(item);
                hit[s] = true;
                views[s].insert(item, w, labels);
            }
            for (s, shard_hit) in hit.iter().enumerate() {
                if *shard_hit {
                    shard_workers[s].push(w);
                }
            }
        }
        let mut shard_items: Vec<Vec<usize>> = vec![Vec::new(); k];
        for &item in &batch.items {
            shard_items[self.index.shard_of(item)].push(item);
        }
        let mut dirty: Vec<bool> = shard_items.iter().map(|items| !items.is_empty()).collect();
        if dirty.iter().all(|d| !d) {
            dirty.fill(true);
        }

        let mut parked: Vec<Option<DynEngine>> = std::mem::take(&mut self.engines)
            .into_iter()
            .map(Some)
            .collect();
        let mut work: Vec<(usize, DynEngine, AnswerMatrix, WorkerBatch)> = Vec::new();
        for (s, ((workers, items), view)) in shard_workers
            .into_iter()
            .zip(shard_items)
            .zip(views)
            .enumerate()
        {
            if !dirty[s] {
                continue;
            }
            let engine = parked[s].take().expect("engine parked");
            let shard_batch = WorkerBatch {
                index: batch.index,
                workers,
                items,
            };
            work.push((s, engine, view.build(), shard_batch));
        }
        let done = per_shard(&self.pool, work, |(s, mut engine, view, shard_batch)| {
            engine.ingest(&view, &shard_batch);
            (s, engine)
        });
        for (s, engine) in done {
            parked[s] = Some(engine);
        }
        self.engines = parked
            .into_iter()
            .map(|slot| slot.expect("every engine returned"))
            .collect();
        dirty
    }

    /// Ingests one arrival batch — a thin wrapper lowering the
    /// `(universe, batch)` surface into a self-contained
    /// [`FleetOp::Ingest`] and handing it to [`Fleet::apply`].
    ///
    /// The batch is renumbered by the fleet's own arrival counter (1, 2, …
    /// in apply order) and its item set is derived from the batch workers'
    /// answers — identical to `batch.index`/`batch.items` for every batch a
    /// [`MemorySource`] yields from the start.
    ///
    /// # Panics
    /// Panics if `answers` does not have the fleet's global shape, or if
    /// the batch violates the arrival contract (e.g. a worker that already
    /// arrived) — use [`Fleet::apply`] directly to handle rejections as
    /// [`FleetReply::Error`] without panicking.
    pub fn ingest(&mut self, answers: &AnswerMatrix, batch: &WorkerBatch) {
        assert!(
            answers.num_items() == self.index.num_items()
                && answers.num_workers() == self.num_workers
                && answers.num_labels() == self.num_labels,
            "batch universe shape mismatch"
        );
        debug_assert!(
            batch.items.windows(2).all(|w| w[0] < w[1]),
            "WorkerBatch.items must be sorted and deduplicated (batch {})",
            batch.index
        );
        match self.apply(FleetOp::ingest_from(answers, batch)) {
            FleetReply::Ingested { .. } => {}
            FleetReply::Error { message } => {
                panic!("fleet rejected arrival batch {}: {message}", batch.index)
            }
            other => unreachable!("Ingest op answered with {}", other.name()),
        }
    }

    /// Refits every shard concurrently (no-op for incremental engines) —
    /// a thin wrapper over [`FleetOp::Refit`].
    pub fn refit_all(&mut self) {
        let reply = self.apply(FleetOp::Refit);
        debug_assert!(matches!(reply, FleetReply::Refitted { .. }));
    }

    /// Pulls every batch out of `source`, lowers each into a
    /// [`FleetOp::Ingest`], and finishes with one [`FleetOp::Refit`] — the
    /// fleet analogue of [`cpa_core::engine::drive`], an op-stream consumer
    /// over [`Fleet::apply`].
    pub fn drive(&mut self, source: &mut MemorySource) {
        while let Some(batch) = source.next_batch() {
            self.ingest(source.answers(), &batch);
        }
        self.refit_all();
    }

    /// Applies a recorded op stream in order, returning one reply per op
    /// consumed. Stops after (and including) the first
    /// [`FleetOp::Shutdown`], as the live server does.
    ///
    /// Replaying the op-log of a live run against a fresh fleet of the same
    /// construction reproduces the live fleet's snapshot byte for byte.
    pub fn replay(&mut self, ops: impl IntoIterator<Item = FleetOp>) -> Vec<FleetReply> {
        let mut replies = Vec::new();
        for op in ops {
            let stop = matches!(op, FleetOp::Shutdown);
            replies.push(self.apply(op));
            if stop {
                break;
            }
        }
        replies
    }

    /// Arrival batches absorbed so far (the next batch is numbered one
    /// higher).
    pub fn batches_ingested(&self) -> usize {
        self.batches_ingested
    }

    /// Accepted mutations applied so far — the epoch every read reply is
    /// tagged with. After a `Restore` this is the *manifest's* recorded
    /// epoch, which may be lower than before (a new lineage).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A cloneable handle onto the fleet's published read view. Transport
    /// handlers (and any other concurrent reader) answer `Predict` /
    /// `Estimate` through this without touching the fleet; the handle stays
    /// valid across every mutation, including `Restore`.
    pub fn view_handle(&self) -> ViewHandle {
        self.views.clone()
    }

    /// Fills the current view's missing `kind` slabs for the shards that
    /// own `items` (every shard for `None`), concurrently and in shard
    /// order, and returns that view — the fleet's one read fill. Slabs the
    /// view already holds (filled earlier this epoch, or carried forward
    /// from a clean shard) are never recomputed.
    ///
    /// Every in-process read gathers from the view this returns. The
    /// `cpa-transport` driver calls it when a connection handler finds a
    /// needed slab cold (the handler then splices its reply from the
    /// returned view), and once per read subscription after every accepted
    /// mutation — after the mutator's ack, before pushing the view — so
    /// handlers, which have no engine access, splice every row straight
    /// from the view's slabs, and no ack waits for a subscriber's fill.
    ///
    /// # Errors
    /// Names the first item of `items` outside the universe; nothing is
    /// filled then.
    pub fn fill(&self, kind: ReadKind, items: Option<&[usize]>) -> Result<Arc<ReadView>, String> {
        let view = self.views.current();
        let num_items = self.index.num_items();
        let mut needed = vec![items.is_none(); self.num_shards()];
        for &i in items.unwrap_or_default() {
            if i >= num_items {
                return Err(format!("item {i} outside the {num_items}-item universe"));
            }
            needed[self.index.shard_of(i)] = true;
        }
        let filled = |s: usize| match kind {
            ReadKind::Predictions => view.shard_predictions(s).is_some(),
            ReadKind::Estimate => view.shard_estimate(s).is_some(),
        };
        let missing: Vec<(usize, &DynEngine)> = self
            .engines
            .iter()
            .enumerate()
            .filter(|&(s, _)| needed[s] && !filled(s))
            .collect();
        if missing.is_empty() {
            return Ok(view);
        }
        let pool = &self.pool;
        match kind {
            ReadKind::Predictions => {
                for (s, slab) in per_shard(pool, missing, |(s, e)| (s, e.predict_all())) {
                    view.shard_predictions_or_init(s, || slab);
                }
            }
            ReadKind::Estimate => {
                for (s, slab) in per_shard(pool, missing, |(s, e)| (s, e.estimate())) {
                    view.shard_estimate_or_init(s, || slab);
                }
            }
        }
        Ok(view)
    }

    /// Replays ops from `ops` until the fleet's epoch reaches `epoch`, then
    /// stops (without consuming further ops). Returns one reply per op
    /// consumed, like [`Fleet::replay`]; also stops after a `Shutdown` op or
    /// when `ops` runs dry, whichever comes first.
    ///
    /// This is the **replay-to-epoch guarantee** behind read-reply tags:
    /// replaying a recorded mutation prefix until the epoch a client was
    /// served at reproduces that view's predictions bit for bit (locked by
    /// `tests/read_view_stress.rs`).
    pub fn replay_to_epoch(
        &mut self,
        ops: impl IntoIterator<Item = FleetOp>,
        epoch: u64,
    ) -> Vec<FleetReply> {
        let mut replies = Vec::new();
        if self.epoch == epoch {
            return replies;
        }
        for op in ops {
            let stop = matches!(op, FleetOp::Shutdown);
            replies.push(self.apply(op));
            if stop || self.epoch == epoch {
                break;
            }
        }
        replies
    }

    /// Merged consensus predictions in global item order, gathered from
    /// the per-shard slabs of the view [`Fleet::fill`] returns: the first
    /// call after a mutation computes only the slabs the view is missing
    /// (clean shards' slabs were carried forward at publish); repeated
    /// calls at the same epoch reuse every slab and only gather.
    pub fn predict_all(&self) -> Vec<LabelSet> {
        self.gather_predictions(None)
            .expect("a full read names no item to reject")
            .0
    }

    /// Consensus predictions for exactly `items`, echoed in request order
    /// (duplicates allowed) — the in-process `PredictItems` surface. Only
    /// the owning shards' slabs are computed (or reused), so the cost is
    /// bounded by the request, not the universe.
    ///
    /// # Panics
    /// Panics on an out-of-range item; use [`Fleet::apply`] with
    /// [`FleetOp::PredictItems`] to get an error reply instead.
    pub fn predict_items(&self, items: &[usize]) -> Vec<LabelSet> {
        self.gather_predictions(Some(items))
            .expect("requested item outside the universe")
            .0
    }

    /// Per-item soft-truth rows for exactly `items`, echoed in request
    /// order — the in-process `EstimateItems` surface (see
    /// [`crate::protocol::ItemEstimate`] for what a row carries).
    ///
    /// # Panics
    /// Panics on an out-of-range item; use [`Fleet::apply`] with
    /// [`FleetOp::EstimateItems`] to get an error reply instead.
    pub fn estimate_items(&self, items: &[usize]) -> Vec<ItemEstimate> {
        self.gather_estimates(items)
            .expect("requested item outside the universe")
            .0
    }

    /// The read behind `Predict` and `PredictItems`: fill the owning
    /// shards' slabs, then gather `items` in request order (every item,
    /// in item order, for `None`). Returns the rows and their view's epoch.
    fn gather_predictions(&self, items: Option<&[usize]>) -> Result<(Vec<LabelSet>, u64), String> {
        let view = self.fill(ReadKind::Predictions, items)?;
        let slabs: Vec<_> = (0..self.num_shards())
            .map(|s| view.shard_predictions(s))
            .collect();
        let row =
            |i: usize| slabs[self.index.shard_of(i)].as_ref().expect("slab filled")[i].clone();
        let rows = match items {
            Some(items) => items.iter().map(|&i| row(i)).collect(),
            None => (0..self.index.num_items()).map(row).collect(),
        };
        Ok((rows, view.epoch()))
    }

    /// The read behind `EstimateItems`: fill the owning shards' slabs, then
    /// slice the requested items' rows in request order. Rows equal the
    /// corresponding slices of the merged [`Fleet::estimate_all`] —
    /// per-item fields come verbatim from the owning shard in both.
    fn gather_estimates(&self, items: &[usize]) -> Result<(Vec<ItemEstimate>, u64), String> {
        let view = self.fill(ReadKind::Estimate, Some(items))?;
        let slabs: Vec<_> = (0..self.num_shards())
            .map(|s| view.shard_estimate(s))
            .collect();
        let rows = items
            .iter()
            .map(|&i| {
                let est = slabs[self.index.shard_of(i)].as_ref().expect("slab filled");
                ItemEstimate::from_estimate(est, i)
            })
            .collect();
        Ok((rows, view.epoch()))
    }

    /// Merged soft-truth estimate in global item order, gathered from the
    /// per-shard slabs exactly like [`Fleet::predict_all`].
    ///
    /// Per-item fields (`soft`, `expected_size`) come from the owning shard.
    /// A worker's weight is the answer-count-weighted mean of its weights in
    /// the shards it answered into (workers with no answers keep the neutral
    /// weight 1). `community_reliability` is left empty: community structure
    /// is a per-shard notion — read it from [`Fleet::shard`] estimates.
    pub fn estimate_all(&self) -> TruthEstimate {
        self.merge_estimate().0
    }

    /// The merge behind [`Fleet::estimate_all`] and `Estimate`, over the
    /// per-shard estimate slabs of the view [`Fleet::fill`] returns; also
    /// returns that view's epoch.
    fn merge_estimate(&self) -> (TruthEstimate, u64) {
        let view = self
            .fill(ReadKind::Estimate, None)
            .expect("a full read names no item to reject");
        let shard_ests: Vec<Arc<TruthEstimate>> = (0..self.num_shards())
            .map(|s| view.shard_estimate(s).expect("slab filled"))
            .collect();
        let num_items = self.index.num_items();
        let mut soft = Vec::with_capacity(num_items);
        let mut expected_size = Vec::with_capacity(num_items);
        for i in 0..num_items {
            let est = &shard_ests[self.index.shard_of(i)];
            soft.push(est.soft[i].clone());
            expected_size.push(est.expected_size[i]);
        }
        let mut worker_weight = vec![1.0; self.num_workers];
        for (u, weight) in worker_weight.iter_mut().enumerate() {
            // (weight, answer count) per shard the worker answered into.
            let contribs: Vec<(f64, usize)> = shard_ests
                .iter()
                .zip(&self.engines)
                .filter_map(|(est, engine)| {
                    let n = engine.seen_answers().worker_answers(u).len();
                    (n > 0).then(|| (est.worker_weight[u], n))
                })
                .collect();
            match contribs.as_slice() {
                [] => {}
                // One shard saw every answer (always the case at K=1):
                // take its weight verbatim, not a `w·n/n` round trip.
                [(w, _)] => *weight = *w,
                many => {
                    let total: usize = many.iter().map(|&(_, n)| n).sum();
                    *weight = many.iter().map(|&(w, n)| w * n as f64).sum::<f64>() / total as f64;
                }
            }
        }
        let estimate = TruthEstimate {
            soft,
            expected_size,
            worker_weight,
            community_reliability: Vec::new(),
        };
        (estimate, view.epoch())
    }

    /// Captures the whole fleet as a versioned manifest of per-shard
    /// checkpoints plus the arrival state (which workers arrived, how many
    /// batches were absorbed).
    pub fn snapshot(&self) -> FleetManifest {
        FleetManifest {
            version: FLEET_MANIFEST_VERSION,
            num_items: self.index.num_items(),
            num_workers: self.num_workers,
            num_labels: self.num_labels,
            arrived_workers: self.arrived.iter().copied().collect(),
            batches_ingested: self.batches_ingested,
            epoch: self.epoch,
            shards: self.engines.iter().map(|e| e.snapshot()).collect(),
        }
    }

    /// Rebuilds a fleet from a manifest, restoring each shard's engine
    /// through the `restore` hook (`cpa-eval`'s `restore_engine` covers
    /// every built-in method). Restore-then-continue is bit-identical to
    /// never pausing.
    ///
    /// # Errors
    /// Fails on a manifest/checkpoint version mismatch, a shard whose
    /// checkpoint does not restore, a shape mismatch, or a shard whose seen
    /// answers contain items it does not own (a reordered manifest).
    pub fn restore(
        manifest: FleetManifest,
        threads: usize,
        restore: RestoreFn,
    ) -> Result<Self, FleetError> {
        if manifest.version != FLEET_MANIFEST_VERSION {
            return Err(FleetError::Version {
                found: manifest.version,
                expected: FLEET_MANIFEST_VERSION,
            });
        }
        if manifest.shards.is_empty() {
            return Err(FleetError::Invalid("manifest has zero shards".into()));
        }
        let router = ShardRouter::new(manifest.shards.len());
        let arrived: BTreeSet<usize> = manifest.arrived_workers.iter().copied().collect();
        if arrived.len() != manifest.arrived_workers.len() {
            return Err(FleetError::Invalid(
                "manifest lists an arrived worker twice".into(),
            ));
        }
        if let Some(&w) = arrived.iter().find(|&&w| w >= manifest.num_workers) {
            return Err(FleetError::Invalid(format!(
                "arrived worker {w} outside the {}-worker universe",
                manifest.num_workers
            )));
        }
        let mut engines = Vec::with_capacity(manifest.shards.len());
        for (s, checkpoint) in manifest.shards.into_iter().enumerate() {
            let engine =
                restore(checkpoint).map_err(|source| FleetError::Shard { shard: s, source })?;
            let seen = engine.seen_answers();
            if seen.num_items() != manifest.num_items
                || seen.num_workers() != manifest.num_workers
                || seen.num_labels() != manifest.num_labels
            {
                return Err(FleetError::Invalid(format!(
                    "shard {s} restored at shape {}x{}x{}, manifest says {}x{}x{}",
                    seen.num_items(),
                    seen.num_workers(),
                    seen.num_labels(),
                    manifest.num_items,
                    manifest.num_workers,
                    manifest.num_labels
                )));
            }
            for i in 0..seen.num_items() {
                if !seen.item_answers(i).is_empty() && router.route(i) != s {
                    return Err(FleetError::Invalid(format!(
                        "shard {s} holds answers for item {i}, owned by shard {} — \
                         manifest shards out of order?",
                        router.route(i)
                    )));
                }
            }
            for u in 0..seen.num_workers() {
                if !seen.worker_answers(u).is_empty() && !arrived.contains(&u) {
                    return Err(FleetError::Invalid(format!(
                        "shard {s} holds answers by worker {u}, who is not in the \
                         manifest's arrived_workers — arrival state corrupted?"
                    )));
                }
            }
            engines.push(engine);
        }
        let index = Arc::new(ShardIndex::new(router, manifest.num_items));
        Ok(Self {
            views: ViewHandle::new(manifest.epoch, index.clone()),
            index,
            pool: fleet_pool(threads),
            engines,
            num_workers: manifest.num_workers,
            num_labels: manifest.num_labels,
            arrived,
            batches_ingested: manifest.batches_ingested,
            restore_hook: Some(restore),
            epoch: manifest.epoch,
        })
    }
}

/// A durable capture of a whole fleet: format version, the global population
/// shape, the arrival state, and one [`Checkpoint`] per shard, in shard
/// order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetManifest {
    /// Manifest format version ([`FLEET_MANIFEST_VERSION`] at write time).
    pub version: u32,
    /// Global item dimension.
    pub num_items: usize,
    /// Global worker dimension.
    pub num_workers: usize,
    /// Global label dimension.
    pub num_labels: usize,
    /// Every worker that had arrived, sorted ascending — restored so the
    /// fleet keeps enforcing the worker-partition arrival contract.
    pub arrived_workers: Vec<usize>,
    /// Arrival batches absorbed at snapshot time — restored so the next
    /// batch is numbered exactly as the uninterrupted run would number it.
    pub batches_ingested: usize,
    /// The fleet epoch (accepted-mutation count) at snapshot time — a
    /// restored fleet resumes tagging read replies from here, so
    /// replay-to-epoch works across the restore.
    pub epoch: u64,
    /// Per-shard engine checkpoints, indexed by shard.
    pub shards: Vec<Checkpoint>,
}

impl FleetManifest {
    /// Serializes the manifest as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("manifest serialises")
    }

    /// Parses a manifest from JSON, rejecting unknown format versions before
    /// the payload is decoded (the same version-first discipline as
    /// [`Checkpoint::from_json`]).
    ///
    /// # Errors
    /// Fails on malformed JSON or a version mismatch.
    pub fn from_json(text: &str) -> Result<Self, FleetError> {
        let version = cpa_data::io::json_version(text)
            .map_err(|e| FleetError::Json(e.to_string()))?
            .ok_or_else(|| FleetError::Json("missing `version` field".into()))?;
        if version != u64::from(FLEET_MANIFEST_VERSION) {
            return Err(FleetError::Version {
                found: version.try_into().unwrap_or(u32::MAX),
                expected: FLEET_MANIFEST_VERSION,
            });
        }
        serde_json::from_str(text).map_err(|e| FleetError::Json(e.to_string()))
    }
}

/// Why a fleet manifest could not be parsed or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The manifest was written by an incompatible format version.
    Version {
        /// Version found in the document.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The document could not be parsed into a manifest.
    Json(String),
    /// One shard's checkpoint failed to restore.
    Shard {
        /// Which shard failed.
        shard: usize,
        /// The underlying checkpoint error.
        source: CheckpointError,
    },
    /// The manifest is internally inconsistent (shape mismatch, shards out
    /// of order, zero shards).
    Invalid(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Version { found, expected } => {
                write!(
                    f,
                    "fleet manifest version {found} (this build reads {expected})"
                )
            }
            FleetError::Json(msg) => write!(f, "malformed fleet manifest JSON: {msg}"),
            FleetError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            FleetError::Invalid(msg) => write!(f, "inconsistent fleet manifest: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}
