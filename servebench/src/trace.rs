//! In-memory spans and the `Engine` wrapper that records them.
//!
//! Spans are recorded from the benchmark's side of each layer boundary: the
//! wrapper times every call the fleet makes into a shard engine, and the
//! runner times its own calls into the client, the replica and the codec.
//! Nothing inside the program under test is instrumented. Spans stay in
//! memory until the run ends and are then written out as JSON lines.

use cpa_core::engine::{Checkpoint, CheckpointError, DynEngine, Engine};
use cpa_core::truth::TruthEstimate;
use cpa_data::answers::AnswerMatrix;
use cpa_data::labels::LabelSet;
use cpa_data::stream::WorkerBatch;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call across a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer the call entered, named by crate and module (`core.engine`).
    pub layer: &'static str,
    /// The call (`ingest`, `predict`, `apply`, …).
    pub name: &'static str,
    /// Which fleet or client made it (`leader`, `follower`, `replay`, …).
    pub role: &'static str,
    /// Start, in microseconds since the sink's origin.
    pub start_us: f64,
    /// End, in microseconds since the sink's origin.
    pub end_us: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A thread-safe, append-only span store with one time origin.
#[derive(Debug)]
pub struct SpanSink {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanSink {
    /// An empty sink whose timestamps count from now.
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanSink {
    /// Microseconds from the sink's origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        role: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            layer,
            name,
            role,
            start_us: self.at(start),
            end_us: self.at(end),
        };
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .push(span);
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        role: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(layer, name, role, start, Instant::now());
        out
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"name\":\"{}\",\"role\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.layer, s.name, s.role, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// A shard engine that delegates every call to the real engine and records
/// a `core.engine` span around each call that does inference work.
///
/// It reports the inner engine's name and checkpoints, so a fleet of
/// wrapped engines is indistinguishable from an unwrapped one in its
/// predictions and manifests.
pub struct TracedEngine {
    inner: DynEngine,
    role: &'static str,
    sink: Arc<SpanSink>,
}

impl TracedEngine {
    /// Wraps `inner`, recording its spans into `sink` under `role`.
    pub fn new(inner: DynEngine, role: &'static str, sink: Arc<SpanSink>) -> Self {
        Self { inner, role, sink }
    }

    /// [`TracedEngine::new`], boxed for `Fleet::new`'s factory.
    pub fn boxed(inner: DynEngine, role: &'static str, sink: &Arc<SpanSink>) -> DynEngine {
        Box::new(Self::new(inner, role, Arc::clone(sink)))
    }
}

impl Engine for TracedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn ingest(&mut self, answers: &AnswerMatrix, batch: &WorkerBatch) {
        let inner = &mut self.inner;
        self.sink.time("core.engine", "ingest", self.role, || {
            inner.ingest(answers, batch)
        });
    }

    fn refit(&mut self) {
        let inner = &mut self.inner;
        self.sink
            .time("core.engine", "refit", self.role, || inner.refit());
    }

    fn predict_all(&self) -> Vec<LabelSet> {
        self.sink.time("core.engine", "predict", self.role, || {
            self.inner.predict_all()
        })
    }

    fn estimate(&self) -> TruthEstimate {
        self.sink.time("core.engine", "estimate", self.role, || {
            self.inner.estimate()
        })
    }

    fn seen_answers(&self) -> &AnswerMatrix {
        self.inner.seen_answers()
    }

    fn snapshot(&self) -> Checkpoint {
        self.inner.snapshot()
    }

    /// Restores the inner engine by its checkpoint tag; the restored
    /// wrapper records into a fresh sink of its own.
    fn restore(checkpoint: Checkpoint) -> Result<Self, CheckpointError> {
        cpa_eval::runner::restore_engine(checkpoint)
            .map(|inner| Self::new(inner, "restored", Arc::new(SpanSink::default())))
    }
}
