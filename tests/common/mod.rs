//! Helpers shared by the wire-level integration tests: an engine wrapper
//! that lets a test act at a chosen engine step on the server's driver.

use cpa::core::engine::{Checkpoint, CheckpointError, DynEngine, Engine};
use cpa::core::truth::TruthEstimate;
use cpa::data::answers::AnswerMatrix;
use cpa::data::labels::LabelSet;
use cpa::data::stream::WorkerBatch;
use std::sync::Arc;

/// The engine step a [`Hooked`] engine is about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Ingest,
    /// `predict_all`: the slab fill behind every read and every pushed
    /// delta.
    Predict,
}

/// What a test runs before an engine step: it may record, wait or panic.
/// Every shard's engine shares one, through clones of the `Arc`.
pub type Hook = Arc<dyn Fn(Step) + Send + Sync>;

/// An engine that calls its [`Hook`] before each `ingest` and
/// `predict_all`, and otherwise delegates to `inner`.
pub struct Hooked {
    inner: DynEngine,
    hook: Hook,
}

impl Hooked {
    /// `inner`, calling `hook` before each hooked step.
    pub fn wrap(inner: DynEngine, hook: &Hook) -> DynEngine {
        Box::new(Hooked {
            inner,
            hook: Arc::clone(hook),
        })
    }
}

impl Engine for Hooked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn ingest(&mut self, answers: &AnswerMatrix, batch: &WorkerBatch) {
        (self.hook)(Step::Ingest);
        self.inner.ingest(answers, batch);
    }

    fn refit(&mut self) {
        self.inner.refit();
    }

    fn predict_all(&self) -> Vec<LabelSet> {
        (self.hook)(Step::Predict);
        self.inner.predict_all()
    }

    fn estimate(&self) -> TruthEstimate {
        self.inner.estimate()
    }

    fn seen_answers(&self) -> &AnswerMatrix {
        self.inner.seen_answers()
    }

    fn snapshot(&self) -> Checkpoint {
        self.inner.snapshot()
    }

    fn restore(_: Checkpoint) -> Result<Self, CheckpointError> {
        Err(CheckpointError::Invalid(
            "a hooked engine does not restore".into(),
        ))
    }
}
