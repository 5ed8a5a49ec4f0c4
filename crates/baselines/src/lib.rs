//! Baseline answer-aggregation methods (paper §5.1, "Baselines").
//!
//! Existing methods target single-label tasks, so — exactly as the paper
//! prescribes — each multi-label dataset is decomposed into one *binary*
//! sub-problem per label ("each worker giving a Boolean answer for a given
//! label"): a worker who answered an item but omitted label `c` counts as a
//! negative vote for `c`; a worker who did not answer the item abstains. A
//! label is included in the aggregate when its acceptance probability exceeds
//! 0.5.
//!
//! - [`mv::MajorityVoting`] — the per-label vote ratio \[17\], \[18\];
//! - [`ds::DawidSkene`] — per-label EM with per-worker confusion matrices
//!   \[40\], optionally with the Ipeirotis mislabelling-cost refinement \[15\];
//! - [`bcc::Bcc`] / [`bcc::CommunityBcc`] — (community-based) Bayesian
//!   classifier combination \[51\], \[24\], \[25\];
//! - [`twocoin`] — the two-coin worker characterisation of Appendix A \[54\].
//!
//! Every aggregator also runs behind the uniform engine interface of
//! `cpa_core::engine` through the blanket [`BaselineEngine`] adapter (see
//! [`IntoEngine`]), so the evaluation layer drives baselines and CPA engines
//! through the same streaming loop and checkpoint machinery.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bcc;
pub mod binary;
pub mod ds;
pub mod mv;
pub mod twocoin;
pub mod wmv;

use cpa_core::engine::{
    neutral_estimate, Checkpoint, CheckpointError, Engine, EngineState, CHECKPOINT_VERSION,
};
use cpa_core::truth::TruthEstimate;
use cpa_data::answers::AnswerMatrix;
use cpa_data::labels::LabelSet;
use cpa_data::stream::WorkerBatch;

/// A crowd answer aggregator: answers in, consensus label sets out.
pub trait Aggregator {
    /// Short display name used in experiment tables ("MV", "EM", "cBCC", ...).
    fn name(&self) -> &'static str;

    /// Aggregates the answer matrix into one label set per item.
    fn aggregate(&self, answers: &AnswerMatrix) -> Vec<LabelSet>;
}

/// Blanket adapter lifting any [`Aggregator`] onto the uniform
/// [`Engine`] interface: `ingest` accumulates answers into a seen matrix,
/// `refit` re-aggregates everything seen, and checkpoints carry only the
/// seen matrix plus the method tag (aggregation is a deterministic function
/// of the seen answers, so nothing else needs capturing).
#[derive(Debug, Clone)]
pub struct BaselineEngine<A: Aggregator> {
    aggregator: A,
    seen: AnswerMatrix,
    predictions: Option<Vec<LabelSet>>,
}

impl<A: Aggregator> BaselineEngine<A> {
    /// Wraps `aggregator` as an engine over an (initially empty) population
    /// of `num_items × num_workers` over `num_labels` labels.
    pub fn new(aggregator: A, num_items: usize, num_workers: usize, num_labels: usize) -> Self {
        Self {
            aggregator,
            seen: AnswerMatrix::new(num_items, num_workers, num_labels),
            predictions: None,
        }
    }

    /// Borrow the wrapped aggregator.
    pub fn aggregator(&self) -> &A {
        &self.aggregator
    }
}

/// Extension blanket: every sized aggregator converts into a
/// [`BaselineEngine`] with `into_engine`.
pub trait IntoEngine: Aggregator + Sized {
    /// Wraps `self` as an [`Engine`] over the given population shape.
    fn into_engine(
        self,
        num_items: usize,
        num_workers: usize,
        num_labels: usize,
    ) -> BaselineEngine<Self> {
        BaselineEngine::new(self, num_items, num_workers, num_labels)
    }
}

impl<A: Aggregator + Sized> IntoEngine for A {}

impl<A: Aggregator + serde::Serialize + serde::Deserialize> Engine for BaselineEngine<A> {
    fn name(&self) -> &'static str {
        self.aggregator.name()
    }

    fn ingest(&mut self, answers: &AnswerMatrix, batch: &WorkerBatch) {
        self.seen.extend_from_workers(answers, &batch.workers);
        self.predictions = None;
    }

    fn refit(&mut self) {
        self.predictions = Some(self.aggregator.aggregate(&self.seen));
    }

    fn predict_all(&self) -> Vec<LabelSet> {
        match &self.predictions {
            Some(p) => p.clone(),
            None => vec![LabelSet::empty(self.seen.num_labels()); self.seen.num_items()],
        }
    }

    /// Degenerate estimate: the aggregate labels at weight 1 (aggregators
    /// have no probabilistic truth model), unit worker weights.
    fn estimate(&self) -> TruthEstimate {
        let mut est = neutral_estimate(self.seen.num_items(), self.seen.num_workers());
        if let Some(preds) = &self.predictions {
            for (i, p) in preds.iter().enumerate() {
                est.soft[i] = p.iter().map(|c| (c, 1.0)).collect();
                est.expected_size[i] = p.len() as f64;
            }
        }
        est
    }

    fn seen_answers(&self) -> &AnswerMatrix {
        &self.seen
    }

    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            engine: self.aggregator.name().to_string(),
            seen: self.seen.clone(),
            state: EngineState::Baseline {
                method: self.aggregator.name().to_string(),
                config: serde::to_value(&self.aggregator),
                fitted: self.predictions.is_some(),
            },
        }
    }

    /// Restores the aggregator from its serialized configuration (so
    /// non-default thresholds/iteration caps survive the round trip),
    /// verifies the tag, and re-aggregates if the snapshot had been refit
    /// (the aggregate is a deterministic function of the configuration and
    /// the seen answers).
    fn restore(checkpoint: Checkpoint) -> Result<Self, CheckpointError> {
        let EngineState::Baseline {
            method,
            config,
            fitted,
        } = &checkpoint.state
        else {
            return Err(CheckpointError::Invalid(format!(
                "engine tag `{}` with a non-baseline payload",
                checkpoint.engine
            )));
        };
        // The payload's own tag must agree with the outer tag; otherwise the
        // checkpoint was retagged and must not restore as a different
        // aggregator whose config happens to decode.
        if method != &checkpoint.engine {
            return Err(CheckpointError::EngineMismatch {
                found: method.clone(),
                expected: checkpoint.engine.clone(),
            });
        }
        let aggregator = serde::from_value::<A>(config)
            .map_err(|e| CheckpointError::Invalid(format!("bad aggregator config: {e}")))?;
        checkpoint.expect_engine(aggregator.name())?;
        let fitted = *fitted;
        let mut engine = Self {
            aggregator,
            seen: checkpoint.seen,
            predictions: None,
        };
        if fitted {
            engine.refit();
        }
        Ok(engine)
    }
}

#[cfg(test)]
pub(crate) use fixtures as testutil;

#[cfg(test)]
pub(crate) mod engine_testutil {
    use super::*;
    use cpa_core::engine::drive;
    use cpa_data::stream::MemorySource;

    /// Drives an aggregator through the [`Engine`] adapter on the Table 1
    /// fixture and asserts it matches the direct [`Aggregator::aggregate`]
    /// call — including through a JSON checkpoint round-trip.
    pub(crate) fn engine_matches_direct<A>(aggregator: A)
    where
        A: Aggregator + serde::Serialize + serde::Deserialize,
    {
        let (m, _) = crate::fixtures::table1();
        let direct = aggregator.aggregate(&m);
        let mut engine = aggregator.into_engine(m.num_items(), m.num_workers(), m.num_labels());
        drive(&mut engine, &mut MemorySource::single_batch(&m));
        assert_eq!(Engine::predict_all(&engine), direct);
        let json = engine.snapshot().to_json();
        let restored = BaselineEngine::<A>::restore(Checkpoint::from_json(&json).unwrap()).unwrap();
        assert_eq!(Engine::name(&restored), Engine::name(&engine));
        // The configuration itself must survive, not just the predictions.
        assert_eq!(
            serde::to_value(restored.aggregator()),
            serde::to_value(engine.aggregator())
        );
        assert_eq!(Engine::predict_all(&restored), direct);
        assert_eq!(
            restored.seen_answers().num_answers(),
            engine.seen_answers().num_answers()
        );
    }
}

/// Paper fixtures shared with the evaluation harness.
pub mod fixtures {
    use cpa_data::answers::AnswerMatrix;
    use cpa_data::labels::LabelSet;

    /// Human-readable names of Table 1's five labels (0-indexed).
    pub const TABLE1_LABELS: [&str; 5] = ["sky", "plane", "sun", "water", "tree"];

    /// The paper's Table 1: five workers, four pictures, labels 1–5
    /// (0-indexed here as 0–4). Ground truth: i1={4}, i2={2,3}, i3={3,4},
    /// i4={0,1,2} (0-indexed).
    pub fn table1() -> (AnswerMatrix, Vec<LabelSet>) {
        let ls = |v: &[usize]| LabelSet::from_labels(5, v.iter().copied());
        let mut m = AnswerMatrix::new(4, 5, 5);
        // item i1
        m.insert(0, 0, ls(&[3, 4]));
        m.insert(0, 1, ls(&[3, 4]));
        m.insert(0, 2, ls(&[3]));
        m.insert(0, 3, ls(&[0]));
        m.insert(0, 4, ls(&[4]));
        // item i2
        m.insert(1, 0, ls(&[1, 2]));
        m.insert(1, 1, ls(&[0, 3]));
        m.insert(1, 2, ls(&[3]));
        m.insert(1, 3, ls(&[1]));
        m.insert(1, 4, ls(&[2, 3]));
        // item i3
        m.insert(2, 0, ls(&[0, 1]));
        m.insert(2, 1, ls(&[3]));
        m.insert(2, 2, ls(&[3]));
        m.insert(2, 3, ls(&[2]));
        m.insert(2, 4, ls(&[3, 4]));
        // item i4
        m.insert(3, 0, ls(&[0, 1]));
        m.insert(3, 1, ls(&[1, 2]));
        m.insert(3, 2, ls(&[3]));
        m.insert(3, 3, ls(&[3]));
        m.insert(3, 4, ls(&[0, 1, 2]));
        let truth = vec![ls(&[4]), ls(&[2, 3]), ls(&[3, 4]), ls(&[0, 1, 2])];
        (m, truth)
    }
}
