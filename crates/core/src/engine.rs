//! The uniform inference-engine interface: every method — batch VI, online
//! SVI, Gibbs, and (via `cpa-baselines`) the aggregator zoo — behind one
//! trait, with durable, versioned checkpoints.
//!
//! The paper's central claim is that one probabilistic model subsumes the
//! baseline zoo while scaling to streaming workloads; [`Engine`] is that
//! claim as an API. An engine *ingests* worker batches pulled from a
//! [`cpa_data::stream::MemorySource`], *refits* whatever state is not
//! maintained incrementally, and *predicts* consensus label sets — so the
//! evaluation layer (and any future serving layer) can treat "an inference
//! method" as a value.
//!
//! # Incremental vs batch engines
//!
//! [`crate::OnlineCpa`] updates its posterior inside [`Engine::ingest`]
//! (Algorithm 2); its [`Engine::refit`] is a no-op and predictions are always
//! current. [`BatchCpa`], [`GibbsCpa`] and the baseline adapters only
//! *accumulate* answers in `ingest`; their model state is recomputed by
//! `refit`, and [`Engine::predict_all`] reflects the **last `refit`** (empty
//! predictions before the first). Drivers therefore call `refit` after the
//! ingestion phase — [`drive`] does exactly that.
//!
//! # Checkpoints
//!
//! [`Engine::snapshot`] captures the engine as a [`Checkpoint`]: a versioned,
//! JSON-serializable value holding the seen answers (CSR), the variational
//! parameters, and the step counters. The contract, locked by
//! `tests/checkpoint_resume.rs` at multiple thread counts, is
//! **restore-then-continue is bit-identical to never pausing**. No live RNG
//! state needs capture: engines draw randomness only from `cfg.seed` (at
//! initialisation, or per `refit`, which always re-derives its RNG from the
//! seed), so a checkpoint's seed and counters fully determine the
//! continuation.
//!
//! ```
//! use cpa_core::engine::{drive, Engine};
//! use cpa_core::{BatchCpa, CpaConfig};
//! use cpa_data::profile::DatasetProfile;
//! use cpa_data::simulate::simulate;
//! use cpa_data::stream::MemorySource;
//!
//! let sim = simulate(&DatasetProfile::movie().scaled(0.04), 7);
//! let d = &sim.dataset;
//! let mut engine = BatchCpa::new(
//!     CpaConfig::default().with_truncation(4, 5),
//!     d.num_items(),
//!     d.num_workers(),
//!     d.num_labels(),
//! );
//! drive(&mut engine, &mut MemorySource::single_batch(&d.answers));
//! let json = engine.snapshot().to_json();
//! let restored = BatchCpa::restore(cpa_core::engine::Checkpoint::from_json(&json).unwrap());
//! assert_eq!(restored.unwrap().predict_all(), engine.predict_all());
//! ```

use crate::config::CpaConfig;
use crate::gibbs::{fit_gibbs, GibbsSchedule};
use crate::inference::run_batch_vi;
use crate::params::VariationalParams;
use crate::predict::Predictor;
use crate::truth::{estimate_truth, KnownLabels, TruthEstimate};
use cpa_data::answers::AnswerMatrix;
use cpa_data::labels::LabelSet;
use cpa_data::stream::{MemorySource, WorkerBatch};
use cpa_math::rng::seeded;
use serde::{Deserialize, Serialize};

/// Format version written into every [`Checkpoint`]. Bump on any
/// incompatible change to the checkpoint payload.
///
/// History: v1 — initial format; v2 — [`EngineState::Baseline`] gained the
/// explicit `method` tag so a retagged baseline checkpoint cannot restore as
/// a different aggregator whose configuration happens to decode; v3 — the
/// [`CpaConfig`] inside the CPA payloads lost its `threads` field: the
/// parallel width belongs to the caller, so a checkpoint carries no thread
/// count and a restore sizes no pool.
pub const CHECKPOINT_VERSION: u32 = 3;

/// A crowd-consensus inference engine: ingests worker batches, maintains (or
/// recomputes) a posterior, predicts consensus label sets, and snapshots to a
/// durable [`Checkpoint`]. See the module docs for the incremental-vs-batch
/// contract.
pub trait Engine {
    /// Stable display/dispatch name ("CPA-SVI", "CPA", "Gibbs", "MV", ...).
    /// This is also the [`Checkpoint::engine`] tag.
    fn name(&self) -> &'static str;

    /// Absorbs one worker batch: copies the batch workers' answers out of
    /// `answers` into the engine's seen set, and — for incremental engines —
    /// performs the corresponding posterior update.
    fn ingest(&mut self, answers: &AnswerMatrix, batch: &WorkerBatch);

    /// Recomputes whatever model state is not maintained incrementally from
    /// the answers seen so far. No-op for incremental engines.
    fn refit(&mut self);

    /// Consensus label sets for every item, from the current model state
    /// (the last `refit` for batch engines).
    fn predict_all(&self) -> Vec<LabelSet>;

    /// The current soft-truth estimate (degenerate — predictions at weight 1
    /// — for methods without a probabilistic truth model).
    fn estimate(&self) -> TruthEstimate;

    /// The answers absorbed so far.
    fn seen_answers(&self) -> &AnswerMatrix;

    /// Captures the engine as a durable, versioned checkpoint.
    fn snapshot(&self) -> Checkpoint;

    /// Rebuilds an engine from a checkpoint. Restore-then-continue is
    /// bit-identical to never pausing.
    ///
    /// # Errors
    /// Fails on a version or engine-tag mismatch, or an internally
    /// inconsistent payload.
    fn restore(checkpoint: Checkpoint) -> Result<Self, CheckpointError>
    where
        Self: Sized;
}

/// Pulls every batch out of `source` through [`Engine::ingest`], then
/// [`Engine::refit`]s once — the canonical way to run any engine to
/// completion over a batch source.
pub fn drive(engine: &mut dyn Engine, source: &mut MemorySource) {
    while let Some(batch) = source.next_batch() {
        engine.ingest(source.answers(), &batch);
    }
    engine.refit();
}

/// An engine as a value a serving layer can own, move across threads, and
/// read from several threads at once (prediction fans out per shard). Every
/// engine in this workspace is plain owned data (plus interior-mutex
/// scratch), so the `Send + Sync` bounds cost nothing.
pub type DynEngine = Box<dyn Engine + Send + Sync>;

/// The engine-construction hook for restore-by-tag: rebuilds *any* engine
/// from a checkpoint, dispatching on [`Checkpoint::engine`].
///
/// `cpa-core` cannot name the full engine roster (the baselines live
/// downstream), so consumers that restore heterogeneous checkpoints — the
/// `cpa-serve` fleet manifest, the eval layer — take one of these instead.
/// `cpa-eval`'s `restore_engine` is the canonical implementation covering
/// every `Method`.
///
/// # Errors
/// Implementations fail on an unknown tag, a version mismatch, or an
/// inconsistent payload.
pub type RestoreFn = fn(Checkpoint) -> Result<DynEngine, CheckpointError>;

/// A durable capture of one engine: format version, engine tag, the seen
/// answers, and the engine-specific state (parameters + step counters).
/// Serializes to JSON via [`Checkpoint::to_json`] / [`Checkpoint::from_json`];
/// see `shims/README.md` for the on-disk format notes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// The [`Engine::name`] tag of the engine that wrote this checkpoint.
    pub engine: String,
    /// Every answer the engine had absorbed.
    pub seen: AnswerMatrix,
    /// Engine-specific parameters and counters.
    pub state: EngineState,
}

impl Checkpoint {
    /// Serializes the checkpoint as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialises")
    }

    /// Parses a checkpoint from JSON, rejecting unknown format versions.
    ///
    /// The version field is checked *before* the payload is decoded, so a
    /// checkpoint written by an incompatible future version reports
    /// [`CheckpointError::Version`] — not a payload parse error that would
    /// be indistinguishable from file corruption.
    ///
    /// # Errors
    /// Fails on malformed JSON or a version mismatch.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let version = cpa_data::io::json_version(text)
            .map_err(|e| CheckpointError::Json(e.to_string()))?
            .ok_or_else(|| CheckpointError::Json("missing `version` field".into()))?;
        if version != u64::from(CHECKPOINT_VERSION) {
            return Err(CheckpointError::Version {
                found: version.try_into().unwrap_or(u32::MAX),
                expected: CHECKPOINT_VERSION,
            });
        }
        serde_json::from_str(text).map_err(|e| CheckpointError::Json(e.to_string()))
    }

    /// Verifies the engine tag matches `expected`, as every
    /// [`Engine::restore`] implementation must.
    pub fn expect_engine(&self, expected: &str) -> Result<(), CheckpointError> {
        if self.engine == expected {
            Ok(())
        } else {
            Err(CheckpointError::EngineMismatch {
                found: self.engine.clone(),
                expected: expected.to_string(),
            })
        }
    }
}

/// Engine-specific checkpoint payload, tagged by engine family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum EngineState {
    /// [`crate::OnlineCpa`]: the full variational posterior plus the batch
    /// counter the learning-rate schedule depends on.
    OnlineCpa {
        /// Model configuration (includes the seed).
        cfg: CpaConfig,
        /// The schedule's forgetting rate `r`.
        forgetting_rate: f64,
        /// Batches absorbed so far (drives `ω_b = (1+b)^{−r}`).
        batch_count: usize,
        /// The variational posterior.
        params: VariationalParams,
        /// Known true labels (test questions), if any.
        known: KnownLabels,
    },
    /// [`BatchCpa`]: configuration plus the last refit's posterior (`None`
    /// if the engine was never refit).
    BatchCpa {
        /// Model configuration.
        cfg: CpaConfig,
        /// Known true labels (test questions), if any.
        known: KnownLabels,
        /// Posterior of the last `refit`, if one happened.
        fitted: Option<VariationalParams>,
    },
    /// [`GibbsCpa`]: configuration, sweep schedule, and the last refit's
    /// posterior summary.
    GibbsCpa {
        /// Model configuration.
        cfg: CpaConfig,
        /// Sweep/burn-in schedule.
        schedule: GibbsSchedule,
        /// Posterior summary of the last `refit`, if one happened.
        fitted: Option<VariationalParams>,
    },
    /// A `cpa-baselines` aggregator: deterministic given the seen answers
    /// and its configuration, so only the serialized aggregator and whether
    /// it had been refit need capturing.
    Baseline {
        /// The aggregator's method tag, duplicated from [`Checkpoint::engine`]
        /// so a checkpoint whose outer tag was edited cannot restore as a
        /// different aggregator whose configuration happens to decode (two
        /// baselines can share a config shape).
        method: String,
        /// The aggregator's own serialized configuration (thresholds,
        /// iteration caps, ...), restored verbatim.
        config: serde::Value,
        /// Whether predictions had been computed (refit runs on restore).
        fitted: bool,
    },
}

/// Why a checkpoint could not be parsed or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint was written by an incompatible format version.
    Version {
        /// Version found in the document.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The checkpoint belongs to a different engine.
    EngineMismatch {
        /// Tag found in the document.
        found: String,
        /// Tag the restoring engine expected.
        expected: String,
    },
    /// The document could not be parsed into a checkpoint.
    Json(String),
    /// The payload is internally inconsistent (e.g. parameter dimensions
    /// disagreeing with the seen matrix).
    Invalid(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Version { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} (this build reads {expected})"
                )
            }
            CheckpointError::EngineMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint is for engine `{found}`, expected `{expected}`"
                )
            }
            CheckpointError::Json(msg) => write!(f, "malformed checkpoint JSON: {msg}"),
            CheckpointError::Invalid(msg) => write!(f, "inconsistent checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Validates a restored configuration without panicking — restore must turn
/// the constructor invariants into [`CheckpointError::Invalid`], not a later
/// panic deep inside `refit`.
pub(crate) fn check_config(cfg: &CpaConfig) -> Result<(), CheckpointError> {
    match cfg.validation_error() {
        None => Ok(()),
        Some(msg) => Err(CheckpointError::Invalid(format!(
            "bad configuration: {msg}"
        ))),
    }
}

/// Validates a restored posterior: its dimensions against the seen matrix,
/// then everything [`VariationalParams::validation_error`] checks against
/// `cfg` — so a malformed checkpoint is refused here rather than panicking
/// the first kernel that indexes into it.
pub(crate) fn check_params(
    params: &VariationalParams,
    cfg: &CpaConfig,
    seen: &AnswerMatrix,
) -> Result<(), CheckpointError> {
    if !params.shape_matches(seen) {
        return Err(CheckpointError::Invalid(format!(
            "parameters are {}×{} over {} labels, seen matrix is {}×{} over {}",
            params.num_items,
            params.num_workers,
            params.num_labels,
            seen.num_items(),
            seen.num_workers(),
            seen.num_labels()
        )));
    }
    match params.validation_error(cfg) {
        None => Ok(()),
        Some(msg) => Err(CheckpointError::Invalid(format!("bad parameters: {msg}"))),
    }
}

/// A neutral estimate for engines that have not fit anything yet: empty soft
/// labels, unit worker weights.
pub fn neutral_estimate(num_items: usize, num_workers: usize) -> TruthEstimate {
    TruthEstimate {
        soft: vec![Vec::new(); num_items],
        expected_size: vec![0.0; num_items],
        worker_weight: vec![1.0; num_workers],
        community_reliability: Vec::new(),
    }
}

/// Batch variational inference (Algorithm 1) as an [`Engine`]: `ingest`
/// accumulates answers, `refit` reruns `run_batch_vi` from a fresh
/// seed-derived initialisation over everything seen — so the fit after any
/// ingest/refit/snapshot/restore interleaving equals `CpaModel::fit` on the
/// same answers.
#[derive(Debug)]
pub struct BatchCpa {
    cfg: CpaConfig,
    seen: AnswerMatrix,
    known: KnownLabels,
    fitted: Option<(VariationalParams, TruthEstimate)>,
}

impl BatchCpa {
    /// Creates an engine for a population of `num_items × num_workers` over
    /// `num_labels` labels.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CpaConfig, num_items: usize, num_workers: usize, num_labels: usize) -> Self {
        cfg.validate();
        Self {
            cfg,
            seen: AnswerMatrix::new(num_items, num_workers, num_labels),
            known: KnownLabels::none(num_items),
            fitted: None,
        }
    }

    /// Registers known true labels (test questions) for subsequent refits.
    pub fn set_known(&mut self, known: KnownLabels) {
        assert_eq!(known.len(), self.seen.num_items());
        self.known = known;
        self.fitted = None;
    }

    /// The posterior of the last refit, if any.
    pub fn params(&self) -> Option<&VariationalParams> {
        self.fitted.as_ref().map(|(p, _)| p)
    }
}

impl Engine for BatchCpa {
    fn name(&self) -> &'static str {
        "CPA"
    }

    fn ingest(&mut self, answers: &AnswerMatrix, batch: &WorkerBatch) {
        self.seen.extend_from_workers(answers, &batch.workers);
        self.fitted = None;
    }

    fn refit(&mut self) {
        let mut rng = seeded(self.cfg.seed);
        let mut params = VariationalParams::init(
            &self.cfg,
            self.seen.num_items(),
            self.seen.num_workers(),
            self.seen.num_labels(),
            &mut rng,
        );
        let (_, estimate) = run_batch_vi(&self.cfg, &mut params, &self.seen, &self.known);
        self.fitted = Some((params, estimate));
    }

    fn predict_all(&self) -> Vec<LabelSet> {
        match &self.fitted {
            Some((params, estimate)) => {
                Predictor::new(params, estimate, self.cfg.prediction).predict_all(&self.seen)
            }
            None => vec![LabelSet::empty(self.seen.num_labels()); self.seen.num_items()],
        }
    }

    fn estimate(&self) -> TruthEstimate {
        match &self.fitted {
            Some((_, estimate)) => estimate.clone(),
            None => neutral_estimate(self.seen.num_items(), self.seen.num_workers()),
        }
    }

    fn seen_answers(&self) -> &AnswerMatrix {
        &self.seen
    }

    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            engine: self.name().to_string(),
            seen: self.seen.clone(),
            state: EngineState::BatchCpa {
                cfg: self.cfg.clone(),
                known: self.known.clone(),
                fitted: self.fitted.as_ref().map(|(p, _)| p.clone()),
            },
        }
    }

    fn restore(checkpoint: Checkpoint) -> Result<Self, CheckpointError> {
        checkpoint.expect_engine("CPA")?;
        let EngineState::BatchCpa { cfg, known, fitted } = checkpoint.state else {
            return Err(CheckpointError::Invalid(
                "engine tag `CPA` with a non-BatchCpa payload".into(),
            ));
        };
        check_config(&cfg)?;
        if known.len() != checkpoint.seen.num_items() {
            return Err(CheckpointError::Invalid(format!(
                "known-label vector covers {} items, seen matrix {}",
                known.len(),
                checkpoint.seen.num_items()
            )));
        }
        let mut engine = Self {
            cfg,
            seen: checkpoint.seen,
            known,
            fitted: None,
        };
        if let Some(params) = fitted {
            check_params(&params, &engine.cfg, &engine.seen)?;
            // The estimate is a deterministic function of the final
            // parameters and the seen answers, so recomputing it here equals
            // the estimate captured at snapshot time.
            let estimate = estimate_truth(&params, &engine.seen, &engine.known);
            engine.fitted = Some((params, estimate));
        }
        Ok(engine)
    }
}

/// Gibbs sampling as an [`Engine`]: `ingest` accumulates, `refit` reruns the
/// full sweep schedule (RNG re-derived from `cfg.seed`) over everything
/// seen — so a restored engine's next refit is bit-identical to an
/// uninterrupted one.
#[derive(Debug)]
pub struct GibbsCpa {
    cfg: CpaConfig,
    schedule: GibbsSchedule,
    seen: AnswerMatrix,
    fitted: Option<(VariationalParams, TruthEstimate)>,
}

impl GibbsCpa {
    /// Creates an engine for a population of `num_items × num_workers` over
    /// `num_labels` labels with the given sweep schedule.
    ///
    /// # Panics
    /// Panics if the configuration or schedule is invalid.
    pub fn new(
        cfg: CpaConfig,
        schedule: GibbsSchedule,
        num_items: usize,
        num_workers: usize,
        num_labels: usize,
    ) -> Self {
        cfg.validate();
        assert!(
            schedule.burn_in < schedule.sweeps,
            "burn-in must leave at least one retained sweep"
        );
        Self {
            cfg,
            schedule,
            seen: AnswerMatrix::new(num_items, num_workers, num_labels),
            fitted: None,
        }
    }

    /// The posterior summary of the last refit, if any.
    pub fn params(&self) -> Option<&VariationalParams> {
        self.fitted.as_ref().map(|(p, _)| p)
    }
}

impl Engine for GibbsCpa {
    fn name(&self) -> &'static str {
        "Gibbs"
    }

    fn ingest(&mut self, answers: &AnswerMatrix, batch: &WorkerBatch) {
        self.seen.extend_from_workers(answers, &batch.workers);
        self.fitted = None;
    }

    fn refit(&mut self) {
        let fitted = fit_gibbs(&self.cfg, self.schedule, &self.seen);
        self.fitted = Some((fitted.params, fitted.estimate));
    }

    fn predict_all(&self) -> Vec<LabelSet> {
        match &self.fitted {
            Some((params, estimate)) => {
                Predictor::new(params, estimate, self.cfg.prediction).predict_all(&self.seen)
            }
            None => vec![LabelSet::empty(self.seen.num_labels()); self.seen.num_items()],
        }
    }

    fn estimate(&self) -> TruthEstimate {
        match &self.fitted {
            Some((_, estimate)) => estimate.clone(),
            None => neutral_estimate(self.seen.num_items(), self.seen.num_workers()),
        }
    }

    fn seen_answers(&self) -> &AnswerMatrix {
        &self.seen
    }

    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            engine: self.name().to_string(),
            seen: self.seen.clone(),
            state: EngineState::GibbsCpa {
                cfg: self.cfg.clone(),
                schedule: self.schedule,
                fitted: self.fitted.as_ref().map(|(p, _)| p.clone()),
            },
        }
    }

    fn restore(checkpoint: Checkpoint) -> Result<Self, CheckpointError> {
        checkpoint.expect_engine("Gibbs")?;
        let EngineState::GibbsCpa {
            cfg,
            schedule,
            fitted,
        } = checkpoint.state
        else {
            return Err(CheckpointError::Invalid(
                "engine tag `Gibbs` with a non-GibbsCpa payload".into(),
            ));
        };
        check_config(&cfg)?;
        if schedule.burn_in >= schedule.sweeps {
            return Err(CheckpointError::Invalid(format!(
                "burn-in {} leaves no retained sweep of {}",
                schedule.burn_in, schedule.sweeps
            )));
        }
        let mut engine = Self {
            cfg,
            schedule,
            seen: checkpoint.seen,
            fitted: None,
        };
        if let Some(params) = fitted {
            check_params(&params, &engine.cfg, &engine.seen)?;
            let known = KnownLabels::none(engine.seen.num_items());
            let estimate = estimate_truth(&params, &engine.seen, &known);
            engine.fitted = Some((params, estimate));
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_data::profile::DatasetProfile;
    use cpa_data::simulate::simulate;
    use cpa_data::stream::MemorySource;

    fn small() -> cpa_data::simulate::SimulatedDataset {
        simulate(&DatasetProfile::movie().scaled(0.05), 211)
    }

    fn cfg() -> CpaConfig {
        CpaConfig::default().with_truncation(6, 8).with_seed(211)
    }

    #[test]
    fn batch_engine_equals_direct_fit() {
        let sim = small();
        let d = &sim.dataset;
        let mut engine = BatchCpa::new(cfg(), d.num_items(), d.num_workers(), d.num_labels());
        drive(&mut engine, &mut MemorySource::single_batch(&d.answers));
        let direct = crate::model::CpaModel::new(cfg())
            .fit(&d.answers)
            .predict_all(&d.answers);
        assert_eq!(engine.predict_all(), direct);
        assert_eq!(engine.seen_answers().num_answers(), d.answers.num_answers());
    }

    #[test]
    fn gibbs_engine_equals_direct_fit() {
        let sim = small();
        let d = &sim.dataset;
        let schedule = GibbsSchedule {
            sweeps: 15,
            burn_in: 5,
        };
        let mut engine = GibbsCpa::new(
            cfg(),
            schedule,
            d.num_items(),
            d.num_workers(),
            d.num_labels(),
        );
        drive(&mut engine, &mut MemorySource::single_batch(&d.answers));
        let direct = fit_gibbs(&cfg(), schedule, &d.answers).predict_all(&d.answers);
        assert_eq!(engine.predict_all(), direct);
    }

    #[test]
    fn unfitted_batch_engine_predicts_empty() {
        let engine = BatchCpa::new(cfg(), 3, 2, 4);
        let preds = Engine::predict_all(&engine);
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|p| p.is_empty()));
        let est = engine.estimate();
        assert_eq!(est.worker_weight, vec![1.0; 2]);
    }

    #[test]
    fn batch_checkpoint_roundtrips_through_json() {
        let sim = small();
        let d = &sim.dataset;
        let mut engine = BatchCpa::new(cfg(), d.num_items(), d.num_workers(), d.num_labels());
        drive(&mut engine, &mut MemorySource::single_batch(&d.answers));
        let json = engine.snapshot().to_json();
        let restored = BatchCpa::restore(Checkpoint::from_json(&json).unwrap()).unwrap();
        assert_eq!(restored.predict_all(), engine.predict_all());
        // Recomputed estimate equals the captured one exactly.
        let (a, b) = (engine.estimate(), restored.estimate());
        assert_eq!(a.soft, b.soft);
        assert_eq!(a.worker_weight, b.worker_weight);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let engine = BatchCpa::new(cfg(), 2, 2, 2);
        let mut cp = engine.snapshot();
        cp.version = CHECKPOINT_VERSION + 1;
        let err = Checkpoint::from_json(&cp.to_json()).unwrap_err();
        assert!(matches!(err, CheckpointError::Version { .. }), "{err}");
    }

    #[test]
    fn version_is_checked_before_the_payload_is_decoded() {
        // A future-version checkpoint whose payload shape this build cannot
        // parse must still report Version, not a generic JSON error.
        let text = format!(
            "{{\"version\": {}, \"engine\": \"CPA\", \"seen\": 1, \"state\": [\"future\"]}}",
            CHECKPOINT_VERSION + 1
        );
        let err = Checkpoint::from_json(&text).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Version { found, .. } if found == CHECKPOINT_VERSION + 1),
            "{err}"
        );
    }

    #[test]
    fn engine_tag_mismatch_is_rejected() {
        let engine = BatchCpa::new(cfg(), 2, 2, 2);
        let cp = engine.snapshot();
        let err = GibbsCpa::restore(cp).unwrap_err();
        assert!(
            matches!(err, CheckpointError::EngineMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn degenerate_gibbs_schedule_is_rejected_on_restore() {
        // A hand-edited checkpoint must fail with CheckpointError::Invalid,
        // not restore Ok and panic inside the next refit.
        let engine = GibbsCpa::new(cfg(), GibbsSchedule::default(), 2, 2, 2);
        let mut cp = engine.snapshot();
        if let EngineState::GibbsCpa { schedule, .. } = &mut cp.state {
            schedule.burn_in = schedule.sweeps;
        }
        let err = GibbsCpa::restore(cp).unwrap_err();
        assert!(matches!(err, CheckpointError::Invalid(_)), "{err}");
    }

    #[test]
    fn invalid_config_is_rejected_on_restore() {
        let engine = BatchCpa::new(cfg(), 2, 2, 2);
        let mut cp = engine.snapshot();
        if let EngineState::BatchCpa { cfg, .. } = &mut cp.state {
            cfg.alpha = -1.0;
        }
        let err = BatchCpa::restore(cp).unwrap_err();
        assert!(matches!(err, CheckpointError::Invalid(_)), "{err}");
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let sim = small();
        let d = &sim.dataset;
        let mut engine = BatchCpa::new(cfg(), d.num_items(), d.num_workers(), d.num_labels());
        drive(&mut engine, &mut MemorySource::single_batch(&d.answers));
        let mut cp = engine.snapshot();
        cp.seen = AnswerMatrix::new(1, 1, 1);
        let err = BatchCpa::restore(cp).unwrap_err();
        assert!(matches!(err, CheckpointError::Invalid(_)), "{err}");
    }
}
