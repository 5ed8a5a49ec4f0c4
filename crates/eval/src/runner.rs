//! Shared experiment machinery: the method roster behind the uniform
//! [`Engine`] interface, repeated runs, and checkpoint dispatch.
//!
//! Every method — the CPA engines and the baseline aggregators — is a value
//! here: [`Method`] names it, [`Method::engine`] instantiates it as a
//! [`DynEngine`] (a `Send` boxed engine a serving fleet can own), [`run_method`]
//! drives it from a
//! [`cpa_data::stream::MemorySource`], and [`restore_engine`] rebuilds any
//! method from its JSON [`Checkpoint`].

use crate::metrics::{evaluate, PrMetrics};
use cpa_baselines::bcc::CommunityBcc;
use cpa_baselines::ds::DawidSkene;
use cpa_baselines::mv::MajorityVoting;
use cpa_baselines::wmv::WeightedMajorityVoting;
use cpa_baselines::{BaselineEngine, IntoEngine};
use cpa_core::engine::{drive, Checkpoint, CheckpointError, DynEngine, Engine};
use cpa_core::gibbs::GibbsSchedule;
use cpa_core::{BatchCpa, CpaConfig, GibbsCpa, OnlineCpa};
use cpa_data::dataset::Dataset;
use cpa_data::labels::LabelSet;
use cpa_data::stream::MemorySource;
use cpa_math::rng::seeded;
use cpa_math::stats::{mean, std_dev};

/// The paper's forgetting rate for the online engine (§5.3: best results for
/// r ∈ [0.85, 0.9]).
pub const FORGETTING_RATE: f64 = 0.875;

/// Arrival steps the online engine streams through in [`run_method`] and the
/// data-arrival experiments (10% worker increments).
pub const ARRIVAL_STEPS: usize = 10;

/// Global evaluation knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Scale factor applied to every dataset profile (1.0 = the paper's
    /// Table 3 sizes).
    pub scale: f64,
    /// Repetitions with shuffled seeds (the paper averages 10 runs for
    /// accuracy tables and 100 for robustness curves; scale down for CI).
    pub reps: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Output directory for JSON reports.
    pub out_dir: std::path::PathBuf,
    /// Pool width of the fleets the serving experiments build (`sharded`,
    /// `served`, `replicated`); see [`EvalConfig::fleet_threads`].
    pub threads: usize,
    /// Method roster override (`repro --methods mv,cpa-svi`). `None` leaves
    /// each experiment its own default roster.
    pub methods: Option<Vec<Method>>,
    /// Shard count for the sharded-serving experiment (`repro --shards K`):
    /// the K of the K-vs-1 comparison.
    pub shards: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            scale: 0.25,
            reps: 3,
            seed: 7,
            out_dir: std::path::PathBuf::from("results"),
            threads: 0,
            methods: None,
            shards: 4,
        }
    }
}

impl EvalConfig {
    /// The pool width of the experiment fleets: `threads`, or one thread
    /// per shard when it is 0.
    pub fn fleet_threads(&self) -> usize {
        if self.threads == 0 {
            self.shards.max(1)
        } else {
            self.threads
        }
    }

    /// The methods to run: the user's `--methods` override if given, the
    /// experiment's `default` roster otherwise.
    pub fn methods_or(&self, default: &[Method]) -> Vec<Method> {
        self.methods.clone().unwrap_or_else(|| default.to_vec())
    }
}

/// Every inference method of the reproduction, batch and online, behind one
/// name. All of them run through `dyn Engine` — see [`Method::engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Majority voting.
    Mv,
    /// Iteratively weighted majority voting.
    Wmv,
    /// Dawid–Skene EM.
    Em,
    /// Community BCC.
    Cbcc,
    /// CPA fit by Gibbs sampling.
    Gibbs,
    /// The CPA model, batch variational inference.
    Cpa,
    /// The CPA model, incremental stochastic variational inference.
    CpaSvi,
}

impl Method {
    /// The paper's accuracy-table roster (Table 4 / Figs. 3–5), in table
    /// order.
    pub const TABLE_ROSTER: [Method; 4] = [Method::Mv, Method::Em, Method::Cbcc, Method::Cpa];

    /// Every method, baselines first, CPA engines last.
    pub fn all() -> [Method; 7] {
        [
            Method::Mv,
            Method::Wmv,
            Method::Em,
            Method::Cbcc,
            Method::Gibbs,
            Method::Cpa,
            Method::CpaSvi,
        ]
    }

    /// Display name; also the engine/checkpoint tag.
    pub fn name(self) -> &'static str {
        match self {
            Method::Mv => "MV",
            Method::Wmv => "wMV",
            Method::Em => "EM",
            Method::Cbcc => "cBCC",
            Method::Gibbs => "Gibbs",
            Method::Cpa => "CPA",
            Method::CpaSvi => "CPA-SVI",
        }
    }

    /// Instantiates this method as an engine for a population of
    /// `num_items × num_workers` over `num_labels` labels.
    pub fn engine(
        self,
        num_items: usize,
        num_workers: usize,
        num_labels: usize,
        seed: u64,
    ) -> DynEngine {
        match self {
            Method::Mv => {
                Box::new(MajorityVoting::new().into_engine(num_items, num_workers, num_labels))
            }
            Method::Wmv => Box::new(WeightedMajorityVoting::new().into_engine(
                num_items,
                num_workers,
                num_labels,
            )),
            Method::Em => {
                Box::new(DawidSkene::new().into_engine(num_items, num_workers, num_labels))
            }
            Method::Cbcc => {
                Box::new(CommunityBcc::new().into_engine(num_items, num_workers, num_labels))
            }
            Method::Gibbs => Box::new(GibbsCpa::new(
                cpa_config(seed),
                GibbsSchedule::default(),
                num_items,
                num_workers,
                num_labels,
            )),
            Method::Cpa => Box::new(BatchCpa::new(
                cpa_config(seed),
                num_items,
                num_workers,
                num_labels,
            )),
            Method::CpaSvi => Box::new(OnlineCpa::new(
                cpa_config(seed),
                num_items,
                num_workers,
                num_labels,
                FORGETTING_RATE,
            )),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    /// Parses a method by (case-insensitive) name, accepting the display
    /// names plus common aliases (`ds`, `bcc`, `svi`, `online`,
    /// `cpa-batch`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "mv" | "majority" => Ok(Method::Mv),
            "wmv" => Ok(Method::Wmv),
            "em" | "ds" | "dawid-skene" => Ok(Method::Em),
            "cbcc" | "bcc" => Ok(Method::Cbcc),
            "gibbs" => Ok(Method::Gibbs),
            "cpa" | "cpa-batch" => Ok(Method::Cpa),
            "cpa-svi" | "svi" | "online" => Ok(Method::CpaSvi),
            other => Err(format!(
                "unknown method `{other}` (known: {})",
                Method::all().map(|m| m.name()).join(", ")
            )),
        }
    }
}

/// A CPA configuration sized for evaluation runs.
pub fn cpa_config(seed: u64) -> CpaConfig {
    CpaConfig::default().with_truncation(15, 20).with_seed(seed)
}

/// Instantiates a method's engine sized for `dataset`.
pub fn engine_for(method: Method, dataset: &Dataset, seed: u64) -> DynEngine {
    method.engine(
        dataset.num_items(),
        dataset.num_workers(),
        dataset.num_labels(),
        seed,
    )
}

/// The paper's data-arrival stream: the dataset's active workers shuffled
/// into [`ARRIVAL_STEPS`] batches (10% increments). Every arrival-style
/// consumer — [`run_method`] for the online engine, the Fig. 6 curve, the
/// prequential series — builds its stream here, so they all replay the
/// byte-identical batch sequence for a given `(dataset, seed)`.
pub fn arrival_source(dataset: &Dataset, seed: u64) -> MemorySource<'_> {
    let active = (0..dataset.num_workers())
        .filter(|&w| !dataset.answers.worker_answers(w).is_empty())
        .count();
    let batch_size = active.div_ceil(ARRIVAL_STEPS).max(1);
    let mut rng = seeded(seed ^ 0xf00d);
    MemorySource::shuffled(dataset, batch_size, &mut rng)
}

/// The batch source [`run_method`] drives a method's engine from: the online
/// engine streams the [`arrival_source`] (it *is* a streaming method); batch
/// engines take everything in one batch, since they only accumulate until
/// `refit`.
pub fn method_source(method: Method, dataset: &Dataset, seed: u64) -> MemorySource<'_> {
    match method {
        Method::CpaSvi => arrival_source(dataset, seed),
        _ => MemorySource::single_batch(&dataset.answers),
    }
}

/// Runs one method on one dataset (unsupervised, as in all paper
/// experiments) through the uniform engine interface, and returns its
/// predictions.
pub fn run_method(method: Method, dataset: &Dataset, seed: u64) -> Vec<LabelSet> {
    let mut engine = engine_for(method, dataset, seed);
    let mut source = method_source(method, dataset, seed);
    drive(engine.as_mut(), &mut source);
    engine.predict_all()
}

/// Rebuilds any method's engine from a checkpoint, dispatching on the
/// checkpoint's engine tag.
///
/// # Errors
/// Fails on an unknown tag, a version mismatch, or an inconsistent payload.
pub fn restore_engine(checkpoint: Checkpoint) -> Result<DynEngine, CheckpointError> {
    match checkpoint.engine.as_str() {
        "MV" => Ok(Box::new(BaselineEngine::<MajorityVoting>::restore(
            checkpoint,
        )?)),
        "wMV" => Ok(Box::new(BaselineEngine::<WeightedMajorityVoting>::restore(
            checkpoint,
        )?)),
        "EM" | "EM+cost" => Ok(Box::new(BaselineEngine::<DawidSkene>::restore(checkpoint)?)),
        "cBCC" => Ok(Box::new(BaselineEngine::<CommunityBcc>::restore(
            checkpoint,
        )?)),
        "BCC" => Ok(Box::new(
            BaselineEngine::<cpa_baselines::bcc::Bcc>::restore(checkpoint)?,
        )),
        "TwoCoin" => Ok(Box::new(
            BaselineEngine::<cpa_baselines::twocoin::TwoCoin>::restore(checkpoint)?,
        )),
        "Gibbs" => Ok(Box::new(GibbsCpa::restore(checkpoint)?)),
        "CPA" => Ok(Box::new(BatchCpa::restore(checkpoint)?)),
        "CPA-SVI" => Ok(Box::new(OnlineCpa::restore(checkpoint)?)),
        other => Err(CheckpointError::Invalid(format!(
            "unknown engine tag `{other}`"
        ))),
    }
}

/// Runs one method and scores it.
pub fn score_method(method: Method, dataset: &Dataset, seed: u64) -> PrMetrics {
    let preds = run_method(method, dataset, seed);
    evaluate(&preds, &dataset.truth)
}

/// Mean ± std of a metric extractor over repeated runs.
pub fn repeat<F: FnMut(u64) -> PrMetrics>(reps: usize, seed: u64, mut f: F) -> RepeatedMetrics {
    let mut ps = Vec::with_capacity(reps);
    let mut rs = Vec::with_capacity(reps);
    for rep in 0..reps.max(1) {
        let m = f(seed.wrapping_add(1000 * rep as u64));
        ps.push(m.precision);
        rs.push(m.recall);
    }
    RepeatedMetrics {
        precision_mean: mean(&ps),
        precision_std: std_dev(&ps),
        recall_mean: mean(&rs),
        recall_std: std_dev(&rs),
    }
}

/// Mean ± std precision/recall over repetitions.
#[derive(Debug, Clone, Copy)]
pub struct RepeatedMetrics {
    /// Mean precision across runs.
    pub precision_mean: f64,
    /// Sample std of precision.
    pub precision_std: f64,
    /// Mean recall across runs.
    pub recall_mean: f64,
    /// Sample std of recall.
    pub recall_std: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_data::profile::DatasetProfile;
    use cpa_data::simulate::simulate;

    #[test]
    fn all_methods_run_on_small_dataset() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 161);
        for m in Method::all() {
            let s = score_method(m, &sim.dataset, 1);
            assert!((0.0..=1.0).contains(&s.precision), "{}: {s:?}", m.name());
            assert!((0.0..=1.0).contains(&s.recall));
        }
    }

    #[test]
    fn cpa_wins_on_correlated_small_dataset() {
        // The headline comparison at miniature scale: CPA ≥ MV.
        let sim = simulate(&DatasetProfile::image().scaled(0.04), 163);
        let mv = score_method(Method::Mv, &sim.dataset, 1);
        let cpa = score_method(Method::Cpa, &sim.dataset, 1);
        assert!(
            cpa.f1 > mv.f1 - 0.02,
            "CPA f1 {} vs MV f1 {}",
            cpa.f1,
            mv.f1
        );
    }

    #[test]
    fn repeat_aggregates() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 167);
        let r = repeat(3, 5, |seed| score_method(Method::Mv, &sim.dataset, seed));
        // MV is deterministic given the dataset: zero variance across seeds
        // (up to the 1-ulp residue of mean() on identical samples).
        assert!(r.precision_std < 1e-12, "std {}", r.precision_std);
        assert!((0.0..=1.0).contains(&r.precision_mean));
    }

    #[test]
    fn method_names_parse_back() {
        for m in Method::all() {
            assert_eq!(m.name().parse::<Method>().unwrap(), m, "{}", m.name());
            // Case-insensitive.
            assert_eq!(m.name().to_ascii_uppercase().parse::<Method>().unwrap(), m);
        }
        assert_eq!("ds".parse::<Method>().unwrap(), Method::Em);
        assert_eq!("online".parse::<Method>().unwrap(), Method::CpaSvi);
        let err = "nope".parse::<Method>().unwrap_err();
        assert!(err.contains("CPA-SVI"), "{err}");
    }

    #[test]
    fn engine_run_matches_direct_cpa_fit() {
        // The engine path must be bit-identical to the pre-refactor direct
        // fit: same seed-derived init, same VI, same prediction machinery.
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 169);
        let direct = cpa_core::CpaModel::new(cpa_config(3))
            .fit(&sim.dataset.answers)
            .predict_all(&sim.dataset.answers);
        assert_eq!(run_method(Method::Cpa, &sim.dataset, 3), direct);
    }

    #[test]
    fn every_method_restores_from_its_own_checkpoint() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 173);
        for m in Method::all() {
            let mut engine = engine_for(m, &sim.dataset, 5);
            let mut source = method_source(m, &sim.dataset, 5);
            drive(engine.as_mut(), &mut source);
            let json = engine.snapshot().to_json();
            let restored = restore_engine(Checkpoint::from_json(&json).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert_eq!(restored.name(), m.name());
            assert_eq!(restored.predict_all(), engine.predict_all(), "{}", m.name());
        }
    }

    #[test]
    fn methods_or_prefers_override() {
        let mut cfg = EvalConfig::default();
        assert_eq!(
            cfg.methods_or(&Method::TABLE_ROSTER),
            Method::TABLE_ROSTER.to_vec()
        );
        cfg.methods = Some(vec![Method::Wmv]);
        assert_eq!(cfg.methods_or(&Method::TABLE_ROSTER), vec![Method::Wmv]);
    }
}
