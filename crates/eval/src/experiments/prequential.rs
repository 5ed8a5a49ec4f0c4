//! Prequential (test-then-train) online accuracy — the Fig. 6-style curve
//! generalised to every method behind the [`cpa_core::engine::Engine`]
//! interface.
//!
//! Protocol, per arrival batch: **test first** — predict the incoming
//! batch's items with the model state *before* it has seen that batch — then
//! **train** (`ingest` + `refit`). The per-step score is the mean Jaccard
//! overlap between those blind predictions and the truth of the batch's
//! items. This is the standard prequential evaluation of the streaming
//! literature: every answer is used for testing exactly once, before it is
//! used for training, so the curve measures *online* generalisation rather
//! than in-sample fit.
//!
//! Early steps are hard by construction (an item with no seen answers
//! predicts the empty set), which is exactly the cold-start behaviour the
//! paper's online setting cares about.

use crate::report::{f3, Report};
use crate::runner::{engine_for, EvalConfig, Method};
use cpa_data::dataset::Dataset;
use cpa_data::labels::LabelSet;
use cpa_data::profile::DatasetProfile;
use cpa_data::simulate::simulate;
use cpa_math::stats::mean;

/// Default roster: the voting baseline, the batch engine (refit each step)
/// and the incremental engine — the online-vs-offline comparison of Fig. 6
/// plus the cheapest baseline for context.
pub const DEFAULT_METHODS: [Method; 3] = [Method::Mv, Method::Cpa, Method::CpaSvi];

/// One method's prequential series: per-batch mean Jaccard of the
/// test-then-train predictions, plus the overall mean.
#[derive(Debug, Clone)]
pub struct PrequentialSeries {
    /// The method.
    pub method: Method,
    /// Mean Jaccard on each incoming batch's items, before training on them.
    pub per_batch: Vec<f64>,
    /// Mean over all batches.
    pub overall: f64,
}

/// Runs the prequential protocol for one method over one dataset.
pub fn prequential_series(method: Method, dataset: &Dataset, seed: u64) -> PrequentialSeries {
    let mut source = crate::runner::arrival_source(dataset, seed);
    let mut engine = engine_for(method, dataset, seed);
    let mut per_batch = Vec::new();
    while let Some(batch) = source.next_batch() {
        // Test: blind predictions for the incoming batch's items.
        let preds = engine.predict_all();
        per_batch.push(batch_jaccard(&preds, &dataset.truth, &batch.items));
        // Train: absorb the batch, recompute non-incremental state.
        engine.ingest(source.answers(), &batch);
        engine.refit();
    }
    let overall = mean(&per_batch);
    PrequentialSeries {
        method,
        per_batch,
        overall,
    }
}

/// Mean Jaccard of `preds` vs `truth` restricted to `items`.
fn batch_jaccard(preds: &[LabelSet], truth: &[LabelSet], items: &[usize]) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items
        .iter()
        .map(|&i| preds[i].jaccard(&truth[i]))
        .sum::<f64>()
        / items.len() as f64
}

/// Runs the prequential experiment on the image dataset (the Fig. 6
/// workload) for the configured roster.
pub fn run(cfg: &EvalConfig) -> Report {
    let methods = cfg.methods_or(&DEFAULT_METHODS);
    let profile = DatasetProfile::image().scaled(cfg.scale);
    let dataset = simulate(&profile, cfg.seed).dataset;

    let series: Vec<PrequentialSeries> = methods
        .iter()
        .map(|&m| prequential_series(m, &dataset, cfg.seed))
        .collect();

    let mut cols = vec!["arrival".to_string()];
    for s in &series {
        cols.push(format!("J[{}]", s.method.name()));
    }
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut r = Report::new(
        "prequential",
        "Prequential (test-then-train) accuracy, image dataset: mean Jaccard per incoming batch",
        &col_refs,
    );
    let steps = series.iter().map(|s| s.per_batch.len()).max().unwrap_or(0);
    for step in 0..steps {
        let values: Vec<f64> = series
            .iter()
            .map(|s| s.per_batch.get(step).copied().unwrap_or(0.0))
            .collect();
        r.push_step(format!("{}%", (step + 1) * 100 / steps.max(1)), &values);
    }
    for s in &series {
        r.note(format!(
            "{} overall prequential J = {}",
            s.method.name(),
            f3(s.overall)
        ));
    }
    r.note("each batch is scored before the engine trains on it (test-then-train); batch engines refit after every arrival");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ARRIVAL_STEPS;

    #[test]
    fn prequential_improves_as_data_arrives() {
        let profile = DatasetProfile::movie().scaled(0.05);
        let sim = simulate(&profile, 181);
        let s = prequential_series(Method::Mv, &sim.dataset, 181);
        assert!(!s.per_batch.is_empty() && s.per_batch.len() <= ARRIVAL_STEPS + 1);
        // Later batches benefit from answers already seen on shared items:
        // the tail of the curve should beat the cold-start head.
        let head = s.per_batch[0];
        let tail = s.per_batch[s.per_batch.len() - 1];
        assert!(
            tail >= head - 0.05,
            "prequential curve collapsed: {:?}",
            s.per_batch
        );
        assert!((0.0..=1.0).contains(&s.overall));
    }

    #[test]
    fn online_engine_produces_full_series() {
        let profile = DatasetProfile::movie().scaled(0.05);
        let sim = simulate(&profile, 183);
        let s = prequential_series(Method::CpaSvi, &sim.dataset, 183);
        assert!(!s.per_batch.is_empty());
        assert!(s.per_batch.iter().all(|j| (0.0..=1.0).contains(j)));
    }

    #[test]
    fn report_has_one_row_per_batch_and_notes() {
        let cfg = EvalConfig {
            scale: 0.04,
            reps: 1,
            methods: Some(vec![Method::Mv, Method::CpaSvi]),
            ..EvalConfig::default()
        };
        let r = run(&cfg);
        assert!(!r.rows.is_empty());
        assert_eq!(r.columns.len(), 3);
        assert!(r.columns[2].contains("CPA-SVI"));
        assert!(r.notes.iter().any(|n| n.contains("test-then-train")));
    }
}
