//! Public model API: configure → fit → predict.

use crate::config::CpaConfig;
use crate::inference::{run_batch_vi, FitReport};
use crate::params::VariationalParams;
use crate::predict;
use crate::truth::{KnownLabels, TruthEstimate};
use cpa_data::answers::AnswerMatrix;
use cpa_data::labels::LabelSet;
use cpa_math::rng::seeded;

/// The CPA model: holds a configuration, produces [`FittedCpa`] instances.
#[derive(Debug, Clone)]
pub struct CpaModel {
    cfg: CpaConfig,
}

impl CpaModel {
    /// Creates a model with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CpaConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &CpaConfig {
        &self.cfg
    }

    /// Fits the model on an answer matrix with no known true labels — the
    /// setting of all of the paper's experiments (`ȳ = ∅`).
    pub fn fit(&self, answers: &AnswerMatrix) -> FittedCpa {
        self.fit_semi_supervised(answers, &KnownLabels::none(answers.num_items()))
    }

    /// Fits with some known true labels (test questions, §3.2). Known items
    /// anchor both the item-cluster responsibilities and the truth
    /// distributions exactly as in the paper's Eqs. 3 and 7.
    pub fn fit_semi_supervised(&self, answers: &AnswerMatrix, known: &KnownLabels) -> FittedCpa {
        let mut rng = seeded(self.cfg.seed);
        let mut params = VariationalParams::init(
            &self.cfg,
            answers.num_items(),
            answers.num_workers(),
            answers.num_labels(),
            &mut rng,
        );
        let (report, estimate) = run_batch_vi(&self.cfg, &mut params, answers, known);
        FittedCpa {
            cfg: self.cfg.clone(),
            params,
            estimate,
            report,
        }
    }
}

/// A fitted CPA model: variational posterior + truth estimate + fit report.
#[derive(Debug, Clone)]
pub struct FittedCpa {
    pub(crate) cfg: CpaConfig,
    pub(crate) params: VariationalParams,
    pub(crate) estimate: TruthEstimate,
    pub(crate) report: FitReport,
}

impl FittedCpa {
    /// Predicts the consensus label set for every item (paper §3.4).
    pub fn predict_all(&self, answers: &AnswerMatrix) -> Vec<LabelSet> {
        predict::Predictor::new(&self.params, &self.estimate, self.cfg.prediction)
            .predict_all(answers)
    }

    /// Predicts one item's consensus label set.
    pub fn predict_item(&self, answers: &AnswerMatrix, item: usize) -> LabelSet {
        let p = predict::Predictor::new(&self.params, &self.estimate, self.cfg.prediction);
        p.predict_item(answers, item)
    }

    /// Hard worker-community assignments (argmax of `κ`).
    pub fn worker_communities(&self) -> Vec<usize> {
        self.params.worker_communities()
    }

    /// Hard item-cluster assignments (argmax of `ϕ`).
    pub fn item_clusters(&self) -> Vec<usize> {
        self.params.item_clusters()
    }

    /// Number of *effective* worker communities: communities holding more
    /// than `threshold` of the posterior worker mass. The nonparametric model
    /// adapts this to the data (paper R4).
    pub fn effective_communities(&self, threshold: f64) -> usize {
        self.params
            .community_mass()
            .iter()
            .filter(|&&p| p > threshold)
            .count()
    }

    /// Number of effective item clusters (same criterion over `ϕ` mass).
    pub fn effective_clusters(&self, threshold: f64) -> usize {
        self.params
            .cluster_mass()
            .iter()
            .filter(|&&p| p > threshold)
            .count()
    }

    /// Per-community informativeness scores (the reliability statistic of
    /// DESIGN.md deviation #2).
    pub fn community_reliability(&self) -> &[f64] {
        &self.estimate.community_reliability
    }

    /// Per-worker reliability weights.
    pub fn worker_weights(&self) -> &[f64] {
        &self.estimate.worker_weight
    }

    /// The fit report (iterations, convergence).
    pub fn report(&self) -> &FitReport {
        &self.report
    }

    /// Borrow the raw variational parameters (diagnostics, ablations).
    pub fn params(&self) -> &VariationalParams {
        &self.params
    }

    /// Borrow the final truth estimate.
    pub fn truth_estimate(&self) -> &TruthEstimate {
        &self.estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_data::profile::DatasetProfile;
    use cpa_data::simulate::simulate;

    #[test]
    fn fit_predict_end_to_end() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.08), 51);
        let model = CpaModel::new(CpaConfig::default().with_truncation(8, 10));
        let fitted = model.fit(&sim.dataset.answers);
        let preds = fitted.predict_all(&sim.dataset.answers);
        assert_eq!(preds.len(), sim.dataset.num_items());
        let mut j = 0.0;
        for (p, t) in preds.iter().zip(&sim.dataset.truth) {
            j += p.jaccard(t);
        }
        j /= preds.len() as f64;
        assert!(j > 0.45, "jaccard {j}");
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 53);
        let model = CpaModel::new(CpaConfig::default().with_seed(99).with_truncation(6, 8));
        let a = model
            .fit(&sim.dataset.answers)
            .predict_all(&sim.dataset.answers);
        let b = model
            .fit(&sim.dataset.answers)
            .predict_all(&sim.dataset.answers);
        assert_eq!(a, b);
    }

    #[test]
    fn effective_structure_is_adaptive() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.08), 57);
        let model = CpaModel::new(CpaConfig::default().with_truncation(15, 20));
        let fitted = model.fit(&sim.dataset.answers);
        let eff_m = fitted.effective_communities(0.02);
        let eff_t = fitted.effective_clusters(0.02);
        // The data was planted with a handful of worker types and label
        // groups; far fewer than the truncation should carry real mass.
        assert!((1..15).contains(&eff_m), "effective communities {eff_m}");
        assert!((1..=20).contains(&eff_t), "effective clusters {eff_t}");
    }

    #[test]
    fn predict_item_matches_predict_all() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 59);
        let model = CpaModel::new(CpaConfig::default().with_truncation(6, 8));
        let fitted = model.fit(&sim.dataset.answers);
        let all = fitted.predict_all(&sim.dataset.answers);
        for i in (0..sim.dataset.num_items()).step_by(7) {
            assert_eq!(all[i], fitted.predict_item(&sim.dataset.answers, i));
        }
    }

    #[test]
    fn semi_supervision_helps_or_ties() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.08), 61);
        let model = CpaModel::new(CpaConfig::default().with_truncation(8, 10));
        let unsup = model.fit(&sim.dataset.answers);
        let known = KnownLabels::from_pairs(
            sim.dataset.num_items(),
            (0..sim.dataset.num_items())
                .step_by(3)
                .map(|i| (i, sim.dataset.truth[i].clone())),
        );
        let semi = model.fit_semi_supervised(&sim.dataset.answers, &known);
        let score = |preds: &[LabelSet]| -> f64 {
            preds
                .iter()
                .zip(&sim.dataset.truth)
                .enumerate()
                .filter(|(i, _)| i % 3 != 0) // only unknown items
                .map(|(_, (p, t))| p.jaccard(t))
                .sum::<f64>()
        };
        let s_unsup = score(&unsup.predict_all(&sim.dataset.answers));
        let s_semi = score(&semi.predict_all(&sim.dataset.answers));
        // Allow a few points of per-item noise; the guard is against a real
        // regression, not seed-level jitter.
        let budget = 0.03 * sim.dataset.num_items() as f64;
        assert!(
            s_semi > s_unsup - budget,
            "supervision hurt badly: {s_unsup} vs {s_semi}"
        );
    }
}
