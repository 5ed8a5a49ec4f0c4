//! Prediction: instantiating the deterministic assignment `d : I → 2^Z`
//! (paper §3.4).
//!
//! For an item `i` with answering workers `U_i`, the posterior-predictive
//! score of a candidate label set `y` is
//!
//! ```text
//! p(y, x_Ui | D, P) = Σ_t ϕ_it · Π_{u∈U_i} (Σ_m κ_um p(x_ui | ψ_tm^MAP)) · p(y | φ_t^MAP)
//! ```
//!
//! The `y`-independent factor defines the *cluster responsibility*
//! `r_it ∝ ϕ_it Π_u Σ_m κ_um p(x_ui|ψ_tm^MAP)` (computed in log space); the
//! label set is then decoded from the mixture `Σ_t r_it p(y | φ_t^MAP)`.
//! Two decoding modes are provided (DESIGN.md deviation #3 explains why the
//! paper's bare greedy rule needs a stopping criterion):
//! [`PredictionMode::SizeAdaptive`] (default) and
//! [`PredictionMode::GreedyMultinomial`] (paper-literal greedy).
//! Item instantiations are independent and parallelised over items, as noted
//! at the end of §3.4.
//!
//! # Bit identity of the cached logs
//!
//! [`Predictor::new`] takes `ln(max(ψ^MAP, 1e-12))` once per table entry,
//! and [`Predictor::cluster_responsibility`] takes `ln κ_um` once per
//! answer rather than once per (answer, cluster). Each cached log is the
//! exact value the inline expression would produce, and every sum still
//! runs over the same operands in the same order (labels in set order,
//! communities in index order, answers in CSR order), so responsibilities
//! and predictions are bit-identical to recomputing every log in place —
//! the unit tests compare against that form with `f64::to_bits`.

use crate::config::{CpaConfig, PredictionMode};
use crate::params::VariationalParams;
use crate::truth::TruthEstimate;
use cpa_data::answers::AnswerMatrix;
use cpa_data::labels::LabelSet;
use cpa_math::matrix::Mat;
use cpa_math::simplex::{log_normalize, log_sum_exp};
use rayon::prelude::*;

/// Probabilities are floored here before their log is taken, and `κ`
/// entries at or below it are left out of the community mixture.
const LOG_FLOOR: f64 = 1e-12;

/// Everything prediction needs from a fitted model.
pub struct Predictor<'a> {
    params: &'a VariationalParams,
    estimate: &'a TruthEstimate,
    mode: PredictionMode,
    /// `ln(max(ψ^MAP_tmc, 1e-12))`, row `t·M+m` — the only form in which
    /// prediction reads `ψ^MAP`.
    ln_psi_map: Mat,
    phi_truth_map: Mat,
}

impl<'a> Predictor<'a> {
    /// Builds a predictor (precomputes the log MAP estimate of `ψ` and the
    /// MAP estimate of `φ`).
    pub fn new(
        params: &'a VariationalParams,
        estimate: &'a TruthEstimate,
        mode: PredictionMode,
    ) -> Self {
        let mut ln_psi_map = params.psi_map();
        for x in ln_psi_map.as_mut_slice() {
            *x = x.max(LOG_FLOOR).ln();
        }
        Self {
            params,
            estimate,
            mode,
            ln_psi_map,
            phi_truth_map: params.phi_truth_map(),
        }
    }

    /// Cluster responsibilities `r_i` for one item (log-space normalised).
    pub fn cluster_responsibility(&self, answers: &AnswerMatrix, item: usize) -> Vec<f64> {
        let p = self.params;
        let mut logits: Vec<f64> = (0..p.t)
            .map(|t| p.phi.get(item, t).max(LOG_FLOOR).ln())
            .collect();
        // `(m, ln κ_um)` for the answering worker's communities above the
        // floor, and the per-cluster log-sum-exp operands; both buffers are
        // reused across answers.
        let mut ln_kappa: Vec<(usize, f64)> = Vec::with_capacity(p.m);
        let mut terms: Vec<f64> = Vec::with_capacity(p.m);
        for (worker, labels) in answers.item_answers(item) {
            ln_kappa.clear();
            for (m, &k) in p.kappa.row(*worker as usize).iter().enumerate().take(p.m) {
                if k <= LOG_FLOOR {
                    continue;
                }
                ln_kappa.push((m, k.ln()));
            }
            for (t, logit) in logits.iter_mut().enumerate() {
                // ln Σ_m κ_um p(x|ψ_tm^MAP) via log-sum-exp over communities.
                terms.clear();
                for &(m, ln_k) in &ln_kappa {
                    let ln_psi = self.ln_psi_map.row(p.tm(t, m));
                    let lp: f64 = labels.iter().map(|c| ln_psi[c]).sum();
                    terms.push(ln_k + lp);
                }
                *logit += log_sum_exp(&terms);
            }
        }
        log_normalize(&mut logits);
        logits
    }

    /// Predicts the label set for one item.
    pub fn predict_item(&self, answers: &AnswerMatrix, item: usize) -> LabelSet {
        let c = self.params.num_labels;
        if answers.item_answers(item).is_empty() {
            // No evidence at all: the aggregated answer is empty.
            return LabelSet::empty(c);
        }
        let r = self.cluster_responsibility(answers, item);
        let n_hat = self.estimate.expected_size[item].max(1.0);
        match self.mode {
            PredictionMode::SizeAdaptive => self.decode_size_adaptive(item, &r, n_hat),
            PredictionMode::GreedyMultinomial => self.decode_greedy(&r, n_hat),
        }
    }

    /// Predicts label sets for all items (parallel over items when the
    /// config's thread pool is installed by the caller).
    pub fn predict_all(&self, answers: &AnswerMatrix) -> Vec<LabelSet> {
        (0..self.params.num_items)
            .into_par_iter()
            .map(|i| self.predict_item(answers, i))
            .collect()
    }

    /// `SizeAdaptive`: include label c iff the mixture presence probability
    /// `q_c = Σ_t r_t (1 − (1−φ_tc)^n̂)` exceeds ½, blended with the item's
    /// own reliability-weighted votes (the cluster mixture supplies the
    /// co-occurrence prior, the votes supply item-level evidence).
    fn decode_size_adaptive(&self, item: usize, r: &[f64], n_hat: f64) -> LabelSet {
        let c = self.params.num_labels;
        let mut q = vec![0.0; c];
        for (t, &rt) in r.iter().enumerate() {
            if rt <= 1e-9 {
                continue;
            }
            let phi_row = self.phi_truth_map.row(t);
            for (qc, &p) in q.iter_mut().zip(phi_row) {
                *qc += rt * (1.0 - (1.0 - p.clamp(0.0, 1.0)).powf(n_hat));
            }
        }
        // Blend with per-item weighted votes (soft truth estimate).
        const VOTE_WEIGHT: f64 = 0.5;
        let mut blended = q.clone();
        for b in blended.iter_mut() {
            *b *= 1.0 - VOTE_WEIGHT;
        }
        for &(lbl, v) in &self.estimate.soft[item] {
            blended[lbl] += VOTE_WEIGHT * v;
        }
        // Size-adaptive selection: the reliability-weighted answer size n̂ is
        // itself evidence for how many labels the item carries. Take the top
        // round(n̂) labels provided they clear a confidence floor, plus any
        // label whose blended probability exceeds ½ outright.
        const FLOOR: f64 = 0.3;
        let k = n_hat.round().max(1.0) as usize;
        let mut order: Vec<usize> = (0..c).collect();
        order.sort_unstable_by(|&a, &b| blended[b].partial_cmp(&blended[a]).expect("finite"));
        let mut out = LabelSet::empty(c);
        for (rank, &lbl) in order.iter().enumerate() {
            let b = blended[lbl];
            if b > 0.5 || (rank < k && b >= FLOOR) {
                out.insert(lbl);
            } else if rank >= k {
                break;
            }
        }
        if out.is_empty() {
            // Commit to the best label — aggregated answers are non-empty
            // whenever there is any evidence.
            out.insert(order[0]);
        }
        out
    }

    /// `GreedyMultinomial`: the paper's greedy ascent on
    /// `Σ_t r_t p(y | φ_t^MAP)` with `p(y|φ) = |y|! Π_{c∈y} φ_c`, seeded with
    /// the best single label and capped at `⌈n̂⌉ + 2` labels.
    fn decode_greedy(&self, r: &[f64], n_hat: f64) -> LabelSet {
        let c = self.params.num_labels;
        let tt = r.len();
        let cap = (n_hat.ceil() as usize + 2).min(c);
        // P_t = current per-cluster multinomial factor, starting at |y|=0: 1.
        let mut pt = vec![1.0f64; tt];
        let mut chosen = LabelSet::empty(c);
        let mut n = 0usize;
        loop {
            // Candidate gain for adding label c: S(c) = Σ_t r_t P_t (n+1) φ_tc.
            let mut best: Option<(usize, f64)> = None;
            for lbl in 0..c {
                if chosen.contains(lbl) {
                    continue;
                }
                let mut s = 0.0;
                for (t, &rt) in r.iter().enumerate() {
                    if rt <= 1e-12 {
                        continue;
                    }
                    s += rt * pt[t] * (n as f64 + 1.0) * self.phi_truth_map.get(t, lbl);
                }
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((lbl, s));
                }
            }
            let Some((lbl, gain)) = best else { break };
            let current: f64 = r.iter().zip(&pt).map(|(&rt, &p)| rt * p).sum();
            // Accept the first label unconditionally (p(∅)=1 dominates every
            // singleton under a multinomial pmf — DESIGN.md deviation #3),
            // afterwards only while the paper's score increases.
            if n > 0 && gain <= current {
                break;
            }
            chosen.insert(lbl);
            n += 1;
            for (t, p) in pt.iter_mut().enumerate() {
                *p *= n as f64 * self.phi_truth_map.get(t, lbl);
            }
            if n >= cap {
                break;
            }
        }
        chosen
    }
}

/// Convenience: fit-time helper returning predictions for every item given
/// final parameters and truth estimate.
pub fn predict_all(
    cfg: &CpaConfig,
    params: &VariationalParams,
    estimate: &TruthEstimate,
    answers: &AnswerMatrix,
) -> Vec<LabelSet> {
    let predictor = Predictor::new(params, estimate, cfg.prediction);
    match crate::inference::build_pool(cfg.threads) {
        Some(pool) => pool.install(|| predictor.predict_all(answers)),
        None => predictor.predict_all(answers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::run_batch_vi;
    use crate::truth::KnownLabels;
    use cpa_data::profile::DatasetProfile;
    use cpa_data::simulate::simulate;
    use cpa_math::rng::seeded;
    use cpa_math::simplex::is_probability_vector;

    fn fitted() -> (
        VariationalParams,
        TruthEstimate,
        cpa_data::simulate::SimulatedDataset,
        CpaConfig,
    ) {
        let sim = simulate(&DatasetProfile::movie().scaled(0.08), 23);
        let cfg = CpaConfig::default().with_truncation(8, 10).with_seed(23);
        let mut rng = seeded(cfg.seed);
        let mut params = VariationalParams::init(
            &cfg,
            sim.dataset.num_items(),
            sim.dataset.num_workers(),
            sim.dataset.num_labels(),
            &mut rng,
        );
        let known = KnownLabels::none(sim.dataset.num_items());
        let (_, est) = run_batch_vi(&cfg, &mut params, &sim.dataset.answers, &known);
        (params, est, sim, cfg)
    }

    /// The responsibility kernel with every log taken inline, once per
    /// (answer, cluster, community, label): the reference the cached-log
    /// kernel must match bit for bit.
    fn reference_cluster_responsibility(
        params: &VariationalParams,
        answers: &AnswerMatrix,
        item: usize,
    ) -> Vec<f64> {
        const FLOOR: f64 = 1e-12;
        let psi_map = params.psi_map();
        let mut logits: Vec<f64> = (0..params.t)
            .map(|t| params.phi.get(item, t).max(FLOOR).ln())
            .collect();
        for (worker, labels) in answers.item_answers(item) {
            let kappa_row = params.kappa.row(*worker as usize);
            for (t, logit) in logits.iter_mut().enumerate() {
                let mut terms = Vec::with_capacity(params.m);
                for (m, &k) in kappa_row.iter().enumerate().take(params.m) {
                    if k <= FLOOR {
                        continue;
                    }
                    let psi_row = psi_map.row(params.tm(t, m));
                    let lp: f64 = labels.iter().map(|c| psi_row[c].max(FLOOR).ln()).sum();
                    terms.push(k.ln() + lp);
                }
                *logit += log_sum_exp(&terms);
            }
        }
        log_normalize(&mut logits);
        logits
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn cached_logs_match_the_inline_reference_bit_for_bit() {
        let (mut params, est, sim, cfg) = fitted();
        let answers = &sim.dataset.answers;
        // One answering worker's κ row gets entries below, at and just
        // above the floor: the first two must drop out of the mixture.
        let worker = (0..answers.num_items())
            .find_map(|i| answers.item_answers(i).first().map(|(w, _)| *w as usize))
            .expect("some item has answers");
        let row = params.kappa.row_mut(worker);
        row[0] = 0.0;
        row[1] = 1e-12;
        row[2] = 2e-12;
        let predictor = Predictor::new(&params, &est, cfg.prediction);
        for i in 0..answers.num_items() {
            assert_eq!(
                bits(&predictor.cluster_responsibility(answers, i)),
                bits(&reference_cluster_responsibility(&params, answers, i)),
                "item {i}"
            );
        }
    }

    #[test]
    fn responsibilities_are_simplex() {
        let (params, est, sim, cfg) = fitted();
        let p = Predictor::new(&params, &est, cfg.prediction);
        for i in 0..sim.dataset.num_items().min(20) {
            let r = p.cluster_responsibility(&sim.dataset.answers, i);
            assert!(is_probability_vector(&r, 1e-9));
        }
    }

    #[test]
    fn predictions_beat_chance_substantially() {
        let (params, est, sim, cfg) = fitted();
        let preds = predict_all(&cfg, &params, &est, &sim.dataset.answers);
        let mut jaccard = 0.0;
        for (pred, truth) in preds.iter().zip(&sim.dataset.truth) {
            jaccard += pred.jaccard(truth);
        }
        jaccard /= preds.len() as f64;
        assert!(jaccard > 0.45, "mean jaccard {jaccard}");
    }

    #[test]
    fn both_modes_nonempty_and_bounded() {
        let (params, est, sim, _) = fitted();
        for mode in [
            PredictionMode::SizeAdaptive,
            PredictionMode::GreedyMultinomial,
        ] {
            let p = Predictor::new(&params, &est, mode);
            for i in 0..sim.dataset.num_items() {
                let y = p.predict_item(&sim.dataset.answers, i);
                assert!(!y.is_empty(), "mode {mode:?} produced empty set");
                assert!(y.len() <= sim.dataset.num_labels());
            }
        }
    }

    #[test]
    fn greedy_respects_cap() {
        let (params, est, sim, _) = fitted();
        let p = Predictor::new(&params, &est, PredictionMode::GreedyMultinomial);
        for i in 0..sim.dataset.num_items() {
            let y = p.predict_item(&sim.dataset.answers, i);
            let cap = est.expected_size[i].max(1.0).ceil() as usize + 2;
            assert!(y.len() <= cap, "item {i}: {} > {cap}", y.len());
        }
    }

    #[test]
    fn unanswered_item_predicts_empty() {
        let (params, est, sim, cfg) = fitted();
        let mut answers = sim.dataset.answers.clone();
        let victims: Vec<u32> = answers.item_answers(0).iter().map(|(w, _)| *w).collect();
        for w in victims {
            answers.remove(0, w as usize);
        }
        let p = Predictor::new(&params, &est, cfg.prediction);
        assert!(p.predict_item(&answers, 0).is_empty());
    }

    #[test]
    fn prediction_is_deterministic() {
        let (params, est, sim, cfg) = fitted();
        let a = predict_all(&cfg, &params, &est, &sim.dataset.answers);
        let b = predict_all(&cfg, &params, &est, &sim.dataset.answers);
        assert_eq!(a, b);
    }
}
