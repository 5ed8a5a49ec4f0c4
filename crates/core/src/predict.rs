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
//! `r_it ∝ ϕ_it Π_u Σ_m κ_um p(x_ui|ψ_tm^MAP)` (accumulated as a sum of
//! logs); the label set is then decoded from the mixture
//! `Σ_t r_it p(y | φ_t^MAP)`. Two decoding modes are provided (DESIGN.md
//! deviation #3 explains why the paper's bare greedy rule needs a stopping
//! criterion): [`PredictionMode::SizeAdaptive`] (default) and
//! [`PredictionMode::GreedyMultinomial`] (paper-literal greedy).
//! Item instantiations are independent and parallelised over items, as noted
//! at the end of §3.4.
//!
//! # The linear-space mixture and its log-sum-exp fallback
//!
//! [`Predictor::new`] keeps `max(ψ^MAP_tmc, 1e-12)` in one table laid out
//! `[m][c][t]`, so the entries of one (community, label) pair are a
//! contiguous row over the `T` clusters. For each answer `x` of worker `u`,
//! [`Predictor::cluster_responsibility`] takes every community with
//! `κ_um > 1e-12`, forms `Π_{c∈x} ψ_tmc` for all clusters at once (one row
//! multiply per label, in label order), accumulates
//! `s_t = Σ_m κ_um Π_{c∈x} ψ_tmc` in community order, and adds `ln s_t` to
//! cluster `t`'s logit: one log per (answer, cluster) and no exponentials.
//!
//! Every factor of a term is at least the 1e-12 floor, so
//! `s_t ≥ 1e-12^(|x|+1)`, a normal `f64` for answers of up to 24 labels.
//! From 25 labels on, `s_t` can fall below `f64::MIN_POSITIVE`, where a
//! subnormal or zero sum would lose its relative precision. That
//! (answer, cluster) is then recomputed as the log-sum-exp over communities
//! of `ln κ_um + Σ_{c∈x} ln ψ_tmc`, over the logs of the same floored
//! entries.
//!
//! The two forms round differently, so responsibilities are not
//! bit-identical to the log-sum-exp form. For a normal `s_t`, each of the
//! `|x|` products and `M − 1` additions rounds once, so `ln s_t` is within
//! about `(|x| + M)·u + u·|ln s_t|` of the exact value (`u = 2⁻⁵³`), while
//! the log-sum-exp form's error grows with the magnitude of its summed logs
//! (both error terms: Blanchard, Higham & Higham, "Accurately computing the
//! log-sum-exp and softmax functions", IMA J. Numer. Anal. 2021). Summed
//! over an item's answers, the two forms' responsibilities differ by a few
//! parts in 10¹³ (1.4e-13 at most on the unit-test fixture). The unit tests
//! bound that at 1e-12 for every responsibility above 1e-300 and require
//! predictions identical to a log-sum-exp reference predictor.
//!
//! The size decode needs `(1 − φ_tc)^n̂` per (label, cluster). It is taken
//! as `exp(n̂ · ln(1 − φ_tc))` with the log cached per predictor, which is
//! exactly 1 at `φ_tc = 0` and exactly 0 at `φ_tc = 1`.

use crate::config::PredictionMode;
use crate::params::VariationalParams;
use crate::truth::TruthEstimate;
use cpa_data::answers::AnswerMatrix;
use cpa_data::labels::LabelSet;
use cpa_math::matrix::Mat;
use cpa_math::simplex::{log_normalize, log_sum_exp};
use rayon::prelude::*;

/// Probabilities are floored here, and `κ` entries at or below it are left
/// out of the community mixture.
const PROB_FLOOR: f64 = 1e-12;

/// `ln(1 − clamp(φ, 0, 1))`: the log-probability that one draw from a
/// truth distribution misses a label of probability `φ`. It is `−0.0` at
/// `φ = 0` and `−∞` at `φ = 1`, so `exp(n̂ · ln_miss(φ))` is exactly 1 and
/// exactly 0 there.
fn ln_miss(phi: f64) -> f64 {
    (-phi.clamp(0.0, 1.0)).ln_1p()
}

/// Everything prediction needs from a fitted model.
pub struct Predictor<'a> {
    params: &'a VariationalParams,
    estimate: &'a TruthEstimate,
    mode: PredictionMode,
    /// `max(ψ^MAP_tmc, 1e-12)`, row `m·C+c` over the `T` clusters — the
    /// only form in which prediction reads `ψ^MAP`.
    psi_map: Mat,
    phi_truth_map: Mat,
    /// [`ln_miss`] of every `φ^MAP_tc`, row `t`.
    ln_miss: Mat,
}

impl<'a> Predictor<'a> {
    /// Builds a predictor (precomputes the floored MAP estimate of `ψ`, the
    /// MAP estimate of `φ` and the log of its complement).
    pub fn new(
        params: &'a VariationalParams,
        estimate: &'a TruthEstimate,
        mode: PredictionMode,
    ) -> Self {
        let c = params.num_labels;
        let psi = params.psi_map();
        let psi_map = Mat::from_fn(params.m * c, params.t, |mc, t| {
            psi.get(params.tm(t, mc / c), mc % c).max(PROB_FLOOR)
        });
        let phi_truth_map = params.phi_truth_map();
        let ln_miss = Mat::from_fn(params.t, c, |t, l| ln_miss(phi_truth_map.get(t, l)));
        Self {
            params,
            estimate,
            mode,
            psi_map,
            phi_truth_map,
            ln_miss,
        }
    }

    /// The floored `ψ^MAP_tmc` of community `m` and label `c` over every
    /// cluster `t`.
    #[inline]
    fn psi_row(&self, m: usize, c: usize) -> &[f64] {
        self.psi_map.row(m * self.params.num_labels + c)
    }

    /// Cluster responsibilities `r_i` for one item (log-space normalised).
    pub fn cluster_responsibility(&self, answers: &AnswerMatrix, item: usize) -> Vec<f64> {
        let p = self.params;
        let mut logits: Vec<f64> = (0..p.t)
            .map(|t| p.phi.get(item, t).max(PROB_FLOOR).ln())
            .collect();
        // `s_t` and the running product, both reused across answers.
        let mut mixture = vec![0.0; p.t];
        let mut product = vec![0.0; p.t];
        for (worker, labels) in answers.item_answers(item) {
            let kappa = &p.kappa.row(*worker as usize)[..p.m];
            self.linear_mixture(kappa, labels, &mut mixture, &mut product);
            for (t, (logit, &s)) in logits.iter_mut().zip(&mixture).enumerate() {
                *logit += if s >= f64::MIN_POSITIVE {
                    s.ln()
                } else {
                    self.ln_mixture_by_log_sum_exp(kappa, labels, t)
                };
            }
        }
        log_normalize(&mut logits);
        logits
    }

    /// `s_t = Σ_m κ_um Π_{c∈x} ψ_tmc` for every cluster `t`, over the
    /// communities with `κ_um > 1e-12`, into `mixture`; `product` is
    /// scratch of the same length.
    fn linear_mixture(
        &self,
        kappa: &[f64],
        labels: &LabelSet,
        mixture: &mut [f64],
        product: &mut [f64],
    ) {
        mixture.fill(0.0);
        for (m, &k) in kappa.iter().enumerate() {
            if k <= PROB_FLOOR {
                continue;
            }
            let mut set = labels.iter();
            match set.next() {
                Some(c) => product.copy_from_slice(self.psi_row(m, c)),
                None => product.fill(1.0),
            }
            for c in set {
                for (x, &psi) in product.iter_mut().zip(self.psi_row(m, c)) {
                    *x *= psi;
                }
            }
            for (s, &x) in mixture.iter_mut().zip(&*product) {
                *s += k * x;
            }
        }
    }

    /// `ln Σ_m κ_um Π_{c∈x} ψ_tmc` as a log-sum-exp over the logs of the
    /// same floored entries: the underflow fallback for one (answer,
    /// cluster).
    fn ln_mixture_by_log_sum_exp(&self, kappa: &[f64], labels: &LabelSet, t: usize) -> f64 {
        let terms: Vec<f64> = kappa
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k > PROB_FLOOR)
            .map(|(m, &k)| {
                let lp: f64 = labels.iter().map(|c| self.psi_row(m, c)[t].ln()).sum();
                k.ln() + lp
            })
            .collect();
        log_sum_exp(&terms)
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
            PredictionMode::SizeAdaptive => {
                self.decode_size_adaptive(item, self.presence(&r, n_hat), n_hat)
            }
            PredictionMode::GreedyMultinomial => self.decode_greedy(&r, n_hat),
        }
    }

    /// Predicts label sets for all items, one parallel task per item at the
    /// width the caller installed. Items are independent, so every width
    /// gives the same predictions.
    pub fn predict_all(&self, answers: &AnswerMatrix) -> Vec<LabelSet> {
        (0..self.params.num_items)
            .into_par_iter()
            .map(|i| self.predict_item(answers, i))
            .collect()
    }

    /// The mixture presence probability `q_c = Σ_t r_t (1 − (1−φ_tc)^n̂)`
    /// of every label, over the clusters with `r_t > 1e-9`.
    fn presence(&self, r: &[f64], n_hat: f64) -> Vec<f64> {
        let mut q = vec![0.0; self.params.num_labels];
        for (t, &rt) in r.iter().enumerate() {
            if rt <= 1e-9 {
                continue;
            }
            for (qc, &ln_miss) in q.iter_mut().zip(self.ln_miss.row(t)) {
                *qc += rt * (1.0 - (n_hat * ln_miss).exp());
            }
        }
        q
    }

    /// `SizeAdaptive`: include label c iff its mixture presence probability
    /// `q_c` (see `presence`) exceeds ½, blended with the item's own
    /// reliability-weighted votes (the cluster mixture supplies the
    /// co-occurrence prior, the votes supply item-level evidence).
    fn decode_size_adaptive(&self, item: usize, q: Vec<f64>, n_hat: f64) -> LabelSet {
        let c = self.params.num_labels;
        // Blend with per-item weighted votes (soft truth estimate).
        const VOTE_WEIGHT: f64 = 0.5;
        let mut blended = q;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpaConfig;
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

    /// The log-sum-exp responsibility kernel with every log taken inline,
    /// once per (answer, cluster, community, label): the form the
    /// linear-space kernel replaced.
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

    /// The reference predictor: log-sum-exp responsibilities and the size
    /// decode's `(1−φ)^n̂` by `powf`, with the selection steps shared.
    fn reference_predict_item(
        predictor: &Predictor,
        answers: &AnswerMatrix,
        item: usize,
    ) -> LabelSet {
        let params = predictor.params;
        if answers.item_answers(item).is_empty() {
            return LabelSet::empty(params.num_labels);
        }
        let r = reference_cluster_responsibility(params, answers, item);
        let n_hat = predictor.estimate.expected_size[item].max(1.0);
        match predictor.mode {
            PredictionMode::SizeAdaptive => {
                let phi = params.phi_truth_map();
                let mut q = vec![0.0; params.num_labels];
                for (t, &rt) in r.iter().enumerate() {
                    if rt <= 1e-9 {
                        continue;
                    }
                    for (qc, &p) in q.iter_mut().zip(phi.row(t)) {
                        *qc += rt * (1.0 - (1.0 - p.clamp(0.0, 1.0)).powf(n_hat));
                    }
                }
                predictor.decode_size_adaptive(item, q, n_hat)
            }
            PredictionMode::GreedyMultinomial => predictor.decode_greedy(&r, n_hat),
        }
    }

    /// The bound the linear-space responsibilities keep against the
    /// log-sum-exp reference, relative, on every entry above 1e-300.
    const REL_BOUND: f64 = 1e-12;

    /// Largest relative difference of `got` from `want` over the entries
    /// where either is above 1e-300 (below it `r` is near or past the
    /// subnormal range, where relative precision is lost).
    fn max_rel_diff(got: &[f64], want: &[f64]) -> f64 {
        assert_eq!(got.len(), want.len());
        got.iter()
            .zip(want)
            .filter(|&(&g, &w)| g > 1e-300 || w > 1e-300)
            .map(|(&g, &w)| ((g - w) / w).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn responsibilities_match_the_log_sum_exp_reference_within_the_bound() {
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
        let mut worst: f64 = 0.0;
        for i in 0..answers.num_items() {
            let got = predictor.cluster_responsibility(answers, i);
            let want = reference_cluster_responsibility(&params, answers, i);
            worst = worst.max(max_rel_diff(&got, &want));
        }
        assert!(worst <= REL_BOUND, "largest relative difference {worst:e}");
    }

    #[test]
    fn predictions_equal_the_reference_predictor_in_both_modes() {
        let (params, est, sim, _) = fitted();
        let answers = &sim.dataset.answers;
        for mode in [
            PredictionMode::SizeAdaptive,
            PredictionMode::GreedyMultinomial,
        ] {
            let predictor = Predictor::new(&params, &est, mode);
            for i in 0..answers.num_items() {
                assert_eq!(
                    predictor.predict_item(answers, i),
                    reference_predict_item(&predictor, answers, i),
                    "{mode:?}, item {i}"
                );
            }
        }
    }

    /// Thirty answered labels whose `ψ^MAP` sits at the 1e-12 floor (times
    /// `t + 1` in cluster `t`): every product underflows, so each cluster of
    /// that answer goes through the log-sum-exp fallback.
    #[test]
    fn long_answers_at_the_floor_fall_back_to_log_sum_exp() {
        const LONG: usize = 30;
        let (items, workers, labels) = (4, 2, 40);
        let cfg = CpaConfig::default().with_truncation(2, 4).with_seed(5);
        let mut params =
            VariationalParams::init(&cfg, items, workers, labels, &mut seeded(cfg.seed));
        for t in 0..params.t {
            for m in 0..params.m {
                let row = params.lambda.row_mut(params.tm(t, m));
                for (c, a) in row.iter_mut().enumerate() {
                    // The MAP is `max(λ−1, 1e-10)`, normalised: label 39
                    // holds all but ~1e-10·(t+1)/100 of the mass per label.
                    *a = if c == 39 {
                        1.0 + 100.0 / (t + 1) as f64
                    } else {
                        1.0
                    };
                }
            }
        }
        let long = LabelSet::from_labels(labels, 0..LONG);
        let mut answers = AnswerMatrix::new(items, workers, labels);
        answers.insert(0, 0, long.clone());
        answers.insert(0, 1, LabelSet::from_labels(labels, [0, 39]));
        let est = crate::engine::neutral_estimate(items, workers);
        let predictor = Predictor::new(&params, &est, cfg.prediction);

        let mut mixture = vec![0.0; params.t];
        let mut product = vec![0.0; params.t];
        let kappa = &params.kappa.row(0)[..params.m];
        predictor.linear_mixture(kappa, &long, &mut mixture, &mut product);
        assert!(
            mixture.iter().all(|&s| s < f64::MIN_POSITIVE),
            "the long answer's linear mixture must underflow: {mixture:?}"
        );

        let got = predictor.cluster_responsibility(&answers, 0);
        let want = reference_cluster_responsibility(&params, &answers, 0);
        assert!(got.iter().all(|r| r.is_finite()), "{got:?}");
        assert!(is_probability_vector(&got, 1e-9), "{got:?}");
        // The floors differ by cluster, so the fallback tells the clusters
        // apart instead of leaving them uniform.
        assert!(got[params.t - 1] > 0.99, "{got:?}");
        let diff = max_rel_diff(&got, &want);
        assert!(diff <= REL_BOUND, "largest relative difference {diff:e}");
    }

    #[test]
    fn size_decode_is_exact_at_phi_zero_and_one() {
        let (params, est, _, cfg) = fitted();
        let mut predictor = Predictor::new(&params, &est, cfg.prediction);
        // Cluster 0 draws label 0 with probability 0 and label 1 with
        // probability 1.
        predictor.ln_miss.row_mut(0)[0] = ln_miss(0.0);
        predictor.ln_miss.row_mut(0)[1] = ln_miss(1.0);
        let mut r = vec![0.0; params.t];
        r[0] = 1.0;
        for n_hat in [1.0, 2.5, 7.0] {
            let q = predictor.presence(&r, n_hat);
            assert_eq!(q[0], 0.0, "n̂ = {n_hat}: (1−0)^n̂ must be exactly 1");
            assert_eq!(q[1], 1.0, "n̂ = {n_hat}: (1−1)^n̂ must be exactly 0");
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
        let preds = Predictor::new(&params, &est, cfg.prediction).predict_all(&sim.dataset.answers);
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
        let p = Predictor::new(&params, &est, cfg.prediction);
        let a = p.predict_all(&sim.dataset.answers);
        let b = p.predict_all(&sim.dataset.answers);
        assert_eq!(a, b);
    }
}
