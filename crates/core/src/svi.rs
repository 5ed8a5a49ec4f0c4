//! Stochastic variational inference for online learning — Algorithm 2.
//!
//! Answers arrive in batches of workers (`U_b` with their items `N_b`). Each
//! [`OnlineCpa::partial_fit`] call
//!
//! 1. runs the MAP phase ([`crate::parallel::map_phase`]) to recompute the
//!    batch workers' `κ_u` (Eq. 2) and their evidence contributions `a_it`
//!    (Eq. 15);
//! 2. REDUCEs the messages into natural-gradient targets for the globals
//!    (Eqs. 9–14), scaling batch statistics up to the full population
//!    (`U/|U_b|` for worker-side, `I/|N_b|` for item-side statistics — the
//!    standard SVI scale-up the paper's per-worker gradients imply);
//! 3. blends `λ, ζ, ρ, υ, µ` with learning rate `ω_b = (1+b)^{−r}`
//!    (Eqs. 18–20) and recovers `ϕ` from the canonical `µ` (Eqs. 16–17).
//!
//! Online prediction (§4.1) reuses the §3.4 instantiation with the current
//! globals — the most recent parameter values summarise all data so far.
//! It also reuses the soft-truth estimate the step computed for its ζ
//! target: ζ is the only parameter the step changes after that point, and
//! ζ is not an input of [`estimate_truth`], so the step's estimate is
//! the current one, bit for bit. The engine owns no thread pool: every step
//! runs at the width the caller installs around it.

use crate::config::CpaConfig;
use crate::parallel::{map_phase, ScratchPool, WorkerMessage};
use crate::params::VariationalParams;
use crate::predict::Predictor;
use crate::truth::{estimate_truth, KnownLabels, TruthEstimate};
use cpa_data::answers::AnswerMatrix;
use cpa_data::labels::LabelSet;
use cpa_data::stream::{learning_rate, WorkerBatch};
use cpa_math::matrix::Mat;
use cpa_math::rng::seeded;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Fixed width of the message chunks the REDUCE-side λ target is assembled
/// from. The chunking does not depend on the width and the partials are
/// merged in chunk order, so every width produces bit-identical results.
const REDUCE_CHUNK: usize = 32;

/// Incremental CPA model for the online setting.
#[derive(Debug)]
pub struct OnlineCpa {
    cfg: CpaConfig,
    forgetting_rate: f64,
    params: VariationalParams,
    /// Answers accumulated from the batches seen so far.
    seen: AnswerMatrix,
    /// Known true labels (empty in the paper's experiments).
    known: KnownLabels,
    batch_count: usize,
    /// Reusable per-thread MAP-phase buffers (steady state allocates none).
    scratch: ScratchPool,
    /// The soft-truth estimate of the current `(params, seen, known)`: set
    /// by every `partial_fit`, and computed on first use after `new`,
    /// `set_known` and `restore`, so construction does no extra work.
    estimate: OnceLock<TruthEstimate>,
}

impl OnlineCpa {
    /// Creates an online model for a population of `num_items × num_workers`
    /// over `num_labels` labels. `forgetting_rate` is the paper's `r`
    /// (must lie in (0.5, 1]; the paper fixes 0.875).
    pub fn new(
        cfg: CpaConfig,
        num_items: usize,
        num_workers: usize,
        num_labels: usize,
        forgetting_rate: f64,
    ) -> Self {
        cfg.validate();
        // Exclusive lower bound, as in `cpa_data::stream::learning_rate`.
        assert!(
            forgetting_rate > 0.5 && forgetting_rate <= 1.0,
            "forgetting rate must lie in (0.5, 1]"
        );
        let mut rng = seeded(cfg.seed);
        let params = VariationalParams::init(&cfg, num_items, num_workers, num_labels, &mut rng);
        Self {
            cfg,
            forgetting_rate,
            params,
            seen: AnswerMatrix::new(num_items, num_workers, num_labels),
            known: KnownLabels::none(num_items),
            batch_count: 0,
            scratch: ScratchPool::new(),
            estimate: OnceLock::new(),
        }
    }

    /// Registers known true labels (test questions) ahead of streaming.
    pub fn set_known(&mut self, known: KnownLabels) {
        assert_eq!(known.len(), self.params.num_items);
        self.known = known;
        self.estimate = OnceLock::new();
    }

    /// Number of batches absorbed so far.
    pub fn batches_seen(&self) -> usize {
        self.batch_count
    }

    /// The answers absorbed so far.
    pub fn seen_answers(&self) -> &AnswerMatrix {
        &self.seen
    }

    /// Borrow the current variational parameters.
    pub fn params(&self) -> &VariationalParams {
        &self.params
    }

    /// Absorbs one batch of workers: copies their answers out of `answers`
    /// and performs one stochastic update (Algorithm 2 body).
    pub fn partial_fit(&mut self, answers: &AnswerMatrix, batch: &WorkerBatch) {
        assert_eq!(answers.num_items(), self.params.num_items);
        assert_eq!(answers.num_workers(), self.params.num_workers);
        // Ingest the batch's answers in one merge pass over the CSR arrays.
        self.seen.extend_from_workers(answers, &batch.workers);
        self.batch_count += 1;
        let omega = learning_rate(self.batch_count, self.forgetting_rate);

        let eln_psi = self.params.expected_log_psi();
        let eln_pi = self.params.rho.expected_log_weights();
        let eln_tau = self.params.upsilon.expected_log_weights();

        // --- MAP phase: local updates + evidence messages ------------------
        let messages = map_phase(
            &self.params,
            &self.seen,
            &eln_psi,
            &eln_pi,
            &batch.workers,
            &self.scratch,
        );
        for msg in &messages {
            self.params
                .kappa
                .row_mut(msg.worker)
                .copy_from_slice(&msg.kappa);
        }

        // --- REDUCE phase: natural-gradient blends -------------------------
        self.reduce_globals(&messages, batch, &eln_tau, omega);
    }

    /// λ target (Eq. 9): `γ0 + scale_u Σ_{u∈Ub} Σ_i ϕ_it κ_um x_iuc`,
    /// assembled from fixed-width message chunks computed in parallel and
    /// merged in chunk order (bit-identical at every width).
    fn lambda_target(&self, messages: &[WorkerMessage], scale_u: f64) -> Mat {
        let p = &self.params;
        let (tt, mm) = (p.t, p.m);
        let partial = |chunk: &[WorkerMessage]| -> Mat {
            let mut acc = Mat::zeros(tt * mm, p.num_labels);
            for msg in chunk {
                for (item, labels) in self.seen.worker_answers(msg.worker) {
                    let i = *item as usize;
                    for t in 0..tt {
                        let phi_it = p.phi.get(i, t);
                        if phi_it <= 1e-12 {
                            continue;
                        }
                        let base = t * mm;
                        for (m, &k) in msg.kappa.iter().enumerate() {
                            let w = scale_u * phi_it * k;
                            if w <= 1e-12 {
                                continue;
                            }
                            for c in labels.iter() {
                                acc.add(base + m, c, w);
                            }
                        }
                    }
                }
            }
            acc
        };
        let partials: Vec<Mat> = messages
            .chunks(REDUCE_CHUNK)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(partial)
            .collect();
        let mut lambda_hat = Mat::filled(tt * mm, p.num_labels, self.cfg.gamma0);
        for part in &partials {
            lambda_hat.scaled_add(1.0, part, 1.0);
        }
        lambda_hat
    }

    /// REDUCE: accumulate messages into natural-gradient targets and blend.
    fn reduce_globals(
        &mut self,
        messages: &[WorkerMessage],
        batch: &WorkerBatch,
        eln_tau: &[f64],
        omega: f64,
    ) {
        let u_total = self.params.num_workers as f64;
        let u_batch = batch.workers.len().max(1) as f64;
        let scale_u = u_total / u_batch;
        let i_total = self.params.num_items as f64;
        let i_batch = batch.items.len().max(1) as f64;
        let scale_i = i_total / i_batch;

        let lambda_hat = self.lambda_target(messages, scale_u);
        let p = &mut self.params;
        let mm = p.m;
        let tt = p.t;
        p.lambda.scaled_add(1.0 - omega, &lambda_hat, omega);

        // ρ target (Eqs. 11–12): 1 + scale_u Σ κ_um ; α + scale_u Σ tails.
        let mut col = vec![0.0; mm];
        for msg in messages {
            for (m, &k) in msg.kappa.iter().enumerate() {
                col[m] += k;
            }
        }
        let mut tail = vec![0.0; mm + 1];
        for m in (0..mm).rev() {
            tail[m] = tail[m + 1] + col[m];
        }
        for m in 0..mm.saturating_sub(1) {
            let (a, b) = p.rho.params[m];
            let a_hat = 1.0 + scale_u * col[m];
            let b_hat = self.cfg.alpha + scale_u * tail[m + 1];
            p.rho.params[m] = (
                (1.0 - omega) * a + omega * a_hat,
                (1.0 - omega) * b + omega * b_hat,
            );
        }

        // µ target (Eq. 15): E[ln τ_t] − E[ln τ_T] + scale_u (A_it − A_iT),
        // then ϕ via softmax (Eqs. 16–17).
        let mut a_acc: std::collections::HashMap<usize, Vec<f64>> =
            std::collections::HashMap::new();
        for msg in messages {
            for (item, a) in &msg.a_contrib {
                let e = a_acc.entry(*item).or_insert_with(|| vec![0.0; tt]);
                for (acc, &v) in e.iter_mut().zip(a) {
                    *acc += v;
                }
            }
        }
        for (&i, a) in &a_acc {
            for t in 0..tt.saturating_sub(1) {
                let mu_hat = eln_tau[t] - eln_tau[tt - 1] + scale_u * (a[t] - a[tt - 1]);
                let old = p.mu.get(i, t);
                p.mu.set(i, t, (1.0 - omega) * old + omega * mu_hat);
            }
        }
        p.refresh_phi_from_mu();

        // υ target (Eqs. 13–14) from the refreshed ϕ of the batch items.
        let mut col = vec![0.0; tt];
        for &i in &batch.items {
            for (t, c) in col.iter_mut().enumerate() {
                *c += p.phi.get(i, t);
            }
        }
        let mut tail = vec![0.0; tt + 1];
        for t in (0..tt).rev() {
            tail[t] = tail[t + 1] + col[t];
        }
        for t in 0..tt.saturating_sub(1) {
            let (a, b) = p.upsilon.params[t];
            let a_hat = 1.0 + scale_i * col[t];
            let b_hat = self.cfg.epsilon + scale_i * tail[t + 1];
            p.upsilon.params[t] = (
                (1.0 - omega) * a + omega * a_hat,
                (1.0 - omega) * b + omega * b_hat,
            );
        }

        // ζ target (Eq. 10) from the current soft-truth estimate restricted
        // to the batch items. Every input of the estimate is final here, so
        // it is kept as the engine's current estimate.
        let estimate = estimate_truth(p, &self.seen, &self.known);
        let mut zeta_hat = Mat::filled(tt, p.num_labels, self.cfg.eta0);
        for &i in &batch.items {
            for &(c, v) in &estimate.soft[i] {
                for t in 0..tt {
                    let phi_it = p.phi.get(i, t);
                    if phi_it > 1e-12 {
                        zeta_hat.add(t, c, scale_i * phi_it * v);
                    }
                }
            }
        }
        p.zeta.scaled_add(1.0 - omega, &zeta_hat, omega);
        self.estimate = OnceLock::from(estimate);
    }

    /// Online prediction (§4.1): instantiate labels for all items from the
    /// current globals and the answers seen so far.
    pub fn predict_all(&self) -> Vec<LabelSet> {
        Predictor::new(&self.params, self.truth_estimate(), self.cfg.prediction)
            .predict_all(&self.seen)
    }

    /// The soft-truth estimate under the current posterior and seen answers.
    pub fn current_estimate(&self) -> TruthEstimate {
        self.truth_estimate().clone()
    }

    /// The retained estimate, computed here if nothing has set it since
    /// the last reset.
    fn truth_estimate(&self) -> &TruthEstimate {
        self.estimate
            .get_or_init(|| estimate_truth(&self.params, &self.seen, &self.known))
    }
}

impl crate::engine::Engine for OnlineCpa {
    fn name(&self) -> &'static str {
        "CPA-SVI"
    }

    /// One stochastic update (Algorithm 2 body) — SVI *is* incremental, so
    /// ingestion and fitting are the same step.
    fn ingest(&mut self, answers: &AnswerMatrix, batch: &WorkerBatch) {
        self.partial_fit(answers, batch);
    }

    /// No-op: the posterior is maintained incrementally by `ingest`.
    fn refit(&mut self) {}

    fn predict_all(&self) -> Vec<LabelSet> {
        OnlineCpa::predict_all(self)
    }

    fn estimate(&self) -> TruthEstimate {
        self.current_estimate()
    }

    fn seen_answers(&self) -> &AnswerMatrix {
        &self.seen
    }

    fn snapshot(&self) -> crate::engine::Checkpoint {
        crate::engine::Checkpoint {
            version: crate::engine::CHECKPOINT_VERSION,
            engine: crate::engine::Engine::name(self).to_string(),
            seen: self.seen.clone(),
            state: crate::engine::EngineState::OnlineCpa {
                cfg: self.cfg.clone(),
                forgetting_rate: self.forgetting_rate,
                batch_count: self.batch_count,
                params: self.params.clone(),
                known: self.known.clone(),
            },
        }
    }

    /// Rebuilds the online model mid-stream. `partial_fit` is a pure
    /// function of `(params, seen, batch_count)` — no RNG is consumed after
    /// initialisation — so continuing from here is bit-identical to never
    /// pausing.
    fn restore(
        checkpoint: crate::engine::Checkpoint,
    ) -> Result<Self, crate::engine::CheckpointError> {
        checkpoint.expect_engine("CPA-SVI")?;
        let crate::engine::EngineState::OnlineCpa {
            cfg,
            forgetting_rate,
            batch_count,
            params,
            known,
        } = checkpoint.state
        else {
            return Err(crate::engine::CheckpointError::Invalid(
                "engine tag `CPA-SVI` with a non-OnlineCpa payload".into(),
            ));
        };
        crate::engine::check_config(&cfg)?;
        crate::engine::check_params(&params, &cfg, &checkpoint.seen)?;
        if known.len() != params.num_items {
            return Err(crate::engine::CheckpointError::Invalid(format!(
                "known-label vector covers {} items, parameters {}",
                known.len(),
                params.num_items
            )));
        }
        if !(forgetting_rate > 0.5 && forgetting_rate <= 1.0) {
            return Err(crate::engine::CheckpointError::Invalid(format!(
                "forgetting rate {forgetting_rate} outside (0.5, 1]"
            )));
        }
        Ok(Self {
            cfg,
            forgetting_rate,
            params,
            seen: checkpoint.seen,
            known,
            batch_count,
            scratch: ScratchPool::new(),
            estimate: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_data::profile::DatasetProfile;
    use cpa_data::simulate::simulate;
    use cpa_data::stream::WorkerStream;
    use cpa_math::simplex::is_probability_vector;

    /// Streams the fixture through an online model with `threads` installed
    /// around every step.
    fn run_online(threads: usize, seed: u64) -> (OnlineCpa, cpa_data::simulate::SimulatedDataset) {
        let sim = simulate(&DatasetProfile::movie().scaled(0.08), seed);
        let cfg = CpaConfig::default().with_truncation(8, 10).with_seed(seed);
        let mut online = OnlineCpa::new(
            cfg,
            sim.dataset.num_items(),
            sim.dataset.num_workers(),
            sim.dataset.num_labels(),
            0.875,
        );
        let mut rng = seeded(seed + 1);
        let stream = WorkerStream::new(&sim.dataset, 10, &mut rng);
        crate::at_width(threads, || {
            for batch in stream.iter() {
                online.partial_fit(&sim.dataset.answers, batch);
            }
        });
        (online, sim)
    }

    #[test]
    fn online_absorbs_all_answers() {
        let (online, sim) = run_online(1, 81);
        assert_eq!(
            online.seen_answers().num_answers(),
            sim.dataset.answers.num_answers()
        );
        assert!(online.batches_seen() > 1);
    }

    #[test]
    fn parameters_stay_valid_through_stream() {
        let (online, _) = run_online(1, 83);
        let p = online.params();
        for u in 0..p.num_workers {
            assert!(is_probability_vector(p.kappa.row(u), 1e-6));
        }
        for i in 0..p.num_items {
            assert!(is_probability_vector(p.phi.row(i), 1e-6));
        }
        for r in 0..p.lambda.rows() {
            assert!(p.lambda.row(r).iter().all(|&x| x > 0.0 && x.is_finite()));
        }
        for &(a, b) in &p.rho.params {
            assert!(a > 0.0 && b > 0.0);
        }
        for &(a, b) in &p.upsilon.params {
            assert!(a > 0.0 && b > 0.0);
        }
    }

    #[test]
    fn online_predictions_beat_chance() {
        let (online, sim) = run_online(1, 85);
        let preds = online.predict_all();
        let mut j = 0.0;
        for (p, t) in preds.iter().zip(&sim.dataset.truth) {
            j += p.jaccard(t);
        }
        j /= preds.len() as f64;
        assert!(j > 0.4, "online jaccard {j}");
    }

    #[test]
    fn online_close_to_offline_quality() {
        // Paper Table 5: online accuracy is a few points below offline.
        let (online, sim) = run_online(1, 87);
        let online_preds = online.predict_all();
        let model =
            crate::model::CpaModel::new(CpaConfig::default().with_truncation(8, 10).with_seed(87));
        let offline_preds = model
            .fit(&sim.dataset.answers)
            .predict_all(&sim.dataset.answers);
        let score = |preds: &[LabelSet]| {
            preds
                .iter()
                .zip(&sim.dataset.truth)
                .map(|(p, t)| p.jaccard(t))
                .sum::<f64>()
                / preds.len() as f64
        };
        let on = score(&online_preds);
        let off = score(&offline_preds);
        assert!(on > off - 0.15, "online {on} too far below offline {off}");
    }

    #[test]
    fn parallel_stream_matches_serial() {
        let (a, _) = run_online(1, 89);
        let (b, _) = run_online(4, 89);
        // Per-worker messages are deterministic; the reduction is ordered by
        // message vector, which map_phase preserves at every width.
        assert_eq!(a.params().kappa.max_abs_diff(&b.params().kappa), 0.0);
        assert_eq!(a.params().lambda.max_abs_diff(&b.params().lambda), 0.0);
    }

    #[test]
    fn intermediate_predictions_available() {
        // Predictions must be usable after every batch (the online setting's
        // raison d'être: intermediate results, §4.1).
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 91);
        let cfg = CpaConfig::default().with_truncation(6, 8);
        let mut online = OnlineCpa::new(
            cfg,
            sim.dataset.num_items(),
            sim.dataset.num_workers(),
            sim.dataset.num_labels(),
            0.875,
        );
        let mut rng = seeded(92);
        let stream = WorkerStream::new(&sim.dataset, 20, &mut rng);
        let mut scores = Vec::new();
        for batch in stream.iter() {
            online.partial_fit(&sim.dataset.answers, batch);
            let preds = online.predict_all();
            let j: f64 = preds
                .iter()
                .zip(&sim.dataset.truth)
                .map(|(p, t)| p.jaccard(t))
                .sum::<f64>()
                / preds.len() as f64;
            scores.push(j);
        }
        // Quality at the end should beat quality after the first batch.
        assert!(
            scores.last().unwrap() >= &(scores[0] - 0.05),
            "quality collapsed: {scores:?}"
        );
    }

    /// Every number of an estimate as bits, with the lengths that delimit
    /// its rows.
    fn estimate_bits(e: &TruthEstimate) -> Vec<u64> {
        let mut bits = Vec::new();
        for row in &e.soft {
            bits.push(row.len() as u64);
            for &(c, v) in row {
                bits.extend([c as u64, v.to_bits()]);
            }
        }
        for v in [&e.expected_size, &e.worker_weight, &e.community_reliability] {
            bits.push(v.len() as u64);
            bits.extend(v.iter().map(|x| x.to_bits()));
        }
        bits
    }

    /// The engine's `estimate()` and `predict_all()` against a from-scratch
    /// estimate and predictor over `params()` and `seen_answers()`.
    fn assert_estimate_is_current(online: &OnlineCpa, when: &str) {
        use crate::engine::Engine;
        let fresh = crate::at_width(1, || {
            estimate_truth(online.params(), online.seen_answers(), &online.known)
        });
        assert_eq!(
            estimate_bits(&Engine::estimate(online)),
            estimate_bits(&fresh),
            "estimate {when}"
        );
        let predictor = Predictor::new(online.params(), &fresh, online.cfg.prediction);
        assert_eq!(
            Engine::predict_all(online),
            predictor.predict_all(online.seen_answers()),
            "predictions {when}"
        );
    }

    #[test]
    fn retained_estimate_tracks_steps_known_labels_and_restore() {
        use crate::engine::Engine;
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 95);
        let d = &sim.dataset;
        for threads in [1, 3] {
            let cfg = CpaConfig::default().with_truncation(6, 8).with_seed(95);
            let mut online =
                OnlineCpa::new(cfg, d.num_items(), d.num_workers(), d.num_labels(), 0.875);
            assert_estimate_is_current(&online, "before any batch");
            let stream = WorkerStream::new(d, 20, &mut seeded(96));
            for (b, batch) in stream.iter().enumerate() {
                crate::at_width(threads, || online.partial_fit(&d.answers, batch));
                assert_estimate_is_current(&online, &format!("after batch {b}, {threads} threads"));
            }
            let known = (0..5).map(|i| (i, d.truth[i].clone()));
            online.set_known(KnownLabels::from_pairs(d.num_items(), known));
            assert_estimate_is_current(&online, "after set_known");
            let restored = OnlineCpa::restore(online.snapshot()).expect("checkpoint restores");
            assert_estimate_is_current(&restored, "after restore");
        }
    }

    #[test]
    #[should_panic(expected = "forgetting rate")]
    fn rejects_bad_forgetting_rate() {
        OnlineCpa::new(CpaConfig::default(), 2, 2, 2, 0.4);
    }
}
