//! Batch variational inference — the paper's Algorithm 1.
//!
//! Coordinate ascent on the ELBO: local updates for the worker-community
//! responsibilities `κ` (Eq. 2) and item-cluster responsibilities `ϕ`
//! (Eq. 3, with the `x`-term restored — DESIGN.md deviation #1), then global
//! updates for the sticks `ρ`, `υ` (Eqs. 4–5) and the Dirichlet blocks `λ`,
//! `ζ` (Eqs. 6–7), iterated to convergence (largest parameter change below
//! `tol`, as in §5.3).
//!
//! The independent per-worker and per-item local updates run in parallel at
//! the width the caller installs, the intra-iteration parallelism the paper
//! notes below Algorithm 1; every width gives bit-identical rows.

use crate::config::CpaConfig;
use crate::params::VariationalParams;
use crate::truth::{estimate_truth, update_zeta, KnownLabels, TruthEstimate};
use cpa_data::answers::AnswerMatrix;
use cpa_math::matrix::Mat;
use cpa_math::simplex::log_normalize;
use rayon::prelude::*;

/// Outcome of a batch VI run.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the `tol` criterion was met before `max_iters`.
    pub converged: bool,
    /// Largest parameter change in the final iteration.
    pub final_delta: f64,
    /// Per-iteration largest parameter change (length = `iterations`).
    pub delta_trace: Vec<f64>,
}

/// Runs Algorithm 1 to convergence, mutating `params` in place. Returns the
/// final truth estimate alongside the fit report (prediction consumes both).
pub fn run_batch_vi(
    cfg: &CpaConfig,
    params: &mut VariationalParams,
    answers: &AnswerMatrix,
    known: &KnownLabels,
) -> (FitReport, TruthEstimate) {
    cfg.validate();
    assert_eq!(params.num_items, answers.num_items(), "item count mismatch");
    assert_eq!(
        params.num_workers,
        answers.num_workers(),
        "worker count mismatch"
    );
    assert_eq!(
        params.num_labels,
        answers.num_labels(),
        "label count mismatch"
    );
    assert_eq!(
        known.len(),
        answers.num_items(),
        "known-label vector mismatch"
    );

    let mut delta_trace = Vec::with_capacity(cfg.max_iters);
    let mut converged = false;
    let mut estimate = estimate_truth(params, answers, known);
    let mut iterations = 0;

    for _ in 0..cfg.max_iters {
        iterations += 1;
        let kappa_before = params.kappa.clone();
        let phi_before = params.phi.clone();

        let eln_psi = params.expected_log_psi();
        let eln_pi = params.rho.expected_log_weights();
        let eln_tau = params.upsilon.expected_log_weights();
        let eln_phi_truth = params.expected_log_phi_truth();

        // --- Local updates (Eq. 2 / Eq. 3) -------------------------------
        update_kappa(params, answers, &eln_psi, &eln_pi);
        update_phi(params, answers, &eln_psi, &eln_tau, &eln_phi_truth, known);

        // --- Global updates (Eqs. 4–7) ------------------------------------
        update_sticks(params, cfg);
        update_lambda(params, answers, cfg.gamma0);
        if cfg.estimate_truth || !known.is_empty() {
            estimate = estimate_truth(params, answers, known);
            update_zeta(params, &estimate, cfg.eta0);
        }

        let delta = params
            .kappa
            .max_abs_diff(&kappa_before)
            .max(params.phi.max_abs_diff(&phi_before));
        delta_trace.push(delta);
        if delta < cfg.tol {
            converged = true;
            break;
        }
    }
    // Keep µ consistent for any SVI continuation.
    params.mu = crate::params::phi_to_mu(&params.phi);

    let final_delta = delta_trace.last().copied().unwrap_or(0.0);
    (
        FitReport {
            iterations,
            converged,
            final_delta,
            delta_trace,
        },
        estimate,
    )
}

/// The log-evidence contribution `Σ_{c∈x} E[ln ψ_tmc]` of one answer for one
/// (cluster, community) cell.
#[inline]
fn answer_score(eln_psi: &Mat, row: usize, labels: &cpa_data::labels::LabelSet) -> f64 {
    let r = eln_psi.row(row);
    labels.iter().map(|c| r[c]).sum()
}

/// Computes the Eq. 2 logits for one worker.
fn kappa_logits(
    params: &VariationalParams,
    answers: &AnswerMatrix,
    eln_psi: &Mat,
    eln_pi: &[f64],
    u: usize,
) -> Vec<f64> {
    let mm = params.m;
    let tt = params.t;
    let mut logits = eln_pi.to_vec();
    for (item, labels) in answers.worker_answers(u) {
        let i = *item as usize;
        let phi_row = params.phi.row(i);
        for (t, &phi_it) in phi_row.iter().enumerate().take(tt) {
            if phi_it <= 1e-12 {
                continue;
            }
            let base = t * mm;
            for (m, logit) in logits.iter_mut().enumerate() {
                *logit += phi_it * answer_score(eln_psi, base + m, labels);
            }
        }
    }
    logits
}

/// Computes the corrected Eq. 3 logits for one item.
fn phi_logits(
    params: &VariationalParams,
    answers: &AnswerMatrix,
    eln_psi: &Mat,
    eln_tau: &[f64],
    eln_phi_truth: &Mat,
    known: &KnownLabels,
    i: usize,
) -> Vec<f64> {
    let mm = params.m;
    let tt = params.t;
    let mut logits = eln_tau.to_vec();
    for (worker, labels) in answers.item_answers(i) {
        let kappa_row = params.kappa.row(*worker as usize);
        for (t, logit) in logits.iter_mut().enumerate() {
            let base = t * mm;
            let mut s = 0.0;
            for (m, &k) in kappa_row.iter().enumerate().take(mm) {
                if k > 1e-12 {
                    s += k * answer_score(eln_psi, base + m, labels);
                }
            }
            *logit += s;
        }
    }
    if let Some(y) = known.get(i) {
        for (t, logit) in logits.iter_mut().enumerate().take(tt) {
            *logit += answer_score(eln_phi_truth, t, y);
        }
    }
    logits
}

/// Eq. 2 for every worker, one parallel task per worker.
fn update_kappa(
    params: &mut VariationalParams,
    answers: &AnswerMatrix,
    eln_psi: &Mat,
    eln_pi: &[f64],
) {
    let rows: Vec<Vec<f64>> = (0..params.num_workers)
        .into_par_iter()
        .map(|u| {
            let mut logits = kappa_logits(params, answers, eln_psi, eln_pi, u);
            log_normalize(&mut logits);
            logits
        })
        .collect();
    for (u, row) in rows.into_iter().enumerate() {
        params.kappa.row_mut(u).copy_from_slice(&row);
    }
}

/// The corrected Eq. 3 for every item, one parallel task per item.
fn update_phi(
    params: &mut VariationalParams,
    answers: &AnswerMatrix,
    eln_psi: &Mat,
    eln_tau: &[f64],
    eln_phi_truth: &Mat,
    known: &KnownLabels,
) {
    let rows: Vec<Vec<f64>> = (0..params.num_items)
        .into_par_iter()
        .map(|i| {
            let mut logits = phi_logits(params, answers, eln_psi, eln_tau, eln_phi_truth, known, i);
            log_normalize(&mut logits);
            logits
        })
        .collect();
    for (i, row) in rows.into_iter().enumerate() {
        params.phi.row_mut(i).copy_from_slice(&row);
    }
}

/// Eqs. 4–5: stick posteriors from the responsibility column sums and tails.
pub(crate) fn update_sticks(params: &mut VariationalParams, cfg: &CpaConfig) {
    let m = params.m;
    let col: Vec<f64> = (0..m).map(|k| params.kappa.col_sum(k)).collect();
    let mut tail = vec![0.0; m + 1];
    for k in (0..m).rev() {
        tail[k] = tail[k + 1] + col[k];
    }
    for k in 0..m.saturating_sub(1) {
        params.rho.params[k] = (1.0 + col[k], cfg.alpha + tail[k + 1]);
    }
    let t = params.t;
    let col: Vec<f64> = (0..t).map(|k| params.phi.col_sum(k)).collect();
    let mut tail = vec![0.0; t + 1];
    for k in (0..t).rev() {
        tail[k] = tail[k + 1] + col[k];
    }
    for k in 0..t.saturating_sub(1) {
        params.upsilon.params[k] = (1.0 + col[k], cfg.epsilon + tail[k + 1]);
    }
}

/// Eq. 6: `λ_tmc = γ_0 + Σ_i ϕ_it Σ_u κ_um x_iuc`. Splits the parameter
/// borrows so the ϕ and κ rows are read in place (no per-row copies in what
/// is an O(answers · T · M) loop).
pub(crate) fn update_lambda(params: &mut VariationalParams, answers: &AnswerMatrix, gamma0: f64) {
    let mm = params.m;
    let tt = params.t;
    let num_items = params.num_items;
    let (lambda, phi, kappa) = (&mut params.lambda, &params.phi, &params.kappa);
    lambda.fill(gamma0);
    for i in 0..num_items {
        let phi_row = phi.row(i);
        for (worker, labels) in answers.item_answers(i) {
            let kappa_row = kappa.row(*worker as usize);
            for (t, &phi_it) in phi_row.iter().enumerate().take(tt) {
                if phi_it <= 1e-12 {
                    continue;
                }
                let base = t * mm;
                for (m, &k) in kappa_row.iter().enumerate().take(mm) {
                    let w = phi_it * k;
                    if w <= 1e-12 {
                        continue;
                    }
                    for c in labels.iter() {
                        lambda.add(base + m, c, w);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_data::labels::LabelSet;
    use cpa_data::profile::DatasetProfile;
    use cpa_data::simulate::simulate;
    use cpa_math::rng::seeded;
    use cpa_math::simplex::is_probability_vector;

    /// Fits the fixture with `threads` installed around the run.
    fn fit_small(threads: usize, seed: u64) -> (VariationalParams, FitReport, TruthEstimate) {
        let sim = simulate(&DatasetProfile::movie().scaled(0.06), seed);
        let cfg = CpaConfig {
            max_iters: 25,
            ..CpaConfig::default()
        }
        .with_truncation(8, 10)
        .with_seed(seed);
        let mut rng = seeded(cfg.seed);
        let mut params = VariationalParams::init(
            &cfg,
            sim.dataset.num_items(),
            sim.dataset.num_workers(),
            sim.dataset.num_labels(),
            &mut rng,
        );
        let known = KnownLabels::none(sim.dataset.num_items());
        let (report, est) = crate::at_width(threads, || {
            run_batch_vi(&cfg, &mut params, &sim.dataset.answers, &known)
        });
        (params, report, est)
    }

    #[test]
    fn vi_converges_and_rows_stay_simplex() {
        let (params, report, _) = fit_small(1, 3);
        assert!(report.iterations >= 2);
        assert!(
            report.converged || report.final_delta < 0.05,
            "delta trace: {:?}",
            report.delta_trace
        );
        for u in 0..params.num_workers {
            assert!(is_probability_vector(params.kappa.row(u), 1e-9));
        }
        for i in 0..params.num_items {
            assert!(is_probability_vector(params.phi.row(i), 1e-9));
        }
    }

    #[test]
    fn delta_trace_trends_down() {
        let (_, report, _) = fit_small(1, 4);
        let first = report.delta_trace[0];
        let last = report.final_delta;
        assert!(last < first, "no progress: {:?}", report.delta_trace);
    }

    #[test]
    fn parallel_matches_serial() {
        let (p1, _, _) = fit_small(1, 5);
        let (p4, _, _) = fit_small(4, 5);
        // Same seed, same updates: every row is computed on its own and
        // every reduction runs in a fixed order, so the widths agree exactly.
        assert_eq!(p1.kappa.max_abs_diff(&p4.kappa), 0.0);
        assert_eq!(p1.phi.max_abs_diff(&p4.phi), 0.0);
        assert_eq!(p1.lambda.max_abs_diff(&p4.lambda), 0.0);
    }

    #[test]
    fn known_labels_pull_zeta() {
        // Semi-supervised: revealing an item's truth should concentrate its
        // cluster's ζ on those labels.
        let sim = simulate(&DatasetProfile::movie().scaled(0.06), 11);
        let cfg = CpaConfig::default().with_truncation(6, 8);
        let mut rng = seeded(1);
        let mut params = VariationalParams::init(
            &cfg,
            sim.dataset.num_items(),
            sim.dataset.num_workers(),
            sim.dataset.num_labels(),
            &mut rng,
        );
        let known = KnownLabels::from_pairs(
            sim.dataset.num_items(),
            (0..sim.dataset.num_items() / 2).map(|i| (i, sim.dataset.truth[i].clone())),
        );
        let (_, est) = run_batch_vi(&cfg, &mut params, &sim.dataset.answers, &known);
        // Estimated soft truths of known items are exact.
        for i in 0..sim.dataset.num_items() / 2 {
            let truth: Vec<usize> = sim.dataset.truth[i].to_vec();
            let soft: Vec<usize> = est.soft[i].iter().map(|&(c, _)| c).collect();
            assert_eq!(truth, soft);
        }
    }

    #[test]
    fn communities_separate_spammers_from_workers() {
        // Workers planted as uniform spammers should concentrate in
        // low-reliability communities.
        let sim = simulate(&DatasetProfile::movie().scaled(0.12), 17);
        let cfg = CpaConfig::default().with_truncation(10, 10);
        let mut rng = seeded(2);
        let mut params = VariationalParams::init(
            &cfg,
            sim.dataset.num_items(),
            sim.dataset.num_workers(),
            sim.dataset.num_labels(),
            &mut rng,
        );
        let known = KnownLabels::none(sim.dataset.num_items());
        let (_, est) = run_batch_vi(&cfg, &mut params, &sim.dataset.answers, &known);
        // Mean inferred weight of reliable workers vs uniform spammers.
        let mut rel_w = (0.0, 0usize);
        let mut spam_w = (0.0, 0usize);
        for (u, t) in sim.worker_types.iter().enumerate() {
            if sim.dataset.answers.worker_answers(u).is_empty() {
                continue;
            }
            match t {
                cpa_data::workers::WorkerType::Reliable => {
                    rel_w.0 += est.worker_weight[u];
                    rel_w.1 += 1;
                }
                cpa_data::workers::WorkerType::UniformSpammer => {
                    spam_w.0 += est.worker_weight[u];
                    spam_w.1 += 1;
                }
                _ => {}
            }
        }
        let rel_mean = rel_w.0 / rel_w.1.max(1) as f64;
        let spam_mean = spam_w.0 / spam_w.1.max(1) as f64;
        assert!(
            rel_mean > 1.5 * spam_mean,
            "reliable {rel_mean} vs spammer {spam_mean}"
        );
    }

    #[test]
    fn single_worker_single_item() {
        let mut ans = AnswerMatrix::new(1, 1, 3);
        ans.insert(0, 0, LabelSet::from_labels(3, [1]));
        let cfg = CpaConfig::default();
        let mut rng = seeded(3);
        let mut params = VariationalParams::init(&cfg, 1, 1, 3, &mut rng);
        let known = KnownLabels::none(1);
        let (report, est) = run_batch_vi(&cfg, &mut params, &ans, &known);
        assert!(report.iterations >= 1);
        assert_eq!(est.soft[0], vec![(1, 1.0)]);
    }

    #[test]
    fn empty_answer_matrix_is_harmless() {
        let ans = AnswerMatrix::new(3, 2, 4);
        let cfg = CpaConfig::default();
        let mut rng = seeded(4);
        let mut params = VariationalParams::init(&cfg, 3, 2, 4, &mut rng);
        let known = KnownLabels::none(3);
        let (report, est) = run_batch_vi(&cfg, &mut params, &ans, &known);
        assert!(report.converged);
        assert!(est.soft.iter().all(|s| s.is_empty()));
    }
}
