//! Variational parameter blocks.
//!
//! The mean-field family of paper §3.3:
//!
//! - `q(z_u | κ_u)` — `κ ∈ R^{U×M}`, rows on the simplex;
//! - `q(l_i | ϕ_i)` — `ϕ ∈ R^{I×T}`, rows on the simplex;
//! - `q(ψ_tm | λ_tm)` — `λ ∈ R^{(T·M)×C}` Dirichlet parameters (row `t·M+m`);
//! - `q(φ_t | ζ_t)` — `ζ ∈ R^{T×C}` Dirichlet parameters;
//! - `q(π' | ρ)` — `M−1` Beta stick pairs;
//! - `q(τ' | υ)` — `T−1` Beta stick pairs.

use crate::config::CpaConfig;
use cpa_math::matrix::Mat;
use cpa_math::simplex::normalize_in_place;
use cpa_math::special::digamma;
use cpa_math::stick::StickPosterior;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// All variational parameters of a CPA model instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariationalParams {
    /// Number of workers `U`.
    pub num_workers: usize,
    /// Number of items `I`.
    pub num_items: usize,
    /// Number of labels `C`.
    pub num_labels: usize,
    /// Community truncation `M`.
    pub m: usize,
    /// Cluster truncation `T`.
    pub t: usize,
    /// Worker-community responsibilities `κ` (`U × M`).
    pub kappa: Mat,
    /// Item-cluster responsibilities `ϕ` (`I × T`).
    pub phi: Mat,
    /// Canonical (softmax-logit) parameterisation `µ` of `ϕ` used by SVI
    /// (`I × (T−1)`, last logit pinned to 0; paper Eqs. 15–17).
    pub mu: Mat,
    /// Dirichlet parameters `λ` of the answer distributions (`(T·M) × C`).
    pub lambda: Mat,
    /// Dirichlet parameters `ζ` of the truth distributions (`T × C`).
    pub zeta: Mat,
    /// Beta stick parameters `ρ` for worker communities.
    pub rho: StickPosterior,
    /// Beta stick parameters `υ` for item clusters.
    pub upsilon: StickPosterior,
}

impl VariationalParams {
    /// Random initialisation (paper Algorithm 1 line 1): responsibilities are
    /// jittered-uniform simplex rows (exact symmetry would make all
    /// communities identical and coordinate ascent could never break the
    /// tie), Dirichlet blocks start at their priors with multiplicative
    /// jitter, sticks at their priors.
    pub fn init<R: Rng + ?Sized>(
        cfg: &CpaConfig,
        num_items: usize,
        num_workers: usize,
        num_labels: usize,
        rng: &mut R,
    ) -> Self {
        cfg.validate();
        let (m, t) = truncations(cfg, num_items, num_workers);
        let mut kappa = Mat::from_fn(num_workers, m, |_, _| 1.0 + 0.2 * rng.random::<f64>());
        for u in 0..num_workers {
            normalize_in_place(kappa.row_mut(u));
        }
        let mut phi = Mat::from_fn(num_items, t, |_, _| 1.0 + 0.2 * rng.random::<f64>());
        for i in 0..num_items {
            normalize_in_place(phi.row_mut(i));
        }
        let mu = phi_to_mu(&phi);
        let lambda = Mat::from_fn(t * m, num_labels, |_, _| {
            cfg.gamma0 * (1.0 + 0.1 * rng.random::<f64>())
        });
        let zeta = Mat::from_fn(t, num_labels, |_, _| {
            cfg.eta0 * (1.0 + 0.1 * rng.random::<f64>())
        });
        Self {
            num_workers,
            num_items,
            num_labels,
            m,
            t,
            kappa,
            phi,
            mu,
            lambda,
            zeta,
            rho: StickPosterior::prior(m, cfg.alpha),
            upsilon: StickPosterior::prior(t, cfg.epsilon),
        }
    }

    /// Whether these parameters describe the same `I × U × C` population as
    /// `answers` — the consistency check checkpoint restoration performs.
    pub fn shape_matches(&self, answers: &cpa_data::answers::AnswerMatrix) -> bool {
        self.num_items == answers.num_items()
            && self.num_workers == answers.num_workers()
            && self.num_labels == answers.num_labels()
    }

    /// Why these parameters cannot be a fit of `cfg` at their own `I × U × C`
    /// dimensions, or `None`. Checked: the truncations are `cfg`'s clamped to
    /// the data; `κ` is `U×M`, `ϕ` is `I×T`, `µ` is `I×(T−1)`, `λ` is
    /// `(T·M)×C` and `ζ` is `T×C`, each holding exactly rows × cols entries;
    /// `ρ` has `M−1` sticks and `υ` has `T−1`; every entry is finite, and
    /// every Dirichlet (`λ`, `ζ`) and Beta (`ρ`, `υ`) parameter is positive.
    ///
    /// Deserialization checks none of this, so a restored checkpoint must
    /// pass here before any kernel indexes into it.
    pub fn validation_error(&self, cfg: &CpaConfig) -> Option<String> {
        let (m, t) = truncations(cfg, self.num_items, self.num_workers);
        if (self.m, self.t) != (m, t) {
            return Some(format!(
                "truncations are M={} T={}, the configuration gives M={m} T={t}",
                self.m, self.t
            ));
        }
        let Some(tm) = t.checked_mul(m) else {
            return Some(format!("T·M = {t}·{m} overflows"));
        };
        let blocks = [
            ("κ", &self.kappa, self.num_workers, m, false),
            ("ϕ", &self.phi, self.num_items, t, false),
            ("µ", &self.mu, self.num_items, t.saturating_sub(1), false),
            ("λ", &self.lambda, tm, self.num_labels, true),
            ("ζ", &self.zeta, t, self.num_labels, true),
        ];
        for (name, mat, rows, cols, positive) in blocks {
            if (mat.rows(), mat.cols()) != (rows, cols) {
                return Some(format!(
                    "{name} is {}×{}, expected {rows}×{cols}",
                    mat.rows(),
                    mat.cols()
                ));
            }
            let entries = mat.as_slice();
            if rows.checked_mul(cols) != Some(entries.len()) {
                return Some(format!(
                    "{name} holds {} entries, {rows}×{cols} needs {}",
                    entries.len(),
                    rows.saturating_mul(cols)
                ));
            }
            if let Some(x) = entries
                .iter()
                .find(|x| !x.is_finite() || (positive && **x <= 0.0))
            {
                return Some(format!("{name} has an entry {x} out of range"));
            }
        }
        for (name, sticks, k) in [("ρ", &self.rho, m), ("υ", &self.upsilon, t)] {
            if sticks.components() != k {
                return Some(format!(
                    "{name} has {} sticks, expected {}",
                    sticks.params.len(),
                    k.saturating_sub(1)
                ));
            }
            if let Some(ab) = sticks
                .params
                .iter()
                .find(|(a, b)| !(a.is_finite() && b.is_finite() && *a > 0.0 && *b > 0.0))
            {
                return Some(format!("{name} has a stick {ab:?} out of range"));
            }
        }
        None
    }

    /// Row index of `(cluster t, community m)` in `lambda`.
    #[inline]
    pub fn tm(&self, t: usize, m: usize) -> usize {
        t * self.m + m
    }

    /// `E[ln ψ_tmc] = Ψ(λ_tmc) − Ψ(Σ_c λ_tmc)` for all rows — the quantity
    /// both local updates consume (paper Appendix B).
    pub fn expected_log_psi(&self) -> Mat {
        expected_log_dirichlet_rows(&self.lambda)
    }

    /// `E[ln φ_tc]` for all clusters.
    pub fn expected_log_phi_truth(&self) -> Mat {
        expected_log_dirichlet_rows(&self.zeta)
    }

    /// Posterior mean of `ψ_tm` (row-normalised `λ`).
    pub fn psi_mean(&self) -> Mat {
        let mut m = self.lambda.clone();
        for r in 0..m.rows() {
            normalize_in_place(m.row_mut(r));
        }
        m
    }

    /// MAP estimate (mode) of each `ψ_tm` row, clamped to the simplex
    /// interior as in [`cpa_math::dirichlet::Dirichlet::map_estimate`].
    pub fn psi_map(&self) -> Mat {
        dirichlet_rows_map(&self.lambda)
    }

    /// MAP estimate of each `φ_t` row.
    pub fn phi_truth_map(&self) -> Mat {
        dirichlet_rows_map(&self.zeta)
    }

    /// Hard community assignment per worker (argmax of `κ`).
    pub fn worker_communities(&self) -> Vec<usize> {
        (0..self.num_workers)
            .map(|u| argmax(self.kappa.row(u)))
            .collect()
    }

    /// Hard cluster assignment per item (argmax of `ϕ`).
    pub fn item_clusters(&self) -> Vec<usize> {
        (0..self.num_items)
            .map(|i| argmax(self.phi.row(i)))
            .collect()
    }

    /// Normalised cluster mass `p_t ∝ Σ_i ϕ_it`.
    pub fn cluster_mass(&self) -> Vec<f64> {
        let mut p: Vec<f64> = (0..self.t).map(|t| self.phi.col_sum(t)).collect();
        normalize_in_place(&mut p);
        p
    }

    /// Normalised community mass `p_m ∝ Σ_u κ_um`.
    pub fn community_mass(&self) -> Vec<f64> {
        let mut p: Vec<f64> = (0..self.m).map(|m| self.kappa.col_sum(m)).collect();
        normalize_in_place(&mut p);
        p
    }

    /// Rebuilds `ϕ` from the canonical parameters `µ` (paper Eqs. 16–17):
    /// softmax with the T-th logit pinned at 0.
    pub fn refresh_phi_from_mu(&mut self) {
        for i in 0..self.num_items {
            let mu_row = self.mu.row(i);
            let t = self.t;
            let mut logits = vec![0.0; t];
            logits[..t - 1].copy_from_slice(&mu_row[..t.saturating_sub(1)]);
            cpa_math::simplex::log_normalize(&mut logits);
            self.phi.row_mut(i).copy_from_slice(&logits);
        }
    }
}

/// The community and cluster truncations `(M, T)` of a fit of `cfg` over
/// `num_items × num_workers`: the configured levels, clamped to the data.
fn truncations(cfg: &CpaConfig, num_items: usize, num_workers: usize) -> (usize, usize) {
    (
        cfg.max_communities.min(num_workers.max(1)),
        cfg.max_clusters.min(num_items.max(1)),
    )
}

/// `E[ln θ]` for every Dirichlet row of a parameter matrix.
pub fn expected_log_dirichlet_rows(params: &Mat) -> Mat {
    let mut out = Mat::zeros(params.rows(), params.cols());
    for r in 0..params.rows() {
        let row = params.row(r);
        let d0 = digamma(row.iter().sum());
        let orow = out.row_mut(r);
        for (o, &a) in orow.iter_mut().zip(row) {
            *o = digamma(a) - d0;
        }
    }
    out
}

/// Row-wise Dirichlet MAP with the interior clamp.
fn dirichlet_rows_map(params: &Mat) -> Mat {
    const FLOOR: f64 = 1e-10;
    let mut out = Mat::zeros(params.rows(), params.cols());
    for r in 0..params.rows() {
        let row = params.row(r);
        let orow = out.row_mut(r);
        for (o, &a) in orow.iter_mut().zip(row) {
            *o = (a - 1.0).max(FLOOR);
        }
        normalize_in_place(orow);
    }
    out
}

/// Canonical logits from simplex rows: `µ_it = ln ϕ_it − ln ϕ_iT`.
pub fn phi_to_mu(phi: &Mat) -> Mat {
    let t = phi.cols();
    let mut mu = Mat::zeros(phi.rows(), t.saturating_sub(1));
    const FLOOR: f64 = 1e-12;
    for i in 0..phi.rows() {
        let row = phi.row(i);
        let last = row[t - 1].max(FLOOR).ln();
        let mrow = mu.row_mut(i);
        for (k, m) in mrow.iter_mut().enumerate() {
            *m = row[k].max(FLOOR).ln() - last;
        }
    }
    mu
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_math::rng::seeded;
    use cpa_math::simplex::is_probability_vector;

    fn params() -> VariationalParams {
        let mut rng = seeded(5);
        VariationalParams::init(&CpaConfig::default(), 12, 8, 6, &mut rng)
    }

    #[test]
    fn init_shapes_and_simplex_rows() {
        let p = params();
        assert_eq!(p.kappa.rows(), 8);
        assert_eq!(p.kappa.cols(), p.m);
        assert_eq!(p.phi.rows(), 12);
        assert_eq!(p.phi.cols(), p.t);
        assert_eq!(p.lambda.rows(), p.t * p.m);
        assert_eq!(p.lambda.cols(), 6);
        assert_eq!(p.zeta.rows(), p.t);
        for u in 0..8 {
            assert!(is_probability_vector(p.kappa.row(u), 1e-9));
        }
        for i in 0..12 {
            assert!(is_probability_vector(p.phi.row(i), 1e-9));
        }
    }

    #[test]
    fn truncations_clamped_to_data() {
        let mut rng = seeded(6);
        let p = VariationalParams::init(&CpaConfig::default(), 3, 2, 5, &mut rng);
        assert_eq!(p.m, 2);
        assert_eq!(p.t, 3);
    }

    #[test]
    fn expected_log_psi_rows_are_valid() {
        let p = params();
        let e = p.expected_log_psi();
        for r in 0..e.rows() {
            for &v in e.row(r) {
                assert!(v.is_finite());
                assert!(v < 0.0); // E[ln θ] < 0 always
            }
        }
    }

    #[test]
    fn psi_mean_rows_simplex() {
        let p = params();
        let psi = p.psi_mean();
        for r in 0..psi.rows() {
            assert!(is_probability_vector(psi.row(r), 1e-9));
        }
    }

    #[test]
    fn map_rows_simplex() {
        let p = params();
        for m in [p.psi_map(), p.phi_truth_map()] {
            for r in 0..m.rows() {
                assert!(is_probability_vector(m.row(r), 1e-9));
            }
        }
    }

    #[test]
    fn mu_phi_roundtrip() {
        let mut p = params();
        let orig = p.phi.clone();
        p.mu = phi_to_mu(&p.phi);
        p.refresh_phi_from_mu();
        assert!(orig.max_abs_diff(&p.phi) < 1e-9);
    }

    #[test]
    fn masses_are_simplex() {
        let p = params();
        assert!(is_probability_vector(&p.cluster_mass(), 1e-9));
        assert!(is_probability_vector(&p.community_mass(), 1e-9));
    }

    #[test]
    fn hard_assignments_in_range() {
        let p = params();
        assert!(p.worker_communities().iter().all(|&m| m < p.m));
        assert!(p.item_clusters().iter().all(|&t| t < p.t));
    }

    /// `m` without its last entry, built the one way such a matrix can
    /// arise: by deserializing it.
    fn short_by_one(m: &Mat) -> Mat {
        let data = &m.as_slice()[..m.as_slice().len() - 1];
        let json = format!(
            "{{\"rows\":{},\"cols\":{},\"data\":{}}}",
            m.rows(),
            m.cols(),
            serde_json::to_string(data).unwrap()
        );
        serde_json::from_str(&json).unwrap()
    }

    #[test]
    fn validation_accepts_a_fit_and_names_each_defect() {
        let cfg = CpaConfig::default();
        let p = params();
        assert_eq!(p.validation_error(&cfg), None);
        type Defect = fn(&mut VariationalParams);
        let defects: [(&str, Defect); 7] = [
            ("κ holds", |p| p.kappa = short_by_one(&p.kappa)),
            ("ζ has an entry NaN", |p| {
                p.zeta.as_mut_slice()[0] = f64::NAN
            }),
            ("λ is", |p| {
                p.lambda = Mat::zeros(p.lambda.rows() - 1, p.num_labels)
            }),
            ("µ is", |p| p.mu = Mat::zeros(p.num_items, p.t)),
            ("λ has an entry 0", |p| p.lambda.as_mut_slice()[3] = 0.0),
            ("υ has 0 sticks", |p| p.upsilon.params.clear()),
            ("ρ has a stick", |p| p.rho.params[0].1 = -1.0),
        ];
        for (want, defect) in defects {
            let mut bad = p.clone();
            defect(&mut bad);
            let msg = bad.validation_error(&cfg).expect("defect is named");
            assert!(msg.starts_with(want), "{want}: {msg}");
        }
        // The truncations must be the configuration's, clamped to the data.
        let err = p.validation_error(&cfg.clone().with_truncation(3, 4));
        assert!(err.expect("truncation mismatch").starts_with("truncations"));
    }

    #[test]
    fn init_not_symmetric() {
        // The jitter must break symmetry: two workers' rows should differ.
        let p = params();
        assert!(p.kappa.row(0) != p.kappa.row(1));
    }
}
