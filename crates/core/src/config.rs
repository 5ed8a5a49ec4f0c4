//! Model and inference configuration.

use serde::{Deserialize, Serialize};

/// How the deterministic assignment `d : I → 2^Z` is instantiated from the
/// posterior (paper §3.4 and DESIGN.md deviation #3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictionMode {
    /// Estimate the item's label count `n̂_i`, then include label `c` iff its
    /// presence probability under the cluster mixture with `n̂_i` multinomial
    /// draws exceeds ½. Deterministic and calibrated (default).
    SizeAdaptive,
    /// The paper-literal greedy search on the multinomial MAP objective,
    /// seeded with the best single label and capped at `⌈n̂_i⌉ + 2` labels.
    GreedyMultinomial,
}

/// Configuration of the CPA model and its variational inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpaConfig {
    /// Truncation level `M` for worker communities (paper: "can safely be set
    /// to large values"; communities beyond what the data supports receive
    /// vanishing mass). Clamped to the worker count at fit time.
    pub max_communities: usize,
    /// Truncation level `T` for item clusters. Clamped to the item count.
    pub max_clusters: usize,
    /// CRP concentration `α` for worker communities.
    pub alpha: f64,
    /// CRP concentration `ε` for item clusters.
    pub epsilon: f64,
    /// Symmetric Dirichlet prior `γ` on the answer distributions `ψ_tm`.
    pub gamma0: f64,
    /// Symmetric Dirichlet prior `η` on the truth distributions `φ_t`.
    pub eta0: f64,
    /// Maximum coordinate-ascent iterations (the paper observes ≤ 10 suffice
    /// for 98% accuracy).
    pub max_iters: usize,
    /// Convergence threshold on the largest parameter change between
    /// iterations (paper §5.3 uses 1e-3).
    pub tol: f64,
    /// RNG seed for parameter initialisation.
    pub seed: u64,
    /// Prediction instantiation mode.
    pub prediction: PredictionMode,
    /// Whether the truth distributions `φ` are refreshed from the
    /// community-reliability-weighted consensus each iteration (DESIGN.md
    /// deviation #2). Disable only for diagnostics (e.g. exact ELBO ascent
    /// tests); without it the unsupervised model cannot learn `φ`.
    pub estimate_truth: bool,
}

impl Default for CpaConfig {
    fn default() -> Self {
        Self {
            max_communities: 20,
            max_clusters: 30,
            alpha: 1.0,
            epsilon: 1.0,
            gamma0: 1.0,
            eta0: 0.1,
            max_iters: 30,
            tol: 1e-3,
            seed: 0,
            prediction: PredictionMode::SizeAdaptive,
            estimate_truth: true,
        }
    }
}

impl CpaConfig {
    /// Returns the first validation failure, or `None` for a usable
    /// configuration — the panic-free check used by checkpoint restoration.
    pub fn validation_error(&self) -> Option<&'static str> {
        if self.max_communities < 1 {
            return Some("need at least one community");
        }
        if self.max_clusters < 1 {
            return Some("need at least one cluster");
        }
        // NaNs fail every comparison, so each bound is written to reject them.
        let positive_finite = |x: f64| x > 0.0 && x.is_finite();
        if !positive_finite(self.alpha) {
            return Some("alpha must be positive");
        }
        if !positive_finite(self.epsilon) {
            return Some("epsilon must be positive");
        }
        if self.gamma0 <= 0.0 || self.gamma0.is_nan() {
            return Some("gamma0 must be positive");
        }
        if self.eta0 <= 0.0 || self.eta0.is_nan() {
            return Some("eta0 must be positive");
        }
        if self.max_iters < 1 {
            return Some("need at least one iteration");
        }
        if self.tol <= 0.0 || self.tol.is_nan() {
            return Some("tolerance must be positive");
        }
        None
    }

    /// Validates the configuration, panicking with a descriptive message on
    /// nonsensical values.
    pub fn validate(&self) {
        if let Some(msg) = self.validation_error() {
            panic!("{msg}");
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style truncation override.
    pub fn with_truncation(mut self, max_communities: usize, max_clusters: usize) -> Self {
        self.max_communities = max_communities;
        self.max_clusters = max_clusters;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CpaConfig::default().validate();
    }

    #[test]
    fn builders() {
        let c = CpaConfig::default().with_seed(9).with_truncation(5, 7);
        assert_eq!(c.seed, 9);
        assert_eq!(c.max_communities, 5);
        assert_eq!(c.max_clusters, 7);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_bad_alpha() {
        let c = CpaConfig {
            alpha: -1.0,
            ..CpaConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn rejects_zero_clusters() {
        let c = CpaConfig {
            max_clusters: 0,
            ..CpaConfig::default()
        };
        c.validate();
    }
}
