//! **CPA — Generic Crowdsourcing Consensus with Partial Agreement.**
//!
//! A from-scratch Rust implementation of the Bayesian nonparametric
//! answer-aggregation model of *Computing Crowd Consensus with Partial
//! Agreement* (Nguyen et al., ICDE 2018). Workers assign *sets* of labels to
//! items; CPA aggregates these partially-sound, partially-complete answers by
//! jointly inferring
//!
//! - **worker communities** (`z_u`, CRP prior `π ~ CRP(α)`) that capture
//!   trustworthiness and domain knowledge (requirement R1 of the paper),
//! - **item clusters** (`l_i`, CRP prior `τ ~ CRP(ε)`) that encode label
//!   co-occurrence dependencies (R3),
//! - per (cluster, community) **answer distributions** `ψ_tm` supporting
//!   label-level answer validity (R2), and
//! - per-cluster **truth distributions** `φ_t` from which the aggregated
//!   label sets are decoded.
//!
//! Three inference engines are provided, mirroring the paper:
//! [`inference`] (batch variational inference, Algorithm 1), [`svi`]
//! (stochastic variational inference for online learning, Algorithm 2), and
//! [`parallel`] (map-reduce style parallel SVI, Algorithm 3). All of them —
//! plus the `cpa-baselines` aggregators — run behind the uniform [`Engine`]
//! trait of [`engine`], which adds versioned JSON checkpoint/resume with a
//! bit-identical continuation guarantee.
//!
//! # Quick start
//!
//! ```
//! use cpa_core::{CpaConfig, CpaModel};
//! use cpa_data::{profile::DatasetProfile, simulate::simulate};
//!
//! let sim = simulate(&DatasetProfile::movie().scaled(0.05), 42);
//! let model = CpaModel::new(CpaConfig::default());
//! let fitted = model.fit(&sim.dataset.answers);
//! let consensus = fitted.predict_all(&sim.dataset.answers);
//! assert_eq!(consensus.len(), sim.dataset.num_items());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ablation;
pub mod config;
pub mod diagnostics;
pub mod elbo;
pub mod engine;
pub mod gibbs;
pub mod hierarchy;
pub mod inference;
pub mod model;
pub mod parallel;
pub mod params;
pub mod predict;
pub mod svi;
pub mod truth;

pub use config::{CpaConfig, PredictionMode};
pub use engine::{BatchCpa, Checkpoint, CheckpointError, Engine, GibbsCpa};
pub use model::{CpaModel, FittedCpa};
pub use svi::OnlineCpa;

#[cfg(test)]
/// Runs `op` with a `threads`-wide pool installed around it, as a caller
/// that pins the width does; the unit tests' width-invariance checks.
pub(crate) fn at_width<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds")
        .install(op)
}
