//! **cpa** — Crowd consensus with partial agreement.
//!
//! A production-quality Rust implementation of *Computing Crowd Consensus
//! with Partial Agreement* (Nguyen et al., ICDE 2018): Bayesian nonparametric
//! aggregation of multi-label crowd answers, with batch variational
//! inference, incremental (online) learning, parallel inference, the paper's
//! baselines, and a full reproduction harness for its evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! - [`core`] — the CPA model ([`core::CpaModel`], [`core::OnlineCpa`],
//!   ablations);
//! - [`data`] — answer matrices, dataset profiles, crowd simulation;
//! - [`baselines`] — MV, Dawid–Skene EM, (community) BCC, two-coin;
//! - [`serve`] — the sharded serving fleet over the uniform engine seam,
//!   commanded through the `FleetOp` protocol with a replayable op-log;
//! - [`transport`] — the std-only TCP front-end (framed op protocol,
//!   blocking server and client) that serves a fleet to other processes;
//! - [`eval`] — metrics and the per-table/figure experiment runners;
//! - [`math`] — the numerical substrate.
//!
//! # Quick start
//!
//! ```
//! use cpa::prelude::*;
//!
//! // Simulate a small crowd over the paper's movie-dataset profile.
//! let sim = simulate(&DatasetProfile::movie().scaled(0.05), 42);
//!
//! // Aggregate with CPA and compare against majority voting.
//! let fitted = CpaModel::new(CpaConfig::default()).fit(&sim.dataset.answers);
//! let cpa = fitted.predict_all(&sim.dataset.answers);
//! let mv = MajorityVoting::new().aggregate(&sim.dataset.answers);
//!
//! let m_cpa = evaluate(&cpa, &sim.dataset.truth);
//! let m_mv = evaluate(&mv, &sim.dataset.truth);
//! println!("CPA F1 {:.3} vs MV F1 {:.3}", m_cpa.f1, m_mv.f1);
//! ```

pub use cpa_baselines as baselines;
pub use cpa_core as core;
pub use cpa_data as data;
pub use cpa_eval as eval;
pub use cpa_math as math;
pub use cpa_serve as serve;
pub use cpa_transport as transport;

/// Everything most applications need, in one import.
pub mod prelude {
    pub use cpa_baselines::bcc::{Bcc, CommunityBcc};
    pub use cpa_baselines::ds::DawidSkene;
    pub use cpa_baselines::mv::MajorityVoting;
    pub use cpa_baselines::{Aggregator, BaselineEngine, IntoEngine};
    pub use cpa_core::engine::{drive, Checkpoint, CheckpointError, DynEngine, Engine, RestoreFn};
    pub use cpa_core::truth::KnownLabels;
    pub use cpa_core::{
        BatchCpa, CpaConfig, CpaModel, FittedCpa, GibbsCpa, OnlineCpa, PredictionMode,
    };
    pub use cpa_data::answers::{AnswerMatrix, AnswerMatrixBuilder};
    pub use cpa_data::dataset::Dataset;
    pub use cpa_data::labels::LabelSet;
    pub use cpa_data::perturb::{inject_dependencies, inject_spammers, sparsify};
    pub use cpa_data::profile::DatasetProfile;
    pub use cpa_data::queue::{validate_batch, QueueError};
    pub use cpa_data::simulate::{simulate, SimulatedDataset};
    pub use cpa_data::stream::{shard_of, MemorySource, WorkerStream};
    pub use cpa_data::workers::{WorkerMix, WorkerType};
    pub use cpa_eval::metrics::{evaluate, PrMetrics};
    pub use cpa_serve::{Fleet, FleetError, FleetManifest, FleetOp, FleetReply, ShardRouter};
    pub use cpa_transport::{FleetClient, FleetServer, ServerConfig, TransportError, WireFormat};
}
