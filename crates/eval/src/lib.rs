//! Evaluation harness for the CPA reproduction.
//!
//! One runner per table/figure of the paper's evaluation (§5); the `repro`
//! binary regenerates any of them. See `DESIGN.md` §5 for the experiment
//! index.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod runner;

pub use metrics::{evaluate, PrMetrics};
pub use report::Report;
pub use runner::EvalConfig;
