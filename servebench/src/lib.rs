//! **servebench** — the repository's end-to-end serving benchmark.
//!
//! It drives the real `cpa-transport` server over loopback TCP with one
//! writer and one observer connection, on a CPA-SVI fleet of four shards
//! over the Fig. 7 synthetic crowd (2000 items × 2000 workers × 50 labels).
//! See `README.md` beside this crate for the workloads, the metrics and how
//! they relate.

pub mod inputs;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
