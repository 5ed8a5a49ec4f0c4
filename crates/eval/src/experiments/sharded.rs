//! Sharded serving: accuracy and throughput of a K-shard
//! [`cpa_serve::Fleet`] against the unsharded (K=1) engine.
//!
//! This is the serving-layer counterpart of the paper's scalability study
//! (Fig. 7): instead of more threads inside one engine, the fleet partitions
//! the *item space* across K engines and drives them concurrently from the
//! canonical arrival stream ([`crate::runner::arrival_source`]), each batch
//! entering as one `FleetOp::Ingest` through `Fleet::apply`, the fleet's
//! one way in. The experiment quantifies the trade:
//!
//! - **throughput** — answers/sec through ingest + refit, K engines working
//!   concurrently on `threads` OS threads;
//! - **accuracy** — precision/recall/F1 of the merged predictions against
//!   ground truth. Shards never pool posterior state, so a shard infers
//!   worker communities from its own items only; the K-vs-1 gap measures
//!   what that cross-item pooling is worth on this workload;
//! - **agreement** — mean per-item Jaccard between the K-shard and the
//!   unsharded predictions (1.0 means sharding changed nothing).

use crate::metrics::evaluate;
use crate::report::{f3, Report};
use crate::runner::{arrival_source, EvalConfig, Method};
use cpa_data::dataset::Dataset;
use cpa_data::labels::LabelSet;
use cpa_data::profile::DatasetProfile;
use cpa_data::simulate::simulate;
use cpa_math::stats::mean;
use cpa_serve::Fleet;

/// Default roster: the streaming engine (the serving story) plus the batch
/// engine for a refit-style contrast.
pub const DEFAULT_METHODS: [Method; 2] = [Method::CpaSvi, Method::Cpa];

/// One (method, shard-count) serving run.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The inference method every shard runs.
    pub method: Method,
    /// Number of shards.
    pub shards: usize,
    /// Merged predictions in global item order.
    pub predictions: Vec<LabelSet>,
    /// Ingest + refit wall-clock seconds.
    pub fit_secs: f64,
    /// Answers ingested per second.
    pub answers_per_sec: f64,
    /// Seconds for the first `predict_all` after the fit — the cold path
    /// that computes every shard's slab into the epoch's read view.
    pub predict_cold_secs: f64,
    /// Seconds for a repeat `predict_all` at the same epoch — the warm
    /// path that reuses the view's slabs and only gathers (see
    /// `cpa_serve::view`).
    pub predict_repeat_secs: f64,
    /// Seconds for an item-ranged `predict_items` over a 32-item probe at
    /// the same epoch — the per-shard-slab path that never touches items
    /// outside the probe's shards.
    pub predict_ranged_secs: f64,
}

/// Drives a K-shard fleet of `method` engines over the canonical arrival
/// stream of `dataset` and times it.
pub fn sharded_run(
    method: Method,
    dataset: &Dataset,
    shards: usize,
    threads: usize,
    seed: u64,
) -> ShardedRun {
    let (i, u, c) = (
        dataset.num_items(),
        dataset.num_workers(),
        dataset.num_labels(),
    );
    let mut fleet = Fleet::new(shards, threads, i, u, c, |_| method.engine(i, u, c, seed));

    // The same batch sequence every arrival-style experiment uses; each
    // batch enters as one `Ingest` op.
    let mut arrivals = arrival_source(dataset, seed);
    let start = std::time::Instant::now();
    fleet.drive(&mut arrivals);
    let fit_secs = start.elapsed().as_secs_f64();
    let answers = fleet.num_answers_seen();

    // First predict after the fit computes every shard's slab (into the
    // epoch's read view); a repeat at the same epoch reuses the slabs.
    let t = std::time::Instant::now();
    let predictions = fleet.predict_all();
    let predict_cold_secs = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let again = fleet.predict_all();
    let predict_repeat_secs = t.elapsed().as_secs_f64();
    assert_eq!(again, predictions, "repeat predict diverged");

    // An item-ranged read at the same epoch: a slice of the full read,
    // answered from the per-shard slabs the full read already filled.
    let probe: Vec<usize> = (0..32.min(i)).map(|n| (n * 7) % i).collect();
    let t = std::time::Instant::now();
    let ranged = fleet.predict_items(&probe);
    let predict_ranged_secs = t.elapsed().as_secs_f64();
    let sliced: Vec<LabelSet> = probe.iter().map(|&n| predictions[n].clone()).collect();
    assert_eq!(ranged, sliced, "ranged predict diverged from the full read");

    ShardedRun {
        method,
        shards,
        predictions,
        fit_secs,
        answers_per_sec: answers as f64 / fit_secs.max(1e-9),
        predict_cold_secs,
        predict_repeat_secs,
        predict_ranged_secs,
    }
}

/// Mean per-item Jaccard between two prediction vectors.
fn agreement(a: &[LabelSet], b: &[LabelSet]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let js: Vec<f64> = a.iter().zip(b).map(|(x, y)| x.jaccard(y)).collect();
    mean(&js)
}

/// Runs the sharded-serving comparison (K=1 vs K=`cfg.shards`) on the movie
/// dataset for the configured roster.
pub fn run(cfg: &EvalConfig) -> Report {
    let methods = cfg.methods_or(&DEFAULT_METHODS);
    let profile = DatasetProfile::movie().scaled(cfg.scale);
    let dataset = simulate(&profile, cfg.seed).dataset;
    let threads = cfg.fleet_threads();

    let mut r = Report::new(
        "sharded",
        format!(
            "Sharded serving on the movie dataset: K={} fleet vs the unsharded engine",
            cfg.shards
        ),
        &[
            "method",
            "shards",
            "precision",
            "recall",
            "f1",
            "answers/s",
            "predict_ms",
            "repredict_ms",
            "ranged_ms",
            "J(vs K=1)",
        ],
    );
    for &method in &methods {
        let mut ks = vec![1usize];
        if cfg.shards > 1 {
            ks.push(cfg.shards);
        }
        let mut baseline: Option<Vec<LabelSet>> = None;
        for k in ks {
            let run = sharded_run(method, &dataset, k, threads, cfg.seed);
            let m = evaluate(&run.predictions, &dataset.truth);
            let j = match &baseline {
                None => 1.0,
                Some(b) => agreement(&run.predictions, b),
            };
            r.push_row(vec![
                method.name().to_string(),
                k.to_string(),
                f3(m.precision),
                f3(m.recall),
                f3(m.f1),
                format!("{:.0}", run.answers_per_sec),
                format!("{:.3}", run.predict_cold_secs * 1e3),
                format!("{:.3}", run.predict_repeat_secs * 1e3),
                format!("{:.3}", run.predict_ranged_secs * 1e3),
                f3(j),
            ]);
            if baseline.is_none() {
                baseline = Some(run.predictions);
            }
        }
    }
    r.note(format!(
        "fleet threads = {threads}; shards never pool posterior state, so J(vs K=1) < 1 \
         measures what cross-item pooling is worth"
    ));
    r.note("each arrival batch enters as one FleetOp::Ingest through Fleet::apply");
    r.note(
        "predict_ms = first predict after the fit (computes every shard's slab into the \
         epoch's read view); repredict_ms = repeat at the same epoch (reuses the slabs, \
         gathers only); ranged_ms = 32-item `predict_items` at the same epoch (per-shard \
         slab path)",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::engine_for;

    #[test]
    fn sharded_run_covers_all_items_and_answers() {
        let dataset = simulate(&DatasetProfile::movie().scaled(0.05), 191).dataset;
        let run = sharded_run(Method::CpaSvi, &dataset, 4, 1, 191);
        assert_eq!(run.predictions.len(), dataset.num_items());
        assert!(run.answers_per_sec > 0.0);
        let m = evaluate(&run.predictions, &dataset.truth);
        assert!((0.0..=1.0).contains(&m.f1));
    }

    #[test]
    fn single_shard_run_matches_run_method_stream() {
        // K=1 through the fleet's ingest ops must equal the plain engine
        // driven over the same arrival batches.
        let dataset = simulate(&DatasetProfile::movie().scaled(0.05), 193).dataset;
        let seed = 193;
        let run = sharded_run(Method::CpaSvi, &dataset, 1, 1, seed);
        let mut engine = engine_for(Method::CpaSvi, &dataset, seed);
        let mut source = arrival_source(&dataset, seed);
        cpa_core::engine::drive(engine.as_mut(), &mut source);
        assert_eq!(run.predictions, engine.predict_all());
    }

    #[test]
    fn report_has_two_rows_per_method() {
        let cfg = EvalConfig {
            scale: 0.04,
            methods: Some(vec![Method::Mv]),
            shards: 2,
            ..EvalConfig::default()
        };
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.columns.len(), 10);
        assert!(r.notes.iter().any(|n| n.contains("FleetOp::Ingest")));
    }
}
