//! Serving-fleet throughput and manifest round-trip cost at K ∈ {1, 2, 4}
//! shards, written to `BENCH_serve.json`.
//!
//! Per shard count: one warmup, then `CPA_BENCH_SAMPLES` (default 3) timed
//! runs of the full serving protocol — drive the fleet from the canonical
//! arrival stream (one `FleetOp::Ingest` per batch, then `refit_all`), one
//! merged `predict_all`. The minimum wall-clock is reported as
//! answers/sec, with the K=1 run as the speedup baseline. The
//! manifest leg times fleet `snapshot` → JSON → parse → `restore` and
//! records the JSON size — the durability cost of pausing a whole fleet.
//!
//! The fleet pool runs one thread per shard (capped by
//! `CPA_BENCH_THREADS`, default 4), so on a multi-core host the series
//! shows the ingest/refit parallelism sharding buys; the
//! `host_available_parallelism` field qualifies the numbers (a single-core
//! host pins every series at ≈ 1×).
//!
//! Knobs: `CPA_BENCH_SCALE` (default 0.1), `CPA_BENCH_SAMPLES`,
//! `CPA_BENCH_THREADS`, `CPA_BENCH_OUT` (default `BENCH_serve.json` in the
//! workspace root).

use cpa_data::dataset::Dataset;
use cpa_data::simulate::simulate;
use cpa_eval::runner::{arrival_source, restore_engine, Method};
use cpa_serve::{Fleet, FleetManifest};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 41;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Serialize)]
struct ShardSeries {
    shards: usize,
    threads: usize,
    fit_secs_min: f64,
    fit_secs_median: f64,
    answers_per_sec: f64,
    speedup_vs_one_shard: f64,
    snapshot_secs: f64,
    manifest_json_bytes: usize,
    restore_secs: f64,
}

#[derive(Serialize)]
struct BenchReport {
    workload: String,
    method: String,
    items: usize,
    workers: usize,
    answers: usize,
    labels: usize,
    batches: usize,
    samples_per_series: usize,
    host_available_parallelism: usize,
    series: Vec<ShardSeries>,
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One full serving run: drive the fleet over the canonical eval-layer
/// arrival stream (the same one the `sharded` experiment measures, the
/// same worker partition for every K — so the series differ only in
/// sharding), then predict. Returns (elapsed seconds, the driven fleet).
fn serve_once(method: Method, dataset: &Dataset, shards: usize, threads: usize) -> (f64, Fleet) {
    let (i, u, c) = (
        dataset.num_items(),
        dataset.num_workers(),
        dataset.num_labels(),
    );
    let mut fleet = Fleet::new(shards, threads, i, u, c, |_| method.engine(i, u, c, SEED));
    let mut arrivals = arrival_source(dataset, SEED);
    let start = Instant::now();
    fleet.drive(&mut arrivals);
    black_box(fleet.predict_all());
    (start.elapsed().as_secs_f64(), fleet)
}

fn main() {
    // `cargo test` invokes bench targets with --test; nothing to run then.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let scale: f64 = env_or("CPA_BENCH_SCALE", 0.1);
    let samples: usize = env_or("CPA_BENCH_SAMPLES", 3).max(1);
    let max_threads: usize = env_or("CPA_BENCH_THREADS", 4).max(1);
    let out_path = std::env::var("CPA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    });

    let method = Method::CpaSvi;
    let sim = simulate(
        &cpa_data::profile::DatasetProfile::movie().scaled(scale),
        SEED,
    );
    let d = &sim.dataset;
    let batches = arrival_source(d, SEED).len();
    eprintln!(
        "serve_fleet: {} items × {} workers, {} answers, {} batches, {} samples/series",
        d.num_items(),
        d.num_workers(),
        d.answers.num_answers(),
        batches,
        samples
    );

    let mut series = Vec::new();
    let mut baseline_secs = None;
    for &shards in &SHARD_COUNTS {
        let threads = shards.min(max_threads);
        // Warmup, then timed samples.
        let (_, warm_fleet) = serve_once(method, d, shards, threads);
        let mut times: Vec<f64> = (0..samples)
            .map(|_| serve_once(method, d, shards, threads).0)
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let fit_secs_min = times[0];
        let fit_secs_median = times[times.len() / 2];
        let baseline = *baseline_secs.get_or_insert(fit_secs_min);

        // Manifest round trip on the warm fleet.
        let t = Instant::now();
        let json = warm_fleet.snapshot().to_json();
        let snapshot_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let manifest = FleetManifest::from_json(&json).expect("manifest parses");
        let restored =
            Fleet::restore(manifest, threads, restore_engine).expect("manifest restores");
        let restore_secs = t.elapsed().as_secs_f64();
        assert_eq!(restored.predict_all(), warm_fleet.predict_all());

        eprintln!(
            "  K={shards} ({threads} threads): {:.3}s min, {:.0} answers/s, manifest {} bytes",
            fit_secs_min,
            d.answers.num_answers() as f64 / fit_secs_min,
            json.len()
        );
        series.push(ShardSeries {
            shards,
            threads,
            fit_secs_min,
            fit_secs_median,
            answers_per_sec: d.answers.num_answers() as f64 / fit_secs_min,
            speedup_vs_one_shard: baseline / fit_secs_min,
            snapshot_secs,
            manifest_json_bytes: json.len(),
            restore_secs,
        });
    }

    let report = BenchReport {
        workload: format!("movie ×{scale}, arrival stream as Ingest ops"),
        method: method.name().to_string(),
        items: d.num_items(),
        workers: d.num_workers(),
        answers: d.answers.num_answers(),
        labels: d.num_labels(),
        batches,
        samples_per_series: samples,
        host_available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        series,
    };
    let json = serde_json::to_string(&report).expect("report serialises");
    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("wrote {out_path}");
}
