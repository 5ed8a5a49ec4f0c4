//! Engine throughput and checkpoint round-trip cost for every method behind
//! the uniform `Engine` interface, written to `BENCH_engine.json`.
//!
//! Per method: one warmup, then `CPA_BENCH_SAMPLES` (default 3) timed runs
//! of the full engine protocol (stream every worker batch through `ingest`,
//! one `refit`, one `predict_all`); the minimum wall-clock is reported as
//! answers/sec. The checkpoint leg times `snapshot` → encode → parse →
//! `restore` on the fitted engine under **both** codecs — the JSON
//! document and the `cpa_data::codec` binary payload a binary-wire
//! `Snapshot`/`Restore` frame carries — records both document sizes, and
//! asserts the two restores are bit-identical (same predictions, same
//! re-snapshot) — the durability cost a serving layer would pay per
//! pause/resume, and the size/time the binary codec buys back.
//!
//! Knobs: `CPA_BENCH_SCALE` (default 0.1), `CPA_BENCH_SAMPLES`,
//! `CPA_BENCH_OUT` (default `BENCH_engine.json` in the workspace root).

use cpa_core::engine::{drive, Checkpoint};
use cpa_data::dataset::Dataset;
use cpa_data::simulate::simulate;
use cpa_data::stream::{MemorySource, WorkerStream};
use cpa_eval::runner::{engine_for, restore_engine, Method};
use cpa_math::rng::seeded;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 31;
const BATCHES: usize = 10;

#[derive(Serialize)]
struct MethodSeries {
    method: String,
    fit_secs_min: f64,
    fit_secs_median: f64,
    answers_per_sec: f64,
    snapshot_secs: f64,
    checkpoint_json_bytes: usize,
    restore_secs: f64,
    snapshot_binary_secs: f64,
    checkpoint_binary_bytes: usize,
    restore_binary_secs: f64,
}

#[derive(Serialize)]
struct BenchReport {
    workload: String,
    items: usize,
    workers: usize,
    answers: usize,
    labels: usize,
    batches: usize,
    samples_per_series: usize,
    host_available_parallelism: usize,
    series: Vec<MethodSeries>,
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One full engine run: stream every batch through `ingest`, `refit`,
/// predict. Returns (elapsed, the fitted engine).
fn fit_stream(method: Method, dataset: &Dataset) -> (f64, cpa_core::engine::DynEngine) {
    let active = (0..dataset.num_workers())
        .filter(|&w| !dataset.answers.worker_answers(w).is_empty())
        .count();
    let batch_size = active.div_ceil(BATCHES).max(1);
    let mut rng = seeded(SEED + 1);
    let mut source = MemorySource::new(
        &dataset.answers,
        WorkerStream::new(dataset, batch_size, &mut rng).into_batches(),
    );
    let mut engine = engine_for(method, dataset, SEED);
    let start = Instant::now();
    drive(engine.as_mut(), &mut source);
    black_box(engine.predict_all());
    (start.elapsed().as_secs_f64(), engine)
}

fn main() {
    // `cargo test` invokes bench targets with --test; nothing to run then.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let scale: f64 = env_or("CPA_BENCH_SCALE", 0.1);
    let samples: usize = env_or("CPA_BENCH_SAMPLES", 3).max(1);
    let out_path = std::env::var("CPA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string()
    });

    let sim = simulate(
        &cpa_data::profile::DatasetProfile::movie().scaled(scale),
        SEED,
    );
    let d = &sim.dataset;
    eprintln!(
        "engine_checkpoint: {} items × {} workers, {} answers, {} samples/series",
        d.num_items(),
        d.num_workers(),
        d.answers.num_answers(),
        samples
    );

    let mut series = Vec::new();
    for method in Method::all() {
        let (_, engine) = fit_stream(method, d); // warmup; keep for checkpointing
        let mut secs: Vec<f64> = (0..samples).map(|_| fit_stream(method, d).0).collect();
        secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let fit_secs_min = secs[0];
        let fit_secs_median = secs[secs.len() / 2];

        let t = Instant::now();
        let json = engine.snapshot().to_json();
        let snapshot_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let restored = restore_engine(Checkpoint::from_json(&json).expect("checkpoint parses"))
            .expect("checkpoint restores");
        let restore_secs = t.elapsed().as_secs_f64();
        assert_eq!(
            restored.predict_all(),
            engine.predict_all(),
            "{}: restore diverged",
            method.name()
        );

        let t = Instant::now();
        let binary = cpa_data::codec::to_bytes(&engine.snapshot());
        let snapshot_binary_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let restored_binary = restore_engine(
            cpa_data::codec::from_bytes::<Checkpoint>(&binary).expect("binary checkpoint parses"),
        )
        .expect("binary checkpoint restores");
        let restore_binary_secs = t.elapsed().as_secs_f64();
        assert_eq!(
            restored_binary.predict_all(),
            restored.predict_all(),
            "{}: binary restore diverged from JSON restore",
            method.name()
        );
        assert_eq!(
            restored_binary.snapshot().to_json(),
            restored.snapshot().to_json(),
            "{}: binary and JSON restores re-snapshot differently",
            method.name()
        );

        let answers_per_sec = d.answers.num_answers() as f64 / fit_secs_min;
        eprintln!(
            "  {:8}: fit {fit_secs_min:.3}s ({answers_per_sec:.0} answers/s), \
             checkpoint {} B json / {} B binary, snapshot {snapshot_secs:.4}s/{snapshot_binary_secs:.4}s, \
             restore {restore_secs:.4}s/{restore_binary_secs:.4}s",
            method.name(),
            json.len(),
            binary.len()
        );
        series.push(MethodSeries {
            method: method.name().to_string(),
            fit_secs_min,
            fit_secs_median,
            answers_per_sec,
            snapshot_secs,
            checkpoint_json_bytes: json.len(),
            restore_secs,
            snapshot_binary_secs,
            checkpoint_binary_bytes: binary.len(),
            restore_binary_secs,
        });
    }

    let report = BenchReport {
        workload: format!("movie profile scaled {scale}, {BATCHES} worker batches"),
        items: d.num_items(),
        workers: d.num_workers(),
        answers: d.answers.num_answers(),
        labels: d.num_labels(),
        batches: BATCHES,
        samples_per_series: samples,
        host_available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        series,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench report");
    eprintln!("wrote {out_path}");
}
