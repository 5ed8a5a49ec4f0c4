//! Algorithm 3 scalability: the same SVI stream fitted at 1/2/4/8 threads on
//! the Fig. 7 synthetic workload, written to `BENCH_parallel_svi.json` so the
//! repository's perf trajectory records real thread-scaling numbers.
//!
//! Protocol per thread count: one warmup fit, then `CPA_BENCH_SAMPLES`
//! (default 3) timed fits of the full stream (ingest → MAP → REDUCE per
//! batch, prediction at the end, exactly the Fig. 7 online protocol); the
//! minimum is the reported time. Knobs: `CPA_BENCH_SCALE` (default 0.05 —
//! 500 items/workers, 10K answers), `CPA_BENCH_OUT` (default
//! `BENCH_parallel_svi.json` in the invocation directory).
//!
//! The thread count never changes results (see `tests/parallel_determinism`),
//! so every series does the same floating-point work — the ratio is pure
//! scheduling. `host_available_parallelism` is recorded because speedup is
//! bounded by physical cores: on a single-core container every series
//! degenerates to ≈ 1×, which is data about the host, not the code.

use cpa_core::{CpaConfig, OnlineCpa};
use cpa_data::dataset::Dataset;
use cpa_data::simulate::simulate;
use cpa_data::stream::WorkerStream;
use cpa_eval::experiments::fig7::synthetic_profile;
use cpa_math::rng::seeded;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 12;
const BATCH_WORKERS: usize = 100;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct ThreadSeries {
    threads: usize,
    secs_min: f64,
    secs_median: f64,
    items_per_sec: f64,
    answers_per_sec: f64,
    speedup_vs_1_thread: f64,
}

#[derive(Serialize)]
struct BenchReport {
    workload: String,
    items: usize,
    workers: usize,
    answers: usize,
    labels: usize,
    batch_workers: usize,
    samples_per_series: usize,
    host_available_parallelism: usize,
    series: Vec<ThreadSeries>,
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One full online fit: stream every worker batch through `partial_fit`,
/// then predict, as in the Fig. 7 online series, with a `threads`-wide pool
/// installed around the timed stream.
fn fit_stream(dataset: &Dataset, threads: usize) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds");
    let cfg = CpaConfig::default().with_truncation(12, 16).with_seed(SEED);
    let mut online = OnlineCpa::new(
        cfg,
        dataset.num_items(),
        dataset.num_workers(),
        dataset.num_labels(),
        0.875,
    );
    let mut rng = seeded(SEED + 1);
    let stream = WorkerStream::new(dataset, BATCH_WORKERS, &mut rng);
    let start = Instant::now();
    pool.install(|| {
        for batch in stream.iter() {
            online.partial_fit(&dataset.answers, batch);
        }
        black_box(online.predict_all());
    });
    start.elapsed().as_secs_f64()
}

fn main() {
    // `cargo test` invokes bench targets with --test; nothing to run then.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let scale: f64 = env_or("CPA_BENCH_SCALE", 0.05);
    let samples: usize = env_or("CPA_BENCH_SAMPLES", 3).max(1);
    // Default to the workspace root (cargo runs bench binaries from the
    // package directory), overridable via CPA_BENCH_OUT.
    let out_path = std::env::var("CPA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel_svi.json").to_string()
    });

    let profile = synthetic_profile(scale, 20);
    let sim = simulate(&profile, SEED);
    let d = &sim.dataset;
    eprintln!(
        "parallel_svi: {} items × {} workers, {} answers, {} samples/series",
        d.num_items(),
        d.num_workers(),
        d.answers.num_answers(),
        samples
    );

    let mut series = Vec::new();
    let mut serial_rate = 0.0f64;
    for &threads in &THREAD_COUNTS {
        let _warmup = fit_stream(d, threads);
        let mut secs: Vec<f64> = (0..samples).map(|_| fit_stream(d, threads)).collect();
        secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let secs_min = secs[0];
        let secs_median = secs[secs.len() / 2];
        let items_per_sec = d.num_items() as f64 / secs_min;
        let answers_per_sec = d.answers.num_answers() as f64 / secs_min;
        if threads == 1 {
            serial_rate = items_per_sec;
        }
        let speedup = items_per_sec / serial_rate;
        eprintln!(
            "  threads={threads}: min {secs_min:.3}s, {items_per_sec:.1} items/s, speedup {speedup:.2}x"
        );
        series.push(ThreadSeries {
            threads,
            secs_min,
            secs_median,
            items_per_sec,
            answers_per_sec,
            speedup_vs_1_thread: speedup,
        });
    }

    let report = BenchReport {
        workload: format!("fig7 synthetic_profile(scale={scale}, answers_per_item=20)"),
        items: d.num_items(),
        workers: d.num_workers(),
        answers: d.answers.num_answers(),
        labels: d.num_labels(),
        batch_workers: BATCH_WORKERS,
        samples_per_series: samples,
        host_available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        series,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench report");
    eprintln!("wrote {out_path}");
}
