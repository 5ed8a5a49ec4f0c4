//! Bench for Fig. 7 — the scalability comparison: offline VI vs incremental
//! SVI (1 and 4 threads, each installed around the run it times) vs the
//! baselines on the synthetic crowd, at bench scale (the full
//! 100K–1M-answer sweep lives in `repro fig7`).

use cpa_baselines::ds::DawidSkene;
use cpa_baselines::mv::MajorityVoting;
use cpa_baselines::Aggregator;
use cpa_bench::bench_cpa_config;
use cpa_core::{CpaModel, OnlineCpa};
use cpa_data::simulate::simulate;
use cpa_data::stream::WorkerStream;
use cpa_eval::experiments::fig7::synthetic_profile;
use cpa_math::rng::seeded;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let profile = synthetic_profile(0.03, 10);
    let sim = simulate(&profile, 12);
    let d = &sim.dataset;
    let mut g = c.benchmark_group("fig7_scalability");
    g.sample_size(10);
    g.bench_function("offline", |b| {
        b.iter(|| {
            let fitted = CpaModel::new(bench_cpa_config(12)).fit(black_box(&d.answers));
            black_box(fitted.predict_all(&d.answers))
        })
    });
    for (name, threads) in [("online", 1), ("online-4", 4)] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds");
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut online = OnlineCpa::new(
                    bench_cpa_config(12),
                    d.num_items(),
                    d.num_workers(),
                    d.num_labels(),
                    0.875,
                );
                let mut rng = seeded(13);
                let stream = WorkerStream::new(d, 100, &mut rng);
                pool.install(|| {
                    for batch in stream.iter() {
                        online.partial_fit(&d.answers, batch);
                    }
                    black_box(online.predict_all())
                })
            })
        });
    }
    g.bench_function("mv", |b| {
        b.iter(|| black_box(MajorityVoting::new().aggregate(black_box(&d.answers))))
    });
    g.bench_function("em", |b| {
        b.iter(|| black_box(DawidSkene::new().aggregate(black_box(&d.answers))))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
