//! Design-choice ablations (DESIGN.md §2): the cost of each deviation /
//! engineering choice in isolation —
//!
//! - prediction decoding: `SizeAdaptive` vs the paper-literal
//!   `GreedyMultinomial`;
//! - the truth-estimation loop (deviation #2) on vs off;
//! - serial vs rayon-parallel batch VI (the intra-iteration parallelism
//!   noted under Algorithm 1).

use cpa_bench::{bench_cpa_config, bench_sim};
use cpa_core::gibbs::{fit_gibbs, GibbsSchedule};
use cpa_core::{CpaModel, PredictionMode};
use cpa_data::profile::DatasetProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let sim = bench_sim(DatasetProfile::image(), 0.04, 21);
    let answers = &sim.dataset.answers;
    let mut g = c.benchmark_group("ablation_choices");
    g.sample_size(10);

    // Prediction decoding modes on a shared fitted model.
    let fitted = CpaModel::new(bench_cpa_config(21)).fit(answers);
    g.bench_function("predict_size_adaptive", |b| {
        let mut cfg = bench_cpa_config(21);
        cfg.prediction = PredictionMode::SizeAdaptive;
        let _ = &cfg;
        b.iter(|| black_box(fitted.predict_all(black_box(answers))))
    });
    g.bench_function("predict_greedy_multinomial", |b| {
        let mut cfg = bench_cpa_config(21);
        cfg.prediction = PredictionMode::GreedyMultinomial;
        let model = CpaModel::new(cfg);
        let f = model.fit(answers);
        b.iter(|| black_box(f.predict_all(black_box(answers))))
    });

    // Truth-estimation loop on vs off (fit only).
    g.bench_function("fit_with_truth_loop", |b| {
        b.iter(|| black_box(CpaModel::new(bench_cpa_config(21)).fit(black_box(answers))))
    });
    g.bench_function("fit_without_truth_loop", |b| {
        let mut cfg = bench_cpa_config(21);
        cfg.estimate_truth = false;
        b.iter(|| black_box(CpaModel::new(cfg.clone()).fit(black_box(answers))))
    });

    // Batch VI on one thread against four, each width installed around the
    // fit it times.
    for (name, threads) in [("fit_serial", 1), ("fit_parallel_4", 4)] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds");
        g.bench_function(name, |b| {
            b.iter(|| {
                pool.install(|| {
                    black_box(CpaModel::new(bench_cpa_config(21)).fit(black_box(answers)))
                })
            })
        });
    }

    // VI vs the Gibbs sampler the paper rejects for scale (§3.3) — measures
    // the cost of the MCMC alternative at a matched-quality budget.
    g.bench_function("fit_gibbs_60_sweeps", |b| {
        b.iter(|| {
            black_box(fit_gibbs(
                &bench_cpa_config(21),
                GibbsSchedule::default(),
                black_box(answers),
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
