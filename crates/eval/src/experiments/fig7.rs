//! Fig. 7 — runtime of inference and prediction mechanisms on the
//! large-scale synthetic crowd (§5.1 "Large-Scale Simulation"): offline VI,
//! incremental SVI (1, 4 and 16 threads) and the baselines, as the number of
//! answers grows. Each online run installs a pool of its thread count around
//! the stream it times; the engine itself owns no pool.

use crate::report::Report;
use crate::runner::{cpa_config, EvalConfig};
use cpa_baselines::bcc::CommunityBcc;
use cpa_baselines::ds::DawidSkene;
use cpa_baselines::mv::MajorityVoting;
use cpa_baselines::Aggregator;
use cpa_core::{CpaModel, OnlineCpa};
use cpa_data::dataset::Dataset;
use cpa_data::profile::DatasetProfile;
use cpa_data::simulate::simulate;
use cpa_data::stream::WorkerStream;
use cpa_data::truthgen::CorrelationModel;
use cpa_data::workers::WorkerMix;
use cpa_math::rng::seeded;
use std::time::Instant;

/// Builds the paper's synthetic scalability profile: equal item/worker
/// populations, `answers_per_item` answers each, 50 labels. At `scale = 1`
/// this is 10⁴ items and workers as in §5.1 (the answer counts 100K–1M come
/// from varying workers per item).
pub fn synthetic_profile(scale: f64, answers_per_item: usize) -> DatasetProfile {
    let n = ((10_000.0 * scale).round() as usize).max(200);
    DatasetProfile {
        name: format!("synthetic-{answers_per_item}apw"),
        items: n,
        labels: 50,
        workers: n,
        answers: n * answers_per_item,
        mean_labels_per_item: 3.0,
        max_labels_per_item: 10,
        correlation: CorrelationModel::Clustered {
            groups: 10,
            within_prob: 0.85,
        },
        skewed_workers: false,
        difficulty: 1.0,
        mix: WorkerMix::paper_simulation(),
    }
}

fn time<F: FnOnce() -> R, R>(f: F) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Times the online stream and the final prediction with a `threads`-wide
/// pool installed around them.
fn time_online(dataset: &Dataset, seed: u64, threads: usize) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds");
    let mut online = OnlineCpa::new(
        cpa_config(seed),
        dataset.num_items(),
        dataset.num_workers(),
        dataset.num_labels(),
        0.875,
    );
    let mut rng = seeded(seed);
    // The paper uses batches of 100 answers; we batch 100 workers which is
    // the worker-side equivalent of Algorithm 2's input.
    let stream = WorkerStream::new(dataset, 100, &mut rng);
    let (t, _) = time(|| {
        pool.install(|| {
            for batch in stream.iter() {
                online.partial_fit(&dataset.answers, batch);
            }
            online.predict_all()
        })
    });
    t
}

/// Runs the scalability experiment.
pub fn run(cfg: &EvalConfig) -> Report {
    let mut r = Report::new(
        "fig7",
        "Runtime of inference + prediction (paper Fig. 7), seconds",
        &[
            "answers",
            "offline",
            "online",
            "online-4",
            "online-16",
            "MV",
            "EM",
            "cBCC",
        ],
    );
    for answers_per_item in [10usize, 25, 50] {
        let profile = synthetic_profile(cfg.scale, answers_per_item);
        let sim = simulate(&profile, cfg.seed);
        let d = &sim.dataset;
        let seed = cfg.seed;

        let (t_off, _) = time(|| {
            let model = CpaModel::new(cpa_config(seed));
            let fitted = model.fit(&d.answers);
            fitted.predict_all(&d.answers)
        });
        let t_on = time_online(d, seed, 1);
        let t_on4 = time_online(d, seed, 4);
        let t_on16 = time_online(d, seed, 16);
        let (t_mv, _) = time(|| MajorityVoting::new().aggregate(&d.answers));
        let (t_em, _) = time(|| DawidSkene::new().aggregate(&d.answers));
        let (t_cbcc, _) = time(|| CommunityBcc::new().aggregate(&d.answers));

        r.push_row(vec![
            d.answers.num_answers().to_string(),
            format!("{t_off:.2}"),
            format!("{t_on:.2}"),
            format!("{t_on4:.2}"),
            format!("{t_on16:.2}"),
            format!("{t_mv:.3}"),
            format!("{t_em:.2}"),
            format!("{t_cbcc:.2}"),
        ]);
    }
    r.note(format!(
        "synthetic crowd at scale {} (paper: 10⁴ items/workers, answers 100K–1M)",
        cfg.scale
    ));
    r.note(
        "paper: online inference is up to 32× faster than offline; MV is the only faster method",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_profile_counts() {
        let p = synthetic_profile(1.0, 10);
        assert_eq!(p.items, 10_000);
        assert_eq!(p.workers, 10_000);
        assert_eq!(p.answers, 100_000);
        let p = synthetic_profile(0.02, 10);
        assert_eq!(p.items, 200);
    }

    #[test]
    fn tiny_scalability_run_produces_timings() {
        let cfg = EvalConfig {
            scale: 0.02,
            reps: 1,
            ..EvalConfig::default()
        };
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            for cell in &row[1..] {
                let t: f64 = cell.parse().unwrap();
                assert!((0.0..600.0).contains(&t));
            }
        }
    }
}
