//! Checkpoint/resume determinism and golden-parity tests for the uniform
//! `Engine` interface.
//!
//! Contract 1 (resume): pausing any engine mid-stream — snapshot → JSON →
//! restore — and continuing must be **bit-identical** to never pausing, at
//! every thread count. Exercised for the online engine (whose learning-rate
//! schedule makes this the hardest case) with 1- and 4-wide pools installed
//! around the run, plus the `RAYON_NUM_THREADS` CI matrix value.
//!
//! Contract 2 (golden): every method's `predict_all()` through the `Engine`
//! trait must match its pre-refactor direct API output on the paper's
//! Table 1 fixture.

use cpa::baselines::bcc::CommunityBcc;
use cpa::baselines::ds::DawidSkene;
use cpa::baselines::mv::MajorityVoting;
use cpa::baselines::wmv::WeightedMajorityVoting;
use cpa::baselines::Aggregator;
use cpa::core::engine::{drive, Checkpoint, Engine};
use cpa::core::gibbs::{fit_gibbs, GibbsSchedule};
use cpa::core::{CpaModel, OnlineCpa};
use cpa::data::dataset::Dataset;
use cpa::data::labels::LabelSet;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::{MemorySource, WorkerStream};
use cpa::eval::runner::{
    cpa_config, engine_for, method_source, restore_engine, run_method, Method,
};
use cpa::math::rng::seeded;

/// Fingerprints a parameter matrix set exactly (bit patterns, not `==` on
/// floats, so `-0.0 != 0.0` and NaNs would be caught too).
fn param_bits(params: &cpa::core::params::VariationalParams) -> Vec<u64> {
    params
        .kappa
        .as_slice()
        .iter()
        .chain(params.phi.as_slice())
        .chain(params.mu.as_slice())
        .chain(params.lambda.as_slice())
        .chain(params.zeta.as_slice())
        .map(|x| x.to_bits())
        .collect()
}

/// Thread counts to pin: 1 and 4, plus the CI matrix value when it
/// differs.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 4];
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0 && !counts.contains(&n))
    {
        counts.push(n);
    }
    counts
}

#[test]
fn online_resume_is_bit_identical_to_uninterrupted_fit() {
    let sim = simulate(&DatasetProfile::movie().scaled(0.08), 2203);
    let d = &sim.dataset;
    let mut rng = seeded(2204);
    let batches = WorkerStream::new(d, 10, &mut rng).into_batches();
    assert!(
        batches.len() >= 4,
        "need enough batches to pause mid-stream"
    );
    let pause_at = batches.len() / 2;

    for threads in thread_counts() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds");
        let cfg = cpa_config(2203);
        let fresh = || {
            OnlineCpa::new(
                cfg.clone(),
                d.num_items(),
                d.num_workers(),
                d.num_labels(),
                0.875,
            )
        };

        // Uninterrupted run.
        let mut uninterrupted = fresh();
        pool.install(|| {
            for batch in &batches {
                uninterrupted.partial_fit(&d.answers, batch);
            }
        });

        // Paused run: half the stream, snapshot → JSON → restore, continue.
        let mut paused = fresh();
        pool.install(|| {
            for batch in &batches[..pause_at] {
                paused.partial_fit(&d.answers, batch);
            }
        });
        let json = paused.snapshot().to_json();
        drop(paused);
        let mut resumed = OnlineCpa::restore(Checkpoint::from_json(&json).unwrap())
            .expect("restore mid-stream checkpoint");
        assert_eq!(resumed.batches_seen(), pause_at);
        pool.install(|| {
            for batch in &batches[pause_at..] {
                resumed.partial_fit(&d.answers, batch);
            }
        });

        assert_eq!(
            param_bits(uninterrupted.params()),
            param_bits(resumed.params()),
            "parameters diverged after resume at {threads} thread(s)"
        );
        assert_eq!(
            uninterrupted.predict_all(),
            resumed.predict_all(),
            "predictions diverged after resume at {threads} thread(s)"
        );
    }
}

#[test]
fn every_engine_resumes_mid_stream_identically() {
    // The same pause/resume protocol, through `dyn Engine`, for all seven
    // methods: continue both runs from the same remaining batches and
    // require identical final predictions.
    let sim = simulate(&DatasetProfile::movie().scaled(0.05), 2207);
    let d = &sim.dataset;
    let mut rng = seeded(2208);
    let batches = WorkerStream::new(d, 8, &mut rng).into_batches();
    let pause_at = batches.len() / 2;

    for method in Method::all() {
        let run_full = |engine: &mut dyn Engine| {
            let mut source = MemorySource::new(&d.answers, batches.clone());
            drive(engine, &mut source);
            engine.predict_all()
        };
        let mut uninterrupted = engine_for(method, d, 11);
        let expected = run_full(uninterrupted.as_mut());

        let mut paused = engine_for(method, d, 11);
        let mut head = MemorySource::new(&d.answers, batches[..pause_at].to_vec());
        while let Some(batch) = head.next_batch() {
            paused.ingest(head.answers(), &batch);
        }
        let json = paused.snapshot().to_json();
        let mut resumed = restore_engine(Checkpoint::from_json(&json).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
        let mut tail = MemorySource::new(&d.answers, batches[pause_at..].to_vec());
        drive(resumed.as_mut(), &mut tail);

        assert_eq!(resumed.name(), method.name());
        assert_eq!(
            resumed.predict_all(),
            expected,
            "{} diverged after mid-stream resume",
            method.name()
        );
        assert_eq!(
            resumed.seen_answers().num_answers(),
            d.answers.num_answers(),
            "{} lost answers across the checkpoint",
            method.name()
        );
    }
}

#[test]
fn golden_engine_predictions_match_direct_apis_on_table1() {
    let (answers, truth) = cpa::baselines::fixtures::table1();
    let dataset = Dataset::new("table1", answers.clone(), truth);
    let seed = 17;

    let direct: Vec<(Method, Vec<LabelSet>)> = vec![
        (Method::Mv, MajorityVoting::new().aggregate(&answers)),
        (
            Method::Wmv,
            WeightedMajorityVoting::new().aggregate(&answers),
        ),
        (Method::Em, DawidSkene::new().aggregate(&answers)),
        (Method::Cbcc, CommunityBcc::new().aggregate(&answers)),
        (
            Method::Gibbs,
            fit_gibbs(&cpa_config(seed), GibbsSchedule::default(), &answers).predict_all(&answers),
        ),
        (
            Method::Cpa,
            CpaModel::new(cpa_config(seed))
                .fit(&answers)
                .predict_all(&answers),
        ),
        (Method::CpaSvi, {
            // The direct online path over exactly the batches run_method uses.
            let mut online = OnlineCpa::new(
                cpa_config(seed),
                dataset.num_items(),
                dataset.num_workers(),
                dataset.num_labels(),
                cpa::eval::runner::FORGETTING_RATE,
            );
            let mut source = method_source(Method::CpaSvi, &dataset, seed);
            while let Some(batch) = source.next_batch() {
                online.partial_fit(source.answers(), &batch);
            }
            OnlineCpa::predict_all(&online)
        }),
    ];

    for (method, expected) in direct {
        let got = run_method(method, &dataset, seed);
        assert_eq!(
            got,
            expected,
            "{} through dyn Engine diverged from its direct API on table1",
            method.name()
        );
    }
}
