//! Full-fit determinism across thread counts.
//!
//! The parallel schedules (MAP phase over workers, the chunked λ target, the
//! chunked truth-estimation passes) are designed so the *thread count never
//! changes the floating-point result*: work is split at thread-count-
//! independent boundaries and merged in a fixed order. This test locks that
//! contract at the full-pipeline level — an entire `OnlineCpa` stream fit
//! must be **bit-identical** (not merely close) with 1-, 2- and 8-wide pools
//! installed around it, and at the implicit width outside any pool
//! (`RAYON_NUM_THREADS`, which the CI matrix sets).

use cpa::core::truth::KnownLabels;
use cpa::core::{CpaConfig, OnlineCpa};
use cpa::data::labels::LabelSet;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::WorkerStream;
use cpa::math::rng::seeded;

/// Runs a full online fit and fingerprints every learned parameter matrix
/// (exact bits) together with the final predictions.
fn fit_fingerprint() -> (Vec<u64>, Vec<LabelSet>) {
    let sim = simulate(&DatasetProfile::movie().scaled(0.08), 1797);
    let cfg = CpaConfig::default().with_truncation(8, 10).with_seed(1797);
    let mut online = OnlineCpa::new(
        cfg,
        sim.dataset.num_items(),
        sim.dataset.num_workers(),
        sim.dataset.num_labels(),
        0.875,
    );
    online.set_known(KnownLabels::from_pairs(
        sim.dataset.num_items(),
        [(0, sim.dataset.truth[0].clone())],
    ));
    let mut rng = seeded(1798);
    let stream = WorkerStream::new(&sim.dataset, 10, &mut rng);
    for batch in stream.iter() {
        online.partial_fit(&sim.dataset.answers, batch);
    }
    let p = online.params();
    let bits: Vec<u64> = p
        .kappa
        .as_slice()
        .iter()
        .chain(p.phi.as_slice())
        .chain(p.mu.as_slice())
        .chain(p.lambda.as_slice())
        .chain(p.zeta.as_slice())
        .map(|x| x.to_bits())
        .collect();
    (bits, online.predict_all())
}

/// [`fit_fingerprint`] with a `threads`-wide pool installed around it.
fn fit_fingerprint_at(threads: usize) -> (Vec<u64>, Vec<LabelSet>) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds")
        .install(fit_fingerprint)
}

#[test]
fn online_fit_is_bit_identical_across_thread_counts() {
    let (baseline_bits, baseline_preds) = fit_fingerprint_at(1);
    assert!(!baseline_bits.is_empty());

    // Outside any pool the fit runs at the implicit width: the
    // RAYON_NUM_THREADS value a CI matrix leg exports, 1 when unset.
    let implicit = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    let runs = [
        (format!("{implicit:?} (implicit)"), fit_fingerprint()),
        ("2".to_string(), fit_fingerprint_at(2)),
        ("8".to_string(), fit_fingerprint_at(8)),
    ];
    for (threads, (bits, preds)) in runs {
        assert_eq!(
            bits, baseline_bits,
            "parameters diverged from the serial fit at {threads} threads"
        );
        assert_eq!(
            preds, baseline_preds,
            "predictions diverged from the serial fit at {threads} threads"
        );
    }
}
