//! Fig. 6 + Table 5 — online (incremental SVI) vs offline (batch VI)
//! accuracy as data arrives in 10% steps of the worker population.
//!
//! Both engines are driven through `dyn Engine` from the same
//! [`cpa_data::stream::MemorySource`]: the online engine updates inside
//! `ingest`, the offline one accumulates and is `refit` at each evaluation
//! point.

use crate::metrics::{evaluate, PrMetrics};
use crate::report::{f3, pm, Report};
use crate::runner::{EvalConfig, Method};
use cpa_data::dataset::Dataset;
use cpa_data::profile::DatasetProfile;
use cpa_data::simulate::simulate;
use cpa_math::stats::{mean, std_dev};

/// The paper's forgetting rate (§5.3: best results for r ∈ [0.85, 0.9]).
pub use crate::runner::FORGETTING_RATE;

/// Number of arrival steps (10% increments).
pub use crate::runner::ARRIVAL_STEPS;

/// Per-arrival-step accuracy of both engines for one dataset and seed.
fn arrival_curve(
    dataset: &Dataset,
    seed: u64,
    offline_each_step: bool,
) -> Vec<(PrMetrics, Option<PrMetrics>)> {
    let mut source = crate::runner::arrival_source(dataset, seed);

    let mut online = crate::runner::engine_for(Method::CpaSvi, dataset, seed);
    let mut offline = crate::runner::engine_for(Method::Cpa, dataset, seed);
    let mut out = Vec::new();
    let n_batches = source.len();
    while let Some(batch) = source.next_batch() {
        online.ingest(source.answers(), &batch);
        offline.ingest(source.answers(), &batch);
        let on = evaluate(&online.predict_all(), &dataset.truth);
        let off = if offline_each_step || batch.index == n_batches {
            offline.refit();
            Some(evaluate(&offline.predict_all(), &dataset.truth))
        } else {
            None
        };
        out.push((on, off));
    }
    out
}

/// Runs the data-arrival experiment; returns the Fig. 6 curve (image
/// dataset) and Table 5 (all datasets at 100%).
pub fn run(cfg: &EvalConfig) -> Vec<Report> {
    // --- Fig. 6: per-step curve on the image dataset ----------------------
    let image = DatasetProfile::image().scaled(cfg.scale);
    let sim = simulate(&image, cfg.seed);
    let curve = arrival_curve(&sim.dataset, cfg.seed, true);
    let mut fig6 = Report::new(
        "fig6",
        "Effects of data arrival (paper Fig. 6), image dataset: online vs offline",
        &[
            "arrival",
            "P[online]",
            "P[offline]",
            "R[online]",
            "R[offline]",
        ],
    );
    for (i, (on, off)) in curve.iter().enumerate() {
        let off = off.expect("offline evaluated each step for fig6");
        fig6.push_row(vec![
            format!("{}%", (i + 1) * 100 / curve.len()),
            f3(on.precision),
            f3(off.precision),
            f3(on.recall),
            f3(off.recall),
        ]);
    }
    fig6.note(format!(
        "forgetting rate r = {FORGETTING_RATE}, {ARRIVAL_STEPS} worker batches"
    ));
    fig6.note("paper: online trails offline by a few points throughout but beats all baselines");

    // --- Table 5: final accuracy for all datasets --------------------------
    let mut table5 = Report::new(
        "table5",
        "Effects of data arrival at 100% (paper Table 5): online ±std vs offline",
        &[
            "dataset",
            "P[online]",
            "P[offline]",
            "R[online]",
            "R[offline]",
        ],
    );
    for profile in DatasetProfile::all_five() {
        let scaled = profile.clone().scaled(cfg.scale);
        let mut pon = Vec::new();
        let mut ron = Vec::new();
        let mut poff = Vec::new();
        let mut roff = Vec::new();
        for rep in 0..cfg.reps.max(1) {
            let seed = cfg.seed.wrapping_add(1000 * rep as u64);
            let sim = simulate(&scaled, seed);
            let curve = arrival_curve(&sim.dataset, seed, false);
            let (on, off) = curve.last().expect("at least one batch");
            let off = off.expect("offline evaluated at the final step");
            pon.push(on.precision);
            ron.push(on.recall);
            poff.push(off.precision);
            roff.push(off.recall);
        }
        table5.push_row(vec![
            profile.name.clone(),
            pm(mean(&pon), std_dev(&pon)),
            f3(mean(&poff)),
            pm(mean(&ron), std_dev(&ron)),
            f3(mean(&roff)),
        ]);
    }
    table5.note("paper: online is 3–8 points below offline on every dataset (e.g. image 0.76±.02 vs 0.81 precision)");
    vec![fig6, table5]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_final_close_to_offline() {
        let profile = DatasetProfile::movie().scaled(0.05);
        let sim = simulate(&profile, 171);
        let curve = arrival_curve(&sim.dataset, 171, false);
        let (on, off) = curve.last().unwrap();
        let off = off.unwrap();
        assert!(
            on.recall > off.recall - 0.25,
            "online R {} vs offline R {}",
            on.recall,
            off.recall
        );
        assert!(on.precision > 0.3 && off.precision > 0.3);
    }

    #[test]
    fn curve_has_one_entry_per_batch() {
        let profile = DatasetProfile::movie().scaled(0.05);
        let sim = simulate(&profile, 173);
        let curve = arrival_curve(&sim.dataset, 173, true);
        assert!(curve.len() <= ARRIVAL_STEPS + 1);
        assert!(!curve.is_empty());
        for (_, off) in &curve {
            assert!(off.is_some());
        }
    }
}
