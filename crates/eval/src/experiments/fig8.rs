//! Fig. 8 — importance of the model structures (§5.4): CPA vs *No Z*
//! (no worker communities) vs *No L* (no item clusters). As in the paper,
//! No L is only tractable on small instances (the paper: only the movie
//! dataset); oversized cells are reported as "—".

use crate::metrics::evaluate;
use crate::report::{f3, Report};
use crate::runner::{cpa_config, run_method, EvalConfig, Method};
use cpa_core::ablation::{fit_ablated, Ablation, ABLATION_SIZE_LIMIT};
use cpa_data::profile::DatasetProfile;
use cpa_data::simulate::simulate;

/// Runs the ablation experiment.
pub fn run(cfg: &EvalConfig) -> Report {
    let mut r = Report::new(
        "fig8",
        "Effects of model aspects (paper Fig. 8): CPA vs No Z vs No L",
        &[
            "dataset", "P[CPA]", "P[NoZ]", "P[NoL]", "R[CPA]", "R[NoZ]", "R[NoL]",
        ],
    );
    for profile in DatasetProfile::all_five() {
        r.push_row(row(&profile, cfg));
    }
    r.note("paper: CPA highest on both metrics; No Z loses precision (faulty workers undetected pooled), No L loses recall (no co-occurrence sharing); No L intractable beyond movie-scale label spaces");
    r
}

/// One dataset's row of [`run`]'s table.
fn row(profile: &DatasetProfile, cfg: &EvalConfig) -> Vec<String> {
    let scaled = profile.clone().scaled(cfg.scale);
    let sim = simulate(&scaled, cfg.seed);
    let d = &sim.dataset;
    let full = evaluate(&run_method(Method::Cpa, d, cfg.seed), &d.truth);

    let noz = if d.num_workers() <= ABLATION_SIZE_LIMIT {
        let fitted = fit_ablated(&cpa_config(cfg.seed), &d.answers, Ablation::NoZ);
        Some(evaluate(&fitted.predict_all(&d.answers), &d.truth))
    } else {
        None
    };
    // No L additionally scales λ with I·M·C — cap the *work*, not just I.
    let nol_cost = d.num_items() * 15 * d.num_labels();
    let nol = if d.num_items() <= ABLATION_SIZE_LIMIT && nol_cost <= 40_000_000 {
        let fitted = fit_ablated(&cpa_config(cfg.seed), &d.answers, Ablation::NoL);
        Some(evaluate(&fitted.predict_all(&d.answers), &d.truth))
    } else {
        None
    };
    let cell = |m: Option<crate::metrics::PrMetrics>, f: fn(crate::metrics::PrMetrics) -> f64| {
        m.map(|x| f3(f(x))).unwrap_or_else(|| "—".to_string())
    };
    vec![
        profile.name.clone(),
        f3(full.precision),
        cell(noz, |m| m.precision),
        cell(nol, |m| m.precision),
        f3(full.recall),
        cell(noz, |m| m.recall),
        cell(nol, |m| m.recall),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_model_wins_on_movie_row() {
        let cfg = EvalConfig {
            scale: 0.08,
            reps: 1,
            ..EvalConfig::default()
        };
        let movie = row(&DatasetProfile::movie(), &cfg);
        assert_eq!(movie[0], "movie");
        let p_cpa: f64 = movie[1].parse().unwrap();
        let r_cpa: f64 = movie[4].parse().unwrap();
        // Both ablations must be present for movie (small enough).
        let p_noz: f64 = movie[2].parse().unwrap();
        let r_nol: f64 = movie[6].parse().unwrap();
        assert!(p_cpa >= p_noz - 0.1, "{movie:?}");
        assert!(r_cpa >= r_nol - 0.1, "{movie:?}");
    }

    #[test]
    fn the_table_has_a_row_per_dataset() {
        let cfg = EvalConfig {
            scale: 0.02,
            reps: 1,
            ..EvalConfig::default()
        };
        let r = run(&cfg);
        let names: Vec<&str> = r.rows.iter().map(|row| row[0].as_str()).collect();
        let want: Vec<String> = DatasetProfile::all_five()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, want, "{}", r.render());
        assert!(r.rows.iter().all(|row| row.len() == 7), "{}", r.render());
    }
}
