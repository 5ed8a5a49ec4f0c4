//! Truth estimation for the unsupervised setting.
//!
//! All of the paper's experiments run with no known true labels (`ȳ = ∅`,
//! §5.1). Because `x ⊥ y | l` in the CPA graph, Eq. 7 alone would then never
//! move the truth distributions `φ_t` off their priors (DESIGN.md deviation
//! #2). This module closes the loop with a *community-reliability-weighted
//! consensus*:
//!
//! 1. score each worker community by the mutual information between item
//!    cluster and emitted label — spammer communities (whose answers do not
//!    co-vary with the item) score ≈ 0;
//! 2. weight each worker by its communities' scores;
//! 3. form per-item soft labels as the weighted per-label vote;
//! 4. feed those soft labels into Eq. 7, where the item clusters pool them —
//!    giving the co-occurrence recovery of requirement R3.
//!
//! Items with *observed* truths (test questions, §3.2) bypass the soft
//! estimate and enter Eq. 7 exactly as in the paper.
//!
//! # Bit identity of the shared log term
//!
//! A worker's informativeness sums `q_t·p·ln(p/mg)` over every (cluster,
//! label). For a label the worker never used, `p` and `mg` are the same in
//! every such label of a cluster, so the term is taken once per cluster and
//! that one value is added per label, still in label order. It equals the
//! value the inline expression would produce, and the summation order is
//! unchanged, so the estimate is bit-identical to taking every log in place
//! — the unit tests compare against that form with `f64::to_bits`.

use crate::params::VariationalParams;
use cpa_data::answers::AnswerMatrix;
use cpa_data::labels::LabelSet;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Optional per-item known truths (`ȳ ⊆ y` of the paper).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KnownLabels {
    known: Vec<Option<LabelSet>>,
}

impl KnownLabels {
    /// No known labels for any of `num_items` items (the fully unsupervised
    /// setting used throughout the paper's evaluation).
    pub fn none(num_items: usize) -> Self {
        Self {
            known: vec![None; num_items],
        }
    }

    /// Builds from explicit `(item, labels)` pairs.
    pub fn from_pairs(
        num_items: usize,
        pairs: impl IntoIterator<Item = (usize, LabelSet)>,
    ) -> Self {
        let mut known = vec![None; num_items];
        for (i, l) in pairs {
            assert!(i < num_items, "item {i} out of range");
            known[i] = Some(l);
        }
        Self { known }
    }

    /// The known labels of an item, if any.
    pub fn get(&self, item: usize) -> Option<&LabelSet> {
        self.known.get(item).and_then(|o| o.as_ref())
    }

    /// Number of items with known truth.
    pub fn count(&self) -> usize {
        self.known.iter().filter(|o| o.is_some()).count()
    }

    /// Number of items covered (known or not).
    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// True when no item has a known truth.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }
}

/// The soft truth estimate produced each inference iteration.
///
/// Serializable so a serving layer can ship it over a wire (`cpa-serve`'s
/// `Estimated` reply); all fields are plain numeric vectors, so a JSON
/// round trip is value-exact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TruthEstimate {
    /// Sparse per-item soft labels `(label, E[y_ic])` with `E[y_ic] ∈ (0,1]`,
    /// restricted to labels some worker voted for (or the known truth).
    pub soft: Vec<Vec<(usize, f64)>>,
    /// Expected label-set size `n̂_i` per item (reliability-weighted mean
    /// answer size; exact size for items with known truth).
    pub expected_size: Vec<f64>,
    /// Per-worker reliability weight `w_u = Σ_m κ_um rel_m`.
    pub worker_weight: Vec<f64>,
    /// Per-community informativeness `rel_m`.
    pub community_reliability: Vec<f64>,
}

/// Community informativeness `rel_m = Σ_t p_t KL(ψ̄_tm ‖ Σ_t' p_t' ψ̄_t'm)` —
/// the mutual information `I(cluster; label)` under community `m`'s answer
/// model. A community whose answers do not depend on the item cluster
/// (uniform or random spammers, paper §2.1) scores ≈ 0.
pub fn community_reliability(params: &VariationalParams) -> Vec<f64> {
    let psi = params.psi_mean();
    let p_t = params.cluster_mass();
    let c = params.num_labels;
    let mut rel = Vec::with_capacity(params.m);
    for m in 0..params.m {
        // Marginal answer distribution of community m across clusters.
        let mut marginal = vec![0.0; c];
        for (t, &pt) in p_t.iter().enumerate() {
            let row = psi.row(params.tm(t, m));
            for (mg, &v) in marginal.iter_mut().zip(row) {
                *mg += pt * v;
            }
        }
        let mut mi = 0.0;
        for (t, &pt) in p_t.iter().enumerate() {
            if pt <= 0.0 {
                continue;
            }
            let row = psi.row(params.tm(t, m));
            for (&pc, &mc) in row.iter().zip(&marginal) {
                if pc > 0.0 && mc > 0.0 {
                    mi += pt * pc * (pc / mc).ln();
                }
            }
        }
        rel.push(mi.max(0.0));
    }
    rel
}

/// Number of agreement-refinement rounds inside [`estimate_truth`]. Bounded
/// to avoid the self-reinforcing-majority failure mode of iterative weighted
/// voting.
const AGREEMENT_ROUNDS: usize = 2;

/// Fixed chunk width for the parallel per-item / per-worker passes. The
/// chunking is independent of the width, and every chunk's outputs are
/// written to disjoint output positions, so runs of any width produce
/// bit-identical results.
const CHUNK: usize = 128;

/// Runs `f` over `0..n` in fixed [`CHUNK`]-wide ranges at the installed
/// width and concatenates the per-chunk outputs in range order. `f` must
/// return one output per index of its range.
fn chunked_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    let ranges: Vec<Range<usize>> = (0..n.div_ceil(CHUNK))
        .map(|k| k * CHUNK..((k + 1) * CHUNK).min(n))
        .collect();
    let parts: Vec<Vec<R>> = ranges.into_par_iter().map(&f).collect();
    parts.into_iter().flatten().collect()
}

/// Produces the soft truth estimate given the current variational posterior.
///
/// Worker weights combine two signals:
/// - the *community* informativeness `Σ_m κ_um rel_m` (requirement R1 —
///   spammer communities answer independently of the item cluster);
/// - the worker's label-level *agreement* with the current weighted consensus
///   (requirement R2 — answers are partially sound/complete, so validity is
///   assessed per label via a soft Jaccard overlap), sharpened quadratically
///   and refined over a bounded number of rounds.
///
/// The passes run at the width the caller installed (`chunked_map`).
pub fn estimate_truth(
    params: &VariationalParams,
    answers: &AnswerMatrix,
    known: &KnownLabels,
) -> TruthEstimate {
    let rel = community_reliability(params);
    let max_rel = rel.iter().copied().fold(0.0, f64::max);
    // Weight floor: even a zero-MI community retains a sliver of influence so
    // that a crowd of indistinguishable workers degrades to majority voting
    // (the paper's M → 0 limit) instead of to silence.
    let floor = 0.05 * max_rel + 1e-6;
    // Empirical-Bayes shrinkage: the community informativeness is the prior,
    // the worker's own informativeness (same MI statistic over the worker's
    // empirical answer distribution per cluster) is the likelihood. Workers
    // with many answers are judged individually; sparse workers inherit their
    // community's score — exactly the sparse-data robustness the paper
    // attributes to community modelling (R1).
    const SHRINKAGE: f64 = 12.0;
    let indiv = per_worker_informativeness(params, answers);
    let community_weight: Vec<f64> = (0..params.num_workers)
        .map(|u| {
            let kappa = params.kappa.row(u);
            let comm: f64 = kappa.iter().zip(&rel).map(|(&k, &r)| k * r).sum();
            let n_u = answers.worker_answers(u).len() as f64;
            (n_u * indiv[u] + SHRINKAGE * comm) / (n_u + SHRINKAGE) + floor
        })
        .collect();

    let mut worker_weight = community_weight.clone();
    let mut soft: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut expected_size: Vec<f64> = Vec::new();
    for round in 0..=AGREEMENT_ROUNDS {
        (soft, expected_size) = weighted_votes(params, answers, known, &worker_weight);
        if round == AGREEMENT_ROUNDS {
            break;
        }
        // Label-level agreement of each worker with the current consensus;
        // each worker's new weight depends only on the frozen `soft` and
        // `community_weight`, so the workers fan out independently.
        worker_weight = chunked_map(params.num_workers, |range| {
            range
                .map(|u| {
                    let wa = answers.worker_answers(u);
                    if wa.is_empty() {
                        return worker_weight[u];
                    }
                    let mut acc = 0.0;
                    for (item, labels) in wa {
                        acc += soft_jaccard(labels, &soft[*item as usize]);
                    }
                    let agreement = acc / wa.len() as f64;
                    // Quadratic sharpening separates near-random answerers
                    // from consistent ones; the small offset keeps weights
                    // positive.
                    community_weight[u] * (agreement * agreement + 0.01)
                })
                .collect()
        });
    }

    TruthEstimate {
        soft,
        expected_size,
        worker_weight,
        community_reliability: rel,
    }
}

/// Per-worker informativeness: the MI statistic of [`community_reliability`]
/// applied to the worker's *own* empirical answer distribution across item
/// clusters (additively smoothed by one pseudo-answer spread over the labels
/// to temper small-sample inflation).
fn per_worker_informativeness(params: &VariationalParams, answers: &AnswerMatrix) -> Vec<f64> {
    let tt = params.t;
    let c = params.num_labels;
    let smooth = 1.0 / c as f64;
    chunked_map(params.num_workers, |range| {
        // One counts buffer per chunk: zeroed between workers, allocated once.
        let mut out = Vec::with_capacity(range.len());
        let mut counts = vec![0.0f64; tt * c];
        for u in range {
            out.push(one_worker_informativeness(
                params,
                answers,
                u,
                smooth,
                &mut counts,
            ));
        }
        out
    })
}

/// The MI statistic for a single worker; `counts` is a caller-provided
/// `T × C` scratch buffer.
fn one_worker_informativeness(
    params: &VariationalParams,
    answers: &AnswerMatrix,
    u: usize,
    smooth: f64,
    counts: &mut [f64],
) -> f64 {
    let tt = params.t;
    let c = params.num_labels;
    {
        let wa = answers.worker_answers(u);
        if wa.is_empty() {
            return 0.0;
        }
        counts.fill(0.0);
        for (item, labels) in wa {
            let phi_row = params.phi.row(*item as usize);
            for (t, &p) in phi_row.iter().enumerate() {
                if p <= 1e-9 {
                    continue;
                }
                for lbl in labels.iter() {
                    counts[t * c + lbl] += p;
                }
            }
        }
        // Cluster masses and smoothed conditionals.
        let mut mass = vec![0.0; tt];
        for t in 0..tt {
            mass[t] = counts[t * c..(t + 1) * c].iter().sum();
        }
        let total: f64 = mass.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        // Marginal answer distribution (smoothed).
        let mut marginal = vec![0.0; c];
        for t in 0..tt {
            for (mg, &v) in marginal.iter_mut().zip(&counts[t * c..(t + 1) * c]) {
                *mg += v;
            }
        }
        // Counts are sums of positive masses, so a zero marginal count
        // means the label has a zero count in every cluster.
        let unused: Vec<bool> = marginal.iter().map(|&mg| mg == 0.0).collect();
        let mtot = total + 1.0;
        for mg in marginal.iter_mut() {
            *mg = (*mg + smooth) / mtot;
        }
        // `0.0 + smooth == smooth`, so these are exactly the smoothed
        // marginal and (below) conditional of every unused label.
        let unused_mg = smooth / mtot;
        let mut mi = 0.0;
        for t in 0..tt {
            if mass[t] <= 0.0 {
                continue;
            }
            let q_t = mass[t] / total;
            let denom = mass[t] + 1.0;
            let term = |p: f64, mg: f64| (p > 0.0 && mg > 0.0).then(|| q_t * p * (p / mg).ln());
            let unused_term = term(smooth / denom, unused_mg);
            for (lbl, &mg) in marginal.iter().enumerate() {
                let contribution = if unused[lbl] {
                    unused_term
                } else {
                    term((counts[t * c + lbl] + smooth) / denom, mg)
                };
                if let Some(x) = contribution {
                    mi += x;
                }
            }
        }
        mi.max(0.0)
    }
}

/// Soft Jaccard overlap between a crisp answer and a sparse soft label vector.
fn soft_jaccard(answer: &LabelSet, soft: &[(usize, f64)]) -> f64 {
    let mut inter = 0.0;
    let mut soft_mass = 0.0;
    for &(c, v) in soft {
        soft_mass += v;
        if answer.contains(c) {
            inter += v;
        }
    }
    let union = answer.len() as f64 + soft_mass - inter;
    if union <= 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// One weighted-voting pass: per-item sparse soft labels and expected sizes.
fn weighted_votes(
    params: &VariationalParams,
    answers: &AnswerMatrix,
    known: &KnownLabels,
    worker_weight: &[f64],
) -> (Vec<Vec<(usize, f64)>>, Vec<f64>) {
    let per_item = chunked_map(params.num_items, |range| {
        range
            .map(|i| {
                if let Some(truth) = known.get(i) {
                    return (truth.iter().map(|c| (c, 1.0)).collect(), truth.len() as f64);
                }
                let item_answers = answers.item_answers(i);
                if item_answers.is_empty() {
                    return (Vec::new(), 0.0);
                }
                let mut total_w = 0.0;
                let mut size_acc = 0.0;
                let mut votes: Vec<(usize, f64)> = Vec::new();
                for (w, labels) in item_answers {
                    let wu = worker_weight[*w as usize];
                    total_w += wu;
                    size_acc += wu * labels.len() as f64;
                    for c in labels.iter() {
                        match votes.iter_mut().find(|(lc, _)| *lc == c) {
                            Some((_, v)) => *v += wu,
                            None => votes.push((c, wu)),
                        }
                    }
                }
                for (_, v) in votes.iter_mut() {
                    *v /= total_w;
                }
                votes.retain(|&(_, v)| v > 1e-9);
                votes.sort_unstable_by_key(|&(c, _)| c);
                (votes, size_acc / total_w)
            })
            .collect()
    });
    per_item.into_iter().unzip()
}

/// Eq. 7 with the soft estimate: `ζ_tc = ζ_0 + Σ_i ϕ_it E[y_ic]`.
pub fn update_zeta(params: &mut VariationalParams, estimate: &TruthEstimate, eta0: f64) {
    params.zeta.fill(eta0);
    for i in 0..params.num_items {
        for &(c, v) in &estimate.soft[i] {
            for t in 0..params.t {
                let p = params.phi.get(i, t);
                if p > 1e-12 {
                    params.zeta.add(t, c, p * v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpaConfig;
    use cpa_math::rng::seeded;

    /// Builds params with a planted structure: 2 communities, 2 clusters,
    /// 4 labels. Community 0 is informative (answers depend on the cluster),
    /// community 1 answers identically everywhere (uniform-spammer-like).
    fn planted() -> (VariationalParams, AnswerMatrix) {
        let mut rng = seeded(7);
        let cfg = CpaConfig::default().with_truncation(2, 2);
        let mut p = VariationalParams::init(&cfg, 4, 4, 4, &mut rng);
        // Hard assignments: workers 0,1 → community 0; workers 2,3 → 1.
        for u in 0..4 {
            let row = p.kappa.row_mut(u);
            row.fill(0.0);
            row[usize::from(u >= 2)] = 1.0;
        }
        // Items 0,1 → cluster 0; items 2,3 → cluster 1.
        for i in 0..4 {
            let row = p.phi.row_mut(i);
            row.fill(0.0);
            row[usize::from(i >= 2)] = 1.0;
        }
        // λ: community 0 emits labels {0,1} on cluster 0 and {2,3} on
        // cluster 1; community 1 always emits label 0.
        p.lambda.fill(0.1);
        for (t, m, c, v) in [
            (0, 0, 0, 10.0),
            (0, 0, 1, 10.0),
            (1, 0, 2, 10.0),
            (1, 0, 3, 10.0),
            (0, 1, 0, 20.0),
            (1, 1, 0, 20.0),
        ] {
            let row = p.tm(t, m);
            p.lambda.set(row, c, v);
        }
        // Answers: worker 0 (informative) and worker 2 (spammer) answer all.
        let mut ans = AnswerMatrix::new(4, 4, 4);
        for i in 0..4 {
            let good = if i < 2 {
                LabelSet::from_labels(4, [0, 1])
            } else {
                LabelSet::from_labels(4, [2, 3])
            };
            ans.insert(i, 0, good.clone());
            ans.insert(i, 1, good);
            ans.insert(i, 2, LabelSet::from_labels(4, [0]));
        }
        (p, ans)
    }

    /// Per-worker informativeness with every log taken inline, once per
    /// (cluster, label): the reference the shared-term kernel must match
    /// bit for bit.
    fn reference_worker_informativeness(
        params: &VariationalParams,
        answers: &AnswerMatrix,
        u: usize,
    ) -> f64 {
        let tt = params.t;
        let c = params.num_labels;
        let smooth = 1.0 / c as f64;
        let wa = answers.worker_answers(u);
        if wa.is_empty() {
            return 0.0;
        }
        let mut counts = vec![0.0f64; tt * c];
        for (item, labels) in wa {
            for (t, &p) in params.phi.row(*item as usize).iter().enumerate() {
                if p <= 1e-9 {
                    continue;
                }
                for lbl in labels.iter() {
                    counts[t * c + lbl] += p;
                }
            }
        }
        let mass: Vec<f64> = (0..tt)
            .map(|t| counts[t * c..(t + 1) * c].iter().sum())
            .collect();
        let total: f64 = mass.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mut marginal = vec![0.0; c];
        for t in 0..tt {
            for (mg, &v) in marginal.iter_mut().zip(&counts[t * c..(t + 1) * c]) {
                *mg += v;
            }
        }
        let mtot = total + 1.0;
        for mg in marginal.iter_mut() {
            *mg = (*mg + smooth) / mtot;
        }
        let mut mi = 0.0;
        for t in 0..tt {
            if mass[t] <= 0.0 {
                continue;
            }
            let q_t = mass[t] / total;
            let denom = mass[t] + 1.0;
            for (lbl, &mg) in marginal.iter().enumerate() {
                let p = (counts[t * c + lbl] + smooth) / denom;
                if p > 0.0 && mg > 0.0 {
                    mi += q_t * p * (p / mg).ln();
                }
            }
        }
        mi.max(0.0)
    }

    #[test]
    fn shared_log_term_matches_the_inline_reference_bit_for_bit() {
        use cpa_data::profile::DatasetProfile;
        use cpa_data::simulate::simulate;
        let sim = simulate(&DatasetProfile::movie().scaled(0.08), 31);
        let mut answers = sim.dataset.answers.clone();
        let c = answers.num_labels();
        let cfg = CpaConfig::default().with_truncation(8, 10).with_seed(31);
        let mut params = VariationalParams::init(
            &cfg,
            answers.num_items(),
            answers.num_workers(),
            c,
            &mut seeded(cfg.seed),
        );
        let known = KnownLabels::none(answers.num_items());
        crate::inference::run_batch_vi(&cfg, &mut params, &answers, &known);
        let active: Vec<usize> = (0..answers.num_workers())
            .filter(|&u| !answers.worker_answers(u).is_empty())
            .take(2)
            .collect();
        let (all_labels, zero_mass) = (active[0], active[1]);
        // One worker answers one of its items with every label...
        let item = answers.worker_answers(all_labels)[0].0 as usize;
        answers.remove(item, all_labels);
        answers.insert(item, all_labels, LabelSet::from_labels(c, 0..c));
        // ...and another's items carry no mass on cluster 0.
        let items: Vec<usize> = answers
            .worker_answers(zero_mass)
            .iter()
            .map(|(i, _)| *i as usize)
            .collect();
        for i in items {
            let row = params.phi.row_mut(i);
            row[0] = 0.0;
            cpa_math::simplex::normalize_in_place(row);
        }
        let got = per_worker_informativeness(&params, &answers);
        for (u, x) in got.iter().enumerate() {
            assert_eq!(
                x.to_bits(),
                reference_worker_informativeness(&params, &answers, u).to_bits(),
                "worker {u}"
            );
        }
    }

    #[test]
    fn informative_community_scores_higher() {
        let (p, _) = planted();
        let rel = community_reliability(&p);
        assert!(
            rel[0] > 5.0 * rel[1].max(1e-6),
            "informative {} vs spammer {}",
            rel[0],
            rel[1]
        );
    }

    #[test]
    fn worker_weights_follow_communities() {
        let (p, ans) = planted();
        let est = estimate_truth(&p, &ans, &KnownLabels::none(4));
        // Workers 0,1 in the informative community outweigh workers 2,3.
        assert!(est.worker_weight[0] > 2.0 * est.worker_weight[2]);
        assert_eq!(est.worker_weight[0], est.worker_weight[1]);
    }

    #[test]
    fn soft_truth_downweights_spammer_votes() {
        let (p, ans) = planted();
        let est = estimate_truth(&p, &ans, &KnownLabels::none(4));
        // Item 2's true-ish labels are {2,3} (voted by informative workers);
        // the spammer voted {0}.
        let soft: std::collections::HashMap<usize, f64> = est.soft[2].iter().copied().collect();
        assert!(soft[&2] > 0.85);
        assert!(soft[&3] > 0.85);
        assert!(soft.get(&0).copied().unwrap_or(0.0) < 0.3);
    }

    #[test]
    fn expected_size_tracks_reliable_answers() {
        let (p, ans) = planted();
        let est = estimate_truth(&p, &ans, &KnownLabels::none(4));
        // Reliable answers have 2 labels; spammer 1 label. Weighted mean ≈ 2.
        assert!(est.expected_size[0] > 1.6 && est.expected_size[0] <= 2.0);
    }

    #[test]
    fn known_labels_override() {
        let (p, ans) = planted();
        let known = KnownLabels::from_pairs(4, [(1, LabelSet::from_labels(4, [3]))]);
        let est = estimate_truth(&p, &ans, &known);
        assert_eq!(est.soft[1], vec![(3, 1.0)]);
        assert_eq!(est.expected_size[1], 1.0);
        assert_eq!(known.count(), 1);
        assert!(!known.is_empty());
    }

    #[test]
    fn zeta_update_concentrates_on_cluster_labels() {
        let (mut p, ans) = planted();
        let est = estimate_truth(&p, &ans, &KnownLabels::none(4));
        update_zeta(&mut p, &est, 0.1);
        // Cluster 0's ζ mass should be on labels {0,1}, cluster 1's on {2,3}.
        let z0 = p.zeta.row(0);
        let z1 = p.zeta.row(1);
        assert!(z0[0] + z0[1] > 3.0 * (z0[2] + z0[3]));
        assert!(z1[2] + z1[3] > 3.0 * (z1[0] + z1[1]));
    }

    #[test]
    fn unanswered_item_gets_empty_estimate() {
        let (p, mut ans) = planted();
        // Remove all answers of item 3.
        ans.remove(3, 0);
        ans.remove(3, 1);
        ans.remove(3, 2);
        let est = estimate_truth(&p, &ans, &KnownLabels::none(4));
        assert!(est.soft[3].is_empty());
        assert_eq!(est.expected_size[3], 0.0);
    }

    #[test]
    fn known_labels_out_of_range_rejected() {
        let r = std::panic::catch_unwind(|| KnownLabels::from_pairs(2, [(5, LabelSet::empty(3))]));
        assert!(r.is_err());
    }
}
