//! MapReduce phases for stochastic inference — the paper's Algorithm 3.
//!
//! "When the global variables are given, the updates to local variables
//! become independent and can thus be computed concurrently" (§4.2). The MAP
//! phase computes, *per worker of the current batch*, the new community
//! responsibilities `κ_u` (Eq. 2) and the per-(item, cluster) evidence
//! contributions `a_it = Σ_m κ_um E[ln p(x_iu | ψ_tm)]` (Eq. 15). The REDUCE
//! phase (in [`crate::svi`]) accumulates these messages into natural
//! gradients and applies the global updates. The partition key is the worker,
//! exactly as the paper prescribes.
//!
//! The MAP phase runs at the width the caller installs around the step (see
//! `shims/README.md`), so the Fig. 7 series (online / online-4 / online-16)
//! is one installed pool away. Each worker's transient state — the flattened
//! per-answer score table and the κ working vector — lives in a
//! [`WorkerScratch`] drawn from a [`ScratchPool`], so the steady-state MAP
//! phase performs no allocation beyond its emitted messages: threads scan the
//! CSR answer slices and write into reused, contiguous buffers.

use crate::params::VariationalParams;
use cpa_data::answers::AnswerMatrix;
use cpa_math::matrix::Mat;
use cpa_math::simplex::log_normalize;
use rayon::prelude::*;
use std::sync::Mutex;

/// The MAP-phase output for one worker (the `emit {κ_um, a_it}` of
/// Algorithm 3).
#[derive(Debug, Clone)]
pub struct WorkerMessage {
    /// The worker index.
    pub worker: usize,
    /// Updated community responsibilities `κ_u` (length `M`).
    pub kappa: Vec<f64>,
    /// Per answered item, the evidence vector `a_i·` over clusters
    /// (`(item, [a_it; T])`).
    pub a_contrib: Vec<(usize, Vec<f64>)>,
}

/// Reusable per-thread workspace for [`map_worker`]: the flattened score
/// table (`table[a · T·M + t·M + m]`, one `T × M` block per answer of the
/// worker) and the κ logit vector. Buffers only grow, so after the first few
/// workers a thread's MAP iterations allocate nothing.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    table: Vec<f64>,
    kappa: Vec<f64>,
}

impl WorkerScratch {
    /// Fresh, empty scratch; buffers are sized lazily by the first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the buffers for a worker with `num_answers` answers under a
    /// `T × M` truncation, reusing capacity from previous workers.
    fn prepare(&mut self, num_answers: usize, stride: usize, m: usize) {
        self.table.clear();
        self.table.resize(num_answers * stride, 0.0);
        self.kappa.clear();
        self.kappa.resize(m, 0.0);
    }
}

/// A shared pool of [`WorkerScratch`] buffers: each map task borrows one for
/// the duration of a worker, so a pool running `k` threads stabilises at `k`
/// scratches regardless of batch size. The mutex is held only for the
/// pop/push, never during the MAP computation itself.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<WorkerScratch>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a scratch checked out of the pool (allocating a fresh
    /// one only when every scratch is in use), returning it afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut WorkerScratch) -> R) -> R {
        let mut scratch = self
            .free
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        let out = f(&mut scratch);
        self.free
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
        out
    }
}

/// Runs the MAP phase for a batch of workers at the installed width, with
/// per-thread scratch buffers drawn from `scratch`. Message order follows
/// `workers` at every width, so the downstream REDUCE is deterministic.
pub fn map_phase(
    params: &VariationalParams,
    answers: &AnswerMatrix,
    eln_psi: &Mat,
    eln_pi: &[f64],
    workers: &[usize],
    scratch: &ScratchPool,
) -> Vec<WorkerMessage> {
    workers
        .par_iter()
        .map(|&u| scratch.with(|s| map_worker(params, answers, eln_psi, eln_pi, u, s)))
        .collect()
}

/// The MAP computation for a single worker: Eq. 2 for `κ_u`, then the
/// `a_it` evidence of each of the worker's answers under the *new* `κ_u`.
/// The worker's answers arrive as one contiguous CSR slice; all transient
/// state lives in `scratch`.
pub fn map_worker(
    params: &VariationalParams,
    answers: &AnswerMatrix,
    eln_psi: &Mat,
    eln_pi: &[f64],
    u: usize,
    scratch: &mut WorkerScratch,
) -> WorkerMessage {
    let mm = params.m;
    let tt = params.t;
    let stride = tt * mm;
    let worker_answers = answers.worker_answers(u);
    scratch.prepare(worker_answers.len(), stride, mm);

    // Eq. 2: κ_um ∝ exp(Σ_i Σ_t ϕ_it E[ln p(x_iu|ψ_tm)] + E[ln π_m]).
    // The per-answer score table s[t·M + m] is filled in the same pass and
    // reused for the a_it computation below.
    let kappa = &mut scratch.kappa;
    kappa.copy_from_slice(eln_pi);
    for (a_idx, (item, labels)) in worker_answers.iter().enumerate() {
        let i = *item as usize;
        let phi_row = params.phi.row(i);
        let table = &mut scratch.table[a_idx * stride..(a_idx + 1) * stride];
        for (t, &p) in phi_row.iter().enumerate().take(tt) {
            let base = t * mm;
            for m in 0..mm {
                let row = eln_psi.row(base + m);
                let s: f64 = labels.iter().map(|c| row[c]).sum();
                table[base + m] = s;
                if p > 1e-12 {
                    kappa[m] += p * s;
                }
            }
        }
    }
    log_normalize(kappa);

    // a_it = Σ_m κ_um E[ln p(x_iu | ψ_tm)] for each answered item.
    let a_contrib = worker_answers
        .iter()
        .enumerate()
        .map(|(a_idx, (item, _))| {
            let table = &scratch.table[a_idx * stride..(a_idx + 1) * stride];
            let mut a = vec![0.0; tt];
            for (t, at) in a.iter_mut().enumerate() {
                let base = t * mm;
                let mut s = 0.0;
                for (m, &k) in kappa.iter().enumerate() {
                    if k > 1e-12 {
                        s += k * table[base + m];
                    }
                }
                *at = s;
            }
            (*item as usize, a)
        })
        .collect();

    WorkerMessage {
        worker: u,
        kappa: kappa.clone(),
        a_contrib,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpaConfig;
    use cpa_data::profile::DatasetProfile;
    use cpa_data::simulate::simulate;
    use cpa_math::rng::seeded;
    use cpa_math::simplex::is_probability_vector;

    fn setup() -> (VariationalParams, AnswerMatrix) {
        let sim = simulate(&DatasetProfile::movie().scaled(0.05), 71);
        let cfg = CpaConfig::default().with_truncation(6, 8);
        let mut rng = seeded(1);
        let params = VariationalParams::init(
            &cfg,
            sim.dataset.num_items(),
            sim.dataset.num_workers(),
            sim.dataset.num_labels(),
            &mut rng,
        );
        (params, sim.dataset.answers.clone())
    }

    #[test]
    fn map_worker_emits_valid_messages() {
        let (params, answers) = setup();
        let eln_psi = params.expected_log_psi();
        let eln_pi = params.rho.expected_log_weights();
        let u = (0..params.num_workers)
            .find(|&u| !answers.worker_answers(u).is_empty())
            .expect("some active worker");
        let mut scratch = WorkerScratch::new();
        let msg = map_worker(&params, &answers, &eln_psi, &eln_pi, u, &mut scratch);
        assert_eq!(msg.worker, u);
        assert!(is_probability_vector(&msg.kappa, 1e-9));
        assert_eq!(msg.a_contrib.len(), answers.worker_answers(u).len());
        for (_, a) in &msg.a_contrib {
            assert_eq!(a.len(), params.t);
            assert!(a.iter().all(|x| x.is_finite() && *x < 0.0));
        }
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        // Running two different workers through the same scratch must give
        // bit-identical messages to running each through a fresh scratch.
        let (params, answers) = setup();
        let eln_psi = params.expected_log_psi();
        let eln_pi = params.rho.expected_log_weights();
        let active: Vec<usize> = (0..params.num_workers)
            .filter(|&u| !answers.worker_answers(u).is_empty())
            .take(4)
            .collect();
        let mut shared = WorkerScratch::new();
        for &u in &active {
            let reused = map_worker(&params, &answers, &eln_psi, &eln_pi, u, &mut shared);
            let mut fresh_scratch = WorkerScratch::new();
            let fresh = map_worker(&params, &answers, &eln_psi, &eln_pi, u, &mut fresh_scratch);
            assert_eq!(reused.kappa, fresh.kappa);
            assert_eq!(reused.a_contrib, fresh.a_contrib);
        }
    }

    #[test]
    fn parallel_map_equals_serial_map() {
        let (params, answers) = setup();
        let eln_psi = params.expected_log_psi();
        let eln_pi = params.rho.expected_log_weights();
        let workers: Vec<usize> = (0..params.num_workers).collect();
        let scratch = ScratchPool::new();
        let run = |threads| {
            crate::at_width(threads, || {
                map_phase(&params, &answers, &eln_psi, &eln_pi, &workers, &scratch)
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.worker, p.worker);
            assert_eq!(s.kappa, p.kappa);
            assert_eq!(s.a_contrib, p.a_contrib);
        }
    }

    #[test]
    fn inactive_worker_gets_prior_kappa() {
        let (params, mut answers) = setup();
        // Strip one worker's answers.
        let u = (0..params.num_workers)
            .find(|&u| !answers.worker_answers(u).is_empty())
            .unwrap();
        let items: Vec<u32> = answers.worker_answers(u).iter().map(|(i, _)| *i).collect();
        for i in items {
            answers.remove(i as usize, u);
        }
        let eln_psi = params.expected_log_psi();
        let eln_pi = params.rho.expected_log_weights();
        let mut scratch = WorkerScratch::new();
        let msg = map_worker(&params, &answers, &eln_psi, &eln_pi, u, &mut scratch);
        // κ equals the normalised prior stick weights.
        let mut expect = eln_pi.clone();
        log_normalize(&mut expect);
        for (a, b) in msg.kappa.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(msg.a_contrib.is_empty());
    }
}
