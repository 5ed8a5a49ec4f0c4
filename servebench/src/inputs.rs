//! The generated inputs of one run: the dataset, the preload and the write
//! stream with its send schedule, all fixed by the workload seed.

use crate::workload::{Workload, WriteShape};
use cpa_data::dataset::Dataset;
use cpa_data::profile::DatasetProfile;
use cpa_data::simulate::simulate;
use cpa_data::stream::WorkerStream;
use cpa_math::rng::seeded;
use cpa_serve::{FleetOp, ShardRouter};
use rand::Rng;
use std::time::Duration;

/// Shards per fleet on every workload.
pub const SHARDS: usize = 4;

/// The Fig. 7 synthetic profile at 2000 items × 2000 workers × 50 labels,
/// 20 answers per item (40k answers).
pub fn profile() -> DatasetProfile {
    cpa_eval::experiments::fig7::synthetic_profile(0.2, 20)
}

/// One write of the measured stream.
#[derive(Debug, Clone)]
pub struct Write {
    /// The `Ingest` op.
    pub op: FleetOp,
    /// When it is due, from the start of the stream.
    pub due: Duration,
    /// Answers it carries.
    pub answers: usize,
}

/// Everything a run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The simulated dataset (answers and truth).
    pub dataset: Dataset,
    /// `Ingest` ops applied during set-up, before the measured stream.
    pub preload: Vec<FleetOp>,
    /// The measured write stream.
    pub writes: Vec<Write>,
}

/// An `Ingest` of `workers`, keeping only answers on items `keep` accepts.
fn ingest_op(dataset: &Dataset, workers: &[usize], keep: impl Fn(usize) -> bool) -> FleetOp {
    let answers = workers
        .iter()
        .flat_map(|&w| {
            dataset
                .answers
                .worker_answers(w)
                .iter()
                .map(move |(item, labels)| (*item as usize, w, labels.to_vec()))
        })
        .filter(|(item, _, _)| keep(*item))
        .collect();
    FleetOp::Ingest {
        workers: workers.to_vec(),
        answers,
    }
}

fn answers_of(op: &FleetOp) -> usize {
    match op {
        FleetOp::Ingest { answers, .. } => answers.len(),
        _ => 0,
    }
}

impl Inputs {
    /// Simulates the dataset and builds `w`'s preload and `writes` writes.
    ///
    /// # Panics
    /// Panics if the dataset has too few workers for the stream — the
    /// stream must never run dry within a run.
    pub fn generate(w: &Workload, seed: u64, writes: usize) -> Self {
        let dataset = simulate(&profile(), seed).dataset;
        // Arrival order: every active worker, shuffled by the seed.
        let order: Vec<usize> = WorkerStream::new(&dataset, 1, &mut seeded(seed ^ 0x0a11_7e5d))
            .into_batches()
            .into_iter()
            .map(|b| b.workers[0])
            .collect();
        let preloaded = (order.len() as f64 * w.preload_share).round() as usize;
        let per_batch = preloaded.div_ceil(w.preload_batches.max(1)).max(1);
        let preload = order[..preloaded]
            .chunks(per_batch)
            .map(|ws| ingest_op(&dataset, ws, |_| true))
            .collect();
        let rest = &order[preloaded..];

        let ops: Vec<FleetOp> = match w.write_shape {
            WriteShape::Workers(n) => {
                assert!(
                    rest.len() >= writes * n,
                    "{}: {} workers left for {writes} writes of {n}",
                    w.name,
                    rest.len()
                );
                rest.chunks(n)
                    .take(writes)
                    .map(|ws| ingest_op(&dataset, ws, |_| true))
                    .collect()
            }
            WriteShape::OneShard => {
                // Write k carries one worker's answers on shard k mod K only,
                // so it dirties exactly that shard.
                let router = ShardRouter::new(SHARDS);
                let mut used = vec![false; rest.len()];
                (0..writes)
                    .map(|k| {
                        let shard = k % SHARDS;
                        let on_shard = |wk: usize| {
                            dataset
                                .answers
                                .worker_answers(wk)
                                .iter()
                                .any(|(item, _)| router.route(*item as usize) == shard)
                        };
                        let pick = (0..rest.len())
                            .find(|&p| !used[p] && on_shard(rest[p]))
                            .unwrap_or_else(|| panic!("{}: no worker left for write {k}", w.name));
                        used[pick] = true;
                        ingest_op(&dataset, &[rest[pick]], |item| router.route(item) == shard)
                    })
                    .collect()
            }
        };

        // Write k is due at (k + 1/4 + j) / rate, with j drawn from the
        // seed in [-1/4, 1/4): even spacing, so latency tails come from the
        // program rather than from arrival bursts.
        let mut rng = seeded(seed ^ 0x5c4e_d01e);
        let writes = ops
            .into_iter()
            .enumerate()
            .map(|(k, op)| {
                let jitter = rng.random::<f64>() / 2.0 - 0.25;
                let at = (k as f64 + 0.25 + jitter) / w.writes_per_s;
                Write {
                    answers: answers_of(&op),
                    op,
                    due: Duration::from_secs_f64(at),
                }
            })
            .collect();
        Self {
            dataset,
            preload,
            writes,
        }
    }
}
