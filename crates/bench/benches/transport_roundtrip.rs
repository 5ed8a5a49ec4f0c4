//! Transport round-trip cost: the same op stream through a loopback
//! `cpa-transport` client vs the in-process fleet, written to
//! `BENCH_transport.json`.
//!
//! Per shard count (K ∈ {1, 4}): one warmup, then `CPA_BENCH_SAMPLES`
//! (default 3) timed runs of the full serving protocol — one framed
//! `Ingest` op per arrival batch, a `Refit`, a merged `Predict` — once
//! against `Fleet::apply` directly and once over a real loopback TCP
//! server **per wire codec** (JSON frames and the negotiated binary
//! codec), all through the shared harness of the `served` experiment
//! (`cpa_eval::experiments::served`), so the bench measures exactly what
//! the experiment compares. Loopback predictions are asserted
//! bit-identical to the warmup each run and across codecs (the wire adds
//! latency, never noise). Reported per mode: end-to-end ingest→predict
//! seconds, answers/sec, ingest ops/sec, mean per-op latency, and the
//! `wire_overhead` ratio (loopback vs in-process wall clock).
//!
//! A second family of series measures the **read-mostly** serving shape
//! the epoch-published read views exist for: after preloading half the
//! arrival stream and a refit, R reader clients (R ∈ {1, 2, 4}) hammer
//! reads concurrently while one writer streams further ingests at a ~5%
//! share of the op mix. Each (K, R) pair runs the view read path
//! (`read_path: "view"`, replies spliced handler-side from the current
//! `ReadView`'s per-shard row caches) twice: with full `Predict` reads
//! (`read_op: "full"`) and with item-ranged reads (`read_op: "ranged32"`,
//! 32 rotating items per `PredictItems`) — reported as reads/sec and mean
//! per-read RTT in `read_series`. Every series also reports
//! `dirty_shards`, the mean shards each timed-window write dirties under
//! the incremental views.
//!
//! A fourth leg per (K, R) — `read_path: "follower"` — measures
//! **replication**: the writes land on a leader whose `SubscribeOps`
//! mutation stream a pump forwards into a second, follower server (each
//! shipped op's epoch tag asserted against the follower's ack), while the
//! readers run the identical full-`Predict` loop against the follower's
//! epoch-published views. Comparable head-to-head with `("view", "full")`
//! at the same (K, R); `mean_lag_epochs`/`max_lag_epochs` report how far
//! the follower trailed the writer's acks (0 on the non-replicated legs).
//!
//! A fifth leg per (K, R) — `read_path: "push"` — measures the
//! **epoch-delta push subscriptions**: R `SubscribeReads` subscribers hold
//! delta-maintained caches while the writer streams ingests each narrowed
//! to a **single shard** (the delta-minimality shape: every pushed frame
//! carries one dirty shard's rows). Reported per entry: applied deltas/sec
//! (`reads_per_sec`), the mean **one-way** writer-ack→subscriber-apply
//! latency in `mean_read_rtt_micros` (not a round trip — the push path has
//! no request), staleness in the lag columns (subscriber epochs behind the
//! writer's acked head at each apply), and the wire economics:
//! `bytes_per_epoch` (mean pushed frame payload) vs `full_read_bytes`
//! (what a full-universe poll refetch ships per epoch under the same
//! codec). Both byte columns are 0 on the non-push legs. Every client of
//! the read-mostly, follower and push legs speaks JSON.
//!
//! Knobs: `CPA_BENCH_SCALE` (default 0.1), `CPA_BENCH_SAMPLES`,
//! `CPA_BENCH_THREADS` (fleet pool cap, default 4), `CPA_BENCH_READS`
//! (predicts per reader in the read-mostly series, default 300),
//! `CPA_BENCH_OUT` (default `BENCH_transport.json` in the workspace
//! root).

use cpa_data::simulate::simulate;
use cpa_eval::experiments::served::{arrival_ops, fleet_for, run_in_process, run_loopback_with};
use cpa_eval::runner::Method;
use cpa_transport::{FleetClient, FleetServer, ServerConfig, WireFormat};
use serde::Serialize;
use std::hint::black_box;

const SEED: u64 = 43;
const SHARD_COUNTS: [usize; 2] = [1, 4];

#[derive(Serialize)]
struct ModeSeries {
    mode: String,
    shards: usize,
    threads: usize,
    total_secs_min: f64,
    total_secs_median: f64,
    answers_per_sec: f64,
    ingest_ops_per_sec: f64,
    mean_ingest_rtt_micros: f64,
    wire_overhead_vs_in_process: f64,
}

/// One read-mostly contention run: R readers vs one ~5%-share writer,
/// reading either full-universe `Predict` or 32-item rotating
/// `PredictItems`.
#[derive(Serialize)]
struct ReadSeries {
    read_path: String,
    /// `"full"` (whole-universe `Predict`) or `"ranged32"` (32 rotating
    /// items per `PredictItems`).
    read_op: String,
    shards: usize,
    readers: usize,
    reads: usize,
    writes: usize,
    /// Mean shards dirtied per timed-window write — the incremental-view
    /// cost of each mutation (≤ shards; 1.0 when every ingest routes to a
    /// single shard).
    dirty_shards: f64,
    read_secs: f64,
    reads_per_sec: f64,
    mean_read_rtt_micros: f64,
    /// Mean lag in epochs behind the writer's acked head — replication lag
    /// on the follower leg (sampled at every shipped frame), staleness on
    /// the push leg (sampled at every applied delta). 0 for the view legs.
    mean_lag_epochs: f64,
    /// Worst lag observed, in epochs. 0 for the view legs.
    max_lag_epochs: f64,
    /// Mean pushed delta frame payload bytes per epoch (push leg only; 0
    /// elsewhere).
    bytes_per_epoch: f64,
    /// Encoded full-universe reply payload at the final epoch under the
    /// same codec — what a poll refetch ships per epoch (push leg only; 0
    /// elsewhere).
    full_read_bytes: f64,
}

#[derive(Serialize)]
struct BenchReport {
    workload: String,
    method: String,
    items: usize,
    workers: usize,
    answers: usize,
    labels: usize,
    batches: usize,
    samples_per_series: usize,
    host_available_parallelism: usize,
    series: Vec<ModeSeries>,
    read_series: Vec<ReadSeries>,
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Mean distinct shards each op's answers route to under a K-way router —
/// what the incremental views will mark dirty when these ops land.
fn mean_dirty_shards(ops: &[cpa_serve::FleetOp], shards: usize) -> f64 {
    let router = cpa_serve::ShardRouter::new(shards);
    let counts: Vec<f64> = ops
        .iter()
        .filter_map(|op| {
            let cpa_serve::FleetOp::Ingest { answers, .. } = op else {
                return None;
            };
            let mut hit = vec![false; shards];
            for (item, _, _) in answers {
                hit[router.route(*item)] = true;
            }
            Some(hit.iter().filter(|&&h| h).count() as f64)
        })
        .collect();
    if counts.is_empty() {
        0.0
    } else {
        counts.iter().sum::<f64>() / counts.len() as f64
    }
}

/// Boots a loopback server, preloads half the arrival ops plus a refit,
/// then times `readers` concurrent read clients racing one writer that
/// streams a ~5% share of further ingests. `read_op` is `"full"`
/// (whole-universe `Predict`) or `"ranged32"` (32 rotating items per
/// `PredictItems`).
fn read_mostly_run(
    d: &cpa_data::dataset::Dataset,
    shards: usize,
    threads: usize,
    ops: &[cpa_serve::FleetOp],
    readers: usize,
    reads_per_reader: usize,
    read_op: &str,
) -> ReadSeries {
    assert!(ops.len() >= 2, "need arrival ops to preload and to contend");
    let fleet = fleet_for(Method::CpaSvi, d, shards, threads, SEED);
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_clients: readers + 1,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds");
    let addr = server.local_addr().expect("bound address");
    let running = std::thread::spawn(move || server.serve(fleet).expect("serve completes"));

    // Preload half the arrival stream and refit so readers see a fitted
    // model; the tail is the writer's share during the timed window.
    let half = ops.len() / 2;
    let mut writer = FleetClient::connect_with(addr, WireFormat::Json).expect("writer connects");
    let ingest = |writer: &mut FleetClient, op: &cpa_serve::FleetOp| {
        let cpa_serve::FleetOp::Ingest { workers, answers } = op.clone() else {
            unreachable!("arrival_ops produces only ingest ops");
        };
        writer
            .ingest_tagged(workers, answers)
            .expect("arrival ingest");
    };
    for op in &ops[..half] {
        ingest(&mut writer, op);
    }
    writer.refit_tagged().expect("preload refit");

    let reads = readers * reads_per_reader;
    // ~5% writes in the op mix, bounded by the unplayed tail (≥ 1 so the
    // readers race a real mutation).
    let writes = (reads / 19).clamp(1, ops.len() - half);

    let ranged = read_op == "ranged32";
    let num_items = d.num_items();
    let start = std::time::Instant::now();
    let handles: Vec<_> = (0..readers)
        .map(|r| {
            std::thread::spawn(move || {
                let mut client =
                    FleetClient::connect_with(addr, WireFormat::Json).expect("reader connects");
                let mut rtt = 0.0;
                let mut last = 0u64;
                for n in 0..reads_per_reader {
                    if ranged {
                        // 32 rotating items, offset per reader and per
                        // read, so the probe sweeps the whole universe.
                        let probe: Vec<usize> = (0..32.min(num_items))
                            .map(|k| (r * 131 + n * 37 + k * 7) % num_items)
                            .collect();
                        let t = std::time::Instant::now();
                        let (preds, epoch) = client
                            .predict_items_tagged(probe)
                            .expect("ranged round trip");
                        rtt += t.elapsed().as_secs_f64();
                        assert!(epoch >= last, "reader epoch went backwards");
                        last = epoch;
                        black_box(preds);
                    } else {
                        let t = std::time::Instant::now();
                        let (preds, epoch) = client.predict_tagged().expect("predict round trip");
                        rtt += t.elapsed().as_secs_f64();
                        assert!(epoch >= last, "reader epoch went backwards");
                        last = epoch;
                        black_box(preds);
                    }
                }
                rtt
            })
        })
        .collect();
    for op in &ops[half..half + writes] {
        ingest(&mut writer, op);
    }
    let rtt_total: f64 = handles
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .sum();
    let read_secs = start.elapsed().as_secs_f64();
    writer.shutdown().expect("shutdown acknowledged");
    drop(writer);
    running.join().expect("server thread joins");

    ReadSeries {
        read_path: "view".to_string(),
        read_op: read_op.to_string(),
        shards,
        readers,
        reads,
        writes,
        dirty_shards: mean_dirty_shards(&ops[half..half + writes], shards),
        read_secs,
        reads_per_sec: reads as f64 / read_secs.max(1e-12),
        mean_read_rtt_micros: rtt_total / reads as f64 * 1e6,
        mean_lag_epochs: 0.0,
        max_lag_epochs: 0.0,
        bytes_per_epoch: 0.0,
        full_read_bytes: 0.0,
    }
}

/// The replication leg (`read_path: "follower"`): a leader fleet takes the
/// writes while a **follower** server — fed by a pump that subscribes to
/// the leader's mutation stream and forwards each epoch-tagged op,
/// asserting the follower acks the same epoch — serves all the reads from
/// its own epoch-published views. Readers run the identical full-`Predict`
/// loop as the other legs, so `mean_read_rtt_micros` is directly
/// comparable to `("view", "full")` at the same (K, R); the lag columns
/// report how far the follower trailed the writer's acks, in epochs.
fn follower_run(
    d: &cpa_data::dataset::Dataset,
    shards: usize,
    threads: usize,
    ops: &[cpa_serve::FleetOp],
    readers: usize,
    reads_per_reader: usize,
) -> ReadSeries {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    assert!(ops.len() >= 2, "need arrival ops to preload and to contend");
    let leader = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            // One subscription + one writer.
            max_clients: 2,
            ..ServerConfig::default()
        },
    )
    .expect("leader bind succeeds");
    let leader_addr = leader.local_addr().expect("leader address");
    let leader_fleet = fleet_for(Method::CpaSvi, d, shards, threads, SEED);
    let leader_running =
        std::thread::spawn(move || leader.serve(leader_fleet).expect("leader serve completes"));

    let follower = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            // The pump + the readers.
            max_clients: readers + 1,
            ..ServerConfig::default()
        },
    )
    .expect("follower bind succeeds");
    let follower_addr = follower.local_addr().expect("follower address");
    let follower_fleet = fleet_for(Method::CpaSvi, d, shards, threads, SEED);
    let follower_running = std::thread::spawn(move || {
        follower
            .serve(follower_fleet)
            .expect("follower serve completes")
    });

    let acked = Arc::new(AtomicU64::new(0));
    let applied = Arc::new(AtomicU64::new(0));

    // Subscribe from genesis before the first write, then pump every
    // shipped op into the follower server, sampling the lag per frame.
    let mut subscription = FleetClient::connect_with(leader_addr, WireFormat::Json)
        .expect("subscriber connects")
        .subscribe(0)
        .expect("subscription acked");
    let pump = {
        let (acked, applied) = (Arc::clone(&acked), Arc::clone(&applied));
        std::thread::spawn(move || {
            let mut to_follower = FleetClient::connect_with(follower_addr, WireFormat::Json)
                .expect("pump connects to follower");
            let mut lags = Vec::new();
            while let Some((epoch, op)) = subscription.next_frame().expect("shipped frame") {
                let reply = to_follower
                    .apply_op(&op)
                    .expect("follower accepts shipped op");
                assert_eq!(
                    reply.epoch(),
                    Some(epoch),
                    "follower ack epoch diverged from the shipped frame"
                );
                applied.store(epoch, Ordering::Relaxed);
                lags.push(acked.load(Ordering::Relaxed).saturating_sub(epoch));
            }
            // Leader wound down: the stream is at head — fail the follower
            // server over (here: just shut it down so its serve returns).
            to_follower.shutdown().expect("follower shutdown");
            lags
        })
    };

    // Preload half the stream plus a refit through the leader, then wait
    // for the follower to reach the preload epoch so readers measure a
    // caught-up replica, not a cold one.
    let half = ops.len() / 2;
    let mut writer =
        FleetClient::connect_with(leader_addr, WireFormat::Json).expect("writer connects");
    let ingest = |writer: &mut FleetClient, op: &cpa_serve::FleetOp| -> u64 {
        let cpa_serve::FleetOp::Ingest { workers, answers } = op.clone() else {
            unreachable!("arrival_ops produces only ingest ops");
        };
        writer
            .ingest_tagged(workers, answers)
            .expect("arrival ingest")
            .1
    };
    for op in &ops[..half] {
        let epoch = ingest(&mut writer, op);
        acked.store(epoch, Ordering::Relaxed);
    }
    let preload_epoch = writer.refit_tagged().expect("preload refit");
    acked.store(preload_epoch, Ordering::Relaxed);
    while applied.load(Ordering::Relaxed) < preload_epoch {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let reads = readers * reads_per_reader;
    let writes = (reads / 19).clamp(1, ops.len() - half);

    let start = std::time::Instant::now();
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = FleetClient::connect_with(follower_addr, WireFormat::Json)
                    .expect("reader connects");
                let mut rtt = 0.0;
                let mut last = 0u64;
                for _ in 0..reads_per_reader {
                    let t = std::time::Instant::now();
                    let (preds, epoch) = client.predict_tagged().expect("predict round trip");
                    rtt += t.elapsed().as_secs_f64();
                    assert!(epoch >= last, "reader epoch went backwards");
                    last = epoch;
                    black_box(preds);
                }
                rtt
            })
        })
        .collect();
    for op in &ops[half..half + writes] {
        let epoch = ingest(&mut writer, op);
        acked.store(epoch, Ordering::Relaxed);
    }
    let rtt_total: f64 = handles
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .sum();
    let read_secs = start.elapsed().as_secs_f64();

    writer.shutdown().expect("leader shutdown acknowledged");
    drop(writer);
    leader_running.join().expect("leader thread joins");
    let lags = pump.join().expect("pump thread joins");
    follower_running.join().expect("follower thread joins");

    let mean_lag = lags.iter().sum::<u64>() as f64 / lags.len().max(1) as f64;
    ReadSeries {
        read_path: "follower".to_string(),
        read_op: "full".to_string(),
        shards,
        readers,
        reads,
        writes,
        dirty_shards: mean_dirty_shards(&ops[half..half + writes], shards),
        read_secs,
        reads_per_sec: reads as f64 / read_secs.max(1e-12),
        mean_read_rtt_micros: rtt_total / reads as f64 * 1e6,
        mean_lag_epochs: mean_lag,
        max_lag_epochs: lags.iter().copied().max().unwrap_or(0) as f64,
        bytes_per_epoch: 0.0,
        full_read_bytes: 0.0,
    }
}

/// The push leg (`read_path: "push"`): R `SubscribeReads` subscribers hold
/// delta-maintained caches while the writer streams ingests each narrowed
/// to a **single shard**. There is no read request — `reads` counts
/// applied delta frames, `mean_read_rtt_micros` is the one-way
/// writer-ack→subscriber-apply latency, and the lag columns report how
/// many epochs behind the writer's acked head each delta was at apply
/// time. `bytes_per_epoch` (mean pushed frame payload) vs
/// `full_read_bytes` (the full-universe reply at the final epoch, encoded
/// locally under the same codec) is the wire economics a poll-vs-push
/// decision turns on.
fn push_run(
    d: &cpa_data::dataset::Dataset,
    shards: usize,
    threads: usize,
    ops: &[cpa_serve::FleetOp],
    readers: usize,
    reads_per_reader: usize,
) -> ReadSeries {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Instant;

    assert!(ops.len() >= 2, "need arrival ops to preload and to push");
    let fleet = fleet_for(Method::CpaSvi, d, shards, threads, SEED);
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            // R subscriptions (the slot cap is max_clients - 1, so this
            // grants exactly R) + the writer's connection.
            max_clients: readers + 1,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds");
    let addr = server.local_addr().expect("bound address");
    let running = std::thread::spawn(move || server.serve(fleet).expect("serve completes"));

    // Preload half the arrival stream and refit so subscribers bootstrap
    // from a fitted model; the tail is the writer's push fodder.
    let half = ops.len() / 2;
    let mut writer = FleetClient::connect_with(addr, WireFormat::Json).expect("writer connects");
    for op in &ops[..half] {
        let cpa_serve::FleetOp::Ingest { workers, answers } = op.clone() else {
            unreachable!("arrival_ops produces only ingest ops");
        };
        writer
            .ingest_tagged(workers, answers)
            .expect("preload ingest");
    }
    writer.refit_tagged().expect("preload refit");

    // Narrow each tail op to its first answer's shard — the
    // delta-minimality shape: every timed-window write dirties exactly one
    // shard, so every pushed frame carries one shard's rows. Workers still
    // arrive at most once, so the arrival contract holds.
    let router = cpa_serve::ShardRouter::new(shards);
    let narrowed: Vec<cpa_serve::FleetOp> = ops[half..]
        .iter()
        .filter_map(|op| {
            let cpa_serve::FleetOp::Ingest { workers, answers } = op.clone() else {
                return None;
            };
            let target = router.route(answers.first()?.0);
            let answers: Vec<_> = answers
                .into_iter()
                .filter(|(item, _, _)| router.route(*item) == target)
                .collect();
            Some(cpa_serve::FleetOp::Ingest { workers, answers })
        })
        .collect();
    let writes = (readers * reads_per_reader / 19).clamp(1, narrowed.len());
    let narrowed = &narrowed[..writes];

    // Every subscriber registers (bootstrap acked) before the writer's
    // first timed-window write, so each one applies every delta.
    let head = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(Barrier::new(readers + 1));
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let (head, gate) = (Arc::clone(&head), Arc::clone(&gate));
            std::thread::spawn(move || {
                let mut sub = FleetClient::connect_with(addr, WireFormat::Json)
                    .expect("subscriber connects")
                    .subscribe_reads(cpa_serve::ReadKind::Predictions, None)
                    .expect("subscription acked");
                gate.wait();
                let mut applies: Vec<(u64, Instant, usize, u64)> = Vec::new();
                while let Some(delta) = sub.next_delta().expect("delta frame") {
                    let lag = head
                        .load(Ordering::Relaxed)
                        .saturating_sub(delta.applied.epoch);
                    applies.push((delta.applied.epoch, Instant::now(), delta.frame_bytes, lag));
                }
                assert_eq!(
                    sub.epoch(),
                    head.load(Ordering::Relaxed),
                    "subscriber wound down behind the writer's acked head"
                );
                applies
            })
        })
        .collect();

    gate.wait();
    let start = Instant::now();
    let mut acks: Vec<(u64, Instant)> = Vec::with_capacity(writes);
    for op in narrowed {
        let cpa_serve::FleetOp::Ingest { workers, answers } = op.clone() else {
            unreachable!("narrowing preserves only ingest ops");
        };
        let (_, epoch) = writer
            .ingest_tagged(workers, answers)
            .expect("narrowed ingest");
        acks.push((epoch, Instant::now()));
        head.store(epoch, Ordering::Relaxed);
    }

    // What a poll refetch would ship per epoch under the same codec: the
    // full-universe reply at the final epoch, encoded locally.
    let (predictions, epoch) = writer.predict_tagged().expect("final poll");
    let full_reply = cpa_serve::FleetReply::Predictions { predictions, epoch };
    let full_read_bytes = cpa_transport::codec::encode(writer.wire_format(), &full_reply)
        .expect("reply encodes")
        .len() as f64;

    writer.shutdown().expect("shutdown acknowledged");
    drop(writer);
    let per_sub: Vec<Vec<(u64, Instant, usize, u64)>> = handles
        .into_iter()
        .map(|h| h.join().expect("subscriber thread"))
        .collect();
    let read_secs = start.elapsed().as_secs_f64();
    running.join().expect("server thread joins");

    let ack_at: std::collections::BTreeMap<u64, Instant> = acks.into_iter().collect();
    let (mut one_way, mut bytes) = (0.0, 0usize);
    let (mut lag_sum, mut lag_max) = (0u64, 0u64);
    let mut applied = 0usize;
    for applies in &per_sub {
        assert_eq!(
            applies.len(),
            writes,
            "every write reaches every subscriber exactly once"
        );
        for &(epoch, at, frame_bytes, lag) in applies {
            // The driver pushes a view after the ack and the warm of its
            // dirty slabs, so the one-way latency includes the warm; a
            // delta can still land *before* the writer has read its ack,
            // and those clamp to zero.
            one_way += at
                .checked_duration_since(ack_at[&epoch])
                .map_or(0.0, |d| d.as_secs_f64());
            bytes += frame_bytes;
            lag_sum += lag;
            lag_max = lag_max.max(lag);
            applied += 1;
        }
    }

    ReadSeries {
        read_path: "push".to_string(),
        read_op: "full".to_string(),
        shards,
        readers,
        reads: applied,
        writes,
        dirty_shards: mean_dirty_shards(narrowed, shards),
        read_secs,
        reads_per_sec: applied as f64 / read_secs.max(1e-12),
        mean_read_rtt_micros: one_way / applied.max(1) as f64 * 1e6,
        mean_lag_epochs: lag_sum as f64 / applied.max(1) as f64,
        max_lag_epochs: lag_max as f64,
        bytes_per_epoch: bytes as f64 / applied.max(1) as f64,
        full_read_bytes,
    }
}

fn main() {
    // `cargo test` invokes bench targets with --test; nothing to run then.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let scale: f64 = env_or("CPA_BENCH_SCALE", 0.1);
    let samples: usize = env_or("CPA_BENCH_SAMPLES", 3).max(1);
    let max_threads: usize = env_or("CPA_BENCH_THREADS", 4).max(1);
    let out_path = std::env::var("CPA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transport.json").to_string()
    });

    let method = Method::CpaSvi;
    let sim = simulate(
        &cpa_data::profile::DatasetProfile::movie().scaled(scale),
        SEED,
    );
    let d = &sim.dataset;
    let ops = arrival_ops(d, SEED);
    let answers = d.answers.num_answers();
    eprintln!(
        "transport_roundtrip: {} items × {} workers, {} answers, {} ingest ops, \
         {} samples/series",
        d.num_items(),
        d.num_workers(),
        answers,
        ops.len(),
        samples
    );

    let mut series = Vec::new();
    for &shards in &SHARD_COUNTS {
        let threads = shards.min(max_threads);
        let mut baseline_secs = None;
        let mut reference_preds: Option<Vec<cpa_data::labels::LabelSet>> = None;
        for mode in ["in-process", "loopback-json", "loopback-binary"] {
            let run = |ops: Vec<cpa_serve::FleetOp>| {
                let fleet = fleet_for(method, d, shards, threads, SEED);
                match mode {
                    "in-process" => run_in_process(fleet, ops),
                    "loopback-json" => run_loopback_with(fleet, ops, WireFormat::Json),
                    _ => run_loopback_with(fleet, ops, WireFormat::Binary),
                }
            };
            // Warmup (also the fidelity reference), then timed samples.
            let warm = run(ops.clone());
            let reference = reference_preds.get_or_insert_with(|| warm.predictions.clone());
            assert_eq!(
                &warm.predictions, reference,
                "{mode} K={shards}: codec changed the predictions"
            );
            let mut totals = Vec::new();
            let mut rtts = Vec::new();
            for _ in 0..samples {
                let sample = run(ops.clone());
                assert_eq!(
                    sample.predictions, warm.predictions,
                    "{mode} K={shards}: run not deterministic"
                );
                totals.push(sample.total_secs);
                rtts.push(sample.mean_ingest_rtt_secs);
            }
            black_box(&warm.predictions);
            totals.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            let total_secs_min = totals[0];
            let total_secs_median = totals[totals.len() / 2];
            let baseline = *baseline_secs.get_or_insert(total_secs_min);
            let mean_rtt = rtts.iter().sum::<f64>() / rtts.len() as f64;
            eprintln!(
                "  K={shards} {mode}: {total_secs_min:.3}s min, {:.0} answers/s, \
                 {:.1}µs/ingest-op",
                answers as f64 / total_secs_min,
                mean_rtt * 1e6
            );
            series.push(ModeSeries {
                mode: mode.to_string(),
                shards,
                threads,
                total_secs_min,
                total_secs_median,
                answers_per_sec: answers as f64 / total_secs_min,
                ingest_ops_per_sec: 1.0 / mean_rtt.max(1e-12),
                mean_ingest_rtt_micros: mean_rtt * 1e6,
                wire_overhead_vs_in_process: total_secs_min / baseline.max(1e-12),
            });
        }
    }

    // Read-mostly contention: per (K, reader-count), full then ranged reads
    // on the view read path.
    let reads_per_reader: usize = env_or("CPA_BENCH_READS", 300).max(1);
    let mut read_series = Vec::new();
    for &shards in &SHARD_COUNTS {
        let threads = shards.min(max_threads);
        for readers in [1usize, 2, 4] {
            for read_op in ["full", "ranged32"] {
                let s =
                    read_mostly_run(d, shards, threads, &ops, readers, reads_per_reader, read_op);
                eprintln!(
                    "  K={shards} readers={readers} view/{read_op}: {:.0} reads/s, \
                     {:.1}µs/read, {:.2} dirty shards/write",
                    s.reads_per_sec, s.mean_read_rtt_micros, s.dirty_shards
                );
                read_series.push(s);
            }
            // The replication leg: readers hammer a follower server that
            // tails the leader's mutation stream.
            let s = follower_run(d, shards, threads, &ops, readers, reads_per_reader);
            eprintln!(
                "  K={shards} readers={readers} follower/full: {:.0} reads/s, \
                 {:.1}µs/read, lag mean {:.2} / max {:.0} epochs",
                s.reads_per_sec, s.mean_read_rtt_micros, s.mean_lag_epochs, s.max_lag_epochs
            );
            read_series.push(s);
            // The push leg: subscribers apply single-shard delta frames
            // while the writer streams narrowed ingests.
            let s = push_run(d, shards, threads, &ops, readers, reads_per_reader);
            eprintln!(
                "  K={shards} readers={readers} push/full: {:.0} deltas/s applied, \
                 {:.1}µs one-way, {:.0}B/epoch pushed vs {:.0}B full refetch",
                s.reads_per_sec, s.mean_read_rtt_micros, s.bytes_per_epoch, s.full_read_bytes
            );
            read_series.push(s);
        }
    }

    let report = BenchReport {
        workload: format!("movie ×{scale}, framed arrival stream, ingest→refit→predict"),
        method: method.name().to_string(),
        items: d.num_items(),
        workers: d.num_workers(),
        answers,
        labels: d.num_labels(),
        batches: ops.len(),
        samples_per_series: samples,
        host_available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        series,
        read_series,
    };
    let json = serde_json::to_string(&report).expect("report serialises");
    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("wrote {out_path}");
}
