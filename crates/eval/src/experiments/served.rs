//! Network serving: the same workload through a loopback `cpa-transport`
//! client vs the in-process fleet, asserting identical predictions.
//!
//! This is the serving-layer counterpart of the [`crate::experiments::sharded`]
//! experiment one seam further out: instead of driving the fleet in
//! process, the canonical arrival stream is framed over a real TCP
//! socket — one `Ingest` op per batch, a `Refit`, a `Predict` — and the
//! merged predictions come back the same way. The experiment measures what
//! the wire costs:
//!
//! - **throughput** — answers/sec end-to-end (ingest round trips + refit +
//!   predict), loopback vs in-process;
//! - **latency** — mean per-op round-trip time of the ingest ops;
//! - **fidelity** — the loopback predictions are asserted **bit-identical**
//!   to the in-process fleet on the same op stream (the transport adds
//!   latency, never noise).

use crate::report::{f3, Report};
use crate::runner::{arrival_source, restore_engine, EvalConfig, Method};
use cpa_data::dataset::Dataset;
use cpa_data::labels::LabelSet;
use cpa_data::profile::DatasetProfile;
use cpa_data::simulate::simulate;
use cpa_serve::{Fleet, FleetOp, FleetReply, ReadKind};
use cpa_transport::{codec, FleetClient, FleetServer, ServerConfig, WireFormat};

/// Default roster: the streaming engine (the serving story) plus the batch
/// engine for a refit-style contrast.
pub const DEFAULT_METHODS: [Method; 2] = [Method::CpaSvi, Method::Cpa];

/// One serving run's timings and predictions.
#[derive(Debug, Clone)]
pub struct ServedRun {
    /// Merged predictions in global item order.
    pub predictions: Vec<LabelSet>,
    /// Ingest + refit + predict wall-clock seconds.
    pub total_secs: f64,
    /// Mean per-ingest-op seconds: the `Fleet::apply` cost in-process, the
    /// full framed round trip over loopback.
    pub mean_ingest_rtt_secs: f64,
    /// Ops issued (ingest batches + refit + predict).
    pub ops: usize,
    /// The epoch tag on the final predictions — the accepted-mutation count
    /// the read view reflects. Identical across transports on the same op
    /// stream (N ingests + 1 refit ⇒ N+1).
    pub final_epoch: u64,
    /// Mean seconds for an item-ranged 32-item `PredictItems` at the final
    /// epoch — the read that moves O(probe) rows instead of O(items).
    pub mean_ranged_rtt_secs: f64,
}

/// The 32-item probe every ranged measurement uses: items spread across the
/// universe (and therefore across shards), fixed per dataset size.
pub fn ranged_probe(num_items: usize) -> Vec<usize> {
    (0..32.min(num_items))
        .map(|n| (n * 7) % num_items)
        .collect()
}

/// Repetitions of the ranged read each run averages over.
const RANGED_REPS: usize = 8;

/// The canonical arrival stream as self-contained ingest ops — the same
/// batch partition for every run, so modes differ only in transport.
pub fn arrival_ops(dataset: &Dataset, seed: u64) -> Vec<FleetOp> {
    let mut source = arrival_source(dataset, seed);
    let mut ops = Vec::new();
    while let Some(batch) = source.next_batch() {
        ops.push(FleetOp::ingest_from(source.answers(), &batch));
    }
    ops
}

/// A K-shard fleet of `method` engines sized for `dataset`, with the
/// restore hook installed.
pub fn fleet_for(
    method: Method,
    dataset: &Dataset,
    shards: usize,
    threads: usize,
    seed: u64,
) -> Fleet {
    let (i, u, c) = (
        dataset.num_items(),
        dataset.num_workers(),
        dataset.num_labels(),
    );
    Fleet::new(shards, threads, i, u, c, |_| method.engine(i, u, c, seed))
        .with_restore_hook(restore_engine)
}

/// Drives the op stream through the in-process fleet.
pub fn run_in_process(mut fleet: Fleet, ops: Vec<FleetOp>) -> ServedRun {
    let count = ops.len() + 2;
    let ingests = ops.len();
    let start = std::time::Instant::now();
    let mut op_total = 0.0;
    for op in ops {
        let t = std::time::Instant::now();
        let reply = fleet.apply(op);
        op_total += t.elapsed().as_secs_f64();
        assert_eq!(reply.name(), "Ingested", "arrival op rejected in-process");
    }
    fleet.refit_all();
    let predictions = fleet.predict_all();
    let total_secs = start.elapsed().as_secs_f64();
    let probe = ranged_probe(predictions.len());
    let t = std::time::Instant::now();
    for _ in 0..RANGED_REPS {
        let ranged = fleet.predict_items(&probe);
        debug_assert_eq!(ranged.len(), probe.len());
    }
    let mean_ranged_rtt_secs = t.elapsed().as_secs_f64() / RANGED_REPS as f64;
    ServedRun {
        predictions,
        total_secs,
        mean_ingest_rtt_secs: op_total / ingests.max(1) as f64,
        ops: count,
        final_epoch: fleet.epoch(),
        mean_ranged_rtt_secs,
    }
}

/// Drives the same op stream through a loopback TCP server (bound on an
/// ephemeral port, shut down before returning), with the client speaking
/// `format` — the JSON-vs-binary comparison surface of the transport
/// bench.
pub fn run_loopback_with(fleet: Fleet, ops: Vec<FleetOp>, format: WireFormat) -> ServedRun {
    let server =
        FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("loopback bind succeeds");
    let addr = server.local_addr().expect("bound address");
    let running = std::thread::spawn(move || server.serve(fleet).expect("serve completes"));

    let mut client = FleetClient::connect_with(addr, format).expect("loopback connect succeeds");
    assert_eq!(
        client.wire_format(),
        format,
        "loopback server must grant the requested codec"
    );
    let count = ops.len() + 2;
    let mut rtt_total = 0.0;
    let mut ingests = 0usize;
    let start = std::time::Instant::now();
    for op in ops {
        let FleetOp::Ingest { workers, answers } = op else {
            unreachable!("arrival_ops produces only ingest ops");
        };
        let t = std::time::Instant::now();
        client
            .ingest_tagged(workers, answers)
            .expect("arrival batches satisfy the arrival contract");
        rtt_total += t.elapsed().as_secs_f64();
        ingests += 1;
    }
    client.refit_tagged().expect("refit round trip");
    let (predictions, final_epoch) = client.predict_tagged().expect("predict round trip");
    let total_secs = start.elapsed().as_secs_f64();

    // Ranged reads at the same epoch: asserted to be a slice of the full
    // read, timed as the framed round trip they are.
    let probe = ranged_probe(predictions.len());
    let sliced: Vec<LabelSet> = probe.iter().map(|&n| predictions[n].clone()).collect();
    let t = std::time::Instant::now();
    for _ in 0..RANGED_REPS {
        let (ranged, epoch) = client
            .predict_items_tagged(probe.clone())
            .expect("ranged round trip");
        assert_eq!(epoch, final_epoch, "ranged read at a different epoch");
        assert_eq!(ranged, sliced, "ranged read diverged from the full read");
    }
    let mean_ranged_rtt_secs = t.elapsed().as_secs_f64() / RANGED_REPS as f64;

    client.shutdown().expect("shutdown acknowledged");
    drop(client);
    running.join().expect("server thread joins");
    ServedRun {
        predictions,
        total_secs,
        mean_ingest_rtt_secs: rtt_total / ingests.max(1) as f64,
        ops: count,
        final_epoch,
        mean_ranged_rtt_secs,
    }
}

/// Push-vs-poll wire economics from one loopback run: what a
/// [`FleetClient::subscribe_reads`] delta stream shipped per epoch vs what
/// refetching the full reply would have, with the cache asserted
/// **byte-equal** to the poll refetch at every acked epoch.
#[derive(Debug, Clone, Copy)]
pub struct PushStats {
    /// Delta frames applied (one per accepted mutation).
    pub deltas: usize,
    /// Mean pushed delta frame payload bytes per epoch.
    pub mean_delta_bytes: f64,
    /// Mean encoded full-`Predictions` reply bytes per epoch — the poll
    /// refetch cost under the same codec.
    pub mean_poll_bytes: f64,
    /// The epoch the cache ended at (equal to the writer's final ack).
    pub final_epoch: u64,
}

/// Drives the op stream through a loopback server while a `SubscribeReads`
/// subscriber holds a delta-maintained cache, asserting at **every** acked
/// epoch that the cache's rows are byte-identical (under `format`) to a
/// poll refetch over the writer's connection at the same epoch.
///
/// # Panics
/// Panics if any delta lands at the wrong epoch, if the cache's rows ever
/// encode differently from the polled reply, or on any transport failure —
/// each would be a push-path correctness bug, not a measurement.
pub fn run_push_loopback(fleet: Fleet, ops: Vec<FleetOp>, format: WireFormat) -> PushStats {
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            // The subscription (one of max_clients - 1 slots) + the writer.
            max_clients: 2,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds");
    let addr = server.local_addr().expect("bound address");
    let running = std::thread::spawn(move || server.serve(fleet).expect("serve completes"));

    let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
    let mut sub = FleetClient::connect_with(addr, format)
        .expect("subscriber connects")
        .subscribe_reads(ReadKind::Predictions, None)
        .expect("subscription acked at genesis");

    let mut delta_bytes = 0usize;
    let mut poll_bytes = 0usize;
    let mut deltas = 0usize;
    let mut check =
        |sub: &mut cpa_transport::ReadSubscription, writer: &mut FleetClient, acked: u64| {
            let delta = sub
                .next_delta()
                .expect("delta frame")
                .expect("stream ended mid-run");
            assert_eq!(delta.applied.epoch, acked, "delta behind the writer's ack");
            let (polled, epoch) = writer.predict_tagged().expect("poll refetch");
            assert_eq!(epoch, acked, "poll refetch at a different epoch");
            let cached = sub
                .cache()
                .predictions()
                .expect("a Predictions subscription caches prediction rows")
                .to_vec();
            assert_eq!(
                codec::encode(format, &cached).expect("cache rows encode"),
                codec::encode(format, &polled).expect("polled rows encode"),
                "cache rows not byte-identical to the poll refetch at epoch {acked}"
            );
            delta_bytes += delta.frame_bytes;
            let full = FleetReply::Predictions {
                predictions: polled,
                epoch,
            };
            poll_bytes += codec::encode(format, &full)
                .expect("poll reply encodes")
                .len();
            deltas += 1;
        };

    for op in ops {
        let FleetOp::Ingest { workers, answers } = op else {
            unreachable!("arrival_ops produces only ingest ops");
        };
        let acked = writer
            .ingest_tagged(workers, answers)
            .expect("arrival ingest")
            .1;
        check(&mut sub, &mut writer, acked);
    }
    let acked = writer.refit_tagged().expect("refit round trip");
    check(&mut sub, &mut writer, acked);

    writer.shutdown().expect("shutdown acknowledged");
    drop(writer);
    assert!(
        sub.next_delta().expect("clean wind-down").is_none(),
        "expected EOF after server wind-down"
    );
    assert_eq!(sub.epoch(), acked, "cache ended behind the final ack");
    running.join().expect("server thread joins");
    PushStats {
        deltas,
        mean_delta_bytes: delta_bytes as f64 / deltas.max(1) as f64,
        mean_poll_bytes: poll_bytes as f64 / deltas.max(1) as f64,
        final_epoch: acked,
    }
}

/// Runs the loopback-vs-in-process comparison on the movie dataset for the
/// configured roster at K = `cfg.shards`.
///
/// # Panics
/// Panics if the loopback predictions differ from the in-process fleet's —
/// that would be a transport correctness bug, not a measurement.
pub fn run(cfg: &EvalConfig) -> Report {
    let methods = cfg.methods_or(&DEFAULT_METHODS);
    let profile = DatasetProfile::movie().scaled(cfg.scale);
    let dataset = simulate(&profile, cfg.seed).dataset;
    let answers = dataset.answers.num_answers();
    let threads = cfg.fleet_threads();

    let mut r = Report::new(
        "served",
        format!(
            "Network serving on the movie dataset: loopback TCP client vs the \
             in-process K={} fleet",
            cfg.shards
        ),
        &[
            "method",
            "shards",
            "mode",
            "ops",
            "answers/s",
            "rtt_ms",
            "ranged_rtt_ms",
            "epoch",
            "push_B_ep",
            "poll_B_ep",
            "identical",
        ],
    );
    for &method in &methods {
        let ops = arrival_ops(&dataset, cfg.seed);
        let in_process = run_in_process(
            fleet_for(method, &dataset, cfg.shards, threads, cfg.seed),
            ops.clone(),
        );
        let served = run_loopback_with(
            fleet_for(method, &dataset, cfg.shards, threads, cfg.seed),
            ops.clone(),
            WireFormat::Json,
        );
        // The push path on the same op stream: a delta-maintained cache
        // asserted byte-equal to a poll refetch at every acked epoch.
        let push = run_push_loopback(
            fleet_for(method, &dataset, cfg.shards, threads, cfg.seed),
            ops,
            WireFormat::Json,
        );
        assert_eq!(
            push.final_epoch,
            served.final_epoch,
            "{}: push run ended at a different epoch than the poll run",
            method.name()
        );
        assert_eq!(
            served.predictions,
            in_process.predictions,
            "{}: loopback predictions diverged from the in-process fleet",
            method.name()
        );
        assert_eq!(
            served.final_epoch,
            in_process.final_epoch,
            "{}: loopback epoch tag diverged from the in-process fleet",
            method.name()
        );
        for (mode, run) in [("in-process", &in_process), ("loopback", &served)] {
            let (push_col, poll_col) = if mode == "loopback" {
                (
                    format!("{:.0}", push.mean_delta_bytes),
                    format!("{:.0}", push.mean_poll_bytes),
                )
            } else {
                ("-".to_string(), "-".to_string())
            };
            r.push_row(vec![
                method.name().to_string(),
                cfg.shards.to_string(),
                mode.to_string(),
                run.ops.to_string(),
                format!("{:.0}", answers as f64 / run.total_secs.max(1e-9)),
                format!("{:.3}", run.mean_ingest_rtt_secs * 1e3),
                format!("{:.3}", run.mean_ranged_rtt_secs * 1e3),
                run.final_epoch.to_string(),
                push_col,
                poll_col,
                f3(1.0),
            ]);
        }
    }
    r.note(
        "identical = 1.0 is asserted, not observed: the loopback run must be \
         bit-identical to the in-process fleet on the same op stream",
    );
    r.note("one Ingest op per arrival batch, then Refit + Predict, over framed loopback TCP");
    r.note("wire codec = JSON for every loopback client (the poll run and the push run)");
    r.note(
        "epoch = the tag on the final Predict reply (accepted mutations: N ingests + 1 refit); \
         asserted equal across transports",
    );
    r.note(
        "ranged_rtt_ms = mean 32-item `PredictItems` at the final epoch, asserted to be a \
         slice of the full read",
    );
    r.note(
        "push_B_ep / poll_B_ep = mean wire bytes per epoch on a SubscribeReads delta stream \
         vs refetching the full Predictions reply; the delta-maintained cache is asserted \
         byte-identical to the poll refetch at every acked epoch",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_run_matches_in_process_and_reports_two_rows_per_method() {
        let cfg = EvalConfig {
            scale: 0.04,
            methods: Some(vec![Method::CpaSvi]),
            shards: 2,
            ..EvalConfig::default()
        };
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.columns.len(), 11);
        assert!(r.rows.iter().any(|row| row[2] == "loopback"));
        assert!(r.notes.iter().any(|n| n.contains("bit-identical")));
        // Both modes report the same (nonzero) final epoch.
        let epochs: Vec<&String> = r.rows.iter().map(|row| &row[7]).collect();
        assert_eq!(epochs[0], epochs[1]);
        assert_ne!(epochs[0], "0");
        // The loopback row carries real push-vs-poll byte columns; the
        // in-process row has none.
        let loopback = r.rows.iter().find(|row| row[2] == "loopback").unwrap();
        assert!(loopback[8].parse::<f64>().unwrap() > 0.0);
        assert!(loopback[9].parse::<f64>().unwrap() > 0.0);
        let in_process = r.rows.iter().find(|row| row[2] == "in-process").unwrap();
        assert_eq!(in_process[8], "-");
    }
}
