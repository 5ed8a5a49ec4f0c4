//! Read/write stress: concurrent readers against a mutating fleet, locking
//! the epoch-published read-view contract end to end.
//!
//! Contract 1 (untorn, epoch-tagged reads): N reader clients hammer
//! `Predict` while a writer client streams ingests and refits. Every reply
//! carries an epoch tag; a reader's epochs never go backwards, and any two
//! replies tagged with the same epoch — same reader or different readers —
//! are bit-identical. A torn view (predictions mixing two fleet states)
//! would either break that equality or be caught by contract 2.
//!
//! Contract 2 (replay-to-epoch): for every `(epoch, predictions)` any
//! reader observed, replaying the server's recorded op-log on a fresh fleet
//! until `Fleet::replay_to_epoch` reaches that epoch reproduces the served
//! predictions bit for bit.
//!
//! Contract 3 (final state): the final epoch's predictions equal the
//! in-process fleet on the same mutation order, and a client that observed
//! its own mutation ack never reads an older epoch afterwards
//! (read-your-writes through the publish-before-ack ordering).
//!
//! Contract 4 (cold ≡ warm): a cold read (the first of an epoch, spliced
//! from the view after the driver fills its slabs on request) and a warm
//! one (every repeat, spliced from the view's cached rows) both serve
//! exactly the reply the in-process fleet gives on the same ops — for full
//! and item-ranged `Predict` and `EstimateItems` alike — and so does the
//! full `Estimate`, the one read the driver builds.
//!
//! Every test runs once per wire codec: its clients speak JSON, then
//! binary.

use cpa::data::labels::LabelSet;
use cpa::data::stream::{WorkerBatch, WorkerStream};
use cpa::eval::runner::Method;
use cpa::math::rng::seeded;
use cpa::serve::{Fleet, FleetOp};
use cpa::transport::{FleetClient, FleetServer, ServerConfig, WireFormat};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const SEED: u64 = 9431;
const READERS: usize = 3;

fn fixture() -> (cpa::data::dataset::Dataset, Vec<WorkerBatch>) {
    let sim = cpa::data::simulate::simulate(
        &cpa::data::profile::DatasetProfile::movie().scaled(0.05),
        SEED,
    );
    let mut rng = seeded(SEED + 1);
    let batches = WorkerStream::new(&sim.dataset, 8, &mut rng).into_batches();
    assert!(batches.len() >= 4, "need enough batches to stress with");
    (sim.dataset, batches)
}

/// A 2-shard fleet of batch engines — `Refit` runs the full inference, so
/// the writer's refits are genuinely long mutations for readers to race.
fn fleet_for(d: &cpa::data::dataset::Dataset) -> Fleet {
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    Fleet::new(2, 2, i, u, c, |_| Method::Cpa.engine(i, u, c, SEED))
}

fn ingest_ops(d: &cpa::data::dataset::Dataset, batches: &[WorkerBatch]) -> Vec<FleetOp> {
    batches
        .iter()
        .map(|b| FleetOp::ingest_from(&d.answers, b))
        .collect()
}

/// Folds one observed `(epoch, predictions)` sample into a per-epoch map,
/// asserting bit-identity against anything already recorded for that epoch.
fn record(seen: &mut BTreeMap<u64, Vec<LabelSet>>, epoch: u64, preds: Vec<LabelSet>, who: &str) {
    match seen.get(&epoch) {
        Some(prev) => assert_eq!(prev, &preds, "{who}: torn read at epoch {epoch}"),
        None => {
            seen.insert(epoch, preds);
        }
    }
}

#[test]
fn concurrent_reads_are_epoch_consistent_and_replay_bit_identically() {
    let (d, batches) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let ops = ingest_ops(&d, &batches);

        let server = FleetServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                max_clients: READERS + 1,
                record_ops: true,
            },
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let fleet = fleet_for(&d);
        let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));

        let final_epoch = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));

        // Writer: stream every ingest with a mid-stream refit (a long mutation
        // under the batch engine) and a final refit. Mutation acks must count
        // epochs densely: 1, 2, 3, … in ack order on this connection.
        let writer = std::thread::spawn({
            let done = done.clone();
            let final_epoch = final_epoch.clone();
            let ops = ops.clone();
            move || {
                let mut client = FleetClient::connect_with(addr, format).expect("writer connects");
                let mut last = 0u64;
                let half = ops.len() / 2;
                for (n, op) in ops.into_iter().enumerate() {
                    let FleetOp::Ingest { workers, answers } = op else {
                        unreachable!("ingest_ops produces only ingests")
                    };
                    let (_, epoch) = client.ingest_tagged(workers, answers).expect("ingest");
                    assert_eq!(epoch, last + 1, "mutation acks must count epochs densely");
                    last = epoch;
                    if n + 1 == half {
                        last = client.refit_tagged().expect("mid-stream refit");
                    }
                }
                last = client.refit_tagged().expect("final refit");
                final_epoch.store(last, Ordering::SeqCst);
                done.store(true, Ordering::SeqCst);
                client
            }
        });

        // Readers: hammer Predict concurrently with the writer until they have
        // seen the final epoch, recording one predictions vector per epoch and
        // asserting every repeat at the same epoch is bit-identical.
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let done = done.clone();
                let final_epoch = final_epoch.clone();
                std::thread::spawn(move || {
                    let mut client =
                        FleetClient::connect_with(addr, format).expect("reader connects");
                    let mut seen: BTreeMap<u64, Vec<LabelSet>> = BTreeMap::new();
                    let mut last = 0u64;
                    loop {
                        let (preds, epoch) = client.predict_tagged().expect("predict");
                        assert!(
                            epoch >= last,
                            "reader {r}: epoch went backwards ({last} -> {epoch})"
                        );
                        last = epoch;
                        record(&mut seen, epoch, preds, &format!("reader {r}"));
                        if done.load(Ordering::SeqCst)
                            && epoch == final_epoch.load(Ordering::SeqCst)
                        {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();

        let mut writer_client = writer.join().expect("writer thread");
        let mut merged: BTreeMap<u64, Vec<LabelSet>> = BTreeMap::new();
        for (r, reader) in readers.into_iter().enumerate() {
            for (epoch, preds) in reader.join().expect("reader thread") {
                record(&mut merged, epoch, preds, &format!("merge of reader {r}"));
            }
        }
        writer_client.shutdown().expect("shutdown");
        drop(writer_client);
        let outcome = running.join().expect("server thread");

        let last = final_epoch.load(Ordering::SeqCst);
        assert!(last > 0 && merged.contains_key(&last));
        assert_eq!(outcome.fleet.epoch(), last, "server stopped mid-mutation?");

        // Contract 2: replay the recorded op-log prefix up to each observed
        // epoch; the fresh fleet must reproduce the served predictions exactly.
        // (`merged` ascends, so one pass through the log visits every epoch.)
        let mut log = outcome.op_log.clone().into_iter();
        let mut replayed = fleet_for(&d);
        for (&epoch, preds) in &merged {
            replayed.replay_to_epoch(&mut log, epoch);
            assert_eq!(
                replayed.epoch(),
                epoch,
                "op-log too short for epoch {epoch}"
            );
            assert_eq!(
                &replayed.predict_all(),
                preds,
                "replay to epoch {epoch} diverged from what readers were served"
            );
        }

        // Contract 3: the final epoch equals the in-process fleet on the same
        // mutation order.
        let mutations: Vec<FleetOp> = outcome
            .op_log
            .iter()
            .filter(|op| op.is_mutation())
            .cloned()
            .collect();
        let mut reference = fleet_for(&d);
        reference.replay(mutations);
        assert_eq!(reference.epoch(), last);
        assert_eq!(
            reference.predict_all(),
            merged[&last],
            "final served predictions diverged from the in-process fleet"
        );
    }
}

#[test]
fn a_client_never_reads_an_epoch_older_than_its_own_ack() {
    let (d, batches) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let fleet = fleet_for(&d);
        let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));

        let mut client = FleetClient::connect_with(addr, format).expect("connect");
        for op in ingest_ops(&d, &batches).into_iter().take(4) {
            let FleetOp::Ingest { workers, answers } = op else {
                unreachable!()
            };
            let (_, acked) = client.ingest_tagged(workers, answers).expect("ingest");
            let (_, read) = client.predict_tagged().expect("predict");
            // The new view is published before the mutation ack is sent, so a
            // client that saw its ack can never read an older epoch.
            assert!(read >= acked, "read epoch {read} older than acked {acked}");
        }
        client.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

#[test]
fn cold_and_warm_reads_match_the_in_process_reply() {
    let (d, batches) = fixture();
    let probe: Vec<usize> = (0..d.num_items()).step_by(5).collect();
    let mut mutations = ingest_ops(&d, &batches);
    mutations.push(FleetOp::Refit);
    let mut reference = fleet_for(&d);
    reference.replay(mutations.clone());
    for format in [WireFormat::Json, WireFormat::Binary] {
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let fleet = fleet_for(&d);
        let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));
        let mut client = FleetClient::connect_with(addr, format).expect("connect");
        for op in &mutations {
            client.apply_op(op).expect("mutation accepted");
        }
        // Each read twice at one epoch: the first finds its slabs cold (the
        // driver fills them, and the handler encodes the rows it splices), the
        // repeat is spliced from the cached rows — except the full `Estimate`,
        // which the driver builds both times.
        for op in [
            FleetOp::Predict,
            FleetOp::PredictItems {
                items: probe.clone(),
            },
            FleetOp::EstimateItems {
                items: probe.clone(),
            },
            FleetOp::Estimate,
        ] {
            let want = serde_json::to_string(&reference.apply(op.clone())).expect("encodes");
            for read in ["first", "repeat"] {
                let served = client.apply_op(&op).expect("read");
                assert_eq!(
                    serde_json::to_string(&served).expect("encodes"),
                    want,
                    "{format:?}: {} ({read} read) diverged from the in-process fleet",
                    op.name()
                );
            }
        }
        client.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}
