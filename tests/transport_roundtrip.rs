//! Loopback transport round trip: the serving tier's determinism contract
//! extended across a real TCP socket.
//!
//! Contract 1 (wire fidelity): a server with **two concurrent clients**
//! running the full ingest/refit/predict/snapshot cycle produces
//! predictions and a manifest **bit-identical** to the in-process fleet on
//! the same op stream, at K ∈ {1, 4} shards. The two clients interleave
//! their connections live but hand the op order back and forth with a
//! token, so the global op order is deterministic — concurrency in the
//! transport, determinism in the protocol.
//!
//! Contract 2 (op-log): the server's recorded op-log, serialized to JSONL
//! and parsed back, replays against a fresh fleet to a snapshot
//! **byte-for-byte identical** to the live run's.
//!
//! Contract 3 (hardening): clients that disconnect mid-frame, send garbage
//! frames, or violate the arrival contract get framed errors (with the
//! offending worker named) or dropped connections — and the server keeps
//! serving the next client.
//!
//! Contract 4 (threads): engine steps run on the named driver thread with
//! no data-parallel width inherited from the server's own threads.
//!
//! Every test that talks to a server runs once per wire codec: its clients
//! speak JSON, then binary.

mod common;

use common::{Hook, Hooked, Step};
use cpa::core::engine::{DynEngine, EngineState};
use cpa::core::params::VariationalParams;
use cpa::data::labels::LabelSet;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::{WorkerBatch, WorkerStream};
use cpa::eval::runner::Method;
use cpa::math::matrix::Mat;
use cpa::math::rng::seeded;
use cpa::serve::{ops_from_jsonl, ops_to_jsonl, Fleet, FleetManifest, FleetOp, FleetReply};
use cpa::transport::{FleetClient, FleetServer, ServeOutcome, ServerConfig, WireFormat};
use std::collections::HashSet;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

const SEED: u64 = 7719;

fn fixture() -> (cpa::data::dataset::Dataset, Vec<WorkerBatch>) {
    let sim = simulate(&DatasetProfile::movie().scaled(0.05), SEED);
    let mut rng = seeded(SEED + 1);
    let batches = WorkerStream::new(&sim.dataset, 8, &mut rng).into_batches();
    assert!(batches.len() >= 4, "need batches for both clients");
    (sim.dataset, batches)
}

fn fleet_for(d: &cpa::data::dataset::Dataset, shards: usize) -> Fleet {
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    Fleet::new(shards, 2, i, u, c, |_| Method::CpaSvi.engine(i, u, c, SEED))
}

fn ingest_ops(d: &cpa::data::dataset::Dataset, batches: &[WorkerBatch]) -> Vec<FleetOp> {
    batches
        .iter()
        .map(|b| FleetOp::ingest_from(&d.answers, b))
        .collect()
}

/// Two live connections speaking `format`, one deterministic global op
/// order: the clients alternate ingest ops, handing a token back and forth;
/// then client A refits and predicts, client B predicts, snapshots, and
/// shuts down.
fn serve_two_clients(
    fleet: Fleet,
    ops: Vec<FleetOp>,
    format: WireFormat,
) -> (
    Vec<cpa::data::labels::LabelSet>,
    Vec<cpa::data::labels::LabelSet>,
    cpa::serve::FleetManifest,
    ServeOutcome,
) {
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_clients: 2,
            record_ops: true,
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));

    // Alternation: A owns even-indexed ops, B odd-indexed. Each completed
    // ingest hands the turn token to the other client; main seeds A and
    // then sequences the read phase once both ingest loops report done.
    let (to_a, a_turn) = channel::<()>();
    let (to_b, b_turn) = channel::<()>();
    let (done_tx, done_rx) = channel::<()>();
    let (phase_a_tx, phase_a) = channel::<()>();
    let (phase_b_tx, phase_b) = channel::<()>();
    let ops_a: Vec<FleetOp> = ops.iter().step_by(2).cloned().collect();
    let ops_b: Vec<FleetOp> = ops.iter().skip(1).step_by(2).cloned().collect();

    let client_a = std::thread::spawn({
        let to_b = to_b.clone();
        let done_tx = done_tx.clone();
        move || {
            let mut client = FleetClient::connect_with(addr, format).expect("client A connects");
            for op in ops_a {
                a_turn.recv().expect("turn token to A");
                let FleetOp::Ingest { workers, answers } = op else {
                    unreachable!()
                };
                client.ingest_tagged(workers, answers).expect("A ingests");
                to_b.send(()).ok();
            }
            done_tx.send(()).expect("A reports its ingests done");
            phase_a.recv().expect("read phase for A");
            client.refit_tagged().expect("A refits");
            let (preds, _) = client.predict_tagged().expect("A predicts");
            done_tx.send(()).expect("A reports the refit done");
            preds
        }
    });
    let seed_a = to_a.clone();
    let client_b = std::thread::spawn(move || {
        let mut client = FleetClient::connect_with(addr, format).expect("client B connects");
        for op in ops_b {
            b_turn.recv().expect("turn token to B");
            let FleetOp::Ingest { workers, answers } = op else {
                unreachable!()
            };
            client.ingest_tagged(workers, answers).expect("B ingests");
            to_a.send(()).ok();
        }
        done_tx.send(()).expect("B reports its ingests done");
        phase_b.recv().expect("read phase for B");
        let (preds, _) = client.predict_tagged().expect("B predicts");
        let manifest = client.snapshot().expect("B snapshots");
        client.shutdown().expect("B shuts the server down");
        (preds, manifest)
    });
    seed_a
        .send(())
        .expect("seed the alternation: A's first turn");
    done_rx.recv().expect("one ingest loop done");
    done_rx.recv().expect("both ingest loops done");
    phase_a_tx.send(()).expect("A refits and predicts first");
    done_rx.recv().expect("A's read phase done");
    phase_b_tx
        .send(())
        .expect("then B reads, snapshots, shuts down");
    let preds_a = client_a.join().expect("client A thread");
    let (preds_b, manifest) = client_b.join().expect("client B thread");
    let outcome = running.join().expect("server thread");
    (preds_a, preds_b, manifest, outcome)
}

#[test]
fn two_concurrent_clients_are_bit_identical_to_the_in_process_fleet() {
    let (d, batches) = fixture();
    for k in [1usize, 4] {
        let ops = ingest_ops(&d, &batches);

        // In-process reference: the same global op order, no sockets.
        let mut reference = fleet_for(&d, k);
        for op in ops.clone() {
            let reply = reference.apply(op);
            assert_eq!(reply.name(), "Ingested", "K={k}");
        }
        reference.refit_all();

        let want = reference.predict_all();
        for format in [WireFormat::Json, WireFormat::Binary] {
            let (preds_a, preds_b, manifest, outcome) =
                serve_two_clients(fleet_for(&d, k), ops.clone(), format);
            let at = format!("K={k} {format:?}");
            assert_eq!(preds_a, want, "{at}: client A diverged over loopback");
            assert_eq!(preds_b, want, "{at}: client B diverged over loopback");
            assert_eq!(
                manifest.to_json(),
                reference.snapshot().to_json(),
                "{at}: wire manifest diverged from the in-process snapshot"
            );

            // The live fleet handed back by the server equals the reference
            // too.
            assert_eq!(outcome.fleet.predict_all(), want, "{at}");

            // Contract 2: record → JSONL → parse → replay on a fresh fleet
            // reproduces the live snapshot byte for byte.
            let jsonl = ops_to_jsonl(&outcome.op_log);
            let replayed_ops = ops_from_jsonl(&jsonl).expect("recorded op-log parses");
            assert_eq!(replayed_ops.len(), outcome.op_log.len());
            let mut replayed = fleet_for(&d, k);
            replayed.replay(replayed_ops);
            assert_eq!(
                replayed.snapshot().to_json(),
                outcome.fleet.snapshot().to_json(),
                "{at}: op-log replay diverged from the live run"
            );
        }
    }
}

/// View reads on the wire, over a raw socket, for `Predict`,
/// `PredictItems` and `EstimateItems`: at one epoch, the cold read (its
/// slabs filled by the driver on request, its rows encoded into the view),
/// the first warm one and a repeat (both spliced from the cached rows) are
/// byte-identical frames under both codecs, and each answers exactly what
/// the in-process fleet answers on the same ops — byte for byte under
/// JSON, decode-equal under the binary codec. A `Refit` after each read
/// kind dirties every shard, so the next kind's first read is cold too.
#[test]
fn full_reads_match_the_in_process_reply_cold_warm_and_spliced() {
    use cpa::transport::codec;
    use cpa::transport::frame::{read_frame_bytes, write_frame_bytes};

    let (d, batches) = fixture();
    let mut mutations = ingest_ops(&d, &batches);
    mutations.push(FleetOp::Refit);
    let probe: Vec<usize> = (0..d.num_items()).rev().step_by(3).collect();
    let reads = [
        FleetOp::Predict,
        FleetOp::PredictItems {
            items: probe.clone(),
        },
        FleetOp::EstimateItems { items: probe },
    ];
    for k in [1usize, 4] {
        let mut reference = fleet_for(&d, k);
        reference.replay(mutations.clone());
        let wants: Vec<FleetReply> = reads
            .iter()
            .map(|op| {
                let want = reference.apply(op.clone());
                reference.apply(FleetOp::Refit);
                want
            })
            .collect();
        for format in [WireFormat::Json, WireFormat::Binary] {
            let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
            let addr = server.local_addr().expect("addr");
            let fleet = fleet_for(&d, k);
            let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));
            let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
            for op in &mutations {
                writer.apply_op(op).expect("mutation accepted");
            }

            let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
            if format == WireFormat::Binary {
                assert_eq!(
                    codec::client_handshake(&mut raw).expect("handshake"),
                    format
                );
            }
            for (op, want) in reads.iter().zip(&wants) {
                let request = codec::encode(format, op).expect("op encodes");
                let frames = ["cold", "first warm", "repeat"].map(|_| {
                    write_frame_bytes(&mut raw, &request).expect("request");
                    read_frame_bytes(&mut raw)
                        .expect("reply")
                        .expect("reply frame")
                });
                let at = format!("K={k} {format:?} {}", op.name());
                assert_eq!(frames[1], frames[0], "{at}: first warm frame != cold frame");
                assert_eq!(frames[2], frames[0], "{at}: repeat frame != cold frame");
                if format == WireFormat::Json {
                    assert_eq!(frames[0], codec::encode(format, want).unwrap(), "{at}");
                } else {
                    let served: FleetReply = codec::decode(format, &frames[0]).expect("decodes");
                    assert_eq!(
                        serde_json::to_string(&served).unwrap(),
                        serde_json::to_string(want).unwrap(),
                        "{at}"
                    );
                }
                writer.refit_tagged().expect("refit dirties every shard");
            }
            drop(raw);
            writer.shutdown().expect("shutdown");
            running.join().expect("server joins");
        }
    }
}

#[test]
fn contract_violations_come_back_as_framed_errors_naming_the_worker() {
    let (d, batches) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let fleet = fleet_for(&d, 2);
        let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));

        let mut client = FleetClient::connect_with(addr, format).expect("connect");
        let FleetOp::Ingest { workers, answers } = FleetOp::ingest_from(&d.answers, &batches[0])
        else {
            unreachable!()
        };
        let first_worker = workers[0];
        client
            .ingest_tagged(workers.clone(), answers.clone())
            .expect("first arrival is fine");
        // The same workers again: rejected with the offending worker named,
        // and the fleet is untouched.
        let err = client
            .ingest_tagged(workers, answers)
            .expect_err("re-arrival");
        assert!(
            err.to_string().contains(&format!("worker {first_worker}")),
            "{format:?}: {err}"
        );
        // An out-of-range label is rejected before anything is mutated.
        let err = client
            .ingest_tagged(vec![0], vec![(0, 0, vec![d.num_labels() + 5])])
            .expect_err("bad label");
        assert!(err.to_string().contains("label"), "{format:?}: {err}");
        // The connection is still healthy and the server still serves.
        client.refit_tagged().expect("refit after rejections");
        let (preds, _) = client.predict_tagged().expect("predict");
        assert_eq!(preds.len(), d.num_items());
        // Ranged reads ride the same connection: a slice of the full read,
        // and an out-of-universe item is a framed rejection, not a hang.
        let probe = vec![0usize, 3, 3, d.num_items() - 1];
        let (ranged, _) = client
            .predict_items_tagged(probe.clone())
            .expect("ranged predict");
        let sliced: Vec<_> = probe.iter().map(|&i| preds[i].clone()).collect();
        assert_eq!(
            ranged, sliced,
            "{format:?}: ranged read diverged from the full read"
        );
        let err = client
            .predict_items_tagged(vec![d.num_items()])
            .expect_err("out-of-universe item");
        assert!(err.to_string().contains("universe"), "{format:?}: {err}");
        client.shutdown().expect("shutdown");
        let outcome = running.join().expect("server joins");
        assert_eq!(
            outcome.fleet.batches_ingested(),
            1,
            "{format:?}: rejections mutated nothing"
        );
    }
}

#[test]
fn truncated_and_garbage_frames_do_not_kill_the_server() {
    use std::io::{Read, Write};
    let (d, _) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let fleet = fleet_for(&d, 1);
        let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));

        // A client that dies mid-frame: half a length prefix, then gone.
        {
            let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
            raw.write_all(&[0x00, 0x00]).expect("partial prefix");
        }
        // A client that dies mid-payload: the prefix promises 100 bytes,
        // 3 arrive.
        {
            let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
            raw.write_all(&100u32.to_be_bytes()).expect("prefix");
            raw.write_all(b"abc").expect("partial payload");
        }
        // A complete frame that is not an op, as text and as non-UTF-8 bytes:
        // answered with a framed error, then the connection is dropped.
        for garbage in [&b"this is not an op"[..], &[0xff, 0xfe]] {
            let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
            raw.write_all(&(garbage.len() as u32).to_be_bytes())
                .expect("prefix");
            raw.write_all(garbage).expect("payload");
            let mut prefix = [0u8; 4];
            raw.read_exact(&mut prefix)
                .expect("framed error comes back");
            let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
            raw.read_exact(&mut payload).expect("error payload");
            let text = String::from_utf8(payload).expect("utf8 error frame");
            assert!(text.contains("Error"), "{text}");
            // ...and the stream ends there: the server dropped the connection.
            assert_eq!(raw.read(&mut [0u8; 1]).expect("clean close"), 0);
        }
        // After all four abuses, a healthy client is served normally.
        let mut client = FleetClient::connect_with(addr, format).expect("healthy connect");
        client
            .ingest_tagged(vec![0], vec![(0, 0, vec![0])])
            .expect("healthy ingest");
        client.refit_tagged().expect("healthy refit");
        client.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

/// Nesting deeper than the decoders' cap is a framed decode error, never a
/// stack overflow that aborts the server: a raw client sends 10,000 nested
/// arrays under each codec — as the whole frame, and inside an op field
/// the decoder skips — gets an `Error` frame each time, and the next
/// client is served normally.
#[test]
fn deeply_nested_frames_get_a_framed_error_and_the_server_keeps_serving() {
    use cpa::data::codec::Writer;
    use cpa::transport::codec;
    use cpa::transport::frame::{read_frame_bytes, write_frame_bytes};
    use serde::Serializer;
    const DEPTH: usize = 10_000;

    let (d, batches) = fixture();
    let mut nested = Vec::new();
    let mut w = Writer::new(&mut nested);
    for _ in 0..DEPTH {
        w.seq(1);
    }
    w.scalar(serde::Value::UInt(0));
    let mut in_field = Vec::new();
    let mut w = Writer::new(&mut in_field);
    w.map(1);
    w.key("Ingest");
    w.map(1);
    w.key("junk");
    w.splice(&nested);
    let cases = [
        (
            WireFormat::Json,
            "[".repeat(DEPTH).into_bytes(),
            "found array",
        ),
        (
            WireFormat::Json,
            format!(
                "{{\"Ingest\":{{\"junk\":{}0{}}}}}",
                "[".repeat(DEPTH),
                "]".repeat(DEPTH)
            )
            .into_bytes(),
            "nesting deeper than 128 levels",
        ),
        (WireFormat::Binary, nested, "found array"),
        (
            WireFormat::Binary,
            in_field,
            "nesting deeper than 128 levels",
        ),
    ];
    for format in [WireFormat::Json, WireFormat::Binary] {
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let fleet = fleet_for(&d, 1);
        let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));

        for (raw_format, frame, cause) in &cases {
            let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
            if *raw_format == WireFormat::Binary {
                assert_eq!(
                    codec::client_handshake(&mut raw).expect("handshake"),
                    *raw_format
                );
            }
            write_frame_bytes(&mut raw, frame).expect("deep frame");
            let reply = read_frame_bytes(&mut raw)
                .expect("reply")
                .expect("framed error comes back");
            match codec::decode::<FleetReply>(*raw_format, &reply).expect("error frame decodes") {
                FleetReply::Error { message } => {
                    assert!(message.contains(cause), "{raw_format:?}: {message}")
                }
                other => panic!(
                    "{raw_format:?}: expected an Error frame, got {}",
                    other.name()
                ),
            }
        }

        let mut client = FleetClient::connect_with(addr, format).expect("healthy connect");
        for op in ingest_ops(&d, &batches[..2]) {
            client.apply_op(&op).expect("healthy ingest");
        }
        let (preds, _) = client.predict_tagged().expect("healthy read");
        assert_eq!(preds.len(), d.num_items(), "{format:?}");
        client.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

#[test]
fn drive_equals_the_same_ops_replayed() {
    // The legacy drive() surface and raw op replay are the same interpreter:
    // identical snapshots, including arrival state.
    let (d, batches) = fixture();
    let mut driven = fleet_for(&d, 4);
    driven.drive(&mut cpa::data::stream::MemorySource::new(
        &d.answers,
        batches.clone(),
    ));

    let mut replayed = fleet_for(&d, 4);
    let mut ops = ingest_ops(&d, &batches);
    ops.push(FleetOp::Refit);
    let replies = replayed.replay(ops);
    assert!(replies.iter().all(|r| r.name() != "Error"));
    assert_eq!(replayed.snapshot().to_json(), driven.snapshot().to_json());
    assert_eq!(replayed.batches_ingested(), batches.len());
}

/// A restore hook is required for Restore ops; without one they are
/// rejected with a framed error, with one they replace the fleet.
#[test]
fn restore_over_the_wire_requires_and_uses_the_hook() {
    let (d, batches) = fixture();
    let mut donor = fleet_for(&d, 2);
    donor.drive(&mut cpa::data::stream::MemorySource::new(
        &d.answers,
        batches.clone(),
    ));
    let manifest = donor.snapshot();
    for format in [WireFormat::Json, WireFormat::Binary] {
        // No hook installed: rejected.
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let running = std::thread::spawn({
            let fleet = fleet_for(&d, 2);
            move || server.serve(fleet).expect("serve")
        });
        let mut client = FleetClient::connect_with(addr, format).expect("connect");
        let err = client
            .restore_tagged(manifest.clone())
            .expect_err("no hook installed");
        assert!(
            err.to_string().contains("restore hook"),
            "{format:?}: {err}"
        );
        client.shutdown().expect("shutdown");
        running.join().expect("join");

        // Hook installed: the served fleet becomes the donor, bit-identically.
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let running = std::thread::spawn({
            let fleet = fleet_for(&d, 2).with_restore_hook(cpa::eval::runner::restore_engine);
            move || server.serve(fleet).expect("serve")
        });
        let mut client = FleetClient::connect_with(addr, format).expect("connect");
        client
            .restore_tagged(manifest.clone())
            .expect("restore through the hook");
        let (preds, _) = client.predict_tagged().expect("predict");
        assert_eq!(preds, donor.predict_all(), "{format:?}");
        client.shutdown().expect("shutdown");
        running.join().expect("join");
    }
}

/// `m` without its last entry, built the one way such a matrix reaches a
/// server: by deserializing it.
fn short_by_one(m: &Mat) -> Mat {
    let data = &m.as_slice()[..m.as_slice().len() - 1];
    let json = format!(
        "{{\"rows\":{},\"cols\":{},\"data\":{}}}",
        m.rows(),
        m.cols(),
        serde_json::to_string(data).expect("floats encode")
    );
    serde_json::from_str(&json).expect("a Mat decodes without a length check")
}

/// A hand-made fault in a restored CPA posterior.
type Defect = fn(&mut VariationalParams);

/// `manifest` with `defect` applied to its first shard's CPA-SVI posterior.
fn with_defect(manifest: &FleetManifest, defect: Defect) -> FleetManifest {
    let mut manifest = manifest.clone();
    let EngineState::OnlineCpa { params, .. } = &mut manifest.shards[0].state else {
        panic!("the fixture fleet runs CPA-SVI");
    };
    defect(params);
    manifest
}

/// A K=1 CPA-SVI fleet with the restore hook, two batches in.
fn restorable_fleet() -> Fleet {
    let (d, batches) = fixture();
    let mut fleet = fleet_for(&d, 1).with_restore_hook(cpa::eval::runner::restore_engine);
    for op in ingest_ops(&d, &batches[..2]) {
        assert_ne!(fleet.apply(op).name(), "Error");
    }
    fleet
}

fn predict(fleet: &mut Fleet) -> (Vec<LabelSet>, u64) {
    match fleet.apply(FleetOp::Predict) {
        FleetReply::Predictions { predictions, epoch } => (predictions, epoch),
        other => panic!("expected Predictions, got {}", other.name()),
    }
}

/// A restore whose CPA posterior is malformed — a matrix one entry short,
/// a NaN, a block with the wrong row count — is refused with an `Error`
/// naming the defect, and the fleet keeps serving its own state. Accepted,
/// the short `κ` would make every later `Predict` and `Ingest` panic on an
/// out-of-range slice. (Baseline engines' restored state is not covered
/// here.)
#[test]
fn malformed_restores_are_refused_and_the_fleet_keeps_its_state() {
    let mut fleet = restorable_fleet();
    let before = predict(&mut fleet);
    let healthy = fleet.snapshot();
    let defects: [(&str, Defect); 3] = [
        ("κ holds", |p| p.kappa = short_by_one(&p.kappa)),
        ("ζ has an entry NaN", |p| {
            p.zeta.as_mut_slice()[0] = f64::NAN
        }),
        ("λ is", |p| {
            p.lambda = Mat::filled(p.lambda.rows() + 1, p.num_labels, 1.0)
        }),
    ];
    for (cause, defect) in defects {
        let manifest = with_defect(&healthy, defect);
        match fleet.apply(FleetOp::Restore { manifest }) {
            FleetReply::Error { message } => assert!(message.contains(cause), "{message}"),
            other => panic!("{cause}: expected an Error, got {}", other.name()),
        }
        assert_eq!(predict(&mut fleet), before, "{cause}");
    }
    // The healthy manifest still restores.
    match fleet.apply(FleetOp::Restore { manifest: healthy }) {
        FleetReply::Restored { .. } => {}
        other => panic!("expected Restored, got {}", other.name()),
    }
    assert_eq!(predict(&mut fleet).0, before.0);
}

/// The same refusal over a raw socket: a client sends a `Restore` frame
/// whose `κ` is one entry short, gets an `Error` frame back, and the server
/// goes on serving the next client from its own state.
#[test]
fn a_malformed_restore_frame_gets_an_error_and_the_server_keeps_serving() {
    use cpa::transport::codec;
    use cpa::transport::frame::{read_frame_bytes, write_frame_bytes};
    for format in [WireFormat::Json, WireFormat::Binary] {
        let mut fleet = restorable_fleet();
        let (before, _) = predict(&mut fleet);
        let short_kappa = with_defect(&fleet.snapshot(), |p| p.kappa = short_by_one(&p.kappa));
        let frames = [
            (
                codec::encode(
                    WireFormat::Json,
                    &FleetOp::Restore {
                        manifest: short_kappa,
                    },
                )
                .expect("encode"),
                "κ holds",
            ),
            // Accepted, this `seen` would panic the driver's ownership scan.
            (
                cut_item_offsets(&fleet.snapshot()),
                "invariant 1: item_offsets",
            ),
        ];
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));

        for (frame, defect) in frames {
            let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
            write_frame_bytes(&mut raw, &frame).expect("restore frame");
            let reply = read_frame_bytes(&mut raw)
                .expect("reply")
                .expect("framed error comes back");
            match codec::decode::<FleetReply>(WireFormat::Json, &reply).expect("reply decodes") {
                FleetReply::Error { message } => assert!(message.contains(defect), "{message}"),
                other => panic!("expected an Error frame, got {}", other.name()),
            }

            let mut client = FleetClient::connect_with(addr, format).expect("healthy connect");
            let (preds, _) = client.predict_tagged().expect("healthy read");
            assert_eq!(preds, before, "{format:?}");
        }
        let mut client = FleetClient::connect_with(addr, format).expect("healthy connect");
        client.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

/// The raw JSON `Restore` frame of `manifest`, with its first shard's
/// `seen.item_offsets` cut to `[0]`: a CSR matrix whose item rows cannot
/// be sliced.
fn cut_item_offsets(manifest: &FleetManifest) -> Vec<u8> {
    fn field<'v>(value: &'v mut serde::Value, key: &str) -> &'v mut serde::Value {
        let serde::Value::Object(entries) = value else {
            panic!("`{key}`'s parent is not an object")
        };
        &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1
    }
    let mut op = serde::to_value(&FleetOp::Restore {
        manifest: manifest.clone(),
    });
    let serde::Value::Array(shards) = field(field(field(&mut op, "Restore"), "manifest"), "shards")
    else {
        panic!("`shards` is not an array")
    };
    *field(field(&mut shards[0], "seen"), "item_offsets") =
        serde::Value::Array(vec![serde::Value::UInt(0)]);
    serde_json::to_string(&op)
        .expect("frame encodes")
        .into_bytes()
}

/// Per `ingest`: the name of the thread it ran on, and how many distinct
/// threads a 64-element parallel iterator spread over there.
type ThreadLog = Arc<Mutex<Vec<(Option<String>, usize)>>>;

/// The calling thread's [`ThreadLog`] entry.
fn probe_thread() -> (Option<String>, usize) {
    use rayon::prelude::*;
    let ids: Vec<std::thread::ThreadId> = (0..64)
        .into_par_iter()
        .map(|_| {
            // Long enough that a wide pool's spawned workers claim
            // chunks before the calling thread drains them all.
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        })
        .collect();
    let width = ids.iter().collect::<HashSet<_>>().len();
    let name = std::thread::current().name().map(str::to_owned);
    (name, width)
}

#[test]
fn engine_steps_run_serially_on_the_named_driver_thread() {
    let (d, batches) = fixture();
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    for format in [WireFormat::Json, WireFormat::Binary] {
        let log = ThreadLog::default();
        let hook: Hook = Arc::new({
            let log = Arc::clone(&log);
            move |step| {
                if step == Step::Ingest {
                    log.lock().expect("probe log").push(probe_thread());
                }
            }
        });
        // One fleet thread: every shard step runs on the driver itself.
        let fleet = Fleet::new(2, 1, i, u, c, |_| {
            Hooked::wrap(Method::Mv.engine(i, u, c, SEED), &hook)
        });
        let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let running = std::thread::spawn(move || server.serve(fleet).expect("serve"));
        let mut client = FleetClient::connect_with(addr, format).expect("connect");
        for op in ingest_ops(&d, &batches[..3]) {
            let FleetOp::Ingest { workers, answers } = op else {
                unreachable!()
            };
            client.ingest_tagged(workers, answers).expect("ingest");
        }
        client.shutdown().expect("shutdown");
        running.join().expect("server joins");

        let log = log.lock().expect("probe log");
        assert!(!log.is_empty(), "{format:?}: no engine step was recorded");
        for (name, width) in log.iter() {
            assert_eq!(name.as_deref(), Some("cpa-driver"), "{format:?}");
            assert_eq!(
                *width, 1,
                "{format:?}: a one-thread fleet's step ran {width} threads wide"
            );
        }
    }
}

#[allow(dead_code)]
fn assert_engine_is_send(engine: DynEngine) -> DynEngine {
    engine
}
