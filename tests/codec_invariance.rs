//! Codec invariance: the binary codec is a pure representation — every
//! observable behaviour is bit-identical to the JSON paths it shadows.
//!
//! Contract 1 (checkpoints): for all seven engines, restoring a checkpoint
//! decoded from the binary codec (`cpa::data::codec::to_bytes` /
//! `from_bytes`) is **bit-identical** to restoring the JSON checkpoint of
//! the same snapshot — same predictions, same re-snapshot JSON — and the
//! binary document is materially smaller.
//!
//! Contract 2 (manifests): likewise for fleet manifests at K ∈ {1, 4}
//! shards, through `Fleet::restore` — the payload a binary-wire
//! `Snapshot` reply or `Restore` op carries.
//!
//! Contract 3 (op streams): recorded ops round-tripped through the binary
//! codec as `OpApplied` frames ship them replay to the same snapshot as
//! their JSONL op-log.
//!
//! Contract 4 (negotiation): a JSON-only client round-trips unchanged
//! against a binary-capable server; mixed-codec concurrent clients see one
//! fleet bit-identically; a client asking for a binary version the server
//! does not implement falls back to JSON on the same connection; and the
//! 64 MiB frame cap is enforced identically under both codecs.

use cpa::core::engine::{drive, Checkpoint};
use cpa::data::codec;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::{MemorySource, WorkerBatch, WorkerStream};
use cpa::eval::runner::{engine_for, restore_engine, Method};
use cpa::math::rng::seeded;
use cpa::serve::{ops_to_jsonl, Fleet, FleetManifest, FleetOp, FleetReply};
use cpa::transport::{
    FleetClient, FleetServer, ServerConfig, WireFormat, MAX_FRAME_BYTES, WIRE_VERSION,
};
use std::io::{Read, Write};

const SEED: u64 = 6106;

fn fixture() -> (cpa::data::dataset::Dataset, Vec<WorkerBatch>) {
    let sim = simulate(&DatasetProfile::movie().scaled(0.05), SEED);
    let mut rng = seeded(SEED + 1);
    let batches = WorkerStream::new(&sim.dataset, 8, &mut rng).into_batches();
    (sim.dataset, batches)
}

fn fleet_for(d: &cpa::data::dataset::Dataset, shards: usize) -> Fleet {
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    Fleet::new(shards, 2, i, u, c, |_| Method::CpaSvi.engine(i, u, c, SEED))
}

#[test]
fn every_engine_restores_bit_identically_from_binary_and_json_checkpoints() {
    let (d, batches) = fixture();
    for method in Method::all() {
        let mut engine = engine_for(method, &d, 31);
        drive(
            engine.as_mut(),
            &mut MemorySource::new(&d.answers, batches.clone()),
        );
        let checkpoint = engine.snapshot();
        let json = checkpoint.to_json();
        let binary = codec::to_bytes(&checkpoint);
        assert!(
            binary.len() < json.len(),
            "{}: binary checkpoint ({} bytes) not smaller than JSON ({} bytes)",
            method.name(),
            binary.len(),
            json.len()
        );

        let from_json = restore_engine(Checkpoint::from_json(&json).unwrap())
            .unwrap_or_else(|e| panic!("{}: JSON restore: {e}", method.name()));
        let from_codec = restore_engine(codec::from_bytes::<Checkpoint>(&binary).unwrap())
            .unwrap_or_else(|e| panic!("{}: binary restore: {e}", method.name()));

        assert_eq!(
            from_codec.predict_all(),
            from_json.predict_all(),
            "{}: predictions diverged across encodings",
            method.name()
        );
        assert_eq!(
            from_codec.snapshot().to_json(),
            from_json.snapshot().to_json(),
            "{}: re-snapshots diverged across encodings",
            method.name()
        );
        assert_eq!(
            from_codec.snapshot().to_json(),
            json,
            "{}: binary restore lost state vs the original snapshot",
            method.name()
        );
    }
}

#[test]
fn fleet_manifests_restore_bit_identically_from_binary_at_k1_and_k4() {
    let (d, batches) = fixture();
    for k in [1usize, 4] {
        let mut fleet = fleet_for(&d, k);
        fleet.drive(&mut MemorySource::new(&d.answers, batches.clone()));
        let manifest = fleet.snapshot();
        let json = manifest.to_json();
        let binary = codec::to_bytes(&manifest);
        assert!(
            binary.len() < json.len(),
            "K={k}: binary manifest ({}) not smaller than JSON ({})",
            binary.len(),
            json.len()
        );

        let restore =
            |m: FleetManifest| Fleet::restore(m, 2, restore_engine).expect("manifest restores");
        let from_json = restore(FleetManifest::from_json(&json).unwrap());
        let from_codec = restore(codec::from_bytes::<FleetManifest>(&binary).unwrap());

        assert_eq!(
            from_codec.predict_all(),
            from_json.predict_all(),
            "K={k}: predictions diverged across manifest encodings"
        );
        assert_eq!(
            from_codec.snapshot().to_json(),
            json,
            "K={k}: binary manifest restore lost state"
        );
    }
}

#[test]
fn recorded_op_logs_replay_identically_from_binary_and_jsonl() {
    let (d, batches) = fixture();
    let ops: Vec<FleetOp> = batches
        .iter()
        .map(|b| FleetOp::ingest_from(&d.answers, b))
        .chain([FleetOp::Refit])
        .collect();

    let jsonl = ops_to_jsonl(&ops);
    let from_jsonl: Vec<FleetOp> = cpa::serve::ops_from_jsonl(&jsonl).expect("JSONL parses");
    let from_codec: Vec<FleetOp> = ops
        .into_iter()
        .zip(1..)
        .map(|(op, epoch)| {
            let frame = codec::to_bytes(&FleetReply::OpApplied { epoch, op });
            let Ok(FleetReply::OpApplied { epoch: back, op }) = codec::from_bytes(&frame) else {
                panic!("an OpApplied frame decodes as OpApplied");
            };
            assert_eq!(back, epoch);
            op
        })
        .collect();
    assert_eq!(from_codec.len(), from_jsonl.len());

    let mut via_jsonl = fleet_for(&d, 4);
    via_jsonl.replay(from_jsonl);
    let mut via_binary = fleet_for(&d, 4);
    via_binary.replay(from_codec);
    assert_eq!(
        via_binary.snapshot().to_json(),
        via_jsonl.snapshot().to_json(),
        "op-log replay diverged across encodings"
    );
}

/// Serves `fleet` on an ephemeral port under `config`; returns the
/// address and the join handle.
fn spawn_server(
    fleet: Fleet,
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<cpa::transport::ServeOutcome>,
) {
    let server = FleetServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.serve(fleet).expect("serve"));
    (addr, handle)
}

#[test]
fn mixed_codec_clients_round_trip_one_fleet_bit_identically() {
    let (d, batches) = fixture();
    let ops: Vec<FleetOp> = batches
        .iter()
        .map(|b| FleetOp::ingest_from(&d.answers, b))
        .collect();

    // In-process reference on the same global op order.
    let mut reference = fleet_for(&d, 4);
    for op in ops.clone() {
        assert_eq!(reference.apply(op).name(), "Ingested");
    }
    reference.refit_all();
    let want = reference.predict_all();

    let (addr, running) = spawn_server(fleet_for(&d, 4), ServerConfig::default());
    let mut json_client =
        FleetClient::connect_with(addr, WireFormat::Json).expect("JSON client connects");
    let mut binary_client =
        FleetClient::connect_with(addr, WireFormat::Binary).expect("binary client connects");
    assert_eq!(json_client.wire_format(), WireFormat::Json);
    assert_eq!(
        binary_client.wire_format(),
        WireFormat::Binary,
        "Auto server grants the binary handshake"
    );

    // Alternate ingests across the two codecs — one deterministic global
    // order through two live connections speaking different wire formats.
    for (idx, op) in ops.into_iter().enumerate() {
        let FleetOp::Ingest { workers, answers } = op else {
            unreachable!()
        };
        let client = if idx % 2 == 0 {
            &mut json_client
        } else {
            &mut binary_client
        };
        client
            .ingest_tagged(workers, answers)
            .expect("mixed ingest");
    }
    json_client.refit_tagged().expect("refit over JSON");

    let (json_preds, _) = json_client.predict_tagged().expect("predict over JSON");
    let (binary_preds, _) = binary_client.predict_tagged().expect("predict over binary");
    assert_eq!(json_preds, want, "JSON client diverged");
    assert_eq!(binary_preds, want, "binary client diverged");
    assert_eq!(
        json_client.snapshot().expect("JSON snapshot").to_json(),
        binary_client.snapshot().expect("binary snapshot").to_json(),
        "the two codecs see different manifests"
    );

    binary_client.shutdown().expect("shutdown over binary");
    let outcome = running.join().expect("server joins");
    assert_eq!(outcome.fleet.predict_all(), want);
}

#[test]
fn the_frame_cap_is_enforced_identically_under_both_codecs() {
    let (d, _) = fixture();
    let (addr, running) = spawn_server(fleet_for(&d, 1), ServerConfig::default());
    let oversized = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();

    // JSON connection: the oversized declaration is the first prefix.
    {
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&oversized).expect("oversized prefix");
        // The server rejects before buffering and drops the connection
        // without a reply (no healthy frame boundary to answer on).
        assert_eq!(raw.read(&mut [0u8; 1]).expect("dropped"), 0);
    }
    // Binary connection: same declaration after a successful handshake.
    {
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        let mut preamble = Vec::from(*b"CPAW");
        preamble.extend(WIRE_VERSION.to_be_bytes());
        raw.write_all(&preamble).expect("handshake preamble");
        let mut ack = [0u8; 8];
        raw.read_exact(&mut ack).expect("handshake ack");
        assert_eq!(&ack[..4], b"CPAW");
        assert_eq!(
            u32::from_be_bytes([ack[4], ack[5], ack[6], ack[7]]),
            WIRE_VERSION
        );
        raw.write_all(&oversized).expect("oversized prefix");
        assert_eq!(raw.read(&mut [0u8; 1]).expect("dropped"), 0);
    }
    // Both abuses left the server serving.
    let mut client = FleetClient::connect_with(addr, WireFormat::Binary).expect("connect");
    client.refit_tagged().expect("healthy refit");
    client.shutdown().expect("shutdown");
    running.join().expect("server joins");
}

#[test]
fn an_unsupported_binary_version_falls_back_to_json() {
    let (d, _) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let (addr, running) = spawn_server(fleet_for(&d, 1), ServerConfig::default());

        // A future client requesting wire version 99: the server acks 0
        // (refused) and the connection proceeds in JSON.
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        let mut preamble = Vec::from(*b"CPAW");
        preamble.extend(99u32.to_be_bytes());
        raw.write_all(&preamble).expect("versioned preamble");
        let mut ack = [0u8; 8];
        raw.read_exact(&mut ack).expect("ack");
        assert_eq!(&ack[..4], b"CPAW");
        assert_eq!(
            u32::from_be_bytes([ack[4], ack[5], ack[6], ack[7]]),
            0,
            "unsupported version must be refused, not half-spoken"
        );
        // JSON still works on this very connection.
        let op = "\"Refit\"";
        raw.write_all(&(op.len() as u32).to_be_bytes())
            .expect("prefix");
        raw.write_all(op.as_bytes()).expect("payload");
        let mut prefix = [0u8; 4];
        raw.read_exact(&mut prefix).expect("reply prefix");
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        raw.read_exact(&mut payload).expect("reply payload");
        let text = String::from_utf8(payload).expect("JSON reply");
        assert!(text.contains("Refitted"), "{text}");
        drop(raw);

        // The refused connection left the server serving either codec.
        let mut client = FleetClient::connect_with(addr, format).expect("connect");
        client.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}
