//! Leader/follower replication over op-log shipping, end to end.
//!
//! Contract 1 (bit-identity at every acked epoch): a follower tailing a
//! leader's `SubscribeOps` stream serves, at every epoch the leader acked,
//! predictions bit-identical to replaying the leader's recorded op-log to
//! that epoch (`Fleet::replay_to_epoch`) — at K ∈ {1, 4}, under both wire
//! codecs.
//!
//! Contract 2 (failover): once the leader winds down, the follower has
//! replayed to head; promoting it yields a fleet whose manifest is
//! **byte-for-byte** the leader's final manifest.
//!
//! Contract 3 (resume): subscribing from an arbitrary `from_epoch` replays
//! exactly the recorded backlog past that epoch; resume from behind the
//! head without op recording is refused with a readable error. Once the
//! leader accepted a `Restore`, which restarts the epochs, only a
//! subscription from epoch 0 is served: it ships the whole recorded log,
//! and any other resume point is refused by naming the restore.
//!
//! Contract 4 (the two serve-path bugfixes ride along): `Fleet::replay`
//! stops at a mid-log `Shutdown`; and a client with socket deadlines
//! surfaces a silent server as `TimedOut` instead of hanging.
//!
//! Every test that talks to a server runs once per wire codec: its clients
//! speak JSON, then binary.

use cpa::data::codec;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::{WorkerBatch, WorkerStream};
use cpa::eval::runner::{restore_engine, Method};
use cpa::math::rng::seeded;
use cpa::serve::{Fleet, FleetOp, Follower, ShippedOp};
use cpa::transport::{
    ClientConfig, FleetClient, FleetServer, ServerConfig, TransportError, WireFormat,
};
use std::collections::BTreeMap;
use std::time::Duration;

const SEED: u64 = 9109;

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

/// The canonical mutation stream: one ingest per arrival batch with a
/// refit spliced into the middle.
fn mutation_ops(d: &cpa::data::dataset::Dataset, batches: &[WorkerBatch]) -> Vec<FleetOp> {
    let mut ops: Vec<FleetOp> = batches
        .iter()
        .map(|b| FleetOp::ingest_from(&d.answers, b))
        .collect();
    ops.insert(ops.len() / 2, FleetOp::Refit);
    ops
}

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
fn follower_serves_every_acked_epoch_bit_identically_and_promotes_to_the_leader_manifest() {
    let (d, batches) = fixture();
    for shards in [1usize, 4] {
        for format in [WireFormat::Json, WireFormat::Binary] {
            let (addr, running) = spawn_server(
                fleet_for(&d, shards),
                ServerConfig {
                    record_ops: true,
                    ..ServerConfig::default()
                },
            );

            // Subscribe from genesis before any mutation lands, then tail
            // the stream on its own thread, recording the follower's
            // served predictions at every epoch it reaches.
            let subscription = FleetClient::connect_with(addr, format)
                .expect("subscriber connects")
                .subscribe(0)
                .expect("subscription acked");
            assert_eq!(subscription.head(), 0, "fresh leader head");
            let follower_fleet = fleet_for(&d, shards);
            let tail = std::thread::spawn(move || {
                let mut feed = subscription;
                let mut follower = Follower::new(follower_fleet);
                let mut served: BTreeMap<u64, Vec<_>> = BTreeMap::new();
                while let Some((epoch, op)) = feed.next_frame().expect("shipped frame") {
                    follower
                        .apply_shipped(ShippedOp::tagged(epoch, op))
                        .expect("applies cleanly");
                    assert_eq!(follower.lag(), 0, "tagged stream applies to head");
                    served.insert(follower.epoch(), follower.fleet().predict_all());
                }
                (follower, served)
            });

            // The writer: every mutation through a plain client, collecting
            // the acked epochs.
            let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
            let mut acked = Vec::new();
            for op in mutation_ops(&d, &batches) {
                let epoch = match op {
                    FleetOp::Ingest { workers, answers } => {
                        writer.ingest_tagged(workers, answers).expect("ingest").1
                    }
                    FleetOp::Refit => writer.refit_tagged().expect("refit"),
                    _ => unreachable!(),
                };
                acked.push(epoch);
            }
            writer.shutdown().expect("shutdown");

            let outcome = running.join().expect("server joins");
            // Server wind-down closed the stream; the tail thread saw a
            // clean EOF at head.
            let (follower, served) = tail.join().expect("tail joins");
            assert_eq!(follower.epoch(), *acked.last().unwrap());

            // Contract 1: at every acked epoch, the follower served what
            // replaying the leader's recorded op-log to that epoch serves.
            for &epoch in &acked {
                let mut replayed = fleet_for(&d, shards);
                replayed.replay_to_epoch(outcome.op_log.iter().cloned(), epoch);
                assert_eq!(
                    served.get(&epoch),
                    Some(&replayed.predict_all()),
                    "K={shards} {format:?}: follower diverged at epoch {epoch}"
                );
            }

            // Contract 2: failover — the promoted follower's manifest is
            // byte-for-byte the leader's final manifest, JSON and binary.
            let promoted = follower.promote();
            assert_eq!(
                promoted.snapshot().to_json(),
                outcome.fleet.snapshot().to_json(),
                "K={shards} {format:?}: promoted manifest diverged (JSON)"
            );
            assert_eq!(
                codec::to_bytes(&promoted.snapshot()),
                codec::to_bytes(&outcome.fleet.snapshot()),
                "K={shards} {format:?}: promoted manifest diverged (binary)"
            );
        }
    }
}

#[test]
fn subscription_resumes_from_an_arbitrary_epoch_via_recorded_backlog() {
    let (d, batches) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let ops = mutation_ops(&d, &batches);
        let (addr, running) = spawn_server(
            fleet_for(&d, 2),
            ServerConfig {
                record_ops: true,
                ..ServerConfig::default()
            },
        );

        let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
        for op in ops.clone() {
            writer.apply_op(&op).expect("mutation accepted");
        }

        // A follower that already holds the first `resume_at` epochs (here:
        // seeded by local replay of the shared prefix) subscribes from there
        // and receives exactly the backlog past it.
        let resume_at = ops.len() as u64 / 2;
        let mut seeded = fleet_for(&d, 2);
        seeded.replay(ops[..resume_at as usize].iter().cloned());
        let mut follower = Follower::new(seeded);
        assert_eq!(follower.epoch(), resume_at);

        let mut subscription = FleetClient::connect_with(addr, format)
            .expect("subscriber connects")
            .subscribe(resume_at)
            .expect("resume acked");
        assert_eq!(subscription.head(), ops.len() as u64);
        let mut first_epoch = None;
        while follower.epoch() < subscription.head() {
            let (epoch, op) = subscription
                .next_frame()
                .expect("backlog frame")
                .expect("backlog not exhausted early");
            first_epoch.get_or_insert(epoch);
            follower
                .apply_shipped(ShippedOp::tagged(epoch, op))
                .expect("backlog applies");
        }
        assert_eq!(
            first_epoch,
            Some(resume_at + 1),
            "backlog starts right past from_epoch"
        );

        writer.shutdown().expect("shutdown");
        let outcome = running.join().expect("server joins");
        assert_eq!(
            follower.promote().snapshot().to_json(),
            outcome.fleet.snapshot().to_json(),
            "{format:?}: resumed follower diverged from the leader"
        );
    }
}

#[test]
fn resume_from_behind_the_head_without_op_recording_is_refused() {
    let (d, batches) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let (addr, running) = spawn_server(fleet_for(&d, 2), ServerConfig::default());

        let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
        let op = FleetOp::ingest_from(&d.answers, &batches[0]);
        writer.apply_op(&op).expect("mutation accepted");

        // The server cannot replay a gap it never recorded.
        let err = FleetClient::connect_with(addr, format)
            .expect("subscriber connects")
            .subscribe(0)
            .expect_err("resume must be refused");
        assert!(
            matches!(&err, TransportError::Rejected(m) if m.contains("not recording")),
            "{format:?}: refusal names the cause: {err}"
        );

        // Subscribing from the current head needs no backlog and is granted.
        let subscription = FleetClient::connect_with(addr, format)
            .expect("subscriber connects")
            .subscribe(1)
            .expect("head subscription granted");
        assert_eq!(subscription.head(), 1);

        writer.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

#[test]
fn a_subscription_from_ahead_of_the_head_is_refused() {
    let (d, batches) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let (addr, running) = spawn_server(
            fleet_for(&d, 2),
            ServerConfig {
                record_ops: true,
                ..ServerConfig::default()
            },
        );
        let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
        let op = FleetOp::ingest_from(&d.answers, &batches[0]);
        let head = writer
            .apply_op(&op)
            .expect("mutation accepted")
            .epoch()
            .unwrap();

        // No backlog can reach an epoch the leader has not produced yet.
        let err = FleetClient::connect_with(addr, format)
            .expect("subscriber connects")
            .subscribe(head + 5)
            .expect_err("a future resume point must be refused");
        let ahead = (head + 5).to_string();
        assert!(
            matches!(&err, TransportError::Rejected(m) if m.contains(&ahead) && m.contains(&head.to_string())),
            "{format:?}: refusal names both epochs: {err}"
        );
        // The refused subscription leaves its connection usable.
        let mut probe = FleetClient::connect_with(addr, format).expect("probe connects");
        let err = probe
            .apply_op(&FleetOp::SubscribeOps {
                from_epoch: head + 5,
            })
            .expect_err("a future resume point must be refused");
        assert!(
            matches!(&err, TransportError::Rejected(m) if m.contains(&ahead)),
            "{err}"
        );
        let (_, epoch) = probe
            .predict_tagged()
            .expect("the refused connection still answers reads");
        assert_eq!(epoch, head);

        writer.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

/// A recording leader with a restore hook, driven by one writer through
/// `A, snapshot, B, restore(snapshot), X, Y` — the snapshot taken at
/// `snapshot_at` (0: before A). A, B, X and Y are arrival batches 0–3.
/// Returns the server's address, its thread and the writer, which speaks
/// `format`.
fn restored_leader(
    d: &cpa::data::dataset::Dataset,
    batches: &[WorkerBatch],
    snapshot_at: usize,
    format: WireFormat,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<cpa::transport::ServeOutcome>,
    FleetClient,
) {
    let (addr, running) = spawn_server(
        fleet_for(d, 2).with_restore_hook(restore_engine),
        ServerConfig {
            record_ops: true,
            ..ServerConfig::default()
        },
    );
    let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
    let ingest = |writer: &mut FleetClient, k: usize| {
        writer
            .apply_op(&FleetOp::ingest_from(&d.answers, &batches[k]))
            .expect("mutation accepted");
    };
    let mut manifest = None;
    for k in 0..2 {
        if k == snapshot_at {
            manifest = Some(writer.snapshot().expect("snapshot"));
        }
        ingest(&mut writer, k);
    }
    let manifest = manifest.expect("snapshot taken");
    let restored = manifest.epoch;
    assert_eq!(writer.restore_tagged(manifest).expect("restore"), restored);
    for k in 2..4 {
        ingest(&mut writer, k);
    }
    (addr, running, writer)
}

#[test]
fn a_resume_across_a_restore_is_refused_by_naming_it() {
    let (d, batches) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        // A (1), snapshot M at 1, B (2), restore M (1), X (2), Y (3).
        let (addr, running, mut writer) = restored_leader(&d, &batches, 1, format);

        // A follower holding A and B at epoch 2 must not be shipped Y alone:
        // the leader's epoch 2 is A + X, not A + B.
        let err = FleetClient::connect_with(addr, format)
            .expect("subscriber connects")
            .subscribe(2)
            .expect_err("a resume across a restore must be refused");
        assert!(
            matches!(&err, TransportError::Rejected(m) if m.contains("Restore") && m.contains("epoch 0")),
            "{format:?}: refusal names the restore: {err}"
        );
        // From epoch 0 the whole log is served.
        let subscription = FleetClient::connect_with(addr, format)
            .expect("subscriber connects")
            .subscribe(0)
            .expect("a subscription from epoch 0 is granted");
        assert_eq!(subscription.head(), 3);

        writer.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

#[test]
fn a_follower_from_epoch_zero_replays_a_restore_of_an_epoch_zero_manifest() {
    let (d, batches) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        // Snapshot M at 0, A (1), B (2), restore M (0), X (1), Y (2).
        let (addr, running, mut writer) = restored_leader(&d, &batches, 0, format);

        let mut subscription = FleetClient::connect_with(addr, format)
            .expect("subscriber connects")
            .subscribe(0)
            .expect("a subscription from epoch 0 is granted");
        // Every recorded frame is queued at subscribe time; the shutdown then
        // ends the stream after them.
        writer.shutdown().expect("shutdown");
        let mut follower = Follower::new(fleet_for(&d, 2).with_restore_hook(restore_engine));
        let mut shipped = Vec::new();
        while let Some((epoch, op)) = subscription.next_frame().expect("shipped frame") {
            shipped.push((epoch, op.name()));
            follower
                .apply_shipped(ShippedOp::tagged(epoch, op))
                .expect("the whole log applies in order");
        }
        assert_eq!(
            shipped,
            [
                (1, "Ingest"),
                (2, "Ingest"),
                (0, "Restore"),
                (1, "Ingest"),
                (2, "Ingest")
            ],
            "{format:?}: the restore tagged 0 ships with the rest of the log"
        );

        let leader = running.join().expect("server joins").fleet;
        let promoted = follower.promote();
        assert_eq!(promoted.predict_all(), leader.predict_all());
        assert_eq!(
            promoted.snapshot().to_json(),
            leader.snapshot().to_json(),
            "the follower ends on the leader's manifest"
        );
    }
}

#[test]
fn replay_stops_at_a_mid_log_shutdown() {
    let (d, batches) = fixture();
    let mut ops = mutation_ops(&d, &batches);
    // A mid-log Shutdown with real mutations after it: local replay ends
    // where the recorded server stopped.
    let marker = ops.len() / 2;
    ops.insert(marker, FleetOp::Shutdown);
    let before_marker = marker as u64;

    let mut stops = fleet_for(&d, 2);
    let replies = stops.replay(ops);
    assert_eq!(
        stops.epoch(),
        before_marker,
        "replay consumes nothing past the Shutdown marker"
    );
    assert_eq!(replies.len() as u64, before_marker + 1, "marker is acked");
}

#[test]
fn a_silent_server_times_out_instead_of_hanging_the_client() {
    // A listener that accepts and then never answers — the pathological
    // peer that used to hang a deadline-less client forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let silent = std::thread::spawn(move || {
        let mut held = Vec::new();
        // Hold every accepted socket open, replying to nothing, until the
        // test ends and the listener is dropped.
        for stream in listener.incoming().take(1) {
            held.push(stream);
        }
        held
    });

    let mut client = FleetClient::connect_with_config(
        addr,
        WireFormat::Json,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(100)),
            write_timeout: Some(Duration::from_millis(100)),
        },
    )
    .expect("TCP connect succeeds");
    let start = std::time::Instant::now();
    let err = client
        .refit_tagged()
        .expect_err("silent peer must not hang");
    assert!(
        matches!(err, TransportError::TimedOut),
        "typed timeout, got: {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "timed out via the configured deadline, not some other stall"
    );
    drop(client);
    silent.join().expect("listener thread joins");
}
