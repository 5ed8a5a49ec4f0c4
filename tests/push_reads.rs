//! Epoch-delta push subscriptions, end to end.
//!
//! Contract 1 (fidelity): a `SubscribeReads` cache maintained purely by
//! applying pushed delta frames serves, at **every** epoch the writer
//! acked, rows identical to poll-refetching over the same codec at that
//! epoch — at K ∈ {1, 2, 4}, full and item-ranged subscriptions, both wire
//! codecs, both read kinds. Deterministic grids pin the required corners;
//! a property samples random item sets over the same space.
//!
//! Contract 2 (delta minimality): after an ingest routed entirely to one
//! of K = 4 shards, the pushed delta carries rows for exactly that shard's
//! items — the other three shards ship nothing.
//!
//! Contract 3 (refusals): subscriptions (op-stream or read-delta) hold at
//! most `max_clients - 1` handler slots; one past the cap is refused with
//! a readable framed error, the refused connection stays usable, and a
//! dropped subscription's slot is reclaimed. A read subscription naming an
//! item outside the universe is refused the same way, naming the item.
//!
//! Contract 4 (stream endings): server wind-down is a clean EOF
//! (`Ok(None)`, cache still readable at its last epoch); a server that
//! goes silent without closing surfaces as `TimedOut` via the read
//! deadline instead of hanging the subscriber.
//!
//! Contract 5 (restores): after a `Restore`, every subscription's next
//! frame carries all its rows at the manifest's epoch, and cache ≡ poll
//! keeps holding as ingesting continues. A restore that shrinks the
//! universe under a subscription's items ends that subscription with a
//! framed error; the others keep streaming and the server keeps serving.
//!
//! Contract 6 (warm after the ack): a writer's ack does not wait for the
//! slab fill that feeds the subscribers' deltas. A poll that lands before
//! that fill queues behind it and reads the acked epoch, and the next
//! delta equals that poll.
//!
//! Contracts 1 and 2 name their codec per case; every other test that
//! talks to a server runs once per wire codec (JSON, then binary).

mod common;

use common::{Hook, Hooked, Step};
use cpa::data::labels::LabelSet;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::{WorkerBatch, WorkerStream};
use cpa::eval::runner::Method;
use cpa::math::rng::seeded;
use cpa::serve::{Fleet, FleetOp, FleetReply, ReadKind, ShardIndex, ShardRouter};
use cpa::transport::{
    ClientConfig, FleetClient, FleetServer, ReadSubscription, ServerConfig, TransportError,
    WireFormat,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const SEED: u64 = 10_104;

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

/// One canonical rendering of the cache's rows, for comparison against the
/// same rendering of a poll refetch.
fn cache_rows(sub: &ReadSubscription) -> String {
    let cache = sub.cache();
    match cache.kind() {
        ReadKind::Predictions => {
            serde_json::to_string(&cache.predictions().expect("prediction cache").to_vec())
                .expect("rows serialize")
        }
        ReadKind::Estimate => {
            serde_json::to_string(&cache.estimates().expect("estimate cache").to_vec())
                .expect("rows serialize")
        }
    }
}

/// Poll-refetches the subscribed rows over `client`'s connection, returning
/// the same canonical rendering plus the epoch tag the reply carried.
fn poll_rows(client: &mut FleetClient, kind: ReadKind, items: &[usize]) -> (String, u64) {
    match kind {
        ReadKind::Predictions => {
            let (rows, epoch) = client
                .predict_items_tagged(items.to_vec())
                .expect("poll refetch");
            (serde_json::to_string(&rows).expect("rows serialize"), epoch)
        }
        ReadKind::Estimate => {
            let (rows, epoch) = client
                .estimate_items_tagged(items.to_vec())
                .expect("poll refetch");
            (serde_json::to_string(&rows).expect("rows serialize"), epoch)
        }
    }
}

/// Contract 1's engine: subscribe (full universe when `watch` is `None`),
/// run the canonical mutation stream, and assert the delta-maintained
/// cache matched a poll refetch at the bootstrap and at every acked epoch,
/// through the clean wind-down EOF.
fn push_matches_poll(shards: usize, format: WireFormat, kind: ReadKind, watch: Option<Vec<usize>>) {
    let (d, batches) = fixture();
    let (addr, running) = spawn_server(fleet_for(&d, shards), ServerConfig::default());

    let sub = FleetClient::connect_with(addr, format)
        .expect("subscriber connects")
        .subscribe_reads(kind, watch.clone())
        .expect("subscription acked");
    assert_eq!(sub.epoch(), 0, "bootstrap at genesis");
    let items = sub.cache().items().to_vec();
    match &watch {
        Some(w) => {
            let mut normalized = w.clone();
            normalized.sort_unstable();
            normalized.dedup();
            assert_eq!(items, normalized, "bootstrap echoes the normalized range");
        }
        None => assert_eq!(items.len(), d.num_items(), "full scope pins the universe"),
    }
    let bootstrap = cache_rows(&sub);

    // Tail the push stream on its own thread, snapshotting the cache after
    // every applied frame. The loop ends at the wind-down EOF.
    let tail = std::thread::spawn(move || {
        let mut sub = sub;
        let mut seen: BTreeMap<u64, String> = BTreeMap::new();
        while let Some(delta) = sub.next_delta().expect("delta frame") {
            seen.insert(delta.applied.epoch, cache_rows(&sub));
        }
        seen
    });

    let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
    let (genesis, tag) = poll_rows(&mut writer, kind, &items);
    assert_eq!(tag, 0, "nothing mutated yet");
    assert_eq!(
        bootstrap, genesis,
        "K={shards} {format:?} {kind:?}: bootstrap diverged from a genesis poll"
    );

    // The writer is the only mutator, so a refetch right after each ack
    // reads exactly that acked epoch — the poll-path ground truth the
    // pushed cache must reproduce.
    let mut expected: BTreeMap<u64, String> = BTreeMap::new();
    for op in mutation_ops(&d, &batches) {
        let epoch = match op {
            FleetOp::Ingest { workers, answers } => {
                writer.ingest_tagged(workers, answers).expect("ingest").1
            }
            FleetOp::Refit => writer.refit_tagged().expect("refit"),
            _ => unreachable!(),
        };
        let (rows, tag) = poll_rows(&mut writer, kind, &items);
        assert_eq!(tag, epoch, "refetch reads the acked epoch");
        expected.insert(epoch, rows);
    }
    writer.shutdown().expect("shutdown");
    running.join().expect("server joins");

    let seen = tail.join().expect("tail joins");
    assert_eq!(
        seen.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "K={shards} {format:?} {kind:?}: one delta per acked epoch (empty deltas included)"
    );
    for (epoch, rows) in &expected {
        assert_eq!(
            seen.get(epoch),
            Some(rows),
            "K={shards} {format:?} {kind:?}: cache diverged from poll refetch at epoch {epoch}"
        );
    }
}

#[test]
fn full_subscription_cache_matches_poll_refetch_at_every_epoch() {
    for shards in [1usize, 2, 4] {
        for format in [WireFormat::Json, WireFormat::Binary] {
            // Alternate the read kind across the grid so both row types
            // cover every K and both codecs between the two grid tests.
            let kind = if shards == 2 {
                ReadKind::Estimate
            } else {
                ReadKind::Predictions
            };
            push_matches_poll(shards, format, kind, None);
        }
    }
}

#[test]
fn ranged_subscription_cache_matches_poll_refetch_at_every_epoch() {
    let (d, _) = fixture();
    // A probe range spanning every shard at K = 4 (stride 3), handed over
    // unsorted and with a duplicate to exercise bootstrap normalization.
    let mut probe: Vec<usize> = (0..d.num_items()).rev().step_by(3).collect();
    probe.push(probe[0]);
    for (shards, format, kind) in [
        (1usize, WireFormat::Json, ReadKind::Estimate),
        (2, WireFormat::Binary, ReadKind::Predictions),
        (4, WireFormat::Json, ReadKind::Predictions),
        (4, WireFormat::Binary, ReadKind::Estimate),
    ] {
        push_matches_poll(shards, format, kind, Some(probe.clone()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn prop_cache_matches_poll_refetch(
        k_pick in 0usize..3,
        fmt_pick in 0usize..2,
        kind_pick in 0usize..2,
        full_scope in 0usize..3,
        raw_items in proptest::collection::btree_set(0usize..1usize << 16, 1..12),
    ) {
        let shards = [1usize, 2, 4][k_pick];
        let format = [WireFormat::Json, WireFormat::Binary][fmt_pick];
        let kind = [ReadKind::Predictions, ReadKind::Estimate][kind_pick];
        let watch = if full_scope == 0 {
            None
        } else {
            let (d, _) = fixture();
            Some(raw_items.iter().map(|i| i % d.num_items()).collect())
        };
        push_matches_poll(shards, format, kind, watch);
    }
}

#[test]
fn a_single_shard_ingest_pushes_exactly_the_dirty_shards_rows() {
    let (d, batches) = fixture();
    let shards = 4;
    let index = ShardIndex::new(ShardRouter::new(shards), d.num_items());
    for format in [WireFormat::Json, WireFormat::Binary] {
        let (addr, running) = spawn_server(fleet_for(&d, shards), ServerConfig::default());

        // Seed one normal ingest first, so the subscription bootstraps at a
        // non-genesis epoch.
        let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
        let FleetOp::Ingest { workers, answers } = FleetOp::ingest_from(&d.answers, &batches[0])
        else {
            unreachable!()
        };
        let (_, seeded_at) = writer.ingest_tagged(workers, answers).expect("seed ingest");

        let mut sub = FleetClient::connect_with(addr, format)
            .expect("subscriber connects")
            .subscribe_reads(ReadKind::Predictions, None)
            .expect("subscription acked");
        assert_eq!(sub.epoch(), seeded_at, "bootstrap at the current epoch");

        // An ingest whose answers all route to one shard: keep only batch 1's
        // triples owned by the first triple's shard. Workers still arrive at
        // most once, so the arrival contract holds.
        let FleetOp::Ingest { workers, answers } = FleetOp::ingest_from(&d.answers, &batches[1])
        else {
            unreachable!()
        };
        let target = index.shard_of(answers[0].0);
        let narrowed: Vec<_> = answers
            .into_iter()
            .filter(|(item, _, _)| index.shard_of(*item) == target)
            .collect();
        assert!(!narrowed.is_empty(), "the narrowed batch still ingests");
        let (_, acked) = writer
            .ingest_tagged(workers, narrowed)
            .expect("single-shard ingest");

        let delta = sub
            .next_delta()
            .expect("delta frame")
            .expect("stream not ended");
        assert_eq!(delta.applied.epoch, acked);
        assert_eq!(
            delta.applied.dirty_shards, 1,
            "a 1-of-{shards} ingest dirties one shard"
        );
        assert_eq!(
            delta.applied.rows,
            index.items_of(target).len(),
            "the delta carries exactly the dirty shard's rows"
        );

        // And the minimal delta still left the cache poll-identical.
        let items = sub.cache().items().to_vec();
        let (rows, tag) = poll_rows(&mut writer, ReadKind::Predictions, &items);
        assert_eq!(tag, acked);
        assert_eq!(
            cache_rows(&sub),
            rows,
            "cache diverged after a minimal delta"
        );

        writer.shutdown().expect("shutdown");
        running.join().expect("server joins");
        assert!(
            sub.next_delta().expect("wind-down").is_none(),
            "clean EOF after wind-down"
        );
    }
}

/// A gate the test holds: [`Gate::wait_open`] blocks while it is closed.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn set_closed(&self, closed: bool) {
        *self.0 .0.lock().expect("gate") = closed;
        self.0 .1.notify_all();
    }

    fn is_open(&self) -> bool {
        !*self.0 .0.lock().expect("gate")
    }

    fn wait_open(&self) {
        let (closed, opened) = &*self.0;
        let closed = closed.lock().expect("gate");
        drop(opened.wait_while(closed, |closed| *closed).expect("gate"));
    }
}

#[test]
fn an_ack_does_not_wait_for_the_warm_and_a_poll_before_it_reads_the_acked_epoch() {
    let (d, batches) = fixture();
    let shards = 4;
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    let index = ShardIndex::new(ShardRouter::new(shards), i);
    // A bounded deadline: a server that holds the ack for the warm fails
    // the writer with `TimedOut` instead of hanging the test.
    let bounded = ClientConfig {
        read_timeout: Some(Duration::from_secs(10)),
        write_timeout: Some(Duration::from_secs(10)),
    };
    for format in [WireFormat::Json, WireFormat::Binary] {
        let gate = Gate::default();
        let hook: Hook = Arc::new({
            let gate = gate.clone();
            move |step| {
                if step == Step::Predict {
                    gate.wait_open();
                }
            }
        });
        let fleet = Fleet::new(shards, 2, i, u, c, |_| {
            Hooked::wrap(Method::CpaSvi.engine(i, u, c, SEED), &hook)
        });
        let (addr, running) = spawn_server(fleet, ServerConfig::default());

        // An ingest routed to one shard, and a subscription to that shard's
        // items, bootstrapped while the gate is open.
        let FleetOp::Ingest { workers, answers } = FleetOp::ingest_from(&d.answers, &batches[0])
        else {
            unreachable!()
        };
        let target = index.shard_of(answers[0].0);
        let narrowed: Vec<_> = answers
            .into_iter()
            .filter(|(item, _, _)| index.shard_of(*item) == target)
            .collect();
        let watched: Vec<usize> = index.items_of(target).iter().map(|&i| i as usize).collect();
        let mut sub = FleetClient::connect_with_config(addr, format, bounded)
            .expect("subscriber connects")
            .subscribe_reads(ReadKind::Predictions, Some(watched.clone()))
            .expect("subscription acked");

        gate.set_closed(true);
        let mut writer = FleetClient::connect_with_config(addr, format, bounded).expect("writer");
        let (_, acked) = writer
            .ingest_tagged(workers, narrowed)
            .expect("the ack arrives while the warm is still blocked");

        // A poll of the dirty shard from a third connection finds its slab
        // cold at the acked epoch; its fill request queues behind the warm.
        let poll = std::thread::spawn({
            let (gate, watched) = (gate.clone(), watched.clone());
            move || {
                let mut reader =
                    FleetClient::connect_with_config(addr, format, bounded).expect("reader");
                let polled = poll_rows(&mut reader, ReadKind::Predictions, &watched);
                (polled, gate.is_open())
            }
        });
        // Long enough for the poll to reach the driver before the gate
        // opens; the assertions below hold however the two race.
        std::thread::sleep(Duration::from_millis(200));
        gate.set_closed(false);
        let ((rows, tag), opened_first) = poll.join().expect("poll thread");
        assert!(
            opened_first,
            "{format:?}: the poll returned before the warm ran"
        );
        assert_eq!(tag, acked, "{format:?}: the poll reads the acked epoch");

        let delta = sub
            .next_delta()
            .expect("delta frame")
            .expect("stream not ended");
        assert_eq!(delta.applied.epoch, acked, "{format:?}: delta epoch");
        assert_eq!(cache_rows(&sub), rows, "{format:?}: delta ≡ poll");

        writer.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

#[test]
fn subscriptions_cap_at_max_clients_minus_one_and_free_their_slot() {
    let (d, batches) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let (addr, running) = spawn_server(
            fleet_for(&d, 2),
            ServerConfig {
                max_clients: 2,
                ..ServerConfig::default()
            },
        );

        // Slot 1 of 1: granted.
        let sub = FleetClient::connect_with(addr, format)
            .expect("subscriber connects")
            .subscribe_reads(ReadKind::Predictions, None)
            .expect("first subscription granted");

        // One past the cap: refused with a readable framed error — for read
        // and op subscriptions alike, which share the cap — and the refused
        // connection stays usable for request/reply traffic.
        let mut probe = FleetClient::connect_with(addr, format).expect("probe connects");
        let err = probe
            .apply_op(&FleetOp::SubscribeReads {
                kind: ReadKind::Predictions,
                items: None,
            })
            .expect_err("read subscription past the cap is refused");
        assert!(
            matches!(&err, TransportError::Rejected(m) if m.contains("subscription slots")),
            "refusal names the cause: {err}"
        );
        let err = probe
            .apply_op(&FleetOp::SubscribeOps { from_epoch: 0 })
            .expect_err("op subscription past the cap is refused");
        assert!(
            matches!(&err, TransportError::Rejected(m) if m.contains("subscription slots")),
            "refusal names the cause: {err}"
        );
        probe
            .predict_tagged()
            .expect("the refused connection still answers reads");

        // Dropping the live subscription frees its slot once the server
        // notices (the next push hits the dead socket); a retried
        // subscription is then granted. The probe doubles as the writer —
        // with `max_clients: 2` both handlers are spoken for until the
        // dropped subscription's handler comes back.
        drop(sub);
        let FleetOp::Ingest { workers, answers } = FleetOp::ingest_from(&d.answers, &batches[0])
        else {
            unreachable!()
        };
        probe.ingest_tagged(workers, answers).expect("ingest");
        let mut reclaimed = false;
        for _ in 0..250 {
            let head = probe.refit_tagged().expect("refit nudges the push path");
            match probe.apply_op(&FleetOp::SubscribeOps { from_epoch: head }) {
                Ok(FleetReply::Subscribed { .. }) => {
                    reclaimed = true;
                    break;
                }
                Ok(other) => panic!("unexpected subscribe reply: {}", other.name()),
                Err(TransportError::Rejected(m)) if m.contains("subscription slots") => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
        assert!(reclaimed, "a dropped subscription's slot is reclaimed");

        // The probe's connection flipped to push-only when its subscription
        // was granted; the freed handler serves the shutdown.
        drop(probe);
        let mut closer = FleetClient::connect_with(addr, format).expect("closer connects");
        closer.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

#[test]
fn a_read_subscription_outside_the_universe_is_refused_and_the_connection_stays_usable() {
    let (d, _) = fixture();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let (addr, running) = spawn_server(fleet_for(&d, 2), ServerConfig::default());
        let mut client = FleetClient::connect_with(addr, format).expect("client connects");
        let outside = d.num_items();
        let err = client
            .apply_op(&FleetOp::SubscribeReads {
                kind: ReadKind::Predictions,
                items: Some(vec![outside]),
            })
            .expect_err("an item outside the universe is refused");
        assert!(
            matches!(&err, TransportError::Rejected(m) if m.contains(&format!("item {outside}"))),
            "refusal names the item: {err}"
        );
        let (preds, epoch) = client
            .predict_tagged()
            .expect("the refused connection still answers reads");
        assert_eq!((preds.len(), epoch), (d.num_items(), 0));
        client.shutdown().expect("shutdown");
        running.join().expect("server joins");
    }
}

/// Takes `sub`'s next frame and checks it against a poll over `writer` at
/// the writer's `acked` epoch: the frame's epoch, all of the subscribed
/// rows when `every_row`, and cache ≡ poll.
fn next_matches_poll(
    writer: &mut FleetClient,
    sub: &mut ReadSubscription,
    acked: u64,
    every_row: bool,
) {
    let delta = sub
        .next_delta()
        .expect("delta frame")
        .expect("stream not ended");
    let (kind, items) = (sub.cache().kind(), sub.cache().items().to_vec());
    assert_eq!(delta.applied.epoch, acked, "{kind:?}: frame epoch");
    if every_row {
        assert_eq!(delta.applied.rows, items.len(), "{kind:?}: every row");
    }
    let (rows, tag) = poll_rows(writer, kind, &items);
    assert_eq!(tag, acked, "the poll reads the acked epoch");
    assert_eq!(
        cache_rows(sub),
        rows,
        "{kind:?}: cache diverged from poll at epoch {acked}"
    );
}

#[test]
fn read_subscriptions_follow_a_restore_and_end_when_the_universe_shrinks() {
    let (d, batches) = fixture();
    let shards = 2;
    for format in [WireFormat::Json, WireFormat::Binary] {
        let fleet = fleet_for(&d, shards).with_restore_hook(cpa::eval::runner::restore_engine);
        let (addr, running) = spawn_server(fleet, ServerConfig::default());
        let mut writer = FleetClient::connect_with(addr, format).expect("writer connects");
        let ingest = |writer: &mut FleetClient, batch: &WorkerBatch| {
            let FleetOp::Ingest { workers, answers } = FleetOp::ingest_from(&d.answers, batch)
            else {
                unreachable!()
            };
            writer.ingest_tagged(workers, answers).expect("ingest").1
        };
        ingest(&mut writer, &batches[0]);
        ingest(&mut writer, &batches[1]);
        let manifest = writer.snapshot().expect("snapshot");
        ingest(&mut writer, &batches[2]);
        ingest(&mut writer, &batches[3]);

        // A full predictions subscription, and a ranged estimate one over
        // items a half-size universe still holds.
        let small = d.num_items() / 2;
        let subscribe = |kind, items| {
            FleetClient::connect_with(addr, format)
                .expect("subscriber connects")
                .subscribe_reads(kind, items)
                .expect("subscription acked")
        };
        let mut full = subscribe(ReadKind::Predictions, None);
        let mut ranged = subscribe(ReadKind::Estimate, Some((0..small).step_by(2).collect()));

        // Restoring the earlier manifest moves every subscription to its
        // epoch with every row, and ingesting on from there keeps cache ≡ poll.
        let restored = writer.restore_tagged(manifest.clone()).expect("restore");
        assert_eq!(restored, manifest.epoch);
        for sub in [&mut full, &mut ranged] {
            next_matches_poll(&mut writer, sub, restored, true);
        }
        for batch in &batches[2..] {
            let acked = ingest(&mut writer, batch);
            for sub in [&mut full, &mut ranged] {
                next_matches_poll(&mut writer, sub, acked, false);
            }
        }

        // A restore over a half-size universe ends the full subscription; the
        // ranged one keeps streaming, and the server keeps serving.
        let (u, c) = (d.num_workers(), d.num_labels());
        let smaller = Fleet::new(shards, 1, small, u, c, |_| {
            Method::CpaSvi.engine(small, u, c, SEED)
        })
        .snapshot();
        let restored = writer.restore_tagged(smaller).expect("smaller restore");
        let err = full
            .next_delta()
            .expect_err("the watched items left the universe");
        assert!(
            matches!(&err, TransportError::Rejected(m) if m.contains("beyond the restored universe")),
            "{err}"
        );
        next_matches_poll(&mut writer, &mut ranged, restored, true);
        let acked = writer.refit_tagged().expect("refit");
        next_matches_poll(&mut writer, &mut ranged, acked, true);
        let (preds, _) = writer.predict_tagged().expect("the server keeps serving");
        assert_eq!(preds.len(), small);

        writer.shutdown().expect("shutdown");
        running.join().expect("server joins");
        assert!(
            ranged.next_delta().expect("wind-down").is_none(),
            "clean EOF after wind-down"
        );
    }
}

#[test]
fn a_silent_server_times_out_the_subscription_instead_of_hanging() {
    use cpa::transport::frame::{read_frame_bytes, write_frame_bytes};
    // A hand-rolled peer that grants the subscription — one valid JSON
    // bootstrap frame — and then goes silent without closing: the
    // dead-leader shape. The read deadline must surface it as `TimedOut`.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let silent = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let _op = read_frame_bytes(&mut stream)
            .expect("subscribe frame")
            .expect("op arrives");
        let bootstrap = serde_json::to_string(&FleetReply::PredictedDelta {
            items: vec![0, 1],
            predictions: vec![
                LabelSet::from_labels(3, vec![1]),
                LabelSet::from_labels(3, vec![0, 2]),
            ],
            dirty_shards: vec![0],
            epoch: 0,
        })
        .expect("bootstrap serializes");
        write_frame_bytes(&mut stream, bootstrap.as_bytes()).expect("bootstrap frame");
        // Hold the socket open, pushing nothing, until the test is done.
        let _ = done_rx.recv();
    });

    let client = FleetClient::connect_with_config(
        addr,
        WireFormat::Json,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(100)),
            write_timeout: Some(Duration::from_millis(100)),
        },
    )
    .expect("TCP connect succeeds");
    let mut sub = client
        .subscribe_reads(ReadKind::Predictions, Some(vec![0, 1]))
        .expect("bootstrap accepted");
    assert_eq!(sub.epoch(), 0);
    assert_eq!(
        sub.cache().predict(1),
        Some(&LabelSet::from_labels(3, vec![0, 2])),
        "bootstrap rows are served from the cache"
    );

    let start = std::time::Instant::now();
    let err = sub.next_delta().expect_err("silent peer must not hang");
    assert!(
        matches!(err, TransportError::TimedOut),
        "typed timeout, got: {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "timed out via the configured deadline, not some other stall"
    );
    let _ = done_tx.send(());
    silent.join().expect("listener thread joins");
}
