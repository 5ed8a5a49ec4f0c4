//! One measured leg: set up a loopback fleet server, drive the workload's
//! two connections, shut down, and check the outputs.

use crate::inputs::{Inputs, SHARDS};
use crate::trace::{SpanSink, TracedEngine};
use crate::workload::{Observer, Workload};
use cpa_data::labels::LabelSet;
use cpa_data::queue::validate_batch;
use cpa_eval::runner::Method;
use cpa_serve::{Fleet, FleetOp, FleetReply, Follower, ReadKind, ShippedOp};
use cpa_transport::{
    FleetClient, FleetServer, OpSubscription, ReadSubscription, ServeOutcome, ServerConfig,
    TransportError, WireFormat,
};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine seed: the fleet's configuration is fixed; only inputs vary.
const ENGINE_SEED: u64 = 7;

/// Items per ranged read.
const RANGED_ITEMS: usize = 32;

/// The after-stream read phase of workloads without a reader: chunks of
/// reads, half full and half ranged, with a pause before each, so the phase
/// spans about 7 s and one burst of host noise does not decide its medians.
const POST_CHUNKS: usize = 10;
const POST_CHUNK_READS: usize = 500;
const POST_PAUSE: Duration = Duration::from_millis(300);

/// One write as sent and acked.
#[derive(Debug, Clone, Copy)]
pub struct WriteRecord {
    /// When it was due.
    pub intended: Instant,
    /// When it was actually sent.
    pub sent: Instant,
    /// When its ack (or failure) arrived.
    pub acked: Instant,
    /// The epoch the ack carried; `None` if the write failed.
    pub epoch: Option<u64>,
    /// Answers it carried.
    pub answers: usize,
}

/// One read round trip.
#[derive(Debug, Clone, Copy)]
pub struct ReadRecord {
    /// A full `Predict` (else a ranged `PredictItems`).
    pub full: bool,
    /// Sent.
    pub start: Instant,
    /// Reply decoded.
    pub end: Instant,
    /// The reply's epoch tag; `None` if the read failed.
    pub epoch: Option<u64>,
}

/// One shipped op applied by the follower.
#[derive(Debug, Clone, Copy)]
pub struct ApplyRecord {
    /// The epoch the op created.
    pub epoch: u64,
    /// `apply_shipped` called.
    pub start: Instant,
    /// `apply_shipped` returned.
    pub end: Instant,
}

/// One push delta applied to the subscriber's cache.
#[derive(Debug, Clone, Copy)]
pub struct DeltaRecord {
    /// The epoch the cache now reflects.
    pub epoch: u64,
    /// `next_delta` returned.
    pub at: Instant,
    /// The frame's payload bytes.
    pub frame_bytes: usize,
    /// Rows it replaced.
    pub rows: usize,
}

/// Everything one leg measured and checked.
#[derive(Debug)]
pub struct Leg {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Epoch after the preload.
    pub base_epoch: u64,
    /// The measured writes, in order.
    pub writes: Vec<WriteRecord>,
    /// Reads: the reader's during the stream, or the after-stream phase.
    pub reads: Vec<ReadRecord>,
    /// Seconds spent reading.
    pub read_window_s: f64,
    /// Follower applies, in order.
    pub applies: Vec<ApplyRecord>,
    /// Subscriber deltas, in order.
    pub deltas: Vec<DeltaRecord>,
    /// When the stream started and when the last read before shutdown ended.
    pub window: (Instant, Instant),
    /// Final predictions read over loopback, and their epoch.
    pub final_predictions: Vec<LabelSet>,
    /// Epoch of `final_predictions`.
    pub final_epoch: u64,
    /// Ops attempted (preload, writes, reads).
    pub attempted: usize,
    /// Ops that failed, were refused or timed out, plus observer failures.
    pub failed: usize,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
}

/// A CPA-SVI fleet of `SHARDS` shards sized for the run's dataset, its
/// engines wrapped in span recorders when `sink` is given.
pub fn build_fleet(
    inputs: &Inputs,
    threads: usize,
    role: &'static str,
    sink: Option<&Arc<SpanSink>>,
) -> Fleet {
    let d = &inputs.dataset;
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    Fleet::new(SHARDS, threads, i, u, c, |_| {
        let engine = Method::CpaSvi.engine(i, u, c, ENGINE_SEED);
        match sink {
            Some(sink) => TracedEngine::boxed(engine, role, sink),
            None => engine,
        }
    })
}

enum Watcher {
    Follower(OpSubscription, Follower),
    Reader(FleetClient),
    Subscriber(ReadSubscription),
}

/// A served fleet with both connections open and the preload applied.
struct Live {
    server: JoinHandle<Result<ServeOutcome, TransportError>>,
    writer: FleetClient,
    watcher: Watcher,
    base_epoch: u64,
}

fn connect(addr: SocketAddr) -> FleetClient {
    FleetClient::connect_with(addr, WireFormat::Json).expect("loopback connect")
}

/// Set-up: fleet build, server boot, preload, and the second connection
/// connected (and bootstrapped, for subscriptions).
fn set_up(w: &Workload, inputs: &Inputs, sink: Option<&Arc<SpanSink>>) -> Live {
    let leader = build_fleet(inputs, w.fleet_threads, "leader", sink);
    let replica = (w.observer == Observer::Follower)
        .then(|| build_fleet(inputs, w.fleet_threads, "follower", sink));
    let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("loopback bind");
    let addr = server.local_addr().expect("bound address");
    let server = std::thread::Builder::new()
        .name("bench-server".into())
        .spawn(move || server.serve(leader))
        .expect("server thread spawns");
    let mut writer = connect(addr);
    let mut base_epoch = 0;
    for op in &inputs.preload {
        let reply = writer.apply_op(op).expect("preload ingest accepted");
        base_epoch = reply.epoch().expect("ingest acks carry an epoch");
    }
    let watcher = match w.observer {
        Observer::Follower => Watcher::Follower(
            connect(addr)
                .subscribe(base_epoch)
                .expect("op subscription"),
            Follower::new(replica.expect("follower fleet built")),
        ),
        Observer::Reader => Watcher::Reader(connect(addr)),
        Observer::Subscriber => Watcher::Subscriber(
            connect(addr)
                .subscribe_reads(ReadKind::Predictions, None)
                .expect("read subscription"),
        ),
    };
    Live {
        server,
        writer,
        watcher,
        base_epoch,
    }
}

/// Shuts the server down through `writer` and returns its final fleet.
fn shut_down(
    mut writer: FleetClient,
    server: JoinHandle<Result<ServeOutcome, TransportError>>,
) -> Fleet {
    writer.shutdown().expect("shutdown acknowledged");
    server
        .join()
        .expect("server thread joins")
        .expect("serve completes")
        .fleet
}

/// The `k`-th rotating window of `RANGED_ITEMS` consecutive items.
pub fn window(k: usize, num_items: usize) -> Vec<usize> {
    (0..RANGED_ITEMS)
        .map(|j| (k * RANGED_ITEMS + j) % num_items)
        .collect()
}

/// Alternates full and ranged reads on `client` until `done` says stop,
/// given the epoch reached so far.
fn read_loop(
    client: &mut FleetClient,
    num_items: usize,
    mut done: impl FnMut(u64, usize) -> bool,
) -> Vec<ReadRecord> {
    let mut reads = Vec::new();
    let mut seen = 0;
    while !done(seen, reads.len()) {
        let k = reads.len();
        let full = k % 2 == 0;
        let start = Instant::now();
        let epoch = if full {
            client.predict_tagged().map(|(_, e)| e)
        } else {
            client
                .predict_items_tagged(window(k / 2, num_items))
                .map(|(_, e)| e)
        };
        let end = Instant::now();
        let epoch = epoch.ok();
        seen = seen.max(epoch.unwrap_or(0));
        reads.push(ReadRecord {
            full,
            start,
            end,
            epoch,
        });
        // A failed read leaves the connection in an unknown state.
        if epoch.is_none() {
            break;
        }
    }
    reads
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// Runs one leg: `setups` set-ups (all but the last torn down at once),
/// then the measured stream on the last, then the output checks.
pub fn run_leg(w: &Workload, inputs: &Inputs, setups: usize, sink: Option<&Arc<SpanSink>>) -> Leg {
    let mut setup_s = Vec::new();
    let live = loop {
        let t = Instant::now();
        let live = set_up(w, inputs, sink);
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() >= setups {
            break live;
        }
        drop(live.watcher);
        drop(shut_down(live.writer, live.server));
    };
    let Live {
        server,
        mut writer,
        watcher,
        base_epoch,
    } = live;
    let num_items = inputs.dataset.num_items();
    let mut failed = 0;
    let mut check_failures = Vec::new();

    // The reader stops once the writer is done and it has read the head.
    let writer_done = Arc::new(AtomicBool::new(false));
    let head = Arc::new(AtomicU64::new(0));
    let watching = {
        let (writer_done, head) = (Arc::clone(&writer_done), Arc::clone(&head));
        std::thread::Builder::new()
            .name("bench-watcher".into())
            .spawn(move || watch(watcher, num_items, &writer_done, &head))
            .expect("watcher thread spawns")
    };

    let start = Instant::now();
    let mut writes = Vec::with_capacity(inputs.writes.len());
    let mut expected = base_epoch;
    for write in &inputs.writes {
        let intended = start + write.due;
        sleep_until(intended);
        let sent = Instant::now();
        let reply = writer.apply_op(&write.op);
        let acked = Instant::now();
        let epoch = match reply {
            Ok(FleetReply::Ingested { epoch, .. }) => {
                if epoch != expected + 1 {
                    check_failures.push(format!(
                        "write acked epoch {epoch}, expected {}",
                        expected + 1
                    ));
                }
                expected = epoch;
                Some(epoch)
            }
            _ => {
                failed += 1;
                None
            }
        };
        writes.push(WriteRecord {
            intended,
            sent,
            acked,
            epoch,
            answers: write.answers,
        });
    }
    head.store(expected, Ordering::SeqCst);
    writer_done.store(true, Ordering::SeqCst);

    let (final_predictions, final_epoch) = match writer.predict_tagged() {
        Ok(read) => read,
        Err(e) => {
            failed += 1;
            check_failures.push(format!("final read failed: {e}"));
            (Vec::new(), 0)
        }
    };
    if final_epoch != expected {
        check_failures.push(format!(
            "final read at epoch {final_epoch}, last ack {expected}"
        ));
    }

    // Workloads without a reader read the final state after the stream.
    let mut reads = Vec::new();
    let mut read_window_s = 0.0;
    if w.observer != Observer::Reader {
        for _ in 0..POST_CHUNKS {
            std::thread::sleep(POST_PAUSE);
            let t = Instant::now();
            reads.extend(read_loop(&mut writer, num_items, |_, n| {
                n >= POST_CHUNK_READS
            }));
            read_window_s += t.elapsed().as_secs_f64();
        }
    }
    let window = (start, Instant::now());

    drop(shut_down(writer, server));
    let watched = watching.join().expect("watcher thread joins");
    failed += watched.failed;
    let mut applies = Vec::new();
    let mut deltas = Vec::new();
    match watched.outcome {
        Watched::Follower(follower, records) => {
            if follower.epoch() != final_epoch {
                check_failures.push(format!(
                    "follower at epoch {}, leader head {final_epoch}",
                    follower.epoch()
                ));
            } else if follower.fleet().predict_all() != final_predictions {
                check_failures.push("follower predictions differ from the leader's".into());
            }
            applies = records;
        }
        Watched::Reader(records, secs) => {
            reads = records;
            read_window_s = secs;
        }
        Watched::Subscriber(subscription, records) => {
            let cache = subscription.cache();
            if cache.epoch() != final_epoch {
                check_failures.push(format!(
                    "push cache at epoch {}, final poll at {final_epoch}",
                    cache.epoch()
                ));
            } else if cache.predictions() != Some(final_predictions.as_slice()) {
                check_failures.push("push cache differs from the final poll".into());
            }
            deltas = records;
        }
    }
    failed += reads.iter().filter(|r| r.epoch.is_none()).count();
    if reads
        .windows(2)
        .any(|p| p[1].epoch.unwrap_or(u64::MAX) < p[0].epoch.unwrap_or(0))
    {
        check_failures.push("a read returned an older epoch than the read before it".into());
    }
    if deltas.windows(2).any(|p| p[1].epoch <= p[0].epoch)
        || applies.windows(2).any(|p| p[1].epoch <= p[0].epoch)
    {
        check_failures.push("pushed epochs went backwards".into());
    }

    // The acked op stream, replayed in process, must give the loopback
    // predictions bit for bit.
    let acked: Vec<&FleetOp> = inputs
        .preload
        .iter()
        .chain(
            inputs
                .writes
                .iter()
                .zip(&writes)
                .filter(|(_, r)| r.epoch.is_some())
                .map(|(wr, _)| &wr.op),
        )
        .collect();
    let replayed = replay(inputs, &acked, inputs.preload.len(), sink);
    if replayed != final_predictions {
        check_failures.push("loopback predictions differ from the in-process replay".into());
    }

    // The client-side records join the engine spans in the written trace.
    if let Some(sink) = sink {
        for r in &writes {
            sink.record("transport.client", "ingest", "writer", r.sent, r.acked);
        }
        for r in &reads {
            let name = if r.full { "predict" } else { "predict_items" };
            sink.record("transport.client", name, "reader", r.start, r.end);
        }
        for a in &applies {
            sink.record("serve.replica", "apply", "follower", a.start, a.end);
        }
    }

    Leg {
        setup_s,
        base_epoch,
        attempted: inputs.preload.len() + writes.len() + reads.len() + 1,
        writes,
        reads,
        read_window_s,
        applies,
        deltas,
        window,
        final_predictions,
        final_epoch,
        failed,
        check_failures,
    }
}

/// Replays `ops` through a fresh fleet and returns its predictions. With a
/// sink, the ops after the first `skip` (the measured writes) are timed as
/// `serve.fleet` apply spans, and their arrival validation as `data.queue`
/// spans.
fn replay(
    inputs: &Inputs,
    ops: &[&FleetOp],
    skip: usize,
    sink: Option<&Arc<SpanSink>>,
) -> Vec<LabelSet> {
    let d = &inputs.dataset;
    let mut fleet = build_fleet(inputs, 2, "replay", sink);
    let mut arrived = BTreeSet::new();
    for (n, op) in ops.iter().enumerate() {
        let FleetOp::Ingest { workers, answers } = op else {
            continue;
        };
        match sink.filter(|_| n >= skip) {
            Some(sink) => {
                let triples: Vec<_> = answers
                    .iter()
                    .map(|(i, w, l)| (*i, *w, LabelSet::from_labels(d.num_labels(), l.clone())))
                    .collect();
                let valid = sink.time("data.queue", "validate", "replay", || {
                    validate_batch(
                        d.num_items(),
                        d.num_workers(),
                        d.num_labels(),
                        &arrived,
                        workers,
                        &triples,
                    )
                });
                assert!(valid.is_ok(), "acked write fails arrival validation");
                sink.time("serve.fleet", "apply", "replay", || {
                    fleet.apply((*op).clone())
                });
            }
            None => {
                fleet.apply((*op).clone());
            }
        }
        arrived.extend(workers.iter().copied());
    }
    fleet.predict_all()
}

enum Watched {
    Follower(Follower, Vec<ApplyRecord>),
    Reader(Vec<ReadRecord>, f64),
    Subscriber(ReadSubscription, Vec<DeltaRecord>),
}

struct WatchOutcome {
    outcome: Watched,
    failed: usize,
}

/// The second connection's loop: until end of stream for subscriptions,
/// until the writer is done and the head is read for the reader.
fn watch(
    watcher: Watcher,
    num_items: usize,
    writer_done: &AtomicBool,
    head: &AtomicU64,
) -> WatchOutcome {
    let mut failed = 0;
    let outcome = match watcher {
        Watcher::Follower(mut feed, mut follower) => {
            let mut records = Vec::new();
            loop {
                match feed.next_frame() {
                    Ok(Some((epoch, op))) => {
                        let start = Instant::now();
                        let applied = follower.apply_shipped(ShippedOp::tagged(epoch, op));
                        let end = Instant::now();
                        match applied {
                            Ok(_) => records.push(ApplyRecord { epoch, start, end }),
                            Err(_) => failed += 1,
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        failed += 1;
                        break;
                    }
                }
            }
            Watched::Follower(follower, records)
        }
        Watcher::Reader(mut client) => {
            let t = Instant::now();
            let reads = read_loop(&mut client, num_items, |seen, _| {
                writer_done.load(Ordering::SeqCst) && seen >= head.load(Ordering::SeqCst)
            });
            Watched::Reader(reads, t.elapsed().as_secs_f64())
        }
        Watcher::Subscriber(mut subscription) => {
            let mut records = Vec::new();
            loop {
                match subscription.next_delta() {
                    Ok(Some(delta)) => records.push(DeltaRecord {
                        epoch: delta.applied.epoch,
                        at: Instant::now(),
                        frame_bytes: delta.frame_bytes,
                        rows: delta.applied.rows,
                    }),
                    Ok(None) => break,
                    Err(_) => {
                        failed += 1;
                        break;
                    }
                }
            }
            Watched::Subscriber(subscription, records)
        }
    };
    WatchOutcome { outcome, failed }
}
