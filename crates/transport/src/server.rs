//! The TCP front-end: a [`FleetServer`] accepting concurrent clients and
//! funnelling their framed ops into one `cpa_serve::Fleet`.
//!
//! # Architecture
//!
//! `serve` runs `max_clients + 2` long-lived roles, each on its own named
//! thread inside one `std::thread::scope`:
//!
//! - one **driver** (`cpa-driver`) owns the fleet and is the only thread
//!   that touches it: it drains a single mpsc op channel, fills read slabs
//!   on request ([`cpa_serve::Fleet::fill`]), and runs every other op
//!   through [`cpa_serve::Fleet::apply`] — so **mutations** from all
//!   connections are applied in one global arrival order, with the
//!   arrival contract (`cpa_data::queue::validate_batch`: worker
//!   partition, range checks) enforced per `Ingest`;
//! - one **acceptor** (`cpa-acceptor`) polls the listener (non-blocking +
//!   shutdown flag) and hands accepted sockets to the handlers;
//! - `max_clients` **handlers** (`cpa-handler-0`, `cpa-handler-1`, …) each
//!   serve one connection at a time: read a frame, decode the op, answer
//!   it (see the read path below), and write the reply. Requests on one
//!   connection are handled strictly in order, so replies stream back
//!   **per-connection FIFO**.
//!
//! Engine work runs only on the driver, inside the pool the fleet installs
//! around every shard fan-out, so it is exactly as wide as the fleet's own
//! `threads` setting (serial for `threads: 1`).
//!
//! # Read path
//!
//! The handler answers `Predict`, `PredictItems` and `EstimateItems` one
//! way: it **splices** the reply from an epoch-published
//! [`cpa_serve::ReadView`]. Each needed shard's reply rows are encoded
//! once per (epoch, shard, codec) from its slab, and the reply is those
//! cached rows in reply order inside the variant's envelope
//! ([`codec::splice_reply`]) — so warm reads proceed fully concurrently
//! with each other *and* with mutations the driver is applying. When the
//! current view cannot answer — a needed slab is still cold this epoch —
//! the handler sends the op to the driver as a **fill request**: the
//! driver fills the missing slabs on its current view
//! ([`cpa_serve::Fleet::fill`]) and sends that view back, and the handler
//! splices from it, so the reply still reflects the driver's current epoch
//! (an item outside the universe gets the driver's framed error instead).
//! The one read the driver builds is a full `Estimate`, whose
//! struct-of-arrays reply cannot be spliced from per-item rows and whose
//! worker-weight merge reads engine answer counts (`Snapshot`'s manifest
//! is driver-built too). Replies carry the view's epoch tag, so a client
//! can replay the recorded mutation prefix up to that epoch and reproduce
//! the served payload bit for bit (`cpa_serve::Fleet::replay_to_epoch`).
//! Because a mutation's ack is sent only after the new view is published,
//! a client that observed its ack never reads an older epoch afterwards.
//! The ack does not wait for any slab fill, though: a read that lands
//! between the ack and the driver's post-ack warm (below) finds the dirty
//! slab cold, and its fill request queues behind that warm on the driver,
//! so it too is answered at the acked epoch.
//!
//! # Replication and push subscriptions
//!
//! A `FleetOp::SubscribeOps { from_epoch }` turns its connection into a
//! **mutation-stream subscription**: the driver acks `Subscribed` with its
//! head epoch, replays the recorded backlog past `from_epoch` (resume from
//! behind the head requires [`ServerConfig::record_ops`]; without it the
//! subscription is refused with a framed error, as is a `from_epoch` ahead
//! of the head), then pushes every subsequently accepted mutation as an
//! epoch-tagged `OpApplied` frame. A `Restore` restarts the epochs at its
//! manifest's, so once one was accepted an epoch no longer names one
//! state: the driver then serves only `from_epoch: 0`, which ships the
//! whole recorded log, and refuses any other resume point by naming the
//! restore. Each `OpApplied` is enqueued the moment `apply` publishes the
//! mutation's view, and *before* the mutator's own ack, so an acked epoch
//! is always already on the wire to every op subscriber. On server
//! wind-down the driver drops every subscription channel, so followers see
//! a clean EOF — the replay-to-head-complete signal that starts failover
//! (see `cpa_serve::replica`).
//!
//! A `FleetOp::SubscribeReads { kind, items }` turns its connection into a
//! **read-delta subscription**: the driver fills the slabs of every shard
//! covering the subscribed items and sends that view to the handler,
//! whose first pushed frame is the bootstrap spliced from it (a
//! `PredictedDelta`/`EstimatedDelta` frame carrying every subscribed row
//! at the current epoch, every covering shard listed dirty). After every
//! accepted mutation the driver first sends the mutator's ack, then
//! **warms** — fills the slabs each subscriber watches — and pushes the
//! published view, all before it takes its next op. The handler splices
//! one delta frame carrying **only the dirty shards'** rows from the
//! view's per-(epoch, shard, codec) row caches without re-encoding
//! ([`codec::splice_reply`]); the slabs it reads are never cold, since the
//! view is pushed only after the warm. So the ack costs the mutation, not
//! the fill, and a delta may reach its subscriber after the writer's ack;
//! every subscriber still gets every epoch in order, since each view is
//! pushed before the next op is applied. Both sides of the ack live in
//! one place, the server-internal `Broadcast`. A mutation that dirties
//! none of the subscribed items' shards still pushes an (empty) delta, so
//! the subscriber's epoch always tracks the head. Server wind-down is the
//! same clean EOF as for op subscriptions.
//!
//! Both subscription kinds flip their handler to push-only and occupy its
//! handler slot for the subscription's lifetime. To keep a pathological
//! client from wedging the server, at most `max_clients - 1` handler slots
//! may hold subscriptions at once — at least one slot always remains for
//! request/reply traffic. A subscription past the cap is refused with a
//! framed error, as is one the driver refuses (an op subscription resuming
//! from an epoch it cannot replay from, a read subscription naming an item
//! outside the universe); either way the connection stays usable (under
//! `max_clients == 1` every subscription is refused).
//!
//! # Shutdown and hardening
//!
//! A [`cpa_serve::FleetOp::Shutdown`] from any client is acknowledged, then
//! the driver raises the shutdown flag and stops; every other role winds
//! down. In-flight requests get a framed error reply, and so do
//! connections still in the listen backlog that have sent their first
//! request; a silent one is closed. A client that disconnects mid-frame,
//! sends a truncated frame, or sends bytes that are not a `FleetOp` never
//! panics the server: the connection gets a framed error where one can
//! still be delivered and is dropped, and the next client is served
//! normally — locked by `tests/transport_roundtrip.rs`.
//!
//! With `record_ops`, the driver keeps one epoch-tagged log of every
//! accepted mutation — the backlog late op subscribers resume from, and
//! the returned [`ServeOutcome::op_log`]. Reads, subscriptions, `Shutdown`
//! and rejected ops mutate nothing, so they are not logged; the log
//! serializes through `cpa_serve::ops_to_jsonl` and replays through
//! `cpa_serve::Fleet::replay` to the live run's final snapshot, bit for
//! bit.
//!
//! Each accepted connection negotiates its codec before the first op (see
//! [`crate::codec`]): a `CPAW` preamble requests binary frames, which the
//! server grants for the version it implements; anything else is the first
//! JSON frame. Connections with different codecs are served concurrently
//! and see identical fleet semantics.

use crate::codec::{self, Envelope, Negotiated, WireFormat};
use crate::error::TransportError;
use crate::frame::{read_frame_bytes_polling, write_frame_bytes};
use cpa_serve::{
    subscribed_items, EncodedRows, Fleet, FleetOp, FleetReply, ItemEstimate, ReadKind, ReadView,
    ViewHandle,
};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How long blocked reads and idle polls wait before re-checking the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Deadline on every socket write a handler makes. A peer that stops
/// reading fills the socket buffers, and a blocking write to it would
/// never return: its handler (and any subscription slot it holds) would be
/// gone for good, and `serve` could not return after a `Shutdown`. A write
/// call that makes no progress for this long fails, which ends the
/// connection like any other write error. A reader that drains its socket
/// at all makes progress within milliseconds, so this only has to outlast
/// a live client's scheduling stalls; a stalled peer is dropped within a
/// few multiples of it (a full TCP window may still take a trickle of
/// bytes, and each write call that moves some restarts the deadline). It
/// guards the server, not a workload, so it is a constant.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Tuning knobs for a [`FleetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served concurrently (one handler thread each; further
    /// connections wait in the accept queue).
    pub max_clients: usize,
    /// Record every accepted mutation into [`ServeOutcome::op_log`] (and
    /// keep it as the backlog op subscriptions resume from).
    pub record_ops: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_clients: 4,
            record_ops: false,
        }
    }
}

/// What a finished serve run hands back.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The fleet in its final state (after every applied op).
    pub fleet: Fleet,
    /// Every accepted mutation, in application order (empty unless
    /// [`ServerConfig::record_ops`] was set). Replaying it on a fresh fleet
    /// of the same construction reproduces [`ServeOutcome::fleet`].
    pub op_log: Vec<FleetOp>,
}

/// A bound, not-yet-serving fleet server.
#[derive(Debug)]
pub struct FleetServer {
    listener: TcpListener,
    config: ServerConfig,
}

/// One op handed from a handler to the driver, with the channel the driver
/// answers on.
struct Submitted {
    op: FleetOp,
    answer_tx: Sender<Answer>,
}

/// What the driver sends back on a submitted op's answer channel.
enum Answer {
    /// A reply to frame: the op's own reply, a refusal, or — on an op
    /// subscription — each shipped `OpApplied`.
    Reply(FleetReply),
    /// A view to splice from: the filled view that answers a fill request
    /// or bootstraps a read subscription, then every view published for
    /// that subscription afterwards.
    View(Arc<ReadView>),
}

/// Caps how many handler slots may be held by live subscriptions (op or
/// read) at once: `max_clients - 1`, so at least one handler always stays
/// free for request/reply traffic. Shared by every handler; acquisition is
/// a lock-free compare-and-swap, release is the guard's drop.
struct SubscriptionSlots {
    active: AtomicUsize,
    cap: usize,
}

impl SubscriptionSlots {
    fn new(max_clients: usize) -> Self {
        Self {
            active: AtomicUsize::new(0),
            cap: max_clients.saturating_sub(1),
        }
    }

    /// Takes a subscription slot, or `None` when the cap is reached.
    fn try_acquire(&self) -> Option<SlotGuard<'_>> {
        self.active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .ok()
            .map(|_| SlotGuard(self))
    }
}

/// Releases its subscription slot when the subscription ends, however it
/// ends (clean wind-down, subscriber disconnect, socket error).
struct SlotGuard<'a>(&'a SubscriptionSlots);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One live read-delta subscription, as the driver tracks it: the items it
/// watches (normalized at bootstrap time — a full subscription pins the
/// universe it saw), so the driver can fill exactly the slabs its handler
/// splices before pushing each view, after the mutator's ack.
struct ReadSub {
    kind: ReadKind,
    items: Vec<usize>,
    answer_tx: Sender<Answer>,
}

/// Everything the driver pushes to subscribers, in one place, on either
/// side of a mutation's ack. Right after `Fleet::apply` accepts a mutation
/// and *before* the mutator's ack, [`Broadcast::mutation_applied`] records
/// it and enqueues its `OpApplied` frame to every op subscriber, so an
/// acked epoch is always already on its way to every follower. *After* the
/// ack, and before the driver takes its next op,
/// [`Broadcast::warm_and_push`] fills the slabs the read subscribers watch
/// and pushes them the published view, so the ack never waits for a slab
/// fill and every subscriber still gets every epoch in order.
struct Broadcast {
    record: bool,
    /// Whether a `Restore` has been accepted (see `subscribe_ops`).
    restored: bool,
    /// Live op subscriptions: each the retained answer channel of a
    /// `SubscribeOps` connection. A dead subscriber is dropped on its
    /// first failed send.
    op_subs: Vec<Sender<Answer>>,
    /// Live read subscriptions (see [`ReadSub`]).
    read_subs: Vec<ReadSub>,
    /// `(epoch, op)` for every accepted mutation, kept only while
    /// recording: the backlog a late op subscriber resumes from, and the
    /// [`ServeOutcome::op_log`] the server hands back.
    log: Vec<(u64, FleetOp)>,
}

impl Broadcast {
    fn new(record: bool) -> Self {
        Self {
            record,
            restored: false,
            op_subs: Vec::new(),
            read_subs: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Registers a `SubscribeOps` connection: ack with the head epoch,
    /// replay the recorded backlog past `from_epoch` (all of it from 0),
    /// then go live. A `from_epoch` ahead of the head, or behind it
    /// without recording, is refused with a framed error naming both
    /// epochs. A `Restore` restarts the epochs at its manifest's, so once
    /// one was accepted only a recorded `from_epoch: 0` is one lineage.
    fn subscribe_ops(&mut self, head: u64, from_epoch: u64, answer_tx: Sender<Answer>) {
        let refusal = if self.restored && from_epoch != 0 {
            Some("a Restore restarted the epochs, so only epoch 0 names one lineage")
        } else if from_epoch > head {
            Some("it is ahead of the server")
        } else if (from_epoch < head || self.restored) && !self.record {
            Some("server is not recording ops")
        } else {
            None
        };
        if let Some(cause) = refusal {
            let _ = answer_tx.send(Answer::Reply(FleetReply::err(format!(
                "cannot resume subscription from epoch {from_epoch}: {cause} \
                 (head is epoch {head})"
            ))));
            return;
        }
        // From epoch 0 the whole log ships: a restored epoch-0 manifest is
        // tagged 0 and must not be filtered out.
        let backlog = self
            .log
            .iter()
            .filter(|(epoch, _)| from_epoch == 0 || *epoch > from_epoch);
        let delivered = std::iter::once(FleetReply::Subscribed { epoch: head })
            .chain(backlog.map(|(epoch, past)| FleetReply::OpApplied {
                epoch: *epoch,
                op: past.clone(),
            }))
            .all(|frame| answer_tx.send(Answer::Reply(frame)).is_ok());
        if delivered {
            self.op_subs.push(answer_tx);
        }
    }

    /// Registers a `SubscribeReads` connection: fill the slabs of every
    /// shard covering its items, send that view first (the handler splices
    /// it into the bootstrap frame), then retain the channel so every
    /// subsequently accepted mutation pushes its published view. An item
    /// outside the universe refuses the subscription with a framed error
    /// and registers nothing.
    fn subscribe_reads(
        &mut self,
        fleet: &Fleet,
        kind: ReadKind,
        items: Option<Vec<usize>>,
        answer_tx: Sender<Answer>,
    ) {
        let num_items = fleet.view_handle().current().index().num_items();
        let items = subscribed_items(items, num_items);
        let view = match fleet.fill(kind, Some(&items)) {
            Ok(view) => view,
            Err(e) => {
                let _ = answer_tx.send(Answer::Reply(FleetReply::err(e)));
                return;
            }
        };
        if answer_tx.send(Answer::View(view)).is_ok() {
            self.read_subs.push(ReadSub {
                kind,
                items,
                answer_tx,
            });
        }
    }

    /// Whether accepted mutations must be kept: for the log, or for an op
    /// subscriber. Otherwise the driver does not copy them at all.
    fn keeps_ops(&self) -> bool {
        self.record || !self.op_subs.is_empty()
    }

    /// The enqueue-before-ack point for op subscriptions: called with every
    /// accepted mutation after `Fleet::apply` published its view (at
    /// `epoch`) and before the mutator's ack is sent. Records the mutation
    /// and ships one `OpApplied` to every op subscriber (`op` is `Some`
    /// exactly when [`Broadcast::keeps_ops`]), so an acked epoch is always
    /// already enqueued to every follower.
    fn mutation_applied(&mut self, epoch: u64, op: Option<FleetOp>) {
        let Some(op) = op else { return };
        self.op_subs.retain(|sub| {
            let op = op.clone();
            sub.send(Answer::Reply(FleetReply::OpApplied { epoch, op }))
                .is_ok()
        });
        if self.record {
            self.log.push((epoch, op));
        }
    }

    /// The warm after the ack: called once the mutator's ack is sent, and
    /// before the driver takes its next op. Fills the slabs each read
    /// subscriber watches, then pushes it the published view — its handler
    /// splices the delta under its own codec from slabs that are never
    /// cold. A subscriber whose items fell out of range (a restore shrank
    /// the universe) is not filled for but still gets the view: its handler
    /// owns the framed error and ends the subscription.
    fn warm_and_push(&mut self, fleet: &Fleet) {
        for sub in &self.read_subs {
            let _ = fleet.fill(sub.kind, Some(&sub.items));
        }
        let view = fleet.view_handle().current();
        self.read_subs
            .retain(|sub| sub.answer_tx.send(Answer::View(view.clone())).is_ok());
    }
}

/// The view read `op` asks for — `Predict` (every item), `PredictItems` or
/// `EstimateItems` — which handlers answer only by splicing; `None` for
/// every other op.
fn view_read(op: &FleetOp) -> Option<(ReadKind, Option<&[usize]>)> {
    match op {
        FleetOp::Predict => Some((ReadKind::Predictions, None)),
        FleetOp::PredictItems { items } => Some((ReadKind::Predictions, Some(items))),
        FleetOp::EstimateItems { items } => Some((ReadKind::Estimate, Some(items))),
        _ => None,
    }
}

impl FleetServer {
    /// Binds to `addr` (use port 0 for an ephemeral loopback port).
    ///
    /// # Errors
    /// Fails on any bind error.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> Result<Self, TransportError> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            config,
        })
    }

    /// The bound address (where clients should connect).
    ///
    /// # Errors
    /// Fails if the socket has no local address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, TransportError> {
        Ok(self.listener.local_addr()?)
    }

    /// Serves `fleet` until a client sends [`FleetOp::Shutdown`], then
    /// returns the final fleet (and the recorded op-log, if enabled).
    /// Blocks the calling thread; the fan-out threads are scoped inside.
    ///
    /// # Errors
    /// Fails if the listener cannot be switched to non-blocking accept
    /// polling or a role thread cannot be spawned. Per-connection failures (disconnects, truncated or
    /// malformed frames) are handled inside and never abort the server.
    pub fn serve(self, fleet: Fleet) -> Result<ServeOutcome, TransportError> {
        let handlers = self.config.max_clients.max(1);
        self.listener.set_nonblocking(true)?;
        let shutdown = AtomicBool::new(false);
        let (op_tx, op_rx) = channel();
        let (conn_tx, conn_rx) = channel();
        let conn_rx = Mutex::new(conn_rx);
        let record = self.config.record_ops;
        let views = fleet.view_handle();
        let listener = self.listener;
        let slots = SubscriptionSlots::new(handlers);
        let (shutdown, conn_rx, slots) = (&shutdown, &conn_rx, &slots);

        thread::scope(|scope| {
            let spawned = (|| {
                let driver = thread::Builder::new()
                    .name("cpa-driver".into())
                    .spawn_scoped(scope, move || run_driver(fleet, op_rx, record, shutdown))?;
                thread::Builder::new()
                    .name("cpa-acceptor".into())
                    .spawn_scoped(scope, move || run_acceptor(listener, conn_tx, shutdown))?;
                for n in 0..handlers {
                    let (op_tx, views) = (op_tx.clone(), views.clone());
                    thread::Builder::new()
                        .name(format!("cpa-handler-{n}"))
                        .spawn_scoped(scope, move || {
                            run_handler(op_tx, views, shutdown, conn_rx, slots)
                        })?;
                }
                Ok::<_, std::io::Error>(driver)
            })();
            // The driver must see the op channel close once every handler
            // exits: only the handlers' clones may keep it open.
            drop(op_tx);
            let driver = match spawned {
                Ok(driver) => driver,
                Err(e) => {
                    // Whatever did start winds down from the flag.
                    shutdown.store(true, Ordering::Relaxed);
                    return Err(e.into());
                }
            };
            match driver.join() {
                Ok(outcome) => Ok(outcome),
                Err(panic) => {
                    // A dead driver never raises the flag itself: raise it
                    // so the other roles wind down and the scope can join.
                    shutdown.store(true, Ordering::Relaxed);
                    std::panic::resume_unwind(panic)
                }
            }
        })
    }
}

/// The driver role: the only thread that touches the fleet. Applies every
/// submitted op in arrival order until a `Shutdown` op or until every
/// handler has gone, then hands back the final fleet and the recorded log.
/// A view read reaches the driver only as a **fill request** — a handler
/// found a slab it needs cold — and is answered with the filled view, never
/// a built reply.
fn run_driver(
    mut fleet: Fleet,
    op_rx: Receiver<Submitted>,
    record: bool,
    shutdown: &AtomicBool,
) -> ServeOutcome {
    let mut broadcast = Broadcast::new(record);
    while let Ok(Submitted { op, answer_tx }) = op_rx.recv() {
        if let Some((kind, items)) = view_read(&op) {
            let answer = match fleet.fill(kind, items) {
                Ok(view) => Answer::View(view),
                Err(e) => Answer::Reply(FleetReply::err(e)),
            };
            let _ = answer_tx.send(answer);
            continue;
        }
        match op {
            FleetOp::SubscribeOps { from_epoch } => {
                broadcast.subscribe_ops(fleet.epoch(), from_epoch, answer_tx);
            }
            FleetOp::SubscribeReads { kind, items } => {
                broadcast.subscribe_reads(&fleet, kind, items, answer_tx);
            }
            op => {
                let stop = matches!(op, FleetOp::Shutdown);
                let mutation = op.is_mutation();
                let kept = (mutation && broadcast.keeps_ops()).then(|| op.clone());
                let reply = fleet.apply(op);
                let accepted = mutation && !matches!(reply, FleetReply::Error { .. });
                if accepted {
                    // Ship the accepted mutation the moment its view is
                    // published (`apply` published it), and *before* the
                    // mutator's ack: a client that has seen its ack knows
                    // every op subscription already has the frame enqueued.
                    broadcast.mutation_applied(fleet.epoch(), kept);
                    broadcast.restored |= matches!(reply, FleetReply::Restored { .. });
                }
                let _ = answer_tx.send(Answer::Reply(reply));
                if accepted {
                    // The ack never waits for the read subscribers' slab
                    // fill. The warm still runs before the next op, so a
                    // read that found the new view's slab cold queues its
                    // fill request behind it and gets the acked epoch.
                    broadcast.warm_and_push(&fleet);
                }
                if stop {
                    break;
                }
            }
        }
    }
    // Raised here on both exits: the `Shutdown` op and the channel-closed
    // path (all handlers gone). Dropping `broadcast`'s subscriptions
    // closes every subscription's push channel; its handler unblocks,
    // returns, and the subscriber sees a clean EOF — the end-of-stream
    // signal that starts failover (followers) or wind-down (read caches).
    shutdown.store(true, Ordering::Relaxed);
    ServeOutcome {
        fleet,
        op_log: broadcast.log.into_iter().map(|(_, op)| op).collect(),
    }
}

/// The acceptor role: polls the non-blocking listener until shutdown and
/// hands accepted sockets to the handlers. At shutdown it first hands over
/// every connection still in the listen backlog, so those peers end as
/// accepted ones do instead of being reset when the listener closes: one
/// that has sent its first request gets the framed "server is shutting
/// down" reply, a silent one is closed. Returning drops `conn_tx`, the
/// queue's only sender, which wakes every idle handler with a disconnect
/// once the queue is drained.
fn run_acceptor(listener: TcpListener, conn_tx: Sender<TcpStream>, shutdown: &AtomicBool) {
    // Handlers block with deadlines: reads poll the shutdown flag, writes
    // give up on a peer that stops reading.
    let hand_over = |stream: TcpStream| {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_nodelay(true);
        conn_tx.send(stream).is_ok()
    };
    // accept() fails transiently in normal operation — a client
    // resetting mid-handshake (ECONNABORTED/ECONNRESET), a burst of
    // fd exhaustion — and those must not take the server down.
    // Only an error that persists across many consecutive polls is
    // treated as a dead listener.
    const MAX_CONSECUTIVE_ERRORS: u32 = 50;
    let mut consecutive_errors = 0u32;
    loop {
        if shutdown.load(Ordering::Relaxed) {
            while let Ok((stream, _)) = listener.accept() {
                if !hand_over(stream) {
                    break;
                }
            }
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                consecutive_errors = 0;
                if !hand_over(stream) {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                consecutive_errors = 0;
                thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                // The *connection* died during the handshake, not
                // the listener; keep accepting.
                consecutive_errors = 0;
            }
            Err(_) => {
                consecutive_errors += 1;
                if consecutive_errors >= MAX_CONSECUTIVE_ERRORS {
                    // A listener that has failed every poll for a
                    // sustained stretch cannot accept anyone ever
                    // again: wind the whole server down instead of
                    // serving a half-alive endpoint.
                    shutdown.store(true, Ordering::Relaxed);
                    break;
                }
                thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// A handler role: serves one connection at a time, taken from the
/// acceptor's queue, until the queue disconnects. `views` is the served
/// fleet's read-view handle.
fn run_handler(
    op_tx: Sender<Submitted>,
    views: ViewHandle,
    shutdown: &AtomicBool,
    conn_rx: &Mutex<Receiver<TcpStream>>,
    slots: &SubscriptionSlots,
) {
    // Block on the connection queue — no idle sleep-poll. This is
    // shutdown-safe because the acceptor owns the only `conn_tx`
    // and drops it within one poll interval of the shutdown flag
    // rising, which wakes every handler parked here with a
    // disconnect. The lock is held only while waiting for a
    // connection (the guard is a temporary of the `let` statement),
    // never while serving one, so `max_clients` connections are still
    // served concurrently.
    loop {
        let received = conn_rx.lock().expect("connection queue poisoned").recv();
        let Ok(stream) = received else { break };
        // Connection-level failures are that connection's
        // problem, never the server's.
        let _ = handle_connection(stream, &op_tx, shutdown, &views, slots);
    }
}

/// Serves one connection: negotiate the codec, then frame in, answer —
/// view reads by splicing from the published view, everything else
/// through the driver — frame out, strictly in request order
/// (per-connection FIFO replies).
fn handle_connection(
    mut stream: TcpStream,
    op_tx: &Sender<Submitted>,
    shutdown: &AtomicBool,
    views: &ViewHandle,
    slots: &SubscriptionSlots,
) -> Result<(), TransportError> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    // A truncated preamble or first frame leaves nothing answerable.
    let (format, mut pending) = match codec::server_handshake(&mut stream, shutdown)? {
        Negotiated::Closed => return Ok(()),
        Negotiated::Format { format, pending } => (format, pending),
    };
    // Spliced replies are built here, reusing one buffer per connection.
    let mut spliced = Vec::new();
    loop {
        // The negotiation read may have consumed a JSON client's first
        // frame along with the prefix; serve it before touching the socket.
        let payload = match pending.take() {
            Some(payload) => payload,
            None => match read_frame_bytes_polling(&mut stream, shutdown) {
                Ok(Some(payload)) => payload,
                // Clean disconnect between frames: the client is done.
                Ok(None) => return Ok(()),
                Err(TransportError::ShuttingDown) => return shutting_down(&mut stream, format),
                // Truncated/oversized/unreadable frame: drop the connection
                // (there is no frame boundary left to answer on).
                Err(e) => return Err(e),
            },
        };
        let op: FleetOp = match codec::decode(format, &payload) {
            Ok(op) => op,
            Err(e) => {
                // A complete frame that is not an op still has a healthy
                // frame boundary: answer with a framed error, then drop the
                // connection (its byte stream is not trustworthy).
                let _ = send_reply(
                    &mut stream,
                    format,
                    &FleetReply::err(format!("malformed op: {e}")),
                );
                return Ok(());
            }
        };
        if let Some((kind, items)) = view_read(&op) {
            // Read path: splice the reply from the current view. If the
            // view cannot answer (a needed slab is cold this epoch, or an
            // item is beyond its universe), the op goes to the driver as a
            // fill request, and the reply is spliced from the view the
            // driver filled — its current epoch — or is the driver's
            // refusal (an item outside the universe).
            if splice_read(&views.current(), kind, items, format, &mut spliced).is_none() {
                let filled = match submit(op_tx, op.clone()) {
                    Some((Answer::View(filled), _)) => filled,
                    Some((Answer::Reply(refusal), _)) => {
                        send_reply(&mut stream, format, &refusal)?;
                        continue;
                    }
                    None => return shutting_down(&mut stream, format),
                };
                splice_read(&filled, kind, items, format, &mut spliced)
                    .expect("the driver filled every slab of this read on its own view");
            }
            write_frame_bytes(&mut stream, &spliced)?;
            continue;
        }
        let subscribing = matches!(
            op,
            FleetOp::SubscribeOps { .. } | FleetOp::SubscribeReads { .. }
        );
        // Subscriptions hold this handler slot for their whole lifetime;
        // cap them at `max_clients - 1` so at least one handler always
        // remains for request/reply traffic. A refused subscription — past
        // the cap here, or by the driver below — is a framed error, and the
        // connection stays usable (the slot guard drops with this request).
        let _slot = if subscribing {
            let Some(guard) = slots.try_acquire() else {
                send_reply(
                    &mut stream,
                    format,
                    &FleetReply::err(format!(
                        "subscription slots exhausted ({} of {} handler slots may hold \
                         subscriptions); poll instead, or raise max_clients",
                        slots.cap,
                        slots.cap + 1
                    )),
                )?;
                continue;
            };
            Some(guard)
        } else {
            None
        };
        let watched = match &op {
            FleetOp::SubscribeReads { kind, items } => Some((*kind, items.clone())),
            _ => None,
        };
        let Some((answer, answers)) = submit(op_tx, op) else {
            return shutting_down(&mut stream, format);
        };
        match (answer, watched) {
            // A granted read subscription flips the connection to
            // push-only: the driver's first view is spliced into the
            // bootstrap frame and every view it pushes after into a delta
            // frame, until the driver drops the channel (server wind-down →
            // the subscriber sees clean EOF) or the subscriber hangs up.
            (Answer::View(first), Some((kind, items))) => {
                let items = subscribed_items(items, first.index().num_items());
                return pump_read_deltas(&mut stream, format, kind, &items, first, &answers);
            }
            (Answer::Reply(reply), _) => {
                send_reply(&mut stream, format, &reply)?;
                // A granted op subscription flips the connection to
                // push-only too: the reply was the `Subscribed` ack, and
                // the driver streams any recorded backlog, then one
                // `OpApplied` per accepted mutation.
                if subscribing && !matches!(reply, FleetReply::Error { .. }) {
                    while let Ok(Answer::Reply(frame)) = answers.recv() {
                        send_reply(&mut stream, format, &frame)?;
                    }
                    return Ok(());
                }
            }
            (Answer::View(_), None) => {
                unreachable!(
                    "the driver answers only fill requests and read subscriptions with views"
                )
            }
        }
    }
}

/// Hands `op` to the driver and waits for its first answer, returned with
/// the channel any later answers arrive on (a subscription's stream).
/// `None` once the driver is gone.
fn submit(op_tx: &Sender<Submitted>, op: FleetOp) -> Option<(Answer, Receiver<Answer>)> {
    let (answer_tx, answers) = channel();
    op_tx.send(Submitted { op, answer_tx }).ok()?;
    let first = answers.recv().ok()?;
    Some((first, answers))
}

/// Splices the reply to a view read (see [`view_read`]) into `out` from
/// `view`'s cached rows ([`splice_rows`]), or returns `None` when `view`
/// cannot answer it: a needed slab is cold, or an item is beyond the
/// view's universe.
fn splice_read(
    view: &ReadView,
    kind: ReadKind,
    items: Option<&[usize]>,
    format: WireFormat,
    out: &mut Vec<u8>,
) -> Option<()> {
    let num_items = view.index().num_items();
    match items {
        None => splice_rows(view, kind, format, 0..num_items, Envelope::Full, out),
        Some(items) if items.iter().all(|&i| i < num_items) => {
            let envelope = Envelope::Ranged(items);
            splice_rows(view, kind, format, items.iter().copied(), envelope, out)
        }
        Some(_) => None,
    }
}

/// Splices the cached reply row of every one of `items`, in order, into
/// `out` inside `envelope` ([`codec::splice_reply`]): each needed shard's
/// rows come from the view's per-(epoch, shard, codec) cache
/// ([`ReadView::rows`]), encoded once from the shard's slab on first use
/// ([`ReadView::fill_rows`]). `None` when a needed shard's slab is cold —
/// only the driver can fill it.
fn splice_rows(
    view: &ReadView,
    kind: ReadKind,
    format: WireFormat,
    items: impl ExactSizeIterator<Item = usize> + Clone,
    envelope: Envelope<'_>,
    out: &mut Vec<u8>,
) -> Option<()> {
    let index = view.index();
    let slot = codec::wire_slot(format);
    let mut cached: Vec<Option<Arc<EncodedRows>>> = vec![None; index.num_shards()];
    for i in items.clone() {
        let s = index.shard_of(i);
        if cached[s].is_none() {
            cached[s] = Some(match view.rows(kind, slot, s) {
                Some(rows) => rows,
                None => view.fill_rows(kind, slot, s, encode_shard_rows(view, kind, format, s)?),
            });
        }
    }
    let rows = items.map(|i| {
        let shard_rows = cached[index.shard_of(i)].as_ref().expect("gathered above");
        shard_rows.row(index.pos_in_shard(i))
    });
    codec::splice_reply(out, format, kind, envelope, rows, view.epoch());
    Some(())
}

/// Pumps one read subscription, one spliced frame per view. The first view
/// — filled by the driver when it granted the subscription — becomes the
/// bootstrap frame: every subscribed item's row, with every covering shard
/// listed dirty. Every view the driver pushes after that becomes a delta
/// frame carrying rows for exactly the subscribed items whose shards the
/// publishing mutation dirtied. Rows come from the view's per-(epoch,
/// shard, codec) row caches, encoded once per epoch and codec
/// ([`splice_rows`]). A mutation that dirtied none of the subscribed
/// shards still sends an empty delta so the subscriber's epoch tracks the
/// head. Returns cleanly when the driver drops the channel (server
/// wind-down → the subscriber sees EOF) and with the write error when the
/// subscriber hangs up.
fn pump_read_deltas(
    stream: &mut TcpStream,
    format: WireFormat,
    kind: ReadKind,
    items: &[usize],
    first: Arc<ReadView>,
    answers: &Receiver<Answer>,
) -> Result<(), TransportError> {
    let pushed = std::iter::from_fn(|| match answers.recv() {
        Ok(Answer::View(view)) => Some(view),
        _ => None,
    });
    let mut body = Vec::new();
    for (n, view) in std::iter::once(first).chain(pushed).enumerate() {
        let index = view.index();
        if items.iter().any(|&i| i >= index.num_items()) {
            // A restore shrank the universe under the subscription: the
            // watched rows no longer exist, so the stream cannot continue
            // faithfully. End it with a framed error.
            let _ = send_reply(
                stream,
                format,
                &FleetReply::err(format!(
                    "subscription watches items beyond the restored universe \
                     ({} items); resubscribe",
                    index.num_items()
                )),
            );
            return Ok(());
        }
        // The bootstrap (frame 0) carries every subscribed row.
        let mut dirty = vec![n == 0; index.num_shards()];
        for &s in view.dirty_shards() {
            dirty[s] = true;
        }
        let delta_items: Vec<usize> = items
            .iter()
            .copied()
            .filter(|&i| dirty[index.shard_of(i)])
            .collect();
        let mut dirty_shards: Vec<usize> = delta_items.iter().map(|&i| index.shard_of(i)).collect();
        dirty_shards.sort_unstable();
        dirty_shards.dedup();
        let envelope = Envelope::Delta {
            items: &delta_items,
            dirty_shards: &dirty_shards,
        };
        let spliced = splice_rows(
            &view,
            kind,
            format,
            delta_items.iter().copied(),
            envelope,
            &mut body,
        );
        if spliced.is_none() {
            // The driver fills every slab a subscriber watches before
            // sending the view, so a cold slab here means the stream
            // cannot be continued faithfully; end it rather than skip an
            // epoch.
            let _ = send_reply(
                stream,
                format,
                &FleetReply::err("dirty shard rows unavailable; resubscribe"),
            );
            return Ok(());
        }
        write_frame_bytes(stream, &body)?;
    }
    Ok(())
}

/// Encodes shard `s`'s per-item reply rows for `kind` under `format` (one
/// standalone encode per owned item, in `ShardIndex::items_of` order, back
/// to back in one buffer), or `None` if the shard's slab is not filled this
/// epoch.
fn encode_shard_rows(
    view: &ReadView,
    kind: ReadKind,
    format: WireFormat,
    s: usize,
) -> Option<EncodedRows> {
    let items = view.index().items_of(s).iter().map(|&i| i as usize);
    let mut rows = EncodedRows::default();
    match kind {
        ReadKind::Predictions => {
            let slab = view.shard_predictions(s)?;
            for i in items {
                rows.push(|out| codec::encode_into(format, &slab[i], out));
            }
        }
        ReadKind::Estimate => {
            let slab = view.shard_estimate(s)?;
            for i in items {
                let row = ItemEstimate::from_estimate(&slab, i);
                rows.push(|out| codec::encode_into(format, &row, out));
            }
        }
    }
    Some(rows)
}

/// Tells the client the server is winding down (best effort) and ends the
/// connection.
fn shutting_down(stream: &mut TcpStream, format: WireFormat) -> Result<(), TransportError> {
    let _ = send_reply(stream, format, &FleetReply::err("server is shutting down"));
    Ok(())
}

/// Frames one reply onto the stream under the connection's codec.
fn send_reply(
    stream: &mut TcpStream,
    format: WireFormat,
    reply: &FleetReply,
) -> Result<(), TransportError> {
    let payload = codec::encode(format, reply)?;
    write_frame_bytes(stream, &payload)
}
