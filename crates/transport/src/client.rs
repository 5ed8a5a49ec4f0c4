//! The blocking client: one method per `FleetOp`, one framed round trip
//! per call.
//!
//! A [`FleetClient`] has one method for each op — `ingest_tagged`,
//! `refit_tagged`, `predict_tagged`, `estimate_tagged`, the item-ranged
//! `predict_items_tagged` / `estimate_items_tagged`, `snapshot`,
//! `restore_tagged`, [`FleetClient::shutdown`] and the two subscriptions —
//! plus [`FleetClient::apply_op`] for any op verbatim. Each call frames one
//! `FleetOp`, blocks for the server's `FleetReply`, and decodes it. The
//! server applies **mutations** from all connections in one global order
//! and answers each connection's requests FIFO; **reads** are answered from
//! the server's epoch-published view (see `cpa_serve::view`), concurrently
//! with other connections' traffic, so a client sees exactly the semantics
//! of calling the in-process fleet under a lock — bit-identically
//! (`tests/transport_roundtrip.rs`).
//!
//! Every state-bearing reply carries the fleet **epoch** it reflects, and
//! the `*_tagged` methods return it beside the payload.
//!
//! Each connection speaks the one [`WireFormat`] its constructor names:
//! [`WireFormat::Json`], or [`WireFormat::Binary`], which
//! [`FleetClient::connect_with`] negotiates (see [`crate::codec`] for the
//! handshake). A binary request the server refuses degrades to JSON on the
//! same connection — the client never fails just because the server is
//! older; [`FleetClient::wire_format`] reports what was settled.
//!
//! Connections carry **socket deadlines** ([`ClientConfig`]): a server
//! that accepts the connection but never answers — hung, partitioned,
//! wedged mid-handler — surfaces as [`TransportError::TimedOut`] instead
//! of hanging the client forever. The default is generous
//! ([`ClientConfig::default`]); `None` restores the original
//! block-forever behaviour.
//!
//! [`FleetClient::subscribe`] turns a connection into an
//! [`OpSubscription`] — the replication tail: the server streams every
//! accepted mutation as an epoch-tagged `OpApplied` frame, and the read
//! deadline doubles as leader-death detection (a silent leader times the
//! subscription out, triggering follower failover).

use crate::codec::{self, WireFormat};
use crate::error::TransportError;
use crate::frame::{read_frame_bytes, write_frame_bytes};
use cpa_core::truth::TruthEstimate;
use cpa_data::labels::LabelSet;
use cpa_serve::{
    AppliedDelta, FleetManifest, FleetOp, FleetReply, ItemEstimate, ReadCache, ReadKind,
};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket deadlines for one client connection.
///
/// The defaults are deliberately generous — far past any healthy
/// round trip, so they only fire on a genuinely wedged peer — and
/// `None` means block forever (the pre-deadline behaviour). Followers
/// tailing a subscription pick a read deadline matched to their
/// failover budget: the longest silence they will tolerate before
/// declaring the leader dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline on every socket read (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Deadline on every socket write (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Rewrites a deadline-expiry io error into the typed
/// [`TransportError::TimedOut`] (the kind differs by platform:
/// `WouldBlock` on unix, `TimedOut` on windows).
fn map_timeout(err: TransportError) -> TransportError {
    match err {
        TransportError::Io(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            TransportError::TimedOut
        }
        other => other,
    }
}

/// A blocking connection to a [`crate::FleetServer`].
#[derive(Debug)]
pub struct FleetClient {
    stream: TcpStream,
    format: WireFormat,
}

impl FleetClient {
    /// Connects to a serving fleet speaking `format`, under the default
    /// [`ClientConfig`] deadlines. [`WireFormat::Json`] skips the
    /// handshake entirely (the pre-negotiation wire, byte for byte);
    /// [`WireFormat::Binary`] performs the `CPAW` handshake and falls back
    /// to JSON if the server declines.
    ///
    /// # Errors
    /// Fails on any connect or handshake error.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        format: WireFormat,
    ) -> Result<Self, TransportError> {
        Self::connect_with_config(addr, format, ClientConfig::default())
    }

    /// Connects with explicit socket deadlines (see [`ClientConfig`]).
    ///
    /// # Errors
    /// Fails on any connect or handshake error — including
    /// [`TransportError::TimedOut`] if the server accepts the connection
    /// but never answers the handshake.
    pub fn connect_with_config(
        addr: impl ToSocketAddrs,
        format: WireFormat,
        config: ClientConfig,
    ) -> Result<Self, TransportError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        let format = match format {
            WireFormat::Json => WireFormat::Json,
            WireFormat::Binary => codec::client_handshake(&mut stream).map_err(map_timeout)?,
        };
        Ok(Self { stream, format })
    }

    /// The codec this connection settled on — what was requested, or the
    /// JSON fallback if the server declined binary.
    pub fn wire_format(&self) -> WireFormat {
        self.format
    }

    /// One framed round trip: op out, reply in, both under the
    /// connection's codec. A protocol-level `Error` reply surfaces as
    /// [`TransportError::Rejected`]; an expired socket deadline as
    /// [`TransportError::TimedOut`].
    fn call(&mut self, op: &FleetOp) -> Result<FleetReply, TransportError> {
        let payload = codec::encode(self.format, op)?;
        write_frame_bytes(&mut self.stream, &payload).map_err(map_timeout)?;
        let reply = read_frame_bytes(&mut self.stream)
            .map_err(map_timeout)?
            .ok_or(TransportError::Truncated {
                context: "reply frame",
                expected: 4,
                got: 0,
            })?;
        match codec::decode::<FleetReply>(self.format, &reply)? {
            FleetReply::Error { message } => Err(TransportError::Rejected(message)),
            other => Ok(other),
        }
    }

    /// One framed round trip for an arbitrary [`FleetOp`] — the generic
    /// escape hatch under the named methods. Replication pumps use this to
    /// forward shipped ops verbatim.
    ///
    /// # Errors
    /// [`TransportError::Rejected`] on a protocol-level `Error` reply, or
    /// any transport failure.
    pub fn apply_op(&mut self, op: &FleetOp) -> Result<FleetReply, TransportError> {
        self.call(op)
    }

    fn unexpected(expected: &'static str, found: FleetReply) -> TransportError {
        TransportError::UnexpectedReply {
            expected,
            found: found.name().to_string(),
        }
    }

    /// Ingests one arrival batch (workers plus `(item, worker, labels)`
    /// triples — one `FleetOp::Ingest`) and returns its arrival index and
    /// the fleet epoch the ingest created.
    ///
    /// # Errors
    /// [`TransportError::Rejected`] when the batch violates the arrival
    /// contract (the message names the offending worker), or any transport
    /// failure.
    pub fn ingest_tagged(
        &mut self,
        workers: Vec<usize>,
        answers: Vec<(usize, usize, Vec<usize>)>,
    ) -> Result<(usize, u64), TransportError> {
        match self.call(&FleetOp::Ingest { workers, answers })? {
            FleetReply::Ingested { batch, epoch } => Ok((batch, epoch)),
            other => Err(Self::unexpected("Ingested", other)),
        }
    }

    /// Refits every shard, returning the fleet epoch the refit created.
    ///
    /// # Errors
    /// Any transport failure.
    pub fn refit_tagged(&mut self) -> Result<u64, TransportError> {
        match self.call(&FleetOp::Refit)? {
            FleetReply::Refitted { epoch } => Ok(epoch),
            other => Err(Self::unexpected("Refitted", other)),
        }
    }

    /// Merged consensus predictions in global item order, with the epoch of
    /// the read view they came from — replaying the mutation prefix up to
    /// that epoch reproduces them bit for bit
    /// (`cpa_serve::Fleet::replay_to_epoch`).
    ///
    /// # Errors
    /// Any transport failure.
    pub fn predict_tagged(&mut self) -> Result<(Vec<LabelSet>, u64), TransportError> {
        match self.call(&FleetOp::Predict)? {
            FleetReply::Predictions { predictions, epoch } => Ok((predictions, epoch)),
            other => Err(Self::unexpected("Predictions", other)),
        }
    }

    /// Merged soft-truth estimate in global item order, with the epoch of
    /// the read view it came from.
    ///
    /// # Errors
    /// Any transport failure.
    pub fn estimate_tagged(&mut self) -> Result<(TruthEstimate, u64), TransportError> {
        match self.call(&FleetOp::Estimate)? {
            FleetReply::Estimated { estimate, epoch } => Ok((estimate, epoch)),
            other => Err(Self::unexpected("Estimated", other)),
        }
    }

    /// Consensus predictions for exactly `items`, in request order
    /// (duplicates allowed) — the item-ranged read — with the epoch of the
    /// read view the rows came from. Reply size is bounded by the request,
    /// and the server answers from per-item rows cached once per (epoch,
    /// shard, codec). The reply echoes the requested items; a mismatch with
    /// the request is an [`TransportError::UnexpectedReply`].
    ///
    /// # Errors
    /// [`TransportError::Rejected`] when an item is outside the served
    /// universe, or any transport failure.
    pub fn predict_items_tagged(
        &mut self,
        items: Vec<usize>,
    ) -> Result<(Vec<LabelSet>, u64), TransportError> {
        match self.call(&FleetOp::PredictItems {
            items: items.clone(),
        })? {
            FleetReply::PredictedItems {
                items: echoed,
                predictions,
                epoch,
            } => {
                if echoed != items {
                    return Err(TransportError::UnexpectedReply {
                        expected: "PredictedItems echoing the requested items",
                        found: format!("PredictedItems for {} other items", echoed.len()),
                    });
                }
                Ok((predictions, epoch))
            }
            other => Err(Self::unexpected("PredictedItems", other)),
        }
    }

    /// Per-item soft-truth rows for exactly `items`, echoed in request
    /// order — the item-ranged counterpart of
    /// [`FleetClient::estimate_tagged`] (see `cpa_serve::ItemEstimate` for
    /// what a row carries) — with the epoch of the read view they came
    /// from.
    ///
    /// # Errors
    /// As [`FleetClient::predict_items_tagged`].
    pub fn estimate_items_tagged(
        &mut self,
        items: Vec<usize>,
    ) -> Result<(Vec<ItemEstimate>, u64), TransportError> {
        match self.call(&FleetOp::EstimateItems {
            items: items.clone(),
        })? {
            FleetReply::EstimatedItems {
                items: echoed,
                rows,
                epoch,
            } => {
                if echoed != items {
                    return Err(TransportError::UnexpectedReply {
                        expected: "EstimatedItems echoing the requested items",
                        found: format!("EstimatedItems for {} other items", echoed.len()),
                    });
                }
                Ok((rows, epoch))
            }
            other => Err(Self::unexpected("EstimatedItems", other)),
        }
    }

    /// The fleet's versioned manifest (its durable snapshot).
    ///
    /// # Errors
    /// Any transport failure.
    pub fn snapshot(&mut self) -> Result<FleetManifest, TransportError> {
        match self.call(&FleetOp::Snapshot)? {
            FleetReply::Manifest { manifest } => Ok(manifest),
            other => Err(Self::unexpected("Manifest", other)),
        }
    }

    /// Replaces the served fleet with one restored from `manifest`,
    /// returning the restored fleet's epoch (adopted from the manifest — a
    /// new lineage, possibly lower than the epochs this connection saw
    /// before).
    ///
    /// # Errors
    /// [`TransportError::Rejected`] if the server has no restore hook or
    /// the manifest does not restore, or any transport failure.
    pub fn restore_tagged(&mut self, manifest: FleetManifest) -> Result<u64, TransportError> {
        match self.call(&FleetOp::Restore { manifest })? {
            FleetReply::Restored { epoch } => Ok(epoch),
            other => Err(Self::unexpected("Restored", other)),
        }
    }

    /// Asks the server to shut down (acknowledged, then the server winds
    /// down and `serve` returns).
    ///
    /// # Errors
    /// Any transport failure.
    pub fn shutdown(&mut self) -> Result<(), TransportError> {
        match self.call(&FleetOp::Shutdown)? {
            FleetReply::ShuttingDown => Ok(()),
            other => Err(Self::unexpected("ShuttingDown", other)),
        }
    }

    /// Turns this connection into a **mutation-stream subscription**
    /// (`FleetOp::SubscribeOps`): the server acks with its current epoch,
    /// replays every recorded mutation after `from_epoch` as epoch-tagged
    /// `OpApplied` frames, then pushes each newly accepted mutation the
    /// moment its view is published. The connection is push-only from here
    /// on — hence `self` by value.
    ///
    /// # Errors
    /// [`TransportError::Rejected`] when `from_epoch` is behind the
    /// server's head but the server is not recording ops (it cannot replay
    /// the gap), when it is ahead of the head, or when it is not 0 after
    /// the server accepted a `Restore` (which restarts the epochs); or any
    /// transport failure.
    pub fn subscribe(mut self, from_epoch: u64) -> Result<OpSubscription, TransportError> {
        match self.call(&FleetOp::SubscribeOps { from_epoch })? {
            FleetReply::Subscribed { epoch } => Ok(OpSubscription {
                stream: self.stream,
                format: self.format,
                head: epoch,
            }),
            other => Err(Self::unexpected("Subscribed", other)),
        }
    }

    /// Turns this connection into a **read-delta subscription**
    /// (`FleetOp::SubscribeReads`): the server acks with a bootstrap
    /// snapshot of the subscribed rows at its current epoch — materialized
    /// here into a `cpa_serve::ReadCache` — then pushes one delta frame per
    /// accepted mutation carrying only the dirty shards' rows. Pass
    /// `items: None` to watch the whole universe (as of subscription
    /// time), or a list of items for a ranged subscription. The connection
    /// is push-only from here on — hence `self` by value.
    ///
    /// After each [`ReadSubscription::next_delta`], the cache answers
    /// `predict`/`estimate` for every subscribed item with zero round
    /// trips, bit-identical to refetching over this connection's codec at
    /// the same epoch.
    ///
    /// # Errors
    /// [`TransportError::Rejected`] when the server refuses the
    /// subscription (an item outside the served universe, or the server's
    /// subscription slots are exhausted), or any transport failure.
    pub fn subscribe_reads(
        mut self,
        kind: ReadKind,
        items: Option<Vec<usize>>,
    ) -> Result<ReadSubscription, TransportError> {
        let bootstrap = self.call(&FleetOp::SubscribeReads { kind, items })?;
        let cache = ReadCache::from_bootstrap(kind, &bootstrap)
            .map_err(|e| TransportError::Malformed(format!("bootstrap frame: {e}")))?;
        Ok(ReadSubscription {
            stream: self.stream,
            format: self.format,
            cache,
        })
    }
}

/// The receiving end of a [`FleetClient::subscribe`] mutation stream: the
/// feed a [`cpa_serve::Follower`] tails, one
/// `apply_shipped(ShippedOp::tagged(epoch, op))` per frame.
///
/// Each [`OpSubscription::next_frame`] blocks for the next `OpApplied`
/// frame.
/// Clean EOF (the server wound down and closed the stream) is the end of
/// stream — the follower is at head and ready to promote. An expired read
/// deadline ([`ClientConfig::read_timeout`]) is [`TransportError::TimedOut`]
/// — the leader went silent without closing, the log-shipping definition
/// of leader death.
#[derive(Debug)]
pub struct OpSubscription {
    stream: TcpStream,
    format: WireFormat,
    head: u64,
}

impl OpSubscription {
    /// The highest leader epoch this subscription has seen: the epoch on
    /// the `Subscribed` ack, then the max of every frame's tag.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Replaces the read deadline negotiated at connect time — followers
    /// tune this to their failover budget after subscribing.
    ///
    /// # Errors
    /// Any socket error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// The next shipped mutation as `(epoch, op)`, `Ok(None)` at clean end
    /// of stream.
    ///
    /// # Errors
    /// [`TransportError::TimedOut`] when the leader goes silent past the
    /// read deadline, or any transport failure.
    pub fn next_frame(&mut self) -> Result<Option<(u64, FleetOp)>, TransportError> {
        let Some(payload) = read_frame_bytes(&mut self.stream).map_err(map_timeout)? else {
            return Ok(None);
        };
        match codec::decode::<FleetReply>(self.format, &payload)? {
            FleetReply::OpApplied { epoch, op } => {
                self.head = self.head.max(epoch);
                Ok(Some((epoch, op)))
            }
            FleetReply::Error { message } => Err(TransportError::Rejected(message)),
            other => Err(FleetClient::unexpected("OpApplied", other)),
        }
    }
}

/// What one applied delta frame changed, plus what it cost on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadDelta {
    /// The cache mutation the frame performed (new epoch, rows replaced,
    /// dirty shards covered).
    pub applied: AppliedDelta,
    /// The frame's encoded payload size in bytes (excluding the 4-byte
    /// length prefix) — what a push costs per epoch, the number the
    /// transport bench reports as `bytes_per_epoch`.
    pub frame_bytes: usize,
}

/// The receiving end of a [`FleetClient::subscribe_reads`] delta stream: a
/// locally materialized, epoch-tagged row set kept current by applying
/// each pushed delta frame.
///
/// Clean EOF (the server wound down and closed the stream) is the end of
/// the subscription — the cache stays readable at its last epoch. An
/// expired read deadline ([`ClientConfig::read_timeout`]) is
/// [`TransportError::TimedOut`] — the server went silent without closing.
#[derive(Debug)]
pub struct ReadSubscription {
    stream: TcpStream,
    format: WireFormat,
    cache: ReadCache,
}

impl ReadSubscription {
    /// The locally materialized rows, current as of the last applied
    /// frame. `cache().epoch()` tags the epoch every row reflects;
    /// `cache().predict(item)` / `cache().estimate(item)` answer with no
    /// round trip, bit-identical to refetching at that epoch.
    pub fn cache(&self) -> &ReadCache {
        &self.cache
    }

    /// The epoch of the last applied frame (bootstrap included).
    pub fn epoch(&self) -> u64 {
        self.cache.epoch()
    }

    /// The codec this subscription's frames arrive under.
    pub fn wire_format(&self) -> WireFormat {
        self.format
    }

    /// Replaces the read deadline negotiated at connect time — tune this
    /// to the longest server silence to tolerate before declaring the
    /// push stream dead.
    ///
    /// # Errors
    /// Any socket error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Blocks for the next delta frame and applies it to the cache.
    /// `Ok(None)` at clean end of stream (server wind-down).
    ///
    /// # Errors
    /// [`TransportError::TimedOut`] when the server goes silent past the
    /// read deadline, [`TransportError::Rejected`] when the server ends
    /// the subscription with a framed error (e.g. a restore shrank the
    /// universe under the watched items), or any transport failure. The
    /// cache is untouched by a failed frame.
    pub fn next_delta(&mut self) -> Result<Option<ReadDelta>, TransportError> {
        let Some(payload) = read_frame_bytes(&mut self.stream).map_err(map_timeout)? else {
            return Ok(None);
        };
        let frame_bytes = payload.len();
        let reply = codec::decode::<FleetReply>(self.format, &payload)?;
        if let FleetReply::Error { message } = reply {
            return Err(TransportError::Rejected(message));
        }
        let applied = self
            .cache
            .apply(&reply)
            .map_err(|e| TransportError::Malformed(format!("delta frame: {e}")))?;
        Ok(Some(ReadDelta {
            applied,
            frame_bytes,
        }))
    }
}
