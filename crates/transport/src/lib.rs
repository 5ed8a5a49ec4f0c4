//! **cpa-transport** — the std-only TCP transport that makes a `cpa-serve`
//! fleet a deployable service.
//!
//! It carries a fleet's `FleetOp`s to another process over plain `std::net`
//! — no async runtime, no external protocol crates:
//!
//! - [`frame`] — the wire format: 4-byte big-endian length prefix + one
//!   serialized `FleetOp`/`FleetReply` per frame, with truncation and
//!   oversize hardening on both sides;
//! - [`codec`] — the per-connection payload codec: UTF-8 JSON (the
//!   universal fallback), or the `cpa_data::codec` binary encoding after a
//!   `CPAW` preamble handshake — each client names its codec when it
//!   connects, and old JSON clients keep working unchanged;
//! - [`FleetServer`] — accepts N concurrent clients on named handler
//!   threads, funnels every **mutation** into one `Fleet::apply` driver
//!   (one global op order, the arrival contract enforced per ingest),
//!   answers **view reads** handler-side by splicing per-item rows cached
//!   in the fleet's epoch-published `cpa_serve::ReadView` (encoded once
//!   per epoch, shard and codec; the driver is asked only to fill a cold
//!   slab), streams replies
//!   back per-connection FIFO, and can record the accepted mutations as a
//!   replayable op-log;
//! - [`FleetClient`] — a blocking client with one method per op, one
//!   framed round trip per call (reads and mutations return their reply's
//!   fleet epoch), with socket deadlines ([`ClientConfig`]; a silent server
//!   surfaces as [`TransportError::TimedOut`], never a hang), and
//!   [`FleetClient::subscribe`] — the replication tail: an
//!   [`OpSubscription`] stream of the leader's accepted mutations as
//!   epoch-tagged frames, feeding a `cpa_serve::replica::Follower` that
//!   serves bit-identical reads at observable lag and promotes on leader
//!   death (timeout) or clean stream end.
//!
//! A client over loopback computes **bit-identical** predictions to the
//! in-process fleet on the same op stream — under either codec, and with
//! mixed-codec clients connected concurrently — and a recorded op-log
//! replays to a byte-identical snapshot (`tests/transport_roundtrip.rs`,
//! `tests/codec_invariance.rs`).
//!
//! ```
//! use cpa_core::engine::DynEngine;
//! use cpa_core::{BatchCpa, CpaConfig};
//! use cpa_serve::Fleet;
//! use cpa_transport::{FleetClient, FleetServer, ServerConfig, WireFormat};
//!
//! let (i, u, c) = (6, 4, 3);
//! let fleet = Fleet::new(2, 1, i, u, c, |_| {
//!     Box::new(BatchCpa::new(CpaConfig::default().with_truncation(3, 4), i, u, c)) as DynEngine
//! });
//!
//! let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let running = std::thread::spawn(move || server.serve(fleet).unwrap());
//!
//! let mut client = FleetClient::connect_with(addr, WireFormat::Json).unwrap();
//! client.ingest_tagged(vec![0, 1], vec![(0, 0, vec![1]), (2, 1, vec![0, 2])]).unwrap();
//! let refitted = client.refit_tagged().unwrap();
//! let (consensus, epoch) = client.predict_tagged().unwrap();
//! assert_eq!((consensus.len(), epoch), (i, refitted));
//! client.shutdown().unwrap();
//!
//! let outcome = running.join().unwrap();
//! assert_eq!(outcome.fleet.predict_all(), consensus);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod codec;
pub mod error;
pub mod frame;
pub mod server;

pub use client::{ClientConfig, FleetClient, OpSubscription, ReadDelta, ReadSubscription};
pub use codec::{WireFormat, WIRE_MAGIC, WIRE_VERSION};
pub use error::TransportError;
pub use frame::MAX_FRAME_BYTES;
pub use server::{FleetServer, ServeOutcome, ServerConfig};
