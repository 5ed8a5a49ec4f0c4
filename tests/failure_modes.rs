//! Failure modes of the serve path: a misbehaving peer may cost its own
//! connection, never the server.
//!
//! A peer that sends requests and never reads the replies fills both
//! sockets' buffers, and the handler serving it blocks in a write. Server
//! writes carry a deadline, so that handler gives up on the peer and goes
//! back to serving:
//!
//! - with one handler, a second client waiting behind the stalled peer is
//!   served;
//! - after a `Shutdown`, `serve` returns even while the stalled peer holds
//!   its socket open.
//!
//! The stall is built at the socket level, below the codec: one test's
//! stalled peer speaks binary, the other's JSON.
//!
//! Two more endings, each under both codecs:
//!
//! - a connection still waiting to be accepted when a `Shutdown` lands gets
//!   the framed "server is shutting down" error, not a reset;
//! - an engine panic in the slab fill the driver runs after an ack (the
//!   warm that feeds read subscriptions) ends the server within a bound:
//!   the writer has its ack, the subscriber's stream ends, another
//!   connection's read is refused or closed, and `serve` re-raises the
//!   panic.

mod common;

use common::{Hook, Hooked, Step};
use cpa::eval::runner::Method;
use cpa::serve::{Fleet, FleetOp, FleetReply, ReadKind};
use cpa::transport::codec;
use cpa::transport::frame::{read_frame_bytes, write_frame_bytes};
use cpa::transport::{
    ClientConfig, FleetClient, FleetServer, ServeOutcome, ServerConfig, TransportError, WireFormat,
    WIRE_MAGIC, WIRE_VERSION,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const SEED: u64 = 23;
/// A universe whose full `Predict` reply is tens of kilobytes.
const ITEMS: usize = 2000;
const WORKERS: usize = 10;
const LABELS: usize = 50;
/// Far past the server's write deadline (a few multiples of it pass
/// before a stalled peer is dropped), so a test fails on this bound only
/// when the stalled peer is never given up on.
const DEADLINE: Duration = Duration::from_secs(30);
/// `Predict` frames the stalled peer sends. Their replies (20–62 kB each,
/// binary or JSON) come to at least ten times what the two sockets'
/// buffers hold over loopback (about 4 MiB), while the requests (13 B
/// each) fit the server's receive buffer.
const STALL_FRAMES: usize = 2000;

/// A K=4 majority-vote fleet with no answers: cheap to predict, with full
/// replies of one row per item.
fn fleet() -> Fleet {
    Fleet::new(4, 1, ITEMS, WORKERS, LABELS, |_| {
        Method::Mv.engine(ITEMS, WORKERS, LABELS, SEED)
    })
}

/// Serves `fleet` with `max_clients` handlers on a thread. The receiver
/// gets the outcome when `serve` returns; if `serve` panics it disconnects
/// instead, and joining the thread yields the panic.
fn spawn_server(
    fleet: Fleet,
    max_clients: usize,
) -> (SocketAddr, Receiver<ServeOutcome>, JoinHandle<()>) {
    let config = ServerConfig {
        max_clients,
        ..ServerConfig::default()
    };
    let server = FleetServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let (done_tx, done) = channel();
    let running = std::thread::spawn(move || {
        let _ = done_tx.send(server.serve(fleet).expect("serve"));
    });
    (addr, done, running)
}

/// A raw connection speaking `format` that sends [`STALL_FRAMES`] `Predict`
/// frames and reads none of the replies. Returns once the first reply has
/// arrived: a handler is serving the connection, and with these requests
/// queued it writes until it blocks.
fn stall(addr: SocketAddr, format: WireFormat) -> TcpStream {
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    // The deadlines only turn a wrong guess about buffer sizes into a
    // failure instead of a hang.
    raw.set_write_timeout(Some(DEADLINE)).expect("deadline");
    raw.set_read_timeout(Some(DEADLINE)).expect("deadline");
    if format == WireFormat::Binary {
        assert_eq!(
            codec::client_handshake(&mut raw).expect("handshake"),
            format
        );
    }
    let request = codec::encode(format, &FleetOp::Predict).expect("op encodes");
    for _ in 0..STALL_FRAMES {
        write_frame_bytes(&mut raw, &request).expect("request");
    }
    raw.peek(&mut [0u8; 1]).expect("the first reply arrives");
    raw
}

fn client(addr: SocketAddr, format: WireFormat) -> FleetClient {
    let deadlines = ClientConfig {
        read_timeout: Some(DEADLINE),
        write_timeout: Some(DEADLINE),
    };
    FleetClient::connect_with_config(addr, format, deadlines).expect("connect")
}

#[test]
fn a_peer_that_stops_reading_frees_the_only_handler() {
    let (addr, done, _) = spawn_server(fleet(), 1);
    let stalled = stall(addr, WireFormat::Binary);

    // The one handler is stuck writing to the stalled peer; this client
    // waits in the accept queue until the server gives up on that peer.
    let mut client = client(addr, WireFormat::Json);
    let (predictions, epoch) = client
        .predict_tagged()
        .expect("a client behind a stalled peer is served");
    assert_eq!((predictions.len(), epoch), (ITEMS, 0));
    client.shutdown().expect("shutdown");
    done.recv_timeout(DEADLINE).expect("serve returns");
    drop(stalled);
}

#[test]
fn a_peer_that_stops_reading_does_not_keep_serve_from_returning() {
    let (addr, done, _) = spawn_server(fleet(), 2);
    let mut client = client(addr, WireFormat::Binary);
    // Fill the view's slabs first, so the stalled peer's reads are all
    // spliced by its handler and none waits on the driver the shutdown
    // stops.
    client.predict_tagged().expect("warm read");
    let stalled = stall(addr, WireFormat::Json);

    client.shutdown().expect("shutdown acknowledged");
    let outcome = done
        .recv_timeout(DEADLINE)
        .expect("serve returns while a stalled peer holds its socket open");
    assert_eq!(outcome.fleet.epoch(), 0);
    drop(stalled);
}

/// Connects under `format` and sends one framed `Refit` (after the binary
/// preamble) without waiting for the server to accept or answer.
fn queued_refit(addr: SocketAddr, format: WireFormat) -> TcpStream {
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.set_read_timeout(Some(DEADLINE)).expect("deadline");
    if format == WireFormat::Binary {
        raw.write_all(&WIRE_MAGIC).expect("preamble");
        raw.write_all(&WIRE_VERSION.to_be_bytes())
            .expect("preamble");
    }
    let refit = codec::encode(format, &FleetOp::Refit).expect("op encodes");
    write_frame_bytes(&mut raw, &refit).expect("request");
    raw
}

#[test]
fn a_connection_queued_at_shutdown_gets_a_framed_error_not_a_reset() {
    for format in [WireFormat::Json, WireFormat::Binary] {
        // After one round trip the acceptor has taken the closer and polls
        // again only after a sleep, so a peer that connects now most likely
        // still waits in the listen backlog when the shutdown flag rises
        // (if the acceptor took it first, it waits for the one handler,
        // which is busy with the closer).
        let (addr, done, _) = spawn_server(fleet(), 1);
        let mut closer = client(addr, WireFormat::Json);
        closer.refit_tagged().expect("refit");
        let mut queued = queued_refit(addr, format);
        closer.shutdown().expect("shutdown");
        drop(closer);

        if format == WireFormat::Binary {
            let mut ack = [0u8; 8];
            queued
                .read_exact(&mut ack)
                .expect("a handshake ack, not a reset");
            assert_eq!(ack[..4], WIRE_MAGIC);
        }
        let frame = read_frame_bytes(&mut queued)
            .expect("a framed reply, not a reset")
            .expect("a framed reply, not EOF");
        match codec::decode::<FleetReply>(format, &frame).expect("reply decodes") {
            FleetReply::Error { message } => {
                assert!(message.contains("shutting down"), "{format:?}: {message}")
            }
            other => panic!(
                "{format:?}: expected the shutdown error, got {}",
                other.name()
            ),
        }
        done.recv_timeout(DEADLINE).expect("serve returns");
    }
}

/// The panic message of the engine hook once armed.
const TRIPPED: &str = "tripwire: predict_all after the ack";

#[test]
fn a_panic_in_the_warm_after_an_ack_ends_the_server_within_a_bound() {
    for format in [WireFormat::Json, WireFormat::Binary] {
        // Once armed, every engine's `predict_all` panics.
        let armed = Arc::new(AtomicBool::new(false));
        let hook: Hook = Arc::new({
            let armed = Arc::clone(&armed);
            move |step| {
                let tripped = step == Step::Predict && armed.load(Ordering::Relaxed);
                assert!(!tripped, "{TRIPPED}");
            }
        });
        let fleet = Fleet::new(4, 1, ITEMS, WORKERS, LABELS, |_| {
            Hooked::wrap(Method::Mv.engine(ITEMS, WORKERS, LABELS, SEED), &hook)
        });
        let (addr, done, running) = spawn_server(fleet, 4);

        let mut sub = client(addr, format)
            .subscribe_reads(ReadKind::Predictions, None)
            .expect("subscription acked");
        let mut reader = client(addr, format);
        let mut writer = client(addr, format);
        armed.store(true, Ordering::Relaxed);
        let (_, acked) = writer
            .ingest_tagged(vec![0], vec![(0, 0, vec![1])])
            .expect("the ack comes before the warm that panics");
        assert_eq!(acked, 1);

        // Each wait below is bounded by the clients' read deadline.
        match sub.next_delta() {
            Ok(None) | Err(TransportError::Rejected(_)) => {}
            other => panic!("{format:?}: the stream should end, got {other:?}"),
        }
        // The dirty shard's slab is still cold, so this read needs the dead
        // driver: a framed refusal, or a connection closed under it.
        match reader.predict_tagged() {
            Err(TransportError::Rejected(m)) => assert!(m.contains("shutting down"), "{m}"),
            Err(TransportError::Truncated { .. } | TransportError::Io(_)) => {}
            other => panic!("{format:?}: expected a refusal or a closed connection, got {other:?}"),
        }
        assert!(
            matches!(
                done.recv_timeout(DEADLINE),
                Err(RecvTimeoutError::Disconnected)
            ),
            "{format:?}: serve should end by panicking, not return or hang"
        );
        let panic = running.join().expect_err("serve re-raises the panic");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some(TRIPPED)
        );
    }
}
