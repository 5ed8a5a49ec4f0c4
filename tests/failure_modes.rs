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

use cpa::eval::runner::Method;
use cpa::serve::{Fleet, FleetOp};
use cpa::transport::codec;
use cpa::transport::frame::write_frame_bytes;
use cpa::transport::{
    ClientConfig, FleetClient, FleetServer, ServeOutcome, ServerConfig, WireFormat,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver};
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

/// Serves [`fleet`] with `max_clients` handlers; the receiver gets the
/// outcome when `serve` returns.
fn spawn_server(max_clients: usize) -> (SocketAddr, Receiver<ServeOutcome>) {
    let config = ServerConfig {
        max_clients,
        ..ServerConfig::default()
    };
    let server = FleetServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let (done_tx, done) = channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(server.serve(fleet()).expect("serve"));
    });
    (addr, done)
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
    let (addr, done) = spawn_server(1);
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
    let (addr, done) = spawn_server(2);
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
