//! Length-prefixed framing: the wire format of the fleet protocol.
//!
//! One frame is a 4-byte **big-endian** `u32` payload length followed by
//! that many payload bytes — UTF-8 JSON under the JSON codec, a
//! `cpa_data::codec` document under the negotiated binary codec (see
//! [`crate::codec`]); one serialized `FleetOp` or `FleetReply` either way.
//! Frames larger than [`MAX_FRAME_BYTES`] are rejected before any payload
//! is buffered, on both sides, under **both** codecs (the cap guards the
//! length prefix, which the codecs share).
//!
//! Reads distinguish three endings:
//!
//! - a full frame — the payload;
//! - a **clean** close (EOF exactly on a frame boundary) — `Ok(None)`, the
//!   peer simply hung up;
//! - a **truncated** close (EOF inside the length prefix or payload) —
//!   [`TransportError::Truncated`], never a panic and never a silently
//!   half-read frame.
//!
//! The server reads with a socket timeout and polls a shutdown flag between
//! partial reads ([`read_frame_bytes_polling`]), so a connection blocked on
//! an idle client cannot hold the server open past shutdown. The prefix
//! and body reads are split internally (`read_prefix`, `read_body`)
//! because codec negotiation inspects a connection's first four bytes
//! before knowing whether they are a length prefix or a preamble magic.

use crate::error::TransportError;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Hard ceiling on one frame's payload (64 MiB). A manifest of a large
/// fleet fits comfortably; anything bigger is a protocol error, not a
/// buffering request.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes one frame: big-endian `u32` length, then the payload bytes.
///
/// # Errors
/// Fails if the payload exceeds [`MAX_FRAME_BYTES`] (nothing is written) or
/// on any socket error.
pub fn write_frame_bytes<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), TransportError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(TransportError::FrameTooLarge {
            size: payload.len(),
            max: MAX_FRAME_BYTES,
        });
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// How one buffered read ended.
enum Fill {
    /// The buffer was filled completely.
    Full,
    /// EOF after `got` bytes (0 means EOF on the boundary).
    Eof {
        /// Bytes read before the stream ended.
        got: usize,
    },
}

/// Fills `buf` from `r`, tolerating read timeouts: on `WouldBlock` /
/// `TimedOut` the optional `shutdown` flag is consulted and the read
/// retried. With `shutdown: None` the read is fully blocking.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    shutdown: Option<&AtomicBool>,
) -> Result<Fill, TransportError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(Fill::Eof { got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                match shutdown {
                    Some(flag) if flag.load(Ordering::Relaxed) => {
                        return Err(TransportError::ShuttingDown)
                    }
                    Some(_) => {}
                    None => return Err(TransportError::Io(e)),
                }
            }
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
    Ok(Fill::Full)
}

/// Reads a frame's 4-byte prefix. `Ok(None)` is a clean close on the
/// boundary; the caller decides whether the bytes are a length or a
/// negotiation magic.
pub(crate) fn read_prefix(
    r: &mut impl Read,
    shutdown: Option<&AtomicBool>,
) -> Result<Option<[u8; 4]>, TransportError> {
    let mut prefix = [0u8; 4];
    match fill(r, &mut prefix, shutdown)? {
        Fill::Eof { got: 0 } => Ok(None), // clean close on the boundary
        Fill::Eof { got } => Err(TransportError::Truncated {
            context: "frame length prefix",
            expected: 4,
            got,
        }),
        Fill::Full => Ok(Some(prefix)),
    }
}

/// Reads a frame body of `len` bytes (the cap having been checked against
/// the declared length by the caller or [`check_frame_len`]).
pub(crate) fn read_body(
    r: &mut impl Read,
    len: usize,
    context: &'static str,
    shutdown: Option<&AtomicBool>,
) -> Result<Vec<u8>, TransportError> {
    let mut payload = vec![0u8; len];
    match fill(r, &mut payload, shutdown)? {
        Fill::Full => Ok(payload),
        Fill::Eof { got } => Err(TransportError::Truncated {
            context,
            expected: len,
            got,
        }),
    }
}

/// Enforces [`MAX_FRAME_BYTES`] on a declared payload length — before any
/// buffering, identically under both codecs.
pub(crate) fn check_frame_len(len: usize) -> Result<usize, TransportError> {
    if len > MAX_FRAME_BYTES {
        return Err(TransportError::FrameTooLarge {
            size: len,
            max: MAX_FRAME_BYTES,
        });
    }
    Ok(len)
}

fn read_frame_inner(
    r: &mut impl Read,
    shutdown: Option<&AtomicBool>,
) -> Result<Option<Vec<u8>>, TransportError> {
    let Some(prefix) = read_prefix(r, shutdown)? else {
        return Ok(None);
    };
    let len = check_frame_len(u32::from_be_bytes(prefix) as usize)?;
    read_body(r, len, "frame payload", shutdown).map(Some)
}

/// Reads one frame's raw payload, blocking until it is complete or the
/// peer closes. `Ok(None)` is a clean close on a frame boundary.
///
/// # Errors
/// [`TransportError::Truncated`] on EOF mid-frame,
/// [`TransportError::FrameTooLarge`] on an oversized declaration, or any
/// socket error.
pub fn read_frame_bytes(r: &mut impl Read) -> Result<Option<Vec<u8>>, TransportError> {
    read_frame_inner(r, None)
}

/// [`read_frame_bytes`] for sockets with a read timeout: timeouts poll
/// `shutdown` and keep waiting, returning [`TransportError::ShuttingDown`]
/// once the flag is raised.
///
/// # Errors
/// As [`read_frame_bytes`], plus [`TransportError::ShuttingDown`].
pub fn read_frame_bytes_polling(
    r: &mut impl Read,
    shutdown: &AtomicBool,
) -> Result<Option<Vec<u8>>, TransportError> {
    read_frame_inner(r, Some(shutdown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, payload).unwrap();
        buf
    }

    #[test]
    fn frames_roundtrip() {
        let mut wire = framed(b"\"Refit\"");
        wire.extend(framed(b"{\"x\": 1}"));
        let mut r = Cursor::new(wire);
        assert_eq!(
            read_frame_bytes(&mut r).unwrap().as_deref(),
            Some(&b"\"Refit\""[..])
        );
        assert_eq!(
            read_frame_bytes(&mut r).unwrap().as_deref(),
            Some(&b"{\"x\": 1}"[..])
        );
        assert!(read_frame_bytes(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn byte_frames_carry_arbitrary_bytes() {
        let payload = [0u8, 0xff, 0x05, 0x80];
        let mut wire = Vec::new();
        write_frame_bytes(&mut wire, &payload).unwrap();
        let mut r = Cursor::new(wire);
        assert_eq!(
            read_frame_bytes(&mut r).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert!(read_frame_bytes(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_prefix_and_payload_are_named() {
        let wire = framed(b"hello");
        // Cut inside the length prefix.
        let err = read_frame_bytes(&mut Cursor::new(&wire[..2])).unwrap_err();
        assert!(
            matches!(err, TransportError::Truncated { context, got: 2, .. }
                if context == "frame length prefix"),
            "{err}"
        );
        assert_eq!(err.truncation(), Some(("frame length prefix", 4, 2)));
        // Cut inside the payload.
        let err = read_frame_bytes(&mut Cursor::new(&wire[..6])).unwrap_err();
        assert!(
            matches!(err, TransportError::Truncated { context, expected: 5, got: 2 }
                if context == "frame payload"),
            "{err}"
        );
        assert_eq!(err.truncation(), Some(("frame payload", 5, 2)));
    }

    #[test]
    fn oversized_declaration_is_rejected_before_buffering() {
        let mut wire = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
        wire.extend(b"irrelevant");
        let err = read_frame_bytes(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, TransportError::FrameTooLarge { .. }), "{err}");
        // The error carries the offending length and the cap.
        assert_eq!(err.oversize(), Some((MAX_FRAME_BYTES + 1, MAX_FRAME_BYTES)));
        // Writers refuse equally, before anything hits the wire.
        let mut sink = Vec::new();
        let err = write_frame_bytes(&mut sink, &vec![0u8; MAX_FRAME_BYTES + 1]).unwrap_err();
        assert_eq!(err.oversize(), Some((MAX_FRAME_BYTES + 1, MAX_FRAME_BYTES)));
        assert!(sink.is_empty());
    }
}
