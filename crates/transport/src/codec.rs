//! Per-connection wire codec: JSON, or binary by negotiation.
//!
//! Every frame body is one serialized `FleetOp` or `FleetReply`. Under
//! [`WireFormat::Json`] that body is UTF-8 JSON — readable in a packet
//! capture, diffable in an op-log, and the compatibility floor every peer
//! speaks. Under [`WireFormat::Binary`] it is a
//! `cpa_data::codec` document: the same value, varint-packed with
//! interned keys, no JSON string in the middle.
//!
//! Neither direction builds a value tree under either codec: [`encode`] and
//! [`splice_reply`] push the op or reply into the codec's one writer (a
//! `serde::Serializer`), and [`decode`] has the target type pull its fields
//! straight from the JSON text or the binary bytes. Both readers cap
//! nesting at `serde::MAX_DEPTH` (128) levels, so a hostile frame costs its
//! sender a framed `Error`, never the server's stack.
//!
//! # Negotiation
//!
//! The codec is chosen **per connection**, by the first bytes the client
//! sends:
//!
//! - A JSON client sends nothing special — its first four bytes are the
//!   first frame's length prefix, and the connection proceeds in JSON
//!   exactly as before this module existed. Old clients keep working
//!   against new servers with zero changes.
//! - A binary-capable client opens with an 8-byte preamble:
//!   [`WIRE_MAGIC`] (`"CPAW"`) then a big-endian `u32` requested version.
//!   The server answers with an 8-byte ack — the magic echoed back, then
//!   the **accepted** version (big-endian): [`WIRE_VERSION`] when that is
//!   what the client asked for, `0` ("refused, speak JSON") for any other
//!   version. On a non-zero ack both sides switch to binary frames; on a
//!   zero ack the client falls back to JSON on the same connection.
//!
//! So each client picks its own codec — every `FleetClient` constructor
//! takes it as an argument — and one that wants JSON just never sends the
//! preamble. A reply decodes to the same value under either codec; the
//! wire tests run each case under both.
//!
//! The preamble cannot be mistaken for a JSON frame: read as a big-endian
//! length, `"CPAW"` is `0x43504157` ≈ 1.1 GiB, far beyond the 64 MiB
//! [`crate::frame::MAX_FRAME_BYTES`] cap, so a pre-negotiation server
//! would have rejected it rather than misparse it — and a negotiating
//! server can classify the first four bytes unambiguously.

use crate::error::TransportError;
use crate::frame;
use cpa_serve::ReadKind;
use serde::{Serialize, Serializer};
use std::io::{Read, Write};
use std::sync::atomic::AtomicBool;

/// First four bytes of a binary client's preamble. Never a valid JSON
/// frame prefix (see module docs), so the two codecs cannot be confused.
pub const WIRE_MAGIC: [u8; 4] = *b"CPAW";

/// Current binary wire version. The server accepts exactly this version
/// and refuses any other (the client then falls back to JSON), so a client
/// of another version degrades gracefully to JSON.
///
/// History: v1 — the first binary codec; v2 — packed float slabs carry a
/// bitmap of integral entries, stored as varints (`cpa_data::codec`).
/// Nothing on disk is binary, so nothing migrates.
pub const WIRE_VERSION: u32 = 2;

/// How one connection's frame bodies are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// UTF-8 JSON bodies — what a connection speaks unless its client
    /// negotiates binary, and the universal fallback.
    Json,
    /// `cpa_data::codec` binary bodies, after a successful handshake.
    Binary,
}

/// The `cpa_serve::view::ReadView` row-cache slot this codec caches under:
/// JSON → 0, binary → 1. `cpa_serve::WIRE_SLOTS` is sized to match, so
/// every codec gets its own per-epoch row cache on the read path.
pub fn wire_slot(format: WireFormat) -> usize {
    match format {
        WireFormat::Json => 0,
        WireFormat::Binary => 1,
    }
}

/// Encodes one op or reply under `format`. Never fails: both codecs are
/// total over serializable values.
pub fn encode<T: serde::Serialize + ?Sized>(
    format: WireFormat,
    value: &T,
) -> Result<Vec<u8>, TransportError> {
    let mut out = Vec::new();
    encode_into(format, value, &mut out);
    Ok(out)
}

/// Appends [`encode`]'s bytes for `value` to `out`: a standalone document
/// under `format`, whatever `out` already holds.
pub(crate) fn encode_into<T: serde::Serialize + ?Sized>(
    format: WireFormat,
    value: &T,
    out: &mut Vec<u8>,
) {
    match format {
        WireFormat::Json => value.serialize(&mut serde_json::Writer::new(out)),
        WireFormat::Binary => value.serialize(&mut cpa_data::codec::Writer::new(out)),
    }
}

/// Decodes one op or reply under `format`.
///
/// # Errors
/// [`TransportError::Malformed`] if the bytes are not a valid document of
/// the expected type under `format`.
pub fn decode<T: serde::Deserialize>(
    format: WireFormat,
    bytes: &[u8],
) -> Result<T, TransportError> {
    match format {
        WireFormat::Json => {
            let text = std::str::from_utf8(bytes).map_err(|e| {
                TransportError::Malformed(format!("frame payload is not UTF-8: {e}"))
            })?;
            serde_json::from_str(text)
                .map_err(|e| TransportError::Malformed(format!("decoding JSON frame: {e}")))
        }
        WireFormat::Binary => cpa_data::codec::from_bytes(bytes)
            .map_err(|e| TransportError::Malformed(format!("decoding binary frame: {e}"))),
    }
}

/// Which reply envelope [`splice_reply`] wraps its rows in, beyond the
/// [`ReadKind`] that names the rows.
#[derive(Debug, Clone, Copy)]
pub enum Envelope<'a> {
    /// A full read: `Predictions { predictions, epoch }`, one row per item
    /// in item order. Predictions only — a full `Estimated` reply is not
    /// made of per-item rows.
    Full,
    /// An item-ranged read: `PredictedItems` / `EstimatedItems { items,
    /// <rows>, epoch }`, one row per requested item.
    Ranged(&'a [usize]),
    /// A push delta: `PredictedDelta` / `EstimatedDelta { items, <rows>,
    /// dirty_shards, epoch }`; `items == []` is the legal empty delta that
    /// only advances the epoch.
    Delta {
        /// The items the delta carries rows for, ascending.
        items: &'a [usize],
        /// The shards contributing those rows, ascending.
        dirty_shards: &'a [usize],
    },
}

/// Replaces `out` with the encoded body of a read reply built by
/// **splicing pre-encoded rows** into `envelope` — the one splicer behind
/// every view-served read reply (full, item-ranged and push delta).
/// `rows` yields one standalone encode of the reply's per-item element
/// (a `LabelSet` for [`ReadKind::Predictions`], an `ItemEstimate` for
/// [`ReadKind::Estimate`]) per row, in reply order, under `format`.
///
/// The envelope goes through [`encode`]'s writer and each row is copied in
/// verbatim ([`serde::Serializer::splice`]), so the body decodes to exactly
/// the owned `FleetReply`: under JSON it is byte-identical to [`encode`]-ing
/// that reply; under the binary codec each row re-introduces its keys.
///
/// # Panics
/// Panics on [`Envelope::Full`] with [`ReadKind::Estimate`].
pub fn splice_reply<'r>(
    out: &mut Vec<u8>,
    format: WireFormat,
    kind: ReadKind,
    envelope: Envelope<'_>,
    rows: impl ExactSizeIterator<Item = &'r [u8]>,
    epoch: u64,
) {
    out.clear();
    match format {
        WireFormat::Json => {
            let writer = &mut serde_json::Writer::new(out);
            write_envelope(writer, kind, envelope, rows, epoch);
        }
        WireFormat::Binary => {
            let writer = &mut cpa_data::codec::Writer::new(out);
            write_envelope(writer, kind, envelope, rows, epoch);
        }
    }
}

/// Writes the reply [`splice_reply`] describes into `s`, field by field in
/// the `FleetReply` variant's declaration order.
fn write_envelope<'r, S: Serializer>(
    s: &mut S,
    kind: ReadKind,
    envelope: Envelope<'_>,
    rows: impl ExactSizeIterator<Item = &'r [u8]>,
    epoch: u64,
) {
    let predictions = kind == ReadKind::Predictions;
    let (variant, items, dirty_shards) = match envelope {
        Envelope::Full if predictions => ("Predictions", None, None),
        Envelope::Full => panic!("a full Estimate reply is not spliced from rows"),
        Envelope::Ranged(items) if predictions => ("PredictedItems", Some(items), None),
        Envelope::Ranged(items) => ("EstimatedItems", Some(items), None),
        Envelope::Delta {
            items,
            dirty_shards,
        } if predictions => ("PredictedDelta", Some(items), Some(dirty_shards)),
        Envelope::Delta {
            items,
            dirty_shards,
        } => ("EstimatedDelta", Some(items), Some(dirty_shards)),
    };
    let rows_field = if predictions { "predictions" } else { "rows" };
    s.map(1);
    s.key(variant);
    s.map(2 + usize::from(items.is_some()) + usize::from(dirty_shards.is_some()));
    if let Some(items) = items {
        s.key("items");
        items.serialize(s);
    }
    s.key(rows_field);
    s.seq(rows.len());
    for row in rows {
        s.splice(row);
    }
    s.end();
    if let Some(dirty_shards) = dirty_shards {
        s.key("dirty_shards");
        dirty_shards.serialize(s);
    }
    s.key("epoch");
    s.scalar(serde::Value::UInt(epoch));
    s.end();
    s.end();
}

/// Client side of the handshake: sends the preamble requesting
/// [`WIRE_VERSION`], reads the ack, and reports the codec the server
/// granted — [`WireFormat::Binary`] on acceptance, [`WireFormat::Json`]
/// when the server refused (ack version `0`).
///
/// # Errors
/// [`TransportError::Truncated`] if the server hangs up mid-ack,
/// [`TransportError::Malformed`] if the ack does not echo the magic, or
/// any socket error.
pub fn client_handshake<S: Read + Write>(stream: &mut S) -> Result<WireFormat, TransportError> {
    let mut preamble = [0u8; 8];
    preamble[..4].copy_from_slice(&WIRE_MAGIC);
    preamble[4..].copy_from_slice(&WIRE_VERSION.to_be_bytes());
    stream.write_all(&preamble)?;
    stream.flush()?;

    let mut ack = [0u8; 8];
    let mut got = 0;
    while got < ack.len() {
        match stream.read(&mut ack[got..]) {
            Ok(0) => {
                return Err(TransportError::Truncated {
                    context: "wire handshake ack",
                    expected: ack.len(),
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
    if ack[..4] != WIRE_MAGIC {
        return Err(TransportError::Malformed(format!(
            "wire handshake ack does not start with {WIRE_MAGIC:?}: {:?}",
            &ack[..4]
        )));
    }
    let accepted = u32::from_be_bytes([ack[4], ack[5], ack[6], ack[7]]);
    Ok(if accepted == 0 {
        WireFormat::Json
    } else {
        WireFormat::Binary
    })
}

/// What the server learned from a connection's first four bytes.
pub(crate) enum Negotiated {
    /// The connection closed before sending anything.
    Closed,
    /// The codec to use, plus — for a JSON client — the first frame's
    /// payload, which arrived interleaved with the classification read.
    Format {
        /// The codec both sides will speak from here on.
        format: WireFormat,
        /// A JSON client's first op, already framed behind the length
        /// prefix we consumed to classify the connection. `None` for
        /// binary clients (their first op follows the acked preamble).
        pending: Option<Vec<u8>>,
    },
}

/// Server side of the handshake. Reads the first four bytes: the
/// [`WIRE_MAGIC`] preamble is answered with an ack granting
/// [`WIRE_VERSION`] if the client asked for it and `0` otherwise; anything
/// else is a JSON frame's length prefix, whose frame is read here and
/// handed back as `pending`.
///
/// # Errors
/// Framing errors as [`frame::read_frame_bytes_polling`].
pub(crate) fn server_handshake<S: Read + Write>(
    stream: &mut S,
    shutdown: &AtomicBool,
) -> Result<Negotiated, TransportError> {
    let Some(first) = frame::read_prefix(stream, Some(shutdown))? else {
        return Ok(Negotiated::Closed);
    };

    if first == WIRE_MAGIC {
        let version_bytes = frame::read_body(stream, 4, "wire handshake version", Some(shutdown))?;
        let requested = u32::from_be_bytes([
            version_bytes[0],
            version_bytes[1],
            version_bytes[2],
            version_bytes[3],
        ]);
        // Accept only the version we implement; `0` in the ack tells the
        // client to fall back.
        let accepted = if requested == WIRE_VERSION {
            requested
        } else {
            0
        };
        let mut ack = [0u8; 8];
        ack[..4].copy_from_slice(&WIRE_MAGIC);
        ack[4..].copy_from_slice(&accepted.to_be_bytes());
        stream.write_all(&ack)?;
        stream.flush()?;
        let format = if accepted == 0 {
            WireFormat::Json
        } else {
            WireFormat::Binary
        };
        return Ok(Negotiated::Format {
            format,
            pending: None,
        });
    }

    // Not the magic: these four bytes are a JSON frame's length prefix.
    let len = frame::check_frame_len(u32::from_be_bytes(first) as usize)?;
    let pending = frame::read_body(stream, len, "frame payload", Some(shutdown))?;
    Ok(Negotiated::Format {
        format: WireFormat::Json,
        pending: Some(pending),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_reads_as_an_impossible_frame_length() {
        // The whole fallback story rests on this: a server that predates
        // negotiation sees the preamble as an oversized frame, never as a
        // plausible payload length.
        let as_len = u32::from_be_bytes(WIRE_MAGIC) as usize;
        assert!(as_len > frame::MAX_FRAME_BYTES);
    }

    /// An in-memory peer: reads drain `incoming`, writes land in `sent`.
    struct Peer {
        incoming: std::io::Cursor<Vec<u8>>,
        sent: Vec<u8>,
    }

    impl Peer {
        fn new(incoming: Vec<u8>) -> Self {
            Peer {
                incoming: std::io::Cursor::new(incoming),
                sent: Vec::new(),
            }
        }
    }

    impl Read for Peer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.incoming.read(buf)
        }
    }

    impl Write for Peer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.sent.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A preamble or an ack: the magic, then `version`.
    fn hello(version: u32) -> Vec<u8> {
        [WIRE_MAGIC.as_slice(), &version.to_be_bytes()].concat()
    }

    #[test]
    fn the_client_falls_back_to_json_on_ack_zero() {
        let mut refused = Peer::new(hello(0));
        assert_eq!(client_handshake(&mut refused).unwrap(), WireFormat::Json);
        assert_eq!(
            refused.sent,
            hello(WIRE_VERSION),
            "the preamble asks for WIRE_VERSION"
        );
        let mut granted = Peer::new(hello(WIRE_VERSION));
        assert_eq!(client_handshake(&mut granted).unwrap(), WireFormat::Binary);
    }

    #[test]
    fn every_codec_has_a_view_cache_slot() {
        for format in [WireFormat::Json, WireFormat::Binary] {
            assert!(wire_slot(format) < cpa_serve::WIRE_SLOTS, "{format:?}");
        }
        assert_ne!(wire_slot(WireFormat::Json), wire_slot(WireFormat::Binary));
    }

    #[test]
    fn both_codecs_roundtrip_a_value() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Probe {
            name: String,
            weights: Vec<f64>,
        }
        let probe = Probe {
            name: "q7".to_string(),
            weights: vec![0.25, -1.5, 3.0],
        };
        for format in [WireFormat::Json, WireFormat::Binary] {
            let bytes = encode(format, &probe).unwrap();
            let back: Probe = decode(format, &bytes).unwrap();
            assert_eq!(back, probe, "{format:?}");
        }
    }

    /// One standalone encode per row — what the view's row caches hold.
    fn encoded<T: serde::Serialize>(format: WireFormat, rows: &[T]) -> Vec<Vec<u8>> {
        rows.iter()
            .map(|row| encode(format, row).unwrap())
            .collect()
    }

    #[test]
    fn the_splicer_reproduces_every_spliced_reply_shape() {
        use cpa_data::labels::LabelSet;
        use cpa_serve::{FleetReply, ItemEstimate};

        let predictions = [
            LabelSet::from_labels(4, vec![0, 3]),
            LabelSet::from_labels(4, vec![2]),
        ];
        let estimates = [
            ItemEstimate {
                soft: vec![(1, 0.5), (3, 0.5)],
                expected_size: 1.5,
            },
            ItemEstimate {
                soft: vec![(2, 1.0)],
                expected_size: 2.0,
            },
        ];
        let (all_items, dirty) = ([4usize, 9], [0usize, 2]);
        for format in [WireFormat::Json, WireFormat::Binary] {
            // Every shape with two rows, then with none.
            for n in [2, 0] {
                let items = &all_items[..n];
                let (p, e) = (predictions[..n].to_vec(), estimates[..n].to_vec());
                let (p_rows, e_rows) = (encoded(format, &p), encoded(format, &e));
                let (predicted, estimated) = (ReadKind::Predictions, ReadKind::Estimate);
                let delta = Envelope::Delta {
                    items,
                    dirty_shards: &dirty,
                };
                let cases = [
                    (
                        FleetReply::Predictions {
                            predictions: p.clone(),
                            epoch: 7,
                        },
                        predicted,
                        Envelope::Full,
                        &p_rows,
                    ),
                    (
                        FleetReply::PredictedItems {
                            items: items.to_vec(),
                            predictions: p.clone(),
                            epoch: 7,
                        },
                        predicted,
                        Envelope::Ranged(items),
                        &p_rows,
                    ),
                    (
                        FleetReply::EstimatedItems {
                            items: items.to_vec(),
                            rows: e.clone(),
                            epoch: 7,
                        },
                        estimated,
                        Envelope::Ranged(items),
                        &e_rows,
                    ),
                    (
                        FleetReply::PredictedDelta {
                            items: items.to_vec(),
                            predictions: p.clone(),
                            dirty_shards: dirty.to_vec(),
                            epoch: 7,
                        },
                        predicted,
                        delta,
                        &p_rows,
                    ),
                    (
                        FleetReply::EstimatedDelta {
                            items: items.to_vec(),
                            rows: e.clone(),
                            dirty_shards: dirty.to_vec(),
                            epoch: 7,
                        },
                        estimated,
                        delta,
                        &e_rows,
                    ),
                ];
                // One buffer across every case: each splice replaces it.
                let mut body = vec![0xAB; 3];
                for (owned, kind, envelope, rows) in cases {
                    let at = format!("{format:?} {} with {n} rows", owned.name());
                    let rows = rows.iter().map(Vec::as_slice);
                    splice_reply(&mut body, format, kind, envelope, rows, 7);
                    let back: FleetReply = decode(format, &body).unwrap();
                    assert_eq!(
                        serde_json::to_string(&back).unwrap(),
                        serde_json::to_string(&owned).unwrap(),
                        "{at}"
                    );
                    if format == WireFormat::Json {
                        // JSON splicing is byte-identical to encoding the
                        // owned reply; binary re-introduces interned keys
                        // (still decodes to the same value, checked above).
                        assert_eq!(body, encode(format, &owned).unwrap(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn binary_garbage_is_malformed_under_both_codecs() {
        let junk = [0xfeu8, 0xed, 0xfa, 0xce];
        for format in [WireFormat::Json, WireFormat::Binary] {
            let err = decode::<String>(format, &junk).unwrap_err();
            assert!(
                matches!(err, TransportError::Malformed(_)),
                "{format:?}: {err}"
            );
        }
    }
}
