//! The std-only **binary codec** over the serde shim's self-describing
//! data model — the compact counterpart of `serde_json`.
//!
//! Anything the workspace can serialize as JSON it can serialize through
//! this module instead, and neither direction builds a [`Value`] tree.
//! *Encoding* is a push-based [`serde::Serializer`] ([`Writer`], behind
//! [`to_bytes`]): the type hands it each scalar, string, key and container
//! header in turn, and slices of unsigned integers or floats as one slab
//! call each. *Decoding* is a pull-based [`serde::Deserializer`]
//! ([`from_bytes`]) that hands the target type each scalar, string, array
//! element and object key straight from the bytes — packed slabs element by
//! element, strings and interned keys borrowed — with the same semantics as
//! decoding the JSON text, so a type decoded from either encoding is the
//! same value.
//!
//! The binary layout exists for the wire (`cpa-transport` frames, including
//! the manifests `Snapshot`/`Restore` carry), where JSON's decimal numbers
//! and repeated field names dominate the byte count. Durable documents
//! (checkpoints, manifests, op-logs) are JSON.
//!
//! # Encoding
//!
//! One leading tag byte per value. Unsigned quantities (scalars, lengths,
//! counts, key references) are **LEB128 varints**; signed scalars are
//! zigzag varints; floats are fixed 8-byte **little-endian** `f64` bits:
//!
//! | tag    | value        | payload |
//! |--------|--------------|---------|
//! | `0x00` | null         | — |
//! | `0x01` | `false`      | — |
//! | `0x02` | `true`       | — |
//! | `0x03` | int          | zigzag varint |
//! | `0x04` | uint         | varint |
//! | `0x05` | float        | `f64` LE bits |
//! | `0x06` | string       | varint byte length + UTF-8 bytes |
//! | `0x07` | array        | varint count + encoded elements |
//! | `0x08` | object       | varint count + per entry: key token + value |
//! | `0x09` | packed uints | width byte (1/2/4/8) + varint count + `count × width` LE slab |
//! | `0x0a` | packed floats| varint count + bitmap of `⌈count / 8⌉` bytes + one entry per float |
//!
//! Two compressions carry the format:
//!
//! - **Packed slabs.** A slice of unsigned integers (CSR offsets,
//!   label-set blocks, worker lists) is stored as one raw slab at the
//!   smallest width that fits its maximum, and a slice of `f64`
//!   (variational parameter rows) as a float slab — exact bits, no
//!   decimal round-trip. An empty slice is a plain empty array. Other
//!   sequences (tuples, `Value` arrays) are plain arrays. Bit `k % 8` of bitmap byte `k / 8` is set exactly
//!   when entry `k` is `n as f64`, bit for bit, for an integer
//!   `0 ≤ n < 2^53`; that entry is the varint `n` (one byte for a
//!   Dirichlet parameter at its prior `1.0`), and every other entry (−0.0,
//!   NaN payloads, ±∞, negatives, fractions) keeps its 8 little-endian
//!   bytes. A varint entry of `2^53` or more, or a bitmap bit past the last
//!   entry, is malformed, so every slab has one encoding. Both slab kinds
//!   decode as plain arrays of numbers, so packing is invisible above the
//!   codec.
//! - **Key interning.** Object keys repeat endlessly in CSR entry lists
//!   (`num_labels`, `blocks`, ...). A key token of `0` introduces a new
//!   key (varint length + bytes) and appends it to a document-wide table;
//!   a token `n > 0` references table entry `n − 1`. Writer and reader
//!   meet the keys in the same order, so the tables agree by
//!   construction — except after a spliced value ([`Writer`]), whose
//!   introductions only the reader sees; from there the writer spells out
//!   every key it has not interned yet.
//!
//! Decoding is hardened the same way the transport frames are: every
//! declared length is checked against the bytes actually remaining
//! *before* anything is allocated, truncation names what was being read,
//! nesting deeper than [`serde::MAX_DEPTH`] levels is rejected (so no
//! document can overflow the decoding thread's stack), and trailing bytes
//! after the root value are rejected.

use serde::{Deserialize, Deserializer, Kind, Serialize, Serializer, Str, Value};
use std::collections::HashMap;

/// Why a binary payload could not be decoded.
#[derive(Debug)]
pub enum CodecError {
    /// The payload ended before a declared length was satisfied.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Bytes the declaration still owed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The payload violates the format (unknown tag, bad width, bad
    /// varint, bad key reference, bad UTF-8, nesting too deep, trailing
    /// bytes).
    Malformed(String),
    /// The payload is well formed, but the target type rejected it.
    Decode(serde::Error),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated {
                context,
                expected,
                got,
            } => write!(
                f,
                "binary payload truncated while reading {context} \
                 ({got} of {expected} bytes)"
            ),
            CodecError::Malformed(msg) => write!(f, "malformed binary payload: {msg}"),
            CodecError::Decode(e) => write!(f, "binary payload decodes, but: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---- tags ------------------------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_UINT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;
const TAG_PACKED_UINT: u8 = 0x09;
const TAG_PACKED_FLOAT: u8 = 0x0a;

/// Integral float-slab entries are stored as varints below this bound;
/// every integer below it is exactly representable as an `f64`.
const FLOAT_VARINT_LIMIT: u64 = 1 << 53;

// ---- encoding --------------------------------------------------------------

/// Serializes any shim-serializable type to the binary encoding.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.serialize(&mut Writer::new(&mut out));
    out
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// The binary [`Serializer`]: appends one document to a byte buffer.
///
/// [`Serializer::splice`] copies a standalone encode of a value (one whose
/// keys are all introductions, as an encode that repeats no key is) into
/// the document. The decoder appends the copy's keys to its key table at
/// positions this writer never learns, so from then on a key this writer
/// has not interned yet is written in full each time.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// Interned object keys → table index, in first-seen order.
    keys: HashMap<String, u64>,
    /// A spliced value has extended the decoder's key table.
    spliced: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            keys: HashMap::new(),
            spliced: false,
        }
    }

    fn tagged(&mut self, tag: u8, v: u64) {
        self.out.push(tag);
        push_varint(self.out, v);
    }
}

impl Serializer for Writer<'_> {
    fn scalar(&mut self, v: Value) {
        match v {
            Value::Null => self.out.push(TAG_NULL),
            Value::Bool(b) => self.out.push(if b { TAG_TRUE } else { TAG_FALSE }),
            Value::Int(i) => self.tagged(TAG_INT, zigzag(i)),
            Value::UInt(u) => self.tagged(TAG_UINT, u),
            Value::Float(f) => {
                self.out.push(TAG_FLOAT);
                self.out.extend_from_slice(&f.to_le_bytes());
            }
            other => other.serialize(self),
        }
    }

    fn str(&mut self, v: &str) {
        self.tagged(TAG_STR, v.len() as u64);
        self.out.extend_from_slice(v.as_bytes());
    }

    fn seq(&mut self, len: usize) {
        self.tagged(TAG_ARRAY, len as u64);
    }

    fn map(&mut self, len: usize) {
        self.tagged(TAG_OBJECT, len as u64);
    }

    fn key(&mut self, key: &str) {
        if let Some(&index) = self.keys.get(key) {
            return push_varint(self.out, index + 1);
        }
        if !self.spliced {
            self.keys.insert(key.to_owned(), self.keys.len() as u64);
        }
        self.tagged(0, key.len() as u64);
        self.out.extend_from_slice(key.as_bytes());
    }

    fn end(&mut self) {}

    fn u64s(&mut self, items: impl ExactSizeIterator<Item = u64> + Clone) {
        let Some(max) = items.clone().max() else {
            return self.seq(0);
        };
        let width = match max {
            0..=0xff => 1,
            0x100..=0xffff => 2,
            0x1_0000..=0xffff_ffff => 4,
            _ => 8,
        };
        self.out.extend_from_slice(&[TAG_PACKED_UINT, width as u8]);
        push_varint(self.out, items.len() as u64);
        for u in items {
            self.out.extend_from_slice(&u.to_le_bytes()[..width]);
        }
    }

    fn f64s(&mut self, items: &[f64]) {
        if items.is_empty() {
            return self.seq(0);
        }
        self.tagged(TAG_PACKED_FLOAT, items.len() as u64);
        let bitmap = self.out.len();
        self.out.resize(bitmap + items.len().div_ceil(8), 0);
        for (k, &f) in items.iter().enumerate() {
            // The cast saturates (NaN → 0); the bit comparison rejects
            // every value it changed, −0.0 included.
            let n = f as u64;
            if n < FLOAT_VARINT_LIMIT && (n as f64).to_bits() == f.to_bits() {
                self.out[bitmap + k / 8] |= 1 << (k % 8);
                push_varint(self.out, n);
            } else {
                self.out.extend_from_slice(&f.to_le_bytes());
            }
        }
    }

    fn splice(&mut self, encoded: &[u8]) {
        self.out.extend_from_slice(encoded);
        self.spliced = true;
    }
}

// ---- decoding --------------------------------------------------------------

/// Deserializes any shim-deserializable type from the binary encoding,
/// reading straight from the bytes: no [`Value`] tree is built unless
/// `T` is [`Value`].
///
/// # Errors
/// [`CodecError::Truncated`]/[`CodecError::Malformed`] on a bad payload
/// (including nesting deeper than [`serde::MAX_DEPTH`] and trailing
/// bytes), [`CodecError::Decode`] when the payload is well formed but the
/// target type rejects it.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut reader = Reader {
        bytes,
        pos: 0,
        keys: Vec::new(),
        open: Vec::new(),
        fault: None,
    };
    let value = T::deserialize(&mut reader)
        .map_err(|e| reader.fault.take().unwrap_or(CodecError::Decode(e)))?;
    if reader.pos != bytes.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing bytes after the root value",
            bytes.len() - reader.pos
        )));
    }
    Ok(value)
}

/// Pull reader over one binary document.
struct Reader<'de> {
    bytes: &'de [u8],
    pos: usize,
    /// Interned object keys, in first-seen order (mirrors the encoder's).
    keys: Vec<&'de str>,
    /// Open arrays and objects, innermost last.
    open: Vec<Open>,
    /// The format fault behind the error being returned, kept typed:
    /// [`Deserializer`] methods can only return a [`serde::Error`].
    fault: Option<CodecError>,
}

/// One open array or object: entries still unread, and whether the
/// entries are a packed slab rather than tagged values.
#[derive(Clone, Copy)]
struct Open {
    remaining: usize,
    slab: Slab,
}

#[derive(Clone, Copy, PartialEq)]
enum Slab {
    /// Tagged values (every object, and unpacked arrays).
    Tagged,
    /// Raw little-endian uints of this many bytes each.
    Uint(usize),
    /// `count` float entries: varints where the bitmap at document offset
    /// `bitmap` has the entry's bit set, raw little-endian `f64` bits
    /// elsewhere.
    Float { bitmap: usize, count: usize },
}

impl<'de> Reader<'de> {
    #[inline]
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Borrows the next `n` bytes, or reports what was being read.
    #[inline]
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'de [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                context,
                expected: n,
                got: self.remaining(),
            });
        }
        let bytes: &'de [u8] = self.bytes;
        self.pos += n;
        Ok(&bytes[self.pos - n..self.pos])
    }

    #[inline]
    fn take_varint(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1, context)?[0];
            let part = (byte & 0x7f) as u64;
            if shift == 63 && part > 1 {
                break; // would overflow 64 bits — fall through to the error
            }
            value |= part << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CodecError::Malformed(format!(
            "varint for {context} exceeds 64 bits"
        )))
    }

    /// Varint that must also fit in addressable length space.
    #[inline]
    fn take_len(&mut self, context: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.take_varint(context)?)
            .map_err(|_| CodecError::Malformed(format!("{context} exceeds usize")))
    }

    #[inline]
    fn take_str(
        &mut self,
        len_ctx: &'static str,
        ctx: &'static str,
    ) -> Result<&'de str, CodecError> {
        let len = self.take_len(len_ctx)?;
        let bytes = self.take(len, ctx)?;
        std::str::from_utf8(bytes)
            .map_err(|e| CodecError::Malformed(format!("{ctx} is not UTF-8: {e}")))
    }

    #[inline]
    fn f64_bits(&mut self, context: &'static str) -> Result<f64, CodecError> {
        let b = self.take(8, context)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8")))
    }

    /// The slab the next value comes from, if the innermost open array is
    /// packed.
    #[inline]
    fn slab(&self) -> Slab {
        self.open.last().map_or(Slab::Tagged, |open| open.slab)
    }

    /// The next value's tag, not consumed.
    #[inline]
    fn tag(&self) -> Result<u8, CodecError> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or(CodecError::Truncated {
                context: "value tag",
                expected: 1,
                got: 0,
            })
    }

    /// Converts an internal error for the [`Deserializer`] surface,
    /// keeping a format fault typed in [`Reader::fault`].
    fn fail(&mut self, e: CodecError) -> serde::Error {
        match e {
            CodecError::Decode(e) => e,
            fault => {
                let e = serde::Error::custom(&fault);
                self.fault = Some(fault);
                e
            }
        }
    }

    /// The "expected X, found Y" error for the value at the cursor.
    fn mismatch(&self, expected: &str) -> CodecError {
        let found = match self.slab() {
            Slab::Uint(_) => Value::UInt(0),
            Slab::Float { .. } => Value::Float(0.0),
            Slab::Tagged => match self.tag() {
                Ok(TAG_NULL) => Value::Null,
                Ok(TAG_FALSE | TAG_TRUE) => Value::Bool(false),
                Ok(TAG_INT | TAG_UINT) => Value::UInt(0),
                Ok(TAG_FLOAT) => Value::Float(0.0),
                Ok(TAG_STR) => Value::Str(String::new()),
                Ok(TAG_ARRAY | TAG_PACKED_UINT | TAG_PACKED_FLOAT) => Value::Array(Vec::new()),
                Ok(TAG_OBJECT) => Value::Object(Vec::new()),
                Ok(other) => return unknown_tag(other),
                Err(e) => return e,
            },
        };
        CodecError::Decode(serde::Error::mismatch(expected, &found))
    }

    /// Enters an array or object of `remaining` entries.
    #[inline]
    fn enter(&mut self, remaining: usize, slab: Slab) -> Result<(), CodecError> {
        if self.open.len() == serde::MAX_DEPTH {
            return Err(CodecError::Malformed(format!(
                "nesting deeper than {} levels",
                serde::MAX_DEPTH
            )));
        }
        self.open.push(Open { remaining, slab });
        Ok(())
    }

    /// Counts off the innermost open container's next entry; `false`
    /// (after leaving it) once it has none left.
    #[inline]
    fn next_entry(&mut self) -> Result<bool, CodecError> {
        let open = self
            .open
            .last_mut()
            .ok_or_else(|| CodecError::Malformed("no open array or object".into()))?;
        if open.remaining == 0 {
            self.open.pop();
            return Ok(false);
        }
        open.remaining -= 1;
        Ok(true)
    }

    #[inline]
    fn read_scalar(&mut self, expected: &str) -> Result<Value, CodecError> {
        if let Some(&Open { remaining, slab }) = self.open.last() {
            match slab {
                Slab::Uint(width) => {
                    let mut le = [0u8; 8];
                    le[..width].copy_from_slice(self.take(width, "packed uint slab")?);
                    return Ok(Value::UInt(u64::from_le_bytes(le)));
                }
                Slab::Float { bitmap, count } => {
                    // `next_entry` already counted this entry off.
                    let k = count - remaining - 1;
                    if self.bytes[bitmap + k / 8] & (1 << (k % 8)) == 0 {
                        return Ok(Value::Float(self.f64_bits("packed float slab")?));
                    }
                    let n = self.take_varint("packed float varint")?;
                    if n >= FLOAT_VARINT_LIMIT {
                        return Err(CodecError::Malformed(format!(
                            "packed float varint {n} is not below 2^53"
                        )));
                    }
                    return Ok(Value::Float(n as f64));
                }
                Slab::Tagged => {}
            }
        }
        let tag = self.tag()?;
        if !matches!(
            tag,
            TAG_NULL | TAG_FALSE | TAG_TRUE | TAG_INT | TAG_UINT | TAG_FLOAT
        ) {
            return Err(self.mismatch(expected));
        }
        self.pos += 1;
        Ok(match tag {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(unzigzag(self.take_varint("int scalar")?)),
            TAG_UINT => Value::UInt(self.take_varint("uint scalar")?),
            _ => Value::Float(self.f64_bits("float payload")?),
        })
    }

    #[inline]
    fn read_string(&mut self, expected: &str) -> Result<&'de str, CodecError> {
        if self.slab() != Slab::Tagged || self.tag()? != TAG_STR {
            return Err(self.mismatch(expected));
        }
        self.pos += 1;
        self.take_str("string length", "string payload")
    }

    #[inline]
    fn read_seq(&mut self, expected: &str) -> Result<usize, CodecError> {
        if self.slab() != Slab::Tagged {
            return Err(self.mismatch(expected));
        }
        let (count, slab) = match self.tag()? {
            TAG_ARRAY => {
                self.pos += 1;
                let count = self.take_len("array count")?;
                // Each element costs at least its tag byte, so a count the
                // remaining bytes cannot cover is rejected before decoding.
                if count > self.remaining() {
                    return Err(CodecError::Truncated {
                        context: "array elements",
                        expected: count,
                        got: self.remaining(),
                    });
                }
                (count, Slab::Tagged)
            }
            tag @ (TAG_PACKED_UINT | TAG_PACKED_FLOAT) => {
                self.pos += 1;
                let width = if tag == TAG_PACKED_UINT {
                    let width = self.take(1, "packed width")?[0];
                    if !matches!(width, 1 | 2 | 4 | 8) {
                        return Err(CodecError::Malformed(format!(
                            "packed uint width {width} (expected 1, 2, 4, or 8)"
                        )));
                    }
                    usize::from(width)
                } else {
                    8
                };
                let count = self.take_len("packed count")?;
                let (slab, varints, context) = if tag == TAG_PACKED_UINT {
                    (Slab::Uint(width), 0, "packed uint slab")
                } else {
                    let bitmap = self.pos;
                    let bits = self.take(count.div_ceil(8), "packed float bitmap")?;
                    if count % 8 != 0 && bits[bits.len() - 1] >> (count % 8) != 0 {
                        return Err(CodecError::Malformed(
                            "packed float bitmap marks entries past the slab".into(),
                        ));
                    }
                    let varints = bits.iter().map(|b| b.count_ones() as usize).sum();
                    (Slab::Float { bitmap, count }, varints, "packed float slab")
                };
                // A varint entry costs at least one byte.
                let need = (count - varints)
                    .checked_mul(width)
                    .and_then(|raw| raw.checked_add(varints))
                    .ok_or_else(|| CodecError::Malformed("packed slab overflows".into()))?;
                if need > self.remaining() {
                    return Err(CodecError::Truncated {
                        context,
                        expected: need,
                        got: self.remaining(),
                    });
                }
                (count, slab)
            }
            _ => return Err(self.mismatch(expected)),
        };
        self.enter(count, slab)?;
        Ok(count)
    }

    #[inline]
    fn read_map(&mut self, expected: &str) -> Result<(), CodecError> {
        if self.slab() != Slab::Tagged || self.tag()? != TAG_OBJECT {
            return Err(self.mismatch(expected));
        }
        self.pos += 1;
        let count = self.take_len("object count")?;
        // Each entry costs at least a key token + value tag.
        if count.saturating_mul(2) > self.remaining() {
            return Err(CodecError::Truncated {
                context: "object entries",
                expected: count.saturating_mul(2),
                got: self.remaining(),
            });
        }
        self.enter(count, Slab::Tagged)
    }

    #[inline]
    fn read_key(&mut self) -> Result<Option<&'de str>, CodecError> {
        if !self.next_entry()? {
            return Ok(None);
        }
        let token = self.take_varint("object key token")?;
        if token == 0 {
            let key = self.take_str("object key length", "object key")?;
            self.keys.push(key);
            return Ok(Some(key));
        }
        let index = (token - 1) as usize;
        match self.keys.get(index) {
            Some(&key) => Ok(Some(key)),
            None => Err(CodecError::Malformed(format!(
                "object key reference {index} exceeds the {} interned keys",
                self.keys.len()
            ))),
        }
    }
}

fn unknown_tag(tag: u8) -> CodecError {
    CodecError::Malformed(format!("unknown value tag 0x{tag:02x}"))
}

impl<'de> Deserializer<'de> for Reader<'de> {
    #[inline]
    fn peek(&mut self) -> Result<Kind, serde::Error> {
        if self.slab() != Slab::Tagged {
            return Ok(Kind::Number);
        }
        match self.tag() {
            Ok(TAG_NULL) => Ok(Kind::Null),
            Ok(TAG_FALSE | TAG_TRUE) => Ok(Kind::Bool),
            Ok(TAG_INT | TAG_UINT | TAG_FLOAT) => Ok(Kind::Number),
            Ok(TAG_STR) => Ok(Kind::Str),
            Ok(TAG_ARRAY | TAG_PACKED_UINT | TAG_PACKED_FLOAT) => Ok(Kind::Array),
            Ok(TAG_OBJECT) => Ok(Kind::Object),
            Ok(other) => Err(self.fail(unknown_tag(other))),
            Err(e) => Err(self.fail(e)),
        }
    }

    #[inline]
    fn scalar(&mut self, expected: &str) -> Result<Value, serde::Error> {
        self.read_scalar(expected).map_err(|e| self.fail(e))
    }

    #[inline]
    fn string(&mut self, expected: &str) -> Result<Str<'de, '_>, serde::Error> {
        match self.read_string(expected) {
            Ok(s) => Ok(Str::Borrowed(s)),
            Err(e) => Err(self.fail(e)),
        }
    }

    #[inline]
    fn seq(&mut self, expected: &str) -> Result<Option<usize>, serde::Error> {
        self.read_seq(expected).map(Some).map_err(|e| self.fail(e))
    }

    #[inline]
    fn next_element(&mut self) -> Result<bool, serde::Error> {
        self.next_entry().map_err(|e| self.fail(e))
    }

    #[inline]
    fn map(&mut self, expected: &str) -> Result<(), serde::Error> {
        self.read_map(expected).map_err(|e| self.fail(e))
    }

    #[inline]
    fn next_key(&mut self) -> Result<Option<Str<'de, '_>>, serde::Error> {
        match self.read_key() {
            Ok(key) => Ok(key.map(Str::Borrowed)),
            Err(e) => Err(self.fail(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: Value) {
        let bytes = to_bytes(&value);
        assert_eq!(from_bytes::<Value>(&bytes).unwrap(), value, "{bytes:?}");
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-7),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::UInt(0),
            Value::UInt(u64::MAX),
            Value::Float(0.1),
            Value::Float(-f64::MIN_POSITIVE),
            Value::Str(String::new()),
            Value::Str("héllo\n\"world\"".into()),
        ] {
            roundtrip(v);
        }
    }

    #[test]
    fn varints_stay_small_for_small_scalars() {
        // Tag + 1 varint byte for anything under 128.
        assert_eq!(to_bytes(&127u64).len(), 2);
        assert_eq!(to_bytes(&-63i64).len(), 2);
        assert_eq!(to_bytes(&u64::MAX).len(), 11);
    }

    #[test]
    fn non_finite_floats_keep_their_bits() {
        // JSON degrades non-finite floats to null; the binary codec is
        // exact.
        let bytes = to_bytes(&f64::NEG_INFINITY);
        assert_eq!(
            from_bytes::<Value>(&bytes).unwrap(),
            Value::Float(f64::NEG_INFINITY)
        );
        let bytes = to_bytes(&[f64::NAN, 2.0][..]);
        let Value::Array(items) = from_bytes::<Value>(&bytes).unwrap() else {
            panic!("array expected");
        };
        assert!(matches!(items[0], Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Value::Array(vec![]));
        roundtrip(Value::Object(vec![]));
        roundtrip(Value::Array(vec![
            Value::UInt(1),
            Value::Str("mixed".into()),
            Value::Array(vec![Value::Float(1.5), Value::Float(2.5)]),
        ]));
        roundtrip(Value::Object(vec![
            ("offsets".into(), Value::Array(vec![Value::UInt(300)])),
            (
                "nested".into(),
                Value::Object(vec![("k".into(), Value::Null)]),
            ),
        ]));
    }

    #[test]
    fn repeated_object_keys_are_interned() {
        let entry = |n: u64| {
            Value::Object(vec![
                ("num_labels".into(), Value::UInt(n)),
                ("blocks".into(), Value::Array(vec![Value::UInt(n)])),
            ])
        };
        let many = Value::Array((0..100).map(entry).collect());
        let bytes = to_bytes(&many);
        // Keys are spelled out once; every later entry pays ~1 byte per key.
        let key_bytes = "num_labelsblocks".len();
        assert!(
            bytes.len() < key_bytes + 100 * 12,
            "{} bytes — keys not interned?",
            bytes.len()
        );
        roundtrip(many);
    }

    #[test]
    fn uint_arrays_pack_at_minimal_width() {
        let small = to_bytes(&vec![9u64; 100]);
        // 1 tag + 1 width + 1 varint count + 100 × 1 byte.
        assert_eq!(small.len(), 103);
        assert_eq!(small[0], TAG_PACKED_UINT);
        assert_eq!(small[1], 1);
        let wide = to_bytes(&vec![1u64 << 40; 100]);
        assert_eq!(wide.len(), 3 + 800);
        let values: Vec<u64> = (0..1000).map(|u| u * 77).collect();
        let bytes = to_bytes(&values);
        assert_eq!(from_bytes::<Vec<u64>>(&bytes).unwrap(), values);
        let tree = Value::Array(values.into_iter().map(Value::UInt).collect());
        assert_eq!(from_bytes::<Value>(&bytes).unwrap(), tree);
    }

    #[test]
    fn float_arrays_pack_as_f64_slabs() {
        // i / 7 is integral for the 10 multiples of 7 below 64 (0 to 9,
        // one varint byte each); the other 54 entries keep 8 bytes.
        let values: Vec<f64> = (0..64).map(|i| i as f64 / 7.0).collect();
        let bytes = to_bytes(&values);
        assert_eq!(bytes[0], TAG_PACKED_FLOAT);
        assert_eq!(bytes.len(), 2 + 8 + 54 * 8 + 10);
        assert_floats_roundtrip_bitwise(&values);
    }

    /// Decodes `floats` back through both a typed and a `Value` target
    /// and compares every entry bit for bit (NaN ≠ NaN under `==`).
    fn assert_floats_roundtrip_bitwise(floats: &[f64]) {
        let bits = |fs: &[f64]| fs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let bytes = to_bytes(floats);
        let typed: Vec<f64> = from_bytes(&bytes).unwrap();
        assert_eq!(bits(&typed), bits(floats));
        let Value::Array(items) = from_bytes::<Value>(&bytes).unwrap() else {
            panic!("array expected");
        };
        let from_value: Vec<f64> = items
            .iter()
            .map(|v| match v {
                Value::Float(f) => *f,
                other => panic!("float expected, got {other:?}"),
            })
            .collect();
        assert_eq!(bits(&from_value), bits(floats));
    }

    #[test]
    fn float_slabs_roundtrip_every_bit_pattern() {
        let limit = FLOAT_VARINT_LIMIT as f64;
        let floats = [
            1.0,
            0.0,
            -0.0,
            f64::from_bits(0x7ff8_0000_0000_1234), // NaN with a payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1), // smallest subnormal
            limit - 1.0,
            limit,
            0.1,
            -3.0,
        ];
        assert_floats_roundtrip_bitwise(&floats);
        let bytes = to_bytes(&floats[..]);
        // Entries 0, 1 and 7 (1.0, 0.0, 2^53 − 1) are varints; nothing else.
        assert_eq!(&bytes[2..4], &[0b1000_0011, 0]);
    }

    #[test]
    fn integral_floats_cost_one_varint_each() {
        let ones = to_bytes(&vec![1.0f64; 100]);
        // Tag + count + 13-byte bitmap + one byte per entry.
        assert!(ones.len() <= 1 + 1 + 13 + 100, "{} bytes", ones.len());
        assert_floats_roundtrip_bitwise(&[1.0; 100]);
        // A slab with no integral entry grows by its bitmap only.
        let fractions: Vec<f64> = (0..64).map(|i| (i as f64 + 0.5) / 7.0).collect();
        let bytes = to_bytes(&fractions);
        assert_eq!(bytes.len(), 2 + 8 + 64 * 8);
        assert_floats_roundtrip_bitwise(&fractions);
    }

    #[test]
    fn float_slabs_have_one_encoding() {
        // A varint entry of 2^53 decodes to an f64 that is stored raw.
        let mut bytes = vec![TAG_PACKED_FLOAT, 1, 0b1];
        push_varint(&mut bytes, FLOAT_VARINT_LIMIT);
        let err = from_bytes::<Value>(&bytes).unwrap_err();
        assert!(
            matches!(&err, CodecError::Malformed(msg) if msg.contains("2^53")),
            "{err}"
        );
        // A bitmap bit past the last entry.
        let bytes = [TAG_PACKED_FLOAT, 1, 0b11, 5];
        let err = from_bytes::<Value>(&bytes).unwrap_err();
        assert!(
            matches!(&err, CodecError::Malformed(msg) if msg.contains("past the slab")),
            "{err}"
        );
    }

    #[test]
    fn mixed_numeric_arrays_stay_generic() {
        // An Int disqualifies uint packing; exactness survives either way.
        roundtrip(Value::Array(vec![Value::Int(-1), Value::UInt(1)]));
        roundtrip(Value::Array(vec![Value::Float(1.0), Value::UInt(1)]));
    }

    #[test]
    fn typed_values_roundtrip_like_json() {
        let v: Vec<(u32, String)> = vec![(1, "a".into()), (2, "b\n".into())];
        let back: Vec<(u32, String)> = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(back, v);
        let offsets: Vec<usize> = (0..257).collect();
        let back: Vec<usize> = from_bytes(&to_bytes(&offsets)).unwrap();
        assert_eq!(back, offsets);
    }

    #[test]
    fn truncations_name_what_was_cut() {
        let bytes = to_bytes(&"hello".to_string());
        let err = from_bytes::<Value>(&bytes[..bytes.len() - 2]).unwrap_err();
        assert!(
            matches!(err, CodecError::Truncated { context, expected: 5, got: 3 }
                if context == "string payload"),
            "{err}"
        );
        let err = from_bytes::<Value>(&[TAG_FLOAT, 1, 2]).unwrap_err();
        assert!(
            matches!(err, CodecError::Truncated { context, .. } if context == "float payload"),
            "{err}"
        );
        // A varint cut mid-continuation.
        let err = from_bytes::<Value>(&[TAG_UINT, 0x80]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err}");
    }

    #[test]
    fn oversized_declarations_are_rejected_before_allocation() {
        // An array claiming ~u32::MAX elements with 2 bytes behind it.
        let mut bytes = vec![TAG_ARRAY];
        push_varint(&mut bytes, u64::from(u32::MAX));
        bytes.extend_from_slice(&[TAG_NULL, TAG_NULL]);
        let err = from_bytes::<Value>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err}");
        // A packed slab claiming more than remains.
        let mut bytes = vec![TAG_PACKED_UINT, 8];
        push_varint(&mut bytes, u64::from(u32::MAX));
        let err = from_bytes::<Value>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err}");
        // A float slab whose bitmap is cut short, and one whose bitmap
        // promises more entries than the bytes behind it carry (two raw
        // entries need 16 bytes; 9 remain).
        let mut bytes = vec![TAG_PACKED_FLOAT];
        push_varint(&mut bytes, u64::from(u32::MAX));
        let err = from_bytes::<Value>(&bytes).unwrap_err();
        assert!(
            matches!(err, CodecError::Truncated { context, .. } if context == "packed float bitmap"),
            "{err}"
        );
        let mut bytes = vec![TAG_PACKED_FLOAT, 2, 0];
        bytes.extend_from_slice(&[0; 9]);
        let err = from_bytes::<Value>(&bytes).unwrap_err();
        assert!(
            matches!(err, CodecError::Truncated { context, expected: 16, got: 9 }
                if context == "packed float slab"),
            "{err}"
        );
        // An object claiming entries its bytes cannot carry.
        let mut bytes = vec![TAG_OBJECT];
        push_varint(&mut bytes, 1000);
        let err = from_bytes::<Value>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err}");
    }

    #[test]
    fn unknown_tags_widths_and_key_refs_are_malformed() {
        assert!(matches!(
            from_bytes::<Value>(&[0x7f]).unwrap_err(),
            CodecError::Malformed(_)
        ));
        let mut bytes = vec![TAG_PACKED_UINT, 3];
        push_varint(&mut bytes, 0);
        assert!(matches!(
            from_bytes::<Value>(&bytes).unwrap_err(),
            CodecError::Malformed(_)
        ));
        // A key token referencing an entry that was never interned.
        let mut bytes = vec![TAG_OBJECT];
        push_varint(&mut bytes, 1);
        push_varint(&mut bytes, 5); // reference to key 4 in an empty table
        bytes.push(TAG_NULL);
        let err = from_bytes::<Value>(&bytes).unwrap_err();
        assert!(
            matches!(&err, CodecError::Malformed(msg) if msg.contains("key reference")),
            "{err}"
        );
        // An 11-byte varint (overflowing 64 bits).
        let bytes = [
            TAG_UINT, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
        ];
        assert!(matches!(
            from_bytes::<Value>(&bytes).unwrap_err(),
            CodecError::Malformed(_)
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&Value::Null);
        bytes.push(0);
        let err = from_bytes::<Value>(&bytes).unwrap_err();
        assert!(
            matches!(&err, CodecError::Malformed(msg) if msg.contains("trailing")),
            "{err}"
        );
    }

    /// `depth` nested one-element arrays around a `0`.
    fn nested(depth: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        for _ in 0..depth {
            w.seq(1);
        }
        w.scalar(Value::UInt(0));
        out
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let too_deep = |err: &CodecError| matches!(err, CodecError::Malformed(msg) if msg.contains("nesting deeper than 128"));
        assert!(from_bytes::<Value>(&nested(serde::MAX_DEPTH)).is_ok());
        for depth in [serde::MAX_DEPTH + 1, 100_000] {
            let err = from_bytes::<Value>(&nested(depth)).unwrap_err();
            assert!(too_deep(&err), "{err}");
        }
        // Inside a field the decoder skips: still a typed error, not a
        // stack overflow.
        #[derive(Debug, serde::Deserialize)]
        struct Unit;
        let mut doc = Vec::new();
        let mut w = Writer::new(&mut doc);
        w.map(1);
        w.key("skipped");
        w.splice(&nested(100_000));
        let err = from_bytes::<Unit>(&doc).unwrap_err();
        assert!(too_deep(&err), "{err}");
    }

    #[test]
    fn packed_slabs_decode_into_typed_sequences() {
        // Uint slabs of every width, a float slab, and a slab where the
        // target type wants something else.
        for max in [9u64, 300, 70_000, 1 << 40] {
            let values: Vec<u64> = (0..5).map(|k| max - k).collect();
            assert_eq!(from_bytes::<Vec<u64>>(&to_bytes(&values)).unwrap(), values);
        }
        let pairs: Vec<(u32, u32)> = vec![(1, 2), (3, 4)];
        assert_eq!(
            from_bytes::<Vec<(u32, u32)>>(&to_bytes(&pairs)).unwrap(),
            pairs
        );
        let floats = vec![0.5, f64::NEG_INFINITY, -0.0];
        let back: Vec<f64> = from_bytes(&to_bytes(&floats)).unwrap();
        assert_eq!(back.len(), 3);
        assert!(back
            .iter()
            .zip(&floats)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let err = from_bytes::<Vec<String>>(&to_bytes(&vec![1u64, 2])).unwrap_err();
        assert!(
            matches!(&err, CodecError::Decode(e) if e.to_string() == "expected string, found integer"),
            "{err}"
        );
    }

    #[test]
    fn a_key_first_seen_after_a_spliced_row_is_written_in_full() {
        // Rows are standalone encodes, as the transport's row caches hold.
        let row = |n: u64| Value::Object(vec![("n".into(), Value::UInt(n))]);
        let rows: Vec<Vec<u8>> = (0..2).map(|n| to_bytes(&row(n))).collect();
        let mut doc = Vec::new();
        let mut w = Writer::new(&mut doc);
        w.map(3);
        w.key("rows");
        w.seq(2);
        for row in &rows {
            w.splice(row);
        }
        w.end();
        // `epoch` and `tail` are first seen after the rows, `epoch` twice;
        // `rows` was interned before them.
        w.key("epoch");
        w.scalar(Value::UInt(9));
        w.key("tail");
        w.map(2);
        w.key("epoch");
        w.scalar(Value::UInt(10));
        w.key("rows");
        w.seq(0);
        w.end();
        w.end();
        w.end();
        let owned = Value::Object(vec![
            ("rows".into(), Value::Array(vec![row(0), row(1)])),
            ("epoch".into(), Value::UInt(9)),
            (
                "tail".into(),
                Value::Object(vec![
                    ("epoch".into(), Value::UInt(10)),
                    ("rows".into(), Value::Array(vec![])),
                ]),
            ),
        ]);
        assert_eq!(from_bytes::<Value>(&doc).unwrap(), owned);
    }
}
