//! Offline stand-in for `serde`: [`Serialize`] writes a type by **pushing**
//! into a [`Serializer`] — one call per scalar, string, key and container
//! header — and [`Deserialize`] rebuilds a type by **pulling** from a
//! [`Deserializer`], a reader that hands out the next scalar, string, array
//! element or object key straight from its source. Neither direction builds
//! a [`Value`] tree unless a [`Value`] is asked for: [`to_value`] writes
//! one and [`from_value`] reads one. The companion `serde_json` shim writes
//! and reads JSON text the same way. See `shims/README.md`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// Self-describing data model: the tree [`to_value`] builds and
/// [`from_value`] reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (kept exact, never via `f64`).
    Int(i64),
    /// Unsigned integer (kept exact, never via `f64`).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object: insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the object entries, or `None` for non-objects.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Borrows the array elements, or `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric view as `f64` (accepts any numeric variant).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Numeric view as `u64` (exact; rejects negatives, fractions and
    /// floats from 2^64 up).
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) if i >= 0 => Some(i as u64),
            // `u64::MAX as f64` rounds up to 2^64, so the bound is strict.
            Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f < u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// Numeric view as `i64` (exact; rejects fractions and anything
    /// outside `[-2^63, 2^63)`).
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::UInt(u) if u <= i64::MAX as u64 => Some(u as i64),
            // `i64::MAX as f64` rounds up to 2^63, so the range is half-open.
            Value::Float(f)
                if f.fract() == 0.0 && (i64::MIN as f64..i64::MAX as f64).contains(&f) =>
            {
                Some(f as i64)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// (De)serialization error: a message, optionally with a path-ish context.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }

    /// Convenience: "expected X, found Y"-style mismatch error.
    pub fn mismatch(expected: &str, found: &Value) -> Self {
        let kind = match found {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        };
        Error::custom(format!("expected {expected}, found {kind}"))
    }

    /// Convenience: missing object field.
    pub fn missing_field(name: &str) -> Self {
        Error::custom(format!("missing field `{name}`"))
    }

    /// Convenience: unknown enum variant.
    pub fn unknown_variant(name: &str) -> Self {
        Error::custom(format!("unknown variant `{name}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that write themselves into a [`Serializer`].
pub trait Serialize {
    /// Writes `self` as the next value of `s`.
    fn serialize<S: Serializer>(&self, s: &mut S);

    /// Writes `items` as one sequence. Unsigned integers and `f64` hand it to
    /// one slab call ([`Serializer::u64s`], [`Serializer::f64s`]), as
    /// `std::hash::Hash::hash_slice` lets a type hash a slice at once.
    fn serialize_slice<S: Serializer>(items: &[Self], s: &mut S)
    where
        Self: Sized,
    {
        s.seq(items.len());
        items.iter().for_each(|item| item.serialize(s));
        s.end();
    }
}

/// A writer of one self-describing document, pushed front to back: the
/// counterpart of [`Deserializer`]. A sequence or map opens with its length,
/// takes exactly that many values (each map value right after its key), and
/// closes with [`Serializer::end`].
pub trait Serializer {
    /// Writes a null, bool or number given as a scalar [`Value`] (any other
    /// [`Value`] is written as its [`Serialize`] impl writes it).
    fn scalar(&mut self, v: Value);
    /// Writes a string.
    fn str(&mut self, v: &str);
    /// Opens a sequence of `len` values.
    fn seq(&mut self, len: usize);
    /// Opens a map of `len` entries.
    fn map(&mut self, len: usize);
    /// Writes the open map's next key; its value follows.
    fn key(&mut self, key: &str);
    /// Closes the innermost open sequence or map.
    fn end(&mut self);

    /// Writes a sequence of unsigned integers (a slab).
    fn u64s(&mut self, items: impl ExactSizeIterator<Item = u64> + Clone) {
        self.seq(items.len());
        items.for_each(|u| self.scalar(Value::UInt(u)));
        self.end();
    }

    /// Writes a sequence of floats (a slab).
    fn f64s(&mut self, items: &[f64]) {
        self.seq(items.len());
        items.iter().for_each(|&f| self.scalar(Value::Float(f)));
        self.end();
    }

    /// Copies one value already encoded in this writer's format, verbatim,
    /// as the next value ([`to_value`]'s tree has no format and panics).
    fn splice(&mut self, encoded: &[u8]);
}

/// Types that rebuild themselves by pulling from a [`Deserializer`].
///
/// The decoded value is the one the [`Value`] model defines: a number
/// coerces as [`Value::as_u64`]/[`Value::as_i64`]/[`Value::as_f64`] do
/// (`1.0` is an integer, `null` is NaN), a struct skips unknown keys and
/// keeps the first of duplicate keys, and an enum is externally tagged.
pub trait Deserialize: Sized {
    /// Reads one `Self` from the next value of `d`.
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error>;
}

/// Deepest nesting of arrays and objects a reader accepts (serde_json's
/// default recursion limit). Deeper input is a decode error, so no input
/// can overflow the decoding thread's stack.
pub const MAX_DEPTH: usize = 128;

/// The kind of the next value a [`Deserializer`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// An integer or float.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A string handed out by a [`Deserializer`]: borrowed from the input
/// when it had no escapes, else from the reader's scratch buffer.
#[derive(Debug, Clone, Copy)]
pub enum Str<'de, 's> {
    /// Borrowed from the input for its whole lifetime.
    Borrowed(&'de str),
    /// Unescaped into the reader; valid until the next read.
    Copied(&'s str),
}

impl std::ops::Deref for Str<'_, '_> {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        match *self {
            Str::Borrowed(s) | Str::Copied(s) => s,
        }
    }
}

/// A reader of one self-describing document, pulled front to back.
///
/// Arrays and objects are read by opening them ([`Deserializer::seq`],
/// [`Deserializer::map`]) and then asking for the next element or key
/// until the reader reports the end: after [`Deserializer::next_element`]
/// returns `true` (or [`Deserializer::next_key`] a key), the caller reads
/// exactly one value. The JSON and binary readers enforce [`MAX_DEPTH`].
pub trait Deserializer<'de> {
    /// The kind of the next value, without consuming it.
    fn peek(&mut self) -> Result<Kind, Error>;

    /// Reads a null, bool or number as a scalar [`Value`]; a string, array
    /// or object is a mismatch naming `expected`.
    fn scalar(&mut self, expected: &str) -> Result<Value, Error>;

    /// Reads a string; anything else is a mismatch naming `expected`.
    fn string(&mut self, expected: &str) -> Result<Str<'de, '_>, Error>;

    /// Opens an array, returning its length when the source declares one;
    /// anything else is a mismatch naming `expected`.
    fn seq(&mut self, expected: &str) -> Result<Option<usize>, Error>;

    /// `true` when the open array has another element (read it next),
    /// `false` once the array is closed.
    fn next_element(&mut self) -> Result<bool, Error>;

    /// Opens an object; anything else is a mismatch naming `expected`.
    fn map(&mut self, expected: &str) -> Result<(), Error>;

    /// The open object's next key (read its value next), or `None` once
    /// the object is closed.
    fn next_key(&mut self) -> Result<Option<Str<'de, '_>>, Error>;

    /// Reads and discards the next value, checking it as thoroughly as
    /// reading it would.
    fn skip(&mut self) -> Result<(), Error> {
        match self.peek()? {
            Kind::Str => {
                self.string("string")?;
            }
            Kind::Array => {
                self.seq("array")?;
                while self.next_element()? {
                    self.skip()?;
                }
            }
            Kind::Object => {
                self.map("object")?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Kind::Null | Kind::Bool | Kind::Number => {
                self.scalar("scalar")?;
            }
        }
        Ok(())
    }
}

/// Writes `value` into a [`Value`] tree — the one place encoding still
/// builds a tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    let mut tree = TreeWriter(vec![(String::new(), Value::Null)]);
    value.serialize(&mut tree);
    tree.0.pop().expect("the root holder stays").1
}

/// [`Serializer`] building a [`Value`] tree: each open array or object with
/// its pending key, innermost last, above a holder for the root value.
struct TreeWriter(Vec<(String, Value)>);

impl Serializer for TreeWriter {
    fn scalar(&mut self, v: Value) {
        match self.0.last_mut().expect("the root holder stays") {
            (_, Value::Array(items)) => items.push(v),
            (key, Value::Object(entries)) => entries.push((std::mem::take(key), v)),
            (_, root) => *root = v,
        }
    }

    fn str(&mut self, v: &str) {
        self.scalar(Value::Str(v.to_owned()));
    }

    fn seq(&mut self, len: usize) {
        self.0
            .push((String::new(), Value::Array(Vec::with_capacity(len))));
    }

    fn map(&mut self, len: usize) {
        self.0
            .push((String::new(), Value::Object(Vec::with_capacity(len))));
    }

    fn key(&mut self, key: &str) {
        self.0.last_mut().expect("the root holder stays").0 = key.to_owned();
    }

    fn end(&mut self) {
        let (_, done) = self.0.pop().expect("`end` closes an open sequence or map");
        self.scalar(done);
    }

    fn splice(&mut self, _: &[u8]) {
        panic!("a Value tree has no encoding to splice bytes into");
    }
}

/// Rebuilds a `T` from a [`Value`] tree, with the same semantics as
/// decoding the tree's JSON text.
///
/// # Errors
/// Whatever `T` rejects in `value`.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::deserialize(&mut ValueReader {
        next: Some(value),
        open: Vec::new(),
    })
}

/// [`Deserializer`] over a borrowed [`Value`] tree.
struct ValueReader<'de> {
    /// The value the next read consumes.
    next: Option<&'de Value>,
    /// Open arrays and objects, innermost last.
    open: Vec<Open<'de>>,
}

enum Open<'de> {
    Array(std::slice::Iter<'de, Value>),
    Object(std::slice::Iter<'de, (String, Value)>),
}

impl<'de> ValueReader<'de> {
    fn take(&mut self) -> Result<&'de Value, Error> {
        self.next
            .take()
            .ok_or_else(|| Error::custom("read past the end of the value"))
    }
}

impl<'de> Deserializer<'de> for ValueReader<'de> {
    fn peek(&mut self) -> Result<Kind, Error> {
        let value = self
            .next
            .ok_or_else(|| Error::custom("read past the end of the value"))?;
        Ok(match value {
            Value::Null => Kind::Null,
            Value::Bool(_) => Kind::Bool,
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => Kind::Number,
            Value::Str(_) => Kind::Str,
            Value::Array(_) => Kind::Array,
            Value::Object(_) => Kind::Object,
        })
    }

    fn scalar(&mut self, expected: &str) -> Result<Value, Error> {
        match self.take()? {
            v @ (Value::Str(_) | Value::Array(_) | Value::Object(_)) => {
                Err(Error::mismatch(expected, v))
            }
            scalar => Ok(scalar.clone()),
        }
    }

    fn string(&mut self, expected: &str) -> Result<Str<'de, '_>, Error> {
        match self.take()? {
            Value::Str(s) => Ok(Str::Borrowed(s)),
            other => Err(Error::mismatch(expected, other)),
        }
    }

    fn seq(&mut self, expected: &str) -> Result<Option<usize>, Error> {
        match self.take()? {
            Value::Array(items) => {
                self.open.push(Open::Array(items.iter()));
                Ok(Some(items.len()))
            }
            other => Err(Error::mismatch(expected, other)),
        }
    }

    fn next_element(&mut self) -> Result<bool, Error> {
        let Some(Open::Array(items)) = self.open.last_mut() else {
            return Err(Error::custom("no open array"));
        };
        self.next = items.next();
        if self.next.is_none() {
            self.open.pop();
        }
        Ok(self.next.is_some())
    }

    fn map(&mut self, expected: &str) -> Result<(), Error> {
        match self.take()? {
            Value::Object(entries) => {
                self.open.push(Open::Object(entries.iter()));
                Ok(())
            }
            other => Err(Error::mismatch(expected, other)),
        }
    }

    fn next_key(&mut self) -> Result<Option<Str<'de, '_>>, Error> {
        let Some(Open::Object(entries)) = self.open.last_mut() else {
            return Err(Error::custom("no open object"));
        };
        match entries.next() {
            Some((key, value)) => {
                self.next = Some(value);
                Ok(Some(Str::Borrowed(key)))
            }
            None => {
                self.open.pop();
                Ok(None)
            }
        }
    }
}

/// Support for the `Deserialize` derive; not a public API.
#[doc(hidden)]
pub mod __private {
    use super::{Deserializer, Error, Kind};

    /// Which form an externally tagged enum value took.
    pub enum Tagged {
        /// `"Tag"`: index into the unit variant names.
        Unit(usize),
        /// `{"Tag": {fields}}`: index into the struct variant names; the
        /// body is read next, then [`end_variant`].
        Struct(usize),
    }

    /// Reads an externally tagged enum's tag: a string naming a unit
    /// variant, or a one-entry object whose key names a struct variant.
    pub fn variant<'de, D: Deserializer<'de>>(
        d: &mut D,
        expected: &str,
        units: &[&str],
        structs: &[&str],
    ) -> Result<Tagged, Error> {
        if d.peek()? == Kind::Str {
            let tag = d.string(expected)?;
            return match units.iter().position(|name| *name == &*tag) {
                Some(index) => Ok(Tagged::Unit(index)),
                None => Err(Error::unknown_variant(&tag)),
            };
        }
        d.map(expected)?;
        let unknown = match d.next_key()? {
            None => return Err(wrong_shape(expected)),
            Some(tag) => match structs.iter().position(|name| *name == &*tag) {
                Some(index) => return Ok(Tagged::Struct(index)),
                None => tag.to_string(),
            },
        };
        d.skip()?;
        end_variant(d, expected)?;
        Err(Error::unknown_variant(&unknown))
    }

    /// Closes a `{"Tag": {fields}}` enum object: a second entry is the
    /// wrong shape for an enum.
    pub fn end_variant<'de, D: Deserializer<'de>>(d: &mut D, expected: &str) -> Result<(), Error> {
        match d.next_key()? {
            Some(_) => Err(wrong_shape(expected)),
            None => Ok(()),
        }
    }

    fn wrong_shape(expected: &str) -> Error {
        Error::custom(format!("expected {expected}, found object"))
    }

    /// Opens a struct variant's body. A body that is not an object is
    /// skipped and reads as having none of its fields.
    pub fn variant_body<'de, D: Deserializer<'de>>(d: &mut D) -> Result<bool, Error> {
        if d.peek()? == Kind::Object {
            d.map("object")?;
            Ok(true)
        } else {
            d.skip()?;
            Ok(false)
        }
    }

    /// The index in `names` of the open object's next key (`usize::MAX`
    /// for a key not in `names`), or `None` once the object is closed.
    pub fn next_field<'de, D: Deserializer<'de>>(
        d: &mut D,
        names: &[&str],
    ) -> Result<Option<usize>, Error> {
        Ok(d.next_key()?.map(|key| {
            names
                .iter()
                .position(|name| *name == &*key)
                .unwrap_or(usize::MAX)
        }))
    }

    /// A struct field's decoded value, or the missing-field error.
    pub fn field<T>(slot: Option<T>, name: &str) -> Result<T, Error> {
        slot.ok_or_else(|| Error::missing_field(name))
    }
}

// ---- primitive impls -------------------------------------------------------

// A `Value` embeds in any serialized structure as itself (the shim
// counterpart of real serde_json's `impl Serialize for Value`).
impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Value::Str(v) => s.str(v),
            Value::Array(items) => items.serialize(s),
            Value::Object(entries) => {
                s.map(entries.len());
                for (key, value) in entries {
                    s.key(key);
                    value.serialize(s);
                }
                s.end();
            }
            scalar => s.scalar(scalar.clone()),
        }
    }
}

impl Deserialize for Value {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        match d.peek()? {
            Kind::Str => Ok(Value::Str(d.string("string")?.to_string())),
            Kind::Array => Vec::deserialize(d).map(Value::Array),
            Kind::Object => {
                let mut entries = Vec::new();
                d.map("object")?;
                while let Some(key) = d.next_key()? {
                    let key = key.to_string();
                    entries.push((key, Value::deserialize(d)?));
                }
                Ok(Value::Object(entries))
            }
            Kind::Null | Kind::Bool | Kind::Number => d.scalar("scalar"),
        }
    }
}

/// Reads a scalar through a numeric view, naming `expected` on a mismatch;
/// a positive whole number the view rejects is too large for it.
fn scalar_as<'de, D: Deserializer<'de>, T>(
    d: &mut D,
    expected: &str,
    view: fn(&Value) -> Option<T>,
) -> Result<T, Error> {
    let scalar = d.scalar(expected)?;
    view(&scalar).ok_or_else(|| match scalar.as_f64() {
        Some(f) if f > 0.0 && f.fract() == 0.0 => Error::custom("integer out of range"),
        _ => Error::mismatch(expected, &scalar),
    })
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.scalar(Value::Bool(*self));
    }
}

impl Deserialize for bool {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        match d.scalar("bool")? {
            Value::Bool(b) => Ok(b),
            other => Err(Error::mismatch("bool", &other)),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.scalar(Value::UInt(*self as u64));
            }
            fn serialize_slice<S: Serializer>(items: &[Self], s: &mut S) {
                s.u64s(items.iter().map(|&u| u as u64));
            }
        }
        impl Deserialize for $t {
            fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
                let u = scalar_as(d, "unsigned integer", Value::as_u64)?;
                <$t>::try_from(u).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.scalar(Value::Int(*self as i64));
            }
        }
        impl Deserialize for $t {
            fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
                let i = scalar_as(d, "integer", Value::as_i64)?;
                <$t>::try_from(i).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.scalar(Value::Float(*self));
    }

    fn serialize_slice<S: Serializer>(items: &[Self], s: &mut S) {
        s.f64s(items);
    }
}

impl Deserialize for f64 {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        scalar_as(d, "number", Value::as_f64)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl Deserialize for String {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        Ok(d.string("string")?.to_string())
    }
}

// ---- containers ------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Some(v) => v.serialize(s),
            None => s.scalar(Value::Null),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        if d.peek()? == Kind::Null {
            d.scalar("null")?;
            return Ok(None);
        }
        T::deserialize(d).map(Some)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        T::serialize_slice(self, s);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        // A declared length is only a hint: reserve at most ~1 MiB up
        // front, so a hostile length cannot force a huge allocation.
        let hint = d.seq("array")?.unwrap_or(0);
        let cap = hint.min((1 << 20) / std::mem::size_of::<T>().max(1));
        let mut items = Vec::with_capacity(cap);
        while d.next_element()? {
            items.push(T::deserialize(d)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        T::serialize_slice(self, s);
    }
}

fn tuple_len(expected: usize, found: usize) -> Error {
    Error::custom(format!(
        "expected array of length {expected}, found {found}"
    ))
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+) with $len:expr;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.seq($len);
                $(self.$idx.serialize(s);)+
                s.end();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
                d.seq("array")?;
                let tuple = ($({
                    if !d.next_element()? {
                        return Err(tuple_len($len, $idx));
                    }
                    $name::deserialize(d)?
                },)+);
                let mut found = $len;
                while d.next_element()? {
                    d.skip()?;
                    found += 1;
                }
                if found != $len {
                    return Err(tuple_len($len, found));
                }
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple! {
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
}
