//! `vcsched-frame` (versions `v1` and `v2`) — the compact binary wire framing.
//!
//! The service's canonical wire format is newline-delimited JSON: easy
//! to debug, stable, and pinned byte-for-byte by tests. It is also the
//! dominant per-request cost once the reactor and the schedule cache
//! are warm — every request pays a byte-at-a-time JSON parse and a
//! string render on both sides of the socket. This module defines the
//! negotiated fast path: the same [`Value`] trees the JSON layer
//! round-trips, encoded as length-prefixed binary frames with varint
//! integers and an interned-string table for the protocol's fixed
//! vocabulary (field names, `type` tags, policy names).
//!
//! # Negotiation
//!
//! A connection is JSON unless its *very first bytes* are an 8-byte
//! preamble: [`MAGIC`] (`F7 76 63 66 72 6D 32 0A`, i.e. `0xF7` +
//! `"vcfrm2\n"`) or the older [`MAGIC_V1`] (`… 31 0A`, `"vcfrm1\n"`).
//! `0xF7` can never begin a JSON request — the JSON parser accepts
//! only `{ [ " t f n -` digits and whitespace as a first byte — so the
//! sniff is unambiguous. The server answers by echoing the same 8
//! bytes (the ack) and both sides switch to frames of that
//! [`Version`]; a connection that starts with anything else stays JSON
//! forever, so existing clients and the golden byte pins are
//! untouched. Binary junk *mid-stream* on a JSON connection is still a
//! UTF-8 error, not a late renegotiation.
//!
//! # Frame grammar
//!
//! ```text
//! frame   = varint(len) payload        ; len = payload byte length
//! payload = value                      ; exactly one Value tree
//! value   = 0x00                       ; null
//!         | 0x01 | 0x02                ; false | true
//!         | 0x03 zigzag-varint         ; signed integer
//!         | 0x04 varint                ; unsigned integer
//!         | 0x05 f64-le                ; float, 8 bytes little-endian
//!         | 0x06 varint bytes          ; string: byte length + UTF-8
//!         | 0x07 varint                ; interned string: table index
//!         | 0x08 varint value*         ; array: count + elements
//!         | 0x09 varint (str value)*   ; object: count + key/value
//!                                      ;   pairs, key = 0x06 or 0x07
//! ```
//!
//! Varints are LEB128 (7 bits per byte, low bits first); signed
//! integers are zigzag-mapped first. The interned table
//! ([`INTERNED`]) is part of the wire contract: append-only, never
//! reordered. Each version uses a prefix of it, and a decoder rejects
//! an index past its version's prefix, so new words need a new
//! version: `v2` is `v1` plus the metrics-snapshot words. Strings
//! outside a version's words fall back to the length-prefixed form, so
//! the table is a compression dictionary, not a schema.
//!
//! # Two decoders
//!
//! [`decode_frame_as`] builds the payload's [`Value`] tree.
//! [`read_frame_as`] runs a typed decode over the same bytes through a
//! [`FrameReader`], a pull [`serde::Reader`] that borrows every string
//! from the frame (an interned one from the table) and builds no tree.
//! Both split frames with the same length-prefix parser, so they agree
//! on where a frame ends and on when a buffer holds no whole frame yet.

use std::borrow::Cow;

use serde::{DeError, Kind, Seq, Value};

/// The connection preamble a binary client sends first, and the ack
/// the server echoes back: [`Version::V2`], the newest framing. `0xF7`
/// is outside the set of bytes that can begin a JSON value, which is
/// what makes start-of-connection sniffing unambiguous.
pub const MAGIC: [u8; 8] = [0xF7, b'v', b'c', b'f', b'r', b'm', b'2', b'\n'];

/// The [`Version::V1`] preamble, still accepted from older clients.
pub const MAGIC_V1: [u8; 8] = [0xF7, b'v', b'c', b'f', b'r', b'm', b'1', b'\n'];

/// Words of [`INTERNED`] that `v1` frames may carry.
const V1_WORDS: usize = 89;

/// A negotiated framing version. Versions share the grammar and differ
/// only in how many words of [`INTERNED`] their frames may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Version {
    /// `"vcfrm1\n"`: the first 89 words of [`INTERNED`].
    V1,
    /// `"vcfrm2\n"`: all of [`INTERNED`], metrics-snapshot words included.
    V2,
}

impl Version {
    /// The version a connection preamble offers, if it is one.
    pub fn from_magic(preamble: &[u8]) -> Option<Version> {
        [Version::V2, Version::V1]
            .into_iter()
            .find(|v| v.magic() == preamble)
    }

    /// The preamble that offers this version, which is also its ack.
    pub fn magic(self) -> [u8; 8] {
        match self {
            Version::V1 => MAGIC_V1,
            Version::V2 => MAGIC,
        }
    }

    fn words(self) -> &'static [&'static str] {
        match self {
            Version::V1 => &INTERNED[..V1_WORDS],
            Version::V2 => INTERNED,
        }
    }
}

/// Nesting ceiling for decoded values — mirrors the JSON parser's
/// depth guard so a hostile frame cannot blow the stack.
const MAX_DEPTH: usize = 128;

/// Most elements an array or object reserves up front from its wire
/// count. The count is only bounded by the bytes left in the frame, so
/// trusting it fully would let every nesting level reserve
/// `count × size_of::<Value>()` before decoding anything; past this cap
/// the vector grows as elements actually decode, each consuming input.
const MAX_PREALLOC: usize = 64;

/// Value tag bytes (see the module-level grammar).
const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_UINT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_INTERNED: u8 = 0x07;
const TAG_ARRAY: u8 = 0x08;
const TAG_OBJECT: u8 = 0x09;

/// The interned-string table: the protocol's fixed vocabulary. Indices
/// are wire format — append new entries at the end, under a new
/// [`Version`], and never reorder or remove.
pub const INTERNED: &[&str] = &[
    // Envelope and framing.
    "type",
    "id",
    "ok",
    "error",
    "retry_after_ms",
    // Request fields.
    "benchmark",
    "count",
    "seed",
    "start",
    "machine",
    "policies",
    "max_steps",
    "budget_bytes",
    "portfolio",
    "return_schedule",
    "early_cancel",
    "adaptive",
    "deadline_ms",
    "priority",
    "stream",
    "delay_ms",
    "text",
    "placement_seed",
    // Reply fields.
    "winner",
    "awct",
    "awct_cycles",
    "vc_timed_out",
    "vc_steps",
    "cached",
    "schedule",
    "block",
    "policy",
    "steps",
    "index",
    "summary",
    "metrics",
    "request",
    "mode",
    // Batch summary fields.
    "corpus",
    "jobs",
    "blocks",
    "wins",
    "vc_timeouts",
    "aggregate_awct",
    "total_weighted_cycles",
    "cache",
    "hits",
    "misses",
    "hit_rate",
    "fallbacks",
    "single",
    "copies",
    "len",
    "bench",
    // Stats fields.
    "connections_open",
    "connections_total",
    "accepted",
    "rejected",
    "completed",
    "queue_depth",
    "queue_capacity",
    "uptime_ms",
    "policy_totals",
    "shards",
    "by_priority",
    "latency",
    "p50_us",
    "p90_us",
    "p99_us",
    "p999_us",
    "deadline_fired",
    "drained",
    // `type` tags.
    "ping",
    "pong",
    "batch",
    "stats",
    "shutdown",
    "bye",
    // Policy and machine names.
    "vc",
    "cars",
    "uas",
    "two-phase",
    "uas-mwp",
    "uas-none",
    "uas-balance",
    "two-phase-balance",
    "2c",
    "4c1",
    "unspecified",
    // Metrics snapshot fields and kinds (`v2` onwards).
    "name",
    "labels",
    "kind",
    "value",
    "counter",
    "gauge",
    "histogram",
    "sum",
    "p50",
    "p90",
    "p99",
    "p999",
    "buckets",
];

/// Slots in [`INTERN_SLOTS`]; kept at least twice the table's length so
/// probe runs stay short.
const INTERN_SLOT_COUNT: usize = 256;
const _: () = assert!(INTERNED.len() * 2 <= INTERN_SLOT_COUNT && INTERNED.len() < 255);
const _: () = assert!(V1_WORDS < INTERNED.len());

/// FNV-1a over `bytes`, folded to a slot of [`INTERN_SLOTS`].
const fn intern_slot(bytes: &[u8]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    ((h ^ (h >> 32)) as usize) % INTERN_SLOT_COUNT
}

const fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Open-addressed lookup table over [`INTERNED`], built at compile
/// time: each slot holds `index + 1` of a table entry, 0 when empty.
/// Entries are placed in table order and a repeat of an earlier string
/// is skipped, so a lookup always finds the first index, the one every
/// frame has carried.
const INTERN_SLOTS: [u8; INTERN_SLOT_COUNT] = {
    let mut slots = [0u8; INTERN_SLOT_COUNT];
    let mut i = 0;
    while i < INTERNED.len() {
        let word = INTERNED[i].as_bytes();
        let mut at = intern_slot(word);
        loop {
            if slots[at] == 0 {
                slots[at] = (i + 1) as u8;
                break;
            }
            if bytes_eq(INTERNED[slots[at] as usize - 1].as_bytes(), word) {
                break;
            }
            at = (at + 1) % INTERN_SLOT_COUNT;
        }
        i += 1;
    }
    slots
};

/// Table index for a string, if it is part of the fixed vocabulary: one
/// hash of the string and, on average, about one comparison.
fn intern_index(s: &str) -> Option<usize> {
    let mut at = intern_slot(s.as_bytes());
    loop {
        let idx = usize::from(INTERN_SLOTS[at]).checked_sub(1)?;
        if INTERNED[idx] == s {
            return Some(idx);
        }
        at = (at + 1) % INTERN_SLOT_COUNT;
    }
}

/// Appends a LEB128 varint.
fn put_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed integer so small magnitudes stay small.
fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

/// A cursor over one frame payload: the tree decoder's, and a pull
/// [`serde::Reader`] for typed decodes ([`read_frame_as`]).
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    words: &'static [&'static str],
    /// Containers the typed reader is inside: the depth the tree decoder
    /// would be at for the next value.
    depth: usize,
}

impl<'a> FrameReader<'a> {
    fn new(buf: &'a [u8], words: &'static [&'static str]) -> FrameReader<'a> {
        FrameReader {
            buf,
            pos: 0,
            words,
            depth: 0,
        }
    }

    fn byte(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or("frame truncated inside a value")?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or("frame truncated inside a value")?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut n: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            n |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                // The 10th byte may only carry the top single bit.
                if shift == 63 && byte > 1 {
                    return Err("varint overflows u64".to_owned());
                }
                return Ok(n);
            }
        }
        Err("varint longer than 10 bytes".to_owned())
    }

    fn string(&mut self) -> Result<String, String> {
        self.str_ref().map(str::to_owned)
    }

    /// A string value or key, borrowed from the frame or the table.
    fn str_ref(&mut self) -> Result<&'a str, String> {
        match self.byte()? {
            TAG_STR => {
                let len = self.varint()? as usize;
                let bytes = self.take(len)?;
                std::str::from_utf8(bytes).map_err(|_| "string is not UTF-8".to_owned())
            }
            TAG_INTERNED => {
                let idx = self.varint()? as usize;
                self.words
                    .get(idx)
                    .copied()
                    .ok_or_else(|| format!("interned index {idx} out of table"))
            }
            tag => Err(format!("expected a string tag, found 0x{tag:02x}")),
        }
    }

    /// The next value's tag, not consumed, once the depth is in bounds.
    fn next_tag(&self) -> Result<u8, DeError> {
        if self.depth > MAX_DEPTH {
            return Err(DeError(format!("value nested deeper than {MAX_DEPTH}")));
        }
        self.buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| DeError("frame truncated inside a value".to_owned()))
    }

    /// Opens an array or object: its tag, then its count, bounded by
    /// the bytes left as in the tree decoder.
    fn open(&mut self, tag: u8) -> Result<Seq, DeError> {
        if self.next_tag()? != tag {
            return Err(DeError("expected a container".to_owned()));
        }
        self.pos += 1;
        let count = self.varint().map_err(DeError)?;
        if count > (self.buf.len() - self.pos) as u64 {
            return Err(DeError("container count exceeds frame size".to_owned()));
        }
        self.depth += 1;
        Ok(Seq(count))
    }

    /// Takes one element of an open container off its count.
    fn advance(&mut self, seq: &mut Seq) -> bool {
        if seq.0 == 0 {
            self.depth -= 1;
            return false;
        }
        seq.0 -= 1;
        true
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("value nested deeper than {MAX_DEPTH}"));
        }
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(unzigzag(self.varint()?))),
            TAG_UINT => Ok(Value::UInt(self.varint()?)),
            TAG_FLOAT => {
                let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) returned 8 bytes");
                Ok(Value::Float(f64::from_le_bytes(bytes)))
            }
            TAG_STR | TAG_INTERNED => {
                self.pos -= 1; // re-read the tag through the string path
                Ok(Value::String(self.string()?))
            }
            TAG_ARRAY => {
                let count = self.varint()? as usize;
                // Each element needs at least one tag byte, so `count` can
                // never exceed the remaining bytes.
                if count > self.buf.len() - self.pos {
                    return Err("array count exceeds frame size".to_owned());
                }
                let mut items = Vec::with_capacity(count.min(MAX_PREALLOC));
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            TAG_OBJECT => {
                let count = self.varint()? as usize;
                if count > self.buf.len() - self.pos {
                    return Err("object count exceeds frame size".to_owned());
                }
                let mut fields = Vec::with_capacity(count.min(MAX_PREALLOC));
                for _ in 0..count {
                    let key = self.string()?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                }
                Ok(Value::Object(fields))
            }
            tag => Err(format!("unknown value tag 0x{tag:02x}")),
        }
    }
}

impl<'a> serde::Reader<'a> for FrameReader<'a> {
    fn peek(&mut self) -> Result<Kind, DeError> {
        match self.next_tag()? {
            TAG_NULL => Ok(Kind::Null),
            TAG_FALSE | TAG_TRUE => Ok(Kind::Bool),
            TAG_INT | TAG_UINT | TAG_FLOAT => Ok(Kind::Number),
            TAG_STR | TAG_INTERNED => Ok(Kind::String),
            TAG_ARRAY => Ok(Kind::Array),
            TAG_OBJECT => Ok(Kind::Object),
            tag => Err(DeError(format!("unknown value tag 0x{tag:02x}"))),
        }
    }

    fn scalar(&mut self) -> Result<Value, DeError> {
        match self.next_tag()? {
            TAG_NULL | TAG_FALSE | TAG_TRUE | TAG_INT | TAG_UINT | TAG_FLOAT => {
                self.value(self.depth).map_err(DeError)
            }
            _ => Err(DeError("expected a scalar".to_owned())),
        }
    }

    fn str(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.next_tag()?;
        self.str_ref().map(Cow::Borrowed).map_err(DeError)
    }

    fn array(&mut self) -> Result<Seq, DeError> {
        self.open(TAG_ARRAY)
    }

    fn element(&mut self, seq: &mut Seq) -> Result<bool, DeError> {
        Ok(self.advance(seq))
    }

    /// The stated count, which `open` bounded by the bytes left, capped
    /// at `MAX_PREALLOC` as the tree decoder caps its reservations.
    fn len_hint(&self, seq: &Seq) -> usize {
        (seq.0 as usize).min(MAX_PREALLOC)
    }

    fn object(&mut self) -> Result<Seq, DeError> {
        self.open(TAG_OBJECT)
    }

    fn key(&mut self, seq: &mut Seq) -> Result<Option<Cow<'a, str>>, DeError> {
        if !self.advance(seq) {
            return Ok(None);
        }
        self.str_ref()
            .map(|k| Some(Cow::Borrowed(k)))
            .map_err(DeError)
    }

    fn value(&mut self) -> Result<Value, DeError> {
        self.value(self.depth).map_err(DeError)
    }
}

/// Appends one string in its compact form: interned index when the
/// string is among `words`, length-prefixed bytes otherwise.
fn put_str(s: &str, words: &[&str], out: &mut Vec<u8>) {
    match intern_index(s).filter(|&idx| idx < words.len()) {
        Some(idx) => {
            out.push(TAG_INTERNED);
            put_varint(idx as u64, out);
        }
        None => {
            out.push(TAG_STR);
            put_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Appends one [`Value`] tree in its tag-byte encoding (no frame
/// length prefix — see [`encode_frame`] for the on-wire form).
fn encode_value(v: &Value, words: &[&str], out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(n) => {
            out.push(TAG_INT);
            put_varint(zigzag(*n), out);
        }
        Value::UInt(n) => {
            out.push(TAG_UINT);
            put_varint(*n, out);
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::String(s) => put_str(s, words, out),
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            put_varint(items.len() as u64, out);
            for item in items {
                encode_value(item, words, out);
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            put_varint(fields.len() as u64, out);
            for (key, value) in fields {
                put_str(key, words, out);
                encode_value(value, words, out);
            }
        }
    }
}

/// Appends one complete `version` frame — `varint(len)` + payload — to
/// `out`, using `scratch` as the reusable payload staging buffer
/// (cleared on entry). Callers that keep both buffers alive pay zero
/// allocations per frame once the high-water mark is reached.
pub fn encode_frame_into(v: &Value, version: Version, out: &mut Vec<u8>, scratch: &mut Vec<u8>) {
    scratch.clear();
    encode_value(v, version.words(), scratch);
    put_varint(scratch.len() as u64, out);
    out.extend_from_slice(scratch);
}

/// One newest-version frame as a fresh byte vector (convenience for
/// clients and tests; the reactor uses [`encode_frame_into`]).
pub fn encode_frame(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    encode_frame_into(v, Version::V2, &mut out, &mut scratch);
    out
}

/// Attempts to decode one newest-version frame from the front of `buf`
/// (see [`decode_frame_as`]).
pub fn decode_frame(buf: &[u8], max_payload: usize) -> Result<Option<(Value, usize)>, String> {
    decode_frame_as(buf, Version::V2, max_payload)
}

/// Attempts to decode one `version` frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// frame (read more bytes), `Ok(Some((value, consumed)))` on success —
/// `consumed` covers the length prefix and payload — and `Err` when
/// the stream is corrupt or the announced payload exceeds
/// `max_payload` (the caller should drop the connection; framing
/// cannot be resynchronized).
pub fn decode_frame_as(
    buf: &[u8],
    version: Version,
    max_payload: usize,
) -> Result<Option<(Value, usize)>, String> {
    let Some((prefix, len)) = split_frame(buf, max_payload)? else {
        return Ok(None);
    };
    let mut cursor = FrameReader::new(&buf[prefix..prefix + len], version.words());
    let value = cursor.value(0)?;
    if cursor.pos != len {
        return Err(format!(
            "frame has {} trailing bytes after the value",
            len - cursor.pos
        ));
    }
    Ok(Some((value, prefix + len)))
}

/// The typed twin of [`decode_frame_as`]: runs `read` over the payload
/// of the `version` frame at the front of `buf`, which must consume it
/// exactly. `Ok(None)` exactly when [`decode_frame_as`] answers it too
/// (no whole frame yet); an error, framing or typed, leaves the reply
/// to [`decode_frame_as`] on the same bytes.
pub fn read_frame_as<T>(
    buf: &[u8],
    version: Version,
    max_payload: usize,
    read: impl FnOnce(&mut FrameReader<'_>) -> Result<T, DeError>,
) -> Result<Option<(T, usize)>, DeError> {
    let Some((prefix, len)) = split_frame(buf, max_payload).map_err(DeError)? else {
        return Ok(None);
    };
    let mut reader = FrameReader::new(&buf[prefix..prefix + len], version.words());
    let value = read(&mut reader)?;
    if reader.pos != len {
        return Err(DeError("trailing bytes after the value".to_owned()));
    }
    Ok(Some((value, prefix + len)))
}

/// Splits the frame at the front of `buf` into its length prefix's size
/// and its payload's, once both are whole (`Ok(None)` before that). An
/// over-long prefix or a payload over `max_payload` is an error.
fn split_frame(buf: &[u8], max_payload: usize) -> Result<Option<(usize, usize)>, String> {
    // Parse the length prefix by hand so an incomplete varint is
    // "not yet", not an error.
    let mut len: u64 = 0;
    let mut prefix = 0usize;
    loop {
        let Some(&byte) = buf.get(prefix) else {
            return Ok(None);
        };
        len |= u64::from(byte & 0x7f) << (7 * prefix);
        prefix += 1;
        if byte & 0x80 == 0 {
            break;
        }
        if prefix >= 10 {
            return Err("frame length varint longer than 10 bytes".to_owned());
        }
    }
    if len > max_payload as u64 {
        return Err(format!(
            "frame of {len} bytes exceeds the {max_payload}-byte limit"
        ));
    }
    let len = len as usize;
    if buf.len() < prefix + len {
        return Ok(None);
    }
    Ok(Some((prefix, len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let bytes = encode_frame(v);
        let (decoded, consumed) = decode_frame(&bytes, 1 << 20)
            .expect("decodes")
            .expect("complete");
        assert_eq!(consumed, bytes.len(), "frame consumed exactly");
        decoded
    }

    #[test]
    fn scalar_values_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::UInt(0),
            Value::UInt(u64::MAX),
            Value::Float(0.0),
            Value::Float(-271.25),
            Value::Float(f64::MAX),
            Value::String(String::new()),
            Value::String("type".into()),     // interned
            Value::String("αβγ über".into()), // not interned, multibyte
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn nested_trees_roundtrip() {
        let v = Value::Object(vec![
            ("type".into(), Value::String("schedule".into())),
            ("id".into(), Value::UInt(42)),
            (
                "policies".into(),
                Value::Array(vec![
                    Value::String("vc".into()),
                    Value::String("two-phase-balance".into()),
                ]),
            ),
            (
                "nested".into(),
                Value::Object(vec![
                    ("x".into(), Value::Float(1.5)),
                    ("y".into(), Value::Null),
                ]),
            ),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    /// The hashed lookup answers exactly what a first-match scan of the
    /// table answers, for every entry and for near misses.
    #[test]
    fn intern_lookup_matches_a_first_match_scan() {
        let scan = |s: &str| INTERNED.iter().position(|&w| w == s);
        for &word in INTERNED {
            assert_eq!(intern_index(word), scan(word), "{word}");
            for probe in [
                format!("{word}x"),
                word[..word.len() - 1].to_owned(),
                word.to_uppercase(),
            ] {
                assert_eq!(intern_index(&probe), scan(&probe), "{probe}");
            }
        }
        for probe in ["", "tyep", "two_phase", "αβγ", "retry_after_ms\0"] {
            assert_eq!(intern_index(probe), scan(probe), "{probe}");
        }
    }

    #[test]
    fn interning_compresses_the_fixed_vocabulary() {
        let interned = encode_frame(&Value::String("retry_after_ms".into()));
        let free = encode_frame(&Value::String("retry_after_mx".into()));
        assert!(
            interned.len() < free.len(),
            "interned {} vs free {}",
            interned.len(),
            free.len()
        );
        // An interned string still decodes to the exact text.
        assert_eq!(
            roundtrip(&Value::String("retry_after_ms".into())),
            Value::String("retry_after_ms".into())
        );
    }

    #[test]
    fn magic_preamble_cannot_begin_a_json_request() {
        // The sniff in the reactor relies on this: 0xF7 is outside the
        // set of first bytes the JSON parser accepts.
        assert!(serde_json::from_str::<Value>("\u{f7}").is_err());
        assert_eq!(MAGIC[0], 0xF7);
        assert_eq!(&MAGIC[1..], b"vcfrm2\n");
        assert_eq!(MAGIC_V1[0], 0xF7);
        assert_eq!(&MAGIC_V1[1..], b"vcfrm1\n");
        for version in [Version::V1, Version::V2] {
            assert_eq!(Version::from_magic(&version.magic()), Some(version));
        }
    }

    #[test]
    fn v1_frames_carry_only_v1_words() {
        // "type" is a v1 word; "name" is the first word v2 appended.
        assert_eq!(INTERNED[V1_WORDS], "name");
        let v = Value::Object(vec![("name".into(), Value::String("type".into()))]);
        let mut v1 = Vec::new();
        encode_frame_into(&v, Version::V1, &mut v1, &mut Vec::new());
        let (decoded, _) = decode_frame_as(&v1, Version::V1, 1 << 20)
            .expect("a v1 peer reads a v1 frame")
            .expect("complete");
        assert_eq!(decoded, v);
        // The v2 frame interns "name", which a v1 peer cannot read.
        let v2 = encode_frame(&v);
        assert!(v2.len() < v1.len());
        assert!(decode_frame_as(&v2, Version::V1, 1 << 20).is_err());
    }

    #[test]
    fn incomplete_frames_ask_for_more_bytes() {
        let bytes = encode_frame(&Value::String("a longer, uninterned string".into()));
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..cut], 1 << 20).expect("prefix is not an error"),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_and_oversized_frames_are_errors() {
        // Announced length over the cap.
        let mut oversized = Vec::new();
        put_varint(1 << 20, &mut oversized);
        assert!(decode_frame(&oversized, 8 << 10).is_err());
        // Unknown tag.
        assert!(decode_frame(&[1, 0xff], 1 << 20).is_err());
        // Trailing garbage after the value.
        assert!(decode_frame(&[2, TAG_NULL, TAG_NULL], 1 << 20).is_err());
        // Interned index out of table.
        let mut bad_idx = vec![2, TAG_INTERNED, 0xf0];
        bad_idx[0] = 2;
        assert!(decode_frame(&bad_idx, 1 << 20).is_err());
        // Array count larger than the remaining payload.
        assert!(decode_frame(&[3, TAG_ARRAY, 0xff, 0x01], 1 << 20).is_err());
    }

    #[test]
    fn hostile_nesting_depth_is_rejected() {
        // 200 nested single-element arrays: deeper than MAX_DEPTH.
        let mut payload = Vec::new();
        for _ in 0..200 {
            payload.push(TAG_ARRAY);
            payload.push(1);
        }
        payload.push(TAG_NULL);
        let mut frame = Vec::new();
        put_varint(payload.len() as u64, &mut frame);
        frame.extend_from_slice(&payload);
        let err = decode_frame(&frame, 1 << 20).expect_err("too deep");
        assert!(err.contains("deeper"), "{err}");
    }

    /// A payload of `levels` nested containers whose every count claims
    /// all the bytes left, padded to `len` with an invalid tag.
    fn inflated_counts(tag: u8, levels: usize, len: usize) -> Vec<u8> {
        let mut payload = Vec::new();
        for _ in 0..levels {
            payload.push(tag);
            // A 3-byte varint keeps the arithmetic simple.
            let count = len - payload.len() - 3;
            payload.extend_from_slice(&[
                0x80 | (count & 0x7f) as u8,
                0x80 | (count >> 7 & 0x7f) as u8,
                (count >> 14) as u8,
            ]);
            if tag == TAG_OBJECT {
                payload.extend_from_slice(&[TAG_INTERNED, 0]);
            }
        }
        payload.resize(len, 0xff);
        let mut frame = Vec::new();
        put_varint(payload.len() as u64, &mut frame);
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn inflated_container_counts_fail_cleanly() {
        for tag in [TAG_ARRAY, TAG_OBJECT] {
            let frame = inflated_counts(tag, MAX_DEPTH, 64 << 10);
            let err = decode_frame(&frame, 1 << 20).expect_err("invalid innermost tag");
            assert!(err.contains("unknown value tag 0xff"), "{err}");
        }
        // Honest containers longer than the reservation cap still decode.
        let big = Value::Array((0..1000).map(Value::UInt).collect());
        let frame = encode_frame(&big);
        let (back, used) = decode_frame(&frame, 1 << 20).expect("ok").expect("whole");
        assert_eq!(back, big);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for n in [0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(n, &mut buf);
            let mut cursor = FrameReader::new(&buf, INTERNED);
            assert_eq!(cursor.varint().expect("valid"), n);
            assert_eq!(cursor.pos, buf.len());
        }
        for n in [0i64, -1, 1, i64::MIN, i64::MAX, -12_345] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
    }
}
