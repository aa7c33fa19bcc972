//! A thin blocking client for the service protocol — what `vcsched
//! request` and the tests use.
//!
//! [`Client::request`] is the one-shot exchange. For pipelining, pair
//! [`Client::send`] (tagging each request with an `id`) with
//! [`Client::recv`]: replies carry the id back, so they can be matched
//! even when the server completes them out of order — including the
//! streamed `block` frames of a `{"type":"batch","stream":true}`
//! request, which all carry the batch's id with `recv` returning them
//! one frame at a time until the summary arrives.
//!
//! [`Client::connect_binary`] negotiates the compact `vcsched-frame`
//! framing instead of newline JSON. The switch is
//! transparent: every method keeps its signature, with the raw-line
//! variants transcoding between JSON text and binary frames at the
//! socket boundary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde::Deserialize;
use serde_json::Value;

use crate::frame;
use crate::protocol::{envelope_id, request_line, request_value, Request, Response};

/// The client-side framing (mirrors the server's per-connection wire).
#[derive(Clone, Copy, PartialEq)]
enum Wire {
    Json,
    Binary(frame::Version),
}

/// A connected protocol client. One request/response exchange at a time;
/// the connection stays open across requests.
pub struct Client {
    reader: BufReader<TcpStream>,
    wire: Wire,
}

impl Client {
    /// Connects to a running `vcsched serve` on the newline-JSON wire.
    pub fn connect<A: ToSocketAddrs + std::fmt::Debug>(addr: A) -> Result<Client, String> {
        let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr:?}: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            reader: BufReader::new(stream),
            wire: Wire::Json,
        })
    }

    /// Connects and negotiates the `vcsched-frame` binary framing: sends
    /// the newest version's preamble and waits for the server to echo
    /// it back before the first request goes out. A server that
    /// predates that version answers the unknown preamble as a bad JSON
    /// line, so the client reconnects and offers `v1`.
    pub fn connect_binary<A: ToSocketAddrs + std::fmt::Debug>(addr: A) -> Result<Client, String> {
        Client::negotiate(&addr, frame::Version::V2)
            .or_else(|_| Client::negotiate(&addr, frame::Version::V1))
    }

    fn negotiate<A: ToSocketAddrs + std::fmt::Debug>(
        addr: A,
        version: frame::Version,
    ) -> Result<Client, String> {
        let mut client = Client::connect(addr)?;
        let stream = client.reader.get_mut();
        stream
            .write_all(&version.magic())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("send preamble: {e}"))?;
        let mut ack = [0u8; frame::MAGIC.len()];
        client
            .reader
            .read_exact(&mut ack)
            .map_err(|e| format!("read preamble ack: {e}"))?;
        if ack != version.magic() {
            return Err("server did not acknowledge binary framing".to_owned());
        }
        client.wire = Wire::Binary(version);
        Ok(client)
    }

    /// True when the connection negotiated binary framing.
    pub fn is_binary(&self) -> bool {
        matches!(self.wire, Wire::Binary(_))
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        let line = serde_json::to_string(request).map_err(|e| e.to_string())?;
        let raw = self.request_raw(&line)?;
        serde_json::from_str(&raw).map_err(|e| format!("bad response `{raw}`: {e}"))
    }

    /// Sends one raw JSON line and returns the raw response line — the
    /// scripting escape hatch (`vcsched request --json`). On a binary
    /// connection the line is transcoded to a frame on the way out and
    /// the reply frame back to JSON text, so callers always see JSON.
    pub fn request_raw(&mut self, line: &str) -> Result<String, String> {
        self.send_raw(line)?;
        self.recv_raw()
    }

    /// Sends one request without waiting for its reply, optionally
    /// tagged with an envelope `id` (the pipelining half-exchange; pair
    /// with [`Client::recv`]).
    pub fn send(&mut self, request: &Request, id: Option<u64>) -> Result<(), String> {
        match self.wire {
            Wire::Json => {
                let line = request_line(request, id)?;
                self.send_raw(&line)
            }
            // Typed requests skip the JSON text round-trip entirely:
            // build the wire value once and encode it straight into a
            // frame (the fast path `vcsched-frame` exists for).
            Wire::Binary(version) => self.send_frame(&request_value(request, id), version),
        }
    }

    /// Sends one raw JSON line without waiting for a reply (transcoded
    /// to a frame on a binary connection).
    fn send_raw(&mut self, line: &str) -> Result<(), String> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        match self.wire {
            Wire::Json => self.write(format!("{line}\n").as_bytes()),
            Wire::Binary(version) => {
                let value: Value =
                    serde_json::from_str(line).map_err(|e| format!("bad request `{line}`: {e}"))?;
                self.send_frame(&value, version)
            }
        }
    }

    fn send_frame(&mut self, value: &Value, version: frame::Version) -> Result<(), String> {
        let mut bytes = Vec::new();
        frame::encode_frame_into(value, version, &mut bytes, &mut Vec::new());
        self.write(&bytes)
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        let stream = self.reader.get_mut();
        stream
            .write_all(bytes)
            .and_then(|()| stream.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads the next raw reply as a JSON line (a binary reply frame is
    /// rendered back to JSON text).
    pub fn recv_raw(&mut self) -> Result<String, String> {
        match self.wire {
            Wire::Json => {
                let mut response = String::new();
                let n = self
                    .reader
                    .read_line(&mut response)
                    .map_err(|e| format!("receive: {e}"))?;
                if n == 0 {
                    return Err("server closed the connection".to_owned());
                }
                Ok(response.trim_end().to_owned())
            }
            Wire::Binary(version) => {
                let value = self.recv_frame(version)?;
                serde_json::to_string(&value).map_err(|e| format!("receive: {e}"))
            }
        }
    }

    /// Reads one complete binary frame off the socket: the varint
    /// length prefix byte-at-a-time, then the announced payload.
    fn recv_frame(&mut self, version: frame::Version) -> Result<Value, String> {
        let mut buf = Vec::new();
        loop {
            let mut byte = [0u8; 1];
            self.reader.read_exact(&mut byte).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof && buf.is_empty() {
                    "server closed the connection".to_owned()
                } else {
                    format!("receive: {e}")
                }
            })?;
            buf.push(byte[0]);
            if byte[0] & 0x80 == 0 {
                break;
            }
            if buf.len() > 10 {
                return Err("receive: frame length prefix overlong".to_owned());
            }
        }
        // The prefix is complete, so the only incomplete-decode cause
        // left is missing payload bytes; read exactly that many.
        loop {
            match frame::decode_frame_as(&buf, version, usize::MAX)
                .map_err(|e| format!("receive: {e}"))?
            {
                Some((value, _)) => return Ok(value),
                None => {
                    // Decode reported "need more": extend by what the
                    // prefix announced minus what we already hold.
                    let have = buf.len();
                    let (len, prefix) = decode_len(&buf)?;
                    let total = prefix + len;
                    buf.resize(total, 0);
                    self.reader
                        .read_exact(&mut buf[have..])
                        .map_err(|e| format!("receive: {e}"))?;
                }
            }
        }
    }

    /// Reads the next reply and its envelope `id` (`None` for replies
    /// to id-less requests). Streamed `block` frames come back as
    /// ordinary [`Response::Block`] values under their batch's id.
    pub fn recv(&mut self) -> Result<(Option<u64>, Response), String> {
        let value: Value = match self.wire {
            Wire::Json => {
                let raw = self.recv_raw()?;
                serde_json::from_str(&raw).map_err(|e| format!("bad response `{raw}`: {e}"))?
            }
            Wire::Binary(version) => self.recv_frame(version)?,
        };
        let id = envelope_id(&value).map_err(|e| format!("bad response: {e}"))?;
        let response = Response::from_value(&value).map_err(|e| format!("bad response: {e}"))?;
        Ok((id, response))
    }
}

/// Decodes a complete LEB128 length prefix: `(payload_len, prefix_len)`.
fn decode_len(buf: &[u8]) -> Result<(usize, usize), String> {
    let mut len: u64 = 0;
    for (i, &b) in buf.iter().enumerate() {
        len |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            return Ok((len as usize, i + 1));
        }
    }
    Err("receive: frame length prefix truncated".to_owned())
}
