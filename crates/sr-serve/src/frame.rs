//! The length-prefixed frame protocol spoken between `silkroute serve` and
//! its clients.
//!
//! Every message on the wire is one **frame**:
//!
//! ```text
//! ┌────────────┬───────────┬──────────────────┐
//! │ u32 BE len │ u8 opcode │ payload (len-1 B)│
//! └────────────┴───────────┴──────────────────┘
//! ```
//!
//! `len` counts the opcode byte plus the payload, so a valid frame always
//! has `1 <= len <= MAX_FRAME_LEN`. Integers inside payloads are
//! big-endian; strings are `u16 len + UTF-8 bytes`. The format is
//! deliberately self-terminating: a reader always knows how many bytes the
//! current frame still needs, which is what lets the server bound how long
//! it will wait for a stalled client (see the connection read timeout in
//! [`crate::server`]).
//!
//! Decoding is **total**: any byte sequence either parses into a
//! [`Request`]/[`Response`] or yields a typed [`ProtoError`] — never a
//! panic, and never an unbounded read. The property tests in
//! `tests/protocol.rs` pin both directions.

use std::fmt;
use std::io::{Read, Write};

/// Hard cap on one frame's `len` field (opcode + payload). Responses chunk
/// their payloads far below this; a request claiming more is hostile or
/// corrupt and is rejected before any allocation.
pub const MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// Chunk channel number carried by XML document chunks (tuple-mode chunks
/// use their stream index, which is always below this).
pub const DOC_CHANNEL: u16 = u16::MAX;

/// Typed protocol failure. Every malformed input maps onto one of these;
/// the server answers with an [`ErrorCode::Malformed`] error frame and
/// closes the connection.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying socket failure.
    Io(std::io::Error),
    /// The peer closed (or stalled past the read timeout) mid-frame: some
    /// bytes of a frame arrived but the rest never did.
    Truncated {
        /// Bytes the frame still owed when the connection broke off.
        missing: usize,
    },
    /// A frame's length field exceeds [`MAX_FRAME_LEN`] (or is zero).
    BadLength {
        /// The claimed length.
        len: u64,
    },
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// The opcode was known but its payload did not parse.
    BadPayload {
        /// Which opcode's payload failed.
        opcode: u8,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io error: {e}"),
            ProtoError::Truncated { missing } => {
                write!(f, "truncated frame: {missing} byte(s) missing")
            }
            ProtoError::BadLength { len } => {
                write!(f, "bad frame length {len} (max {MAX_FRAME_LEN})")
            }
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::BadPayload { opcode, reason } => {
                write!(f, "bad payload for opcode 0x{opcode:02x}: {reason}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// How a query's result should be shipped back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// The tagged XML document, as raw bytes in document order.
    #[default]
    Xml,
    /// The component tuple streams in the engine's wire encoding
    /// ([`sr_engine::wire`]), each chunk tagged with its stream index.
    Tuples,
}

/// What the query runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewRef {
    /// A view pre-registered in the server's catalog (`query1`, `query2`).
    Named(String),
    /// RXL source text shipped inline, parsed and planned per request.
    Rxl(String),
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Materialize a view and stream the result back.
    Query {
        /// Result encoding.
        format: Format,
        /// The view to materialize.
        view: ViewRef,
        /// Plan spec string: `unified` | `partitioned` | `outer-union` |
        /// `edges:<bits>`, as the CLI's `--plan` flag (greedy planning is
        /// an offline decision and is not accepted over the wire).
        plan: String,
        /// Optional XPath to run against the **virtual** view: the view
        /// tree is pruned to what the path touches before planning, so a
        /// selective path ships a fraction of the full document. `None`
        /// materializes the whole view; encoded as the original
        /// `OP_QUERY` frame, so pre-XPath peers interoperate unchanged.
        xpath: Option<String>,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Cancel the query currently in flight on this connection (a no-op
    /// when idle).
    Cancel,
    /// Ask the server to begin a graceful shutdown: drain in-flight
    /// queries, answer new ones with [`Response::Busy`], then exit.
    Shutdown,
    /// Ask for a live telemetry snapshot; answered with
    /// [`Response::Stats`]. Never admission-controlled: STATS must work
    /// precisely when the server is saturated or draining.
    Stats,
}

/// Error category carried by an error frame — the wire rendition of
/// [`sr_engine::EngineError`] plus the protocol-level cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame itself did not parse.
    Malformed,
    /// Named view not present in the server's catalog.
    UnknownView,
    /// The plan spec string was not understood.
    BadPlan,
    /// Planning or execution failed server-side (parse/bind/execute).
    Engine,
    /// The query was cancelled (client request or disconnect).
    Cancelled,
    /// The query exceeded the server's per-query deadline.
    Timeout,
    /// An engine invariant broke (isolated panic, truncated stream).
    Internal,
    /// The query *text* shipped with the request was rejected: inline RXL
    /// that fails to parse (including the nesting-depth guard) or an
    /// XPath that fails to parse or compose with the view. Distinct from
    /// [`ErrorCode::Engine`] so clients can tell "my query is bad" from
    /// "the server failed to run a good query".
    BadQuery,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownView => 2,
            ErrorCode::BadPlan => 3,
            ErrorCode::Engine => 4,
            ErrorCode::Cancelled => 5,
            ErrorCode::Timeout => 6,
            ErrorCode::Internal => 7,
            ErrorCode::BadQuery => 8,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownView,
            3 => ErrorCode::BadPlan,
            4 => ErrorCode::Engine,
            5 => ErrorCode::Cancelled,
            6 => ErrorCode::Timeout,
            7 => ErrorCode::Internal,
            8 => ErrorCode::BadQuery,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "MALFORMED",
            ErrorCode::UnknownView => "UNKNOWN_VIEW",
            ErrorCode::BadPlan => "BAD_PLAN",
            ErrorCode::Engine => "ENGINE",
            ErrorCode::Cancelled => "CANCELLED",
            ErrorCode::Timeout => "TIMEOUT",
            ErrorCode::Internal => "INTERNAL",
            ErrorCode::BadQuery => "BAD_QUERY",
        };
        f.write_str(s)
    }
}

/// End-of-response summary shipped with [`Response::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DoneStats {
    /// Tuples consumed across all component streams.
    pub tuples: u64,
    /// XML elements emitted (zero in tuple mode).
    pub elements: u64,
    /// Payload bytes shipped in chunk frames.
    pub bytes: u64,
    /// Component streams the plan decomposed into.
    pub streams: u64,
    /// Server-side wall time for the whole request, in microseconds.
    pub elapsed_us: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// One run of result bytes. `channel` is [`DOC_CHANNEL`] for XML
    /// document chunks, or the component-stream index in tuple mode.
    Chunk {
        /// Which logical stream the bytes belong to.
        channel: u16,
        /// The payload run.
        data: Vec<u8>,
    },
    /// Successful end of response.
    Done(DoneStats),
    /// The request failed; any chunks already shipped are to be discarded.
    Error {
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Admission rejected the request (queue full, quota, or the server is
    /// draining). Distinct from [`Response::Error`] so clients can
    /// back off and retry rather than report a failure.
    Busy {
        /// Why admission refused.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Acknowledges [`Request::Shutdown`]; the connection closes next.
    Goodbye,
    /// Answer to [`Request::Stats`]: a UTF-8 JSON telemetry snapshot,
    /// carried as raw bytes (not a length-prefixed string — the snapshot
    /// can exceed a u16 on a server with many clients and instruments).
    Stats {
        /// JSON bytes; see `docs/OBSERVABILITY.md` for the schema.
        data: Vec<u8>,
    },
}

// Opcode bytes. Requests are < 0x80, responses >= 0x80.
const OP_QUERY: u8 = 0x01;
const OP_PING: u8 = 0x02;
const OP_CANCEL: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_QUERY_XPATH: u8 = 0x06;
const OP_CHUNK: u8 = 0x81;
const OP_DONE: u8 = 0x82;
const OP_ERROR: u8 = 0x83;
const OP_BUSY: u8 = 0x84;
const OP_PONG: u8 = 0x85;
const OP_GOODBYE: u8 = 0x86;
const OP_STATS_RESP: u8 = 0x87;

/// A cursor over one frame's payload with typed, bounds-checked readers.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    opcode: u8,
}

impl<'a> Cursor<'a> {
    fn bad(&self, reason: impl Into<String>) -> ProtoError {
        ProtoError::BadPayload {
            opcode: self.opcode,
            reason: reason.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(self.bad(format!(
                "needs {n} more byte(s), {} left",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| self.bad(format!("invalid utf-8: {e}")))
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(self.bad(format!(
                "{} trailing byte(s) after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    // Strings longer than a u16 cannot be encoded; the only unbounded one
    // is RXL source, which the encoder truncates rather than corrupting
    // the frame. (Views that large are beyond anything the parser accepts.)
    let len = s.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

impl Request {
    /// Encode into a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let (opcode, payload) = match self {
            Request::Query {
                format,
                view,
                plan,
                xpath,
            } => {
                let mut p = Vec::new();
                p.push(match format {
                    Format::Xml => 0u8,
                    Format::Tuples => 1u8,
                });
                match view {
                    ViewRef::Named(name) => {
                        p.push(0u8);
                        put_string(&mut p, name);
                    }
                    ViewRef::Rxl(src) => {
                        p.push(1u8);
                        put_string(&mut p, src);
                    }
                }
                put_string(&mut p, plan);
                match xpath {
                    None => (OP_QUERY, p),
                    Some(path) => {
                        put_string(&mut p, path);
                        (OP_QUERY_XPATH, p)
                    }
                }
            }
            Request::Ping => (OP_PING, Vec::new()),
            Request::Cancel => (OP_CANCEL, Vec::new()),
            Request::Shutdown => (OP_SHUTDOWN, Vec::new()),
            Request::Stats => (OP_STATS, Vec::new()),
        };
        frame_bytes(opcode, &payload)
    }

    /// Decode from an opcode + payload (the frame header already consumed).
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
            opcode,
        };
        let req = match opcode {
            OP_QUERY | OP_QUERY_XPATH => {
                let format = match c.u8()? {
                    0 => Format::Xml,
                    1 => Format::Tuples,
                    v => return Err(c.bad(format!("unknown format {v}"))),
                };
                let view = match c.u8()? {
                    0 => ViewRef::Named(c.string()?),
                    1 => ViewRef::Rxl(c.string()?),
                    v => return Err(c.bad(format!("unknown view kind {v}"))),
                };
                let plan = c.string()?;
                let xpath = if opcode == OP_QUERY_XPATH {
                    Some(c.string()?)
                } else {
                    None
                };
                Request::Query {
                    format,
                    view,
                    plan,
                    xpath,
                }
            }
            OP_PING => Request::Ping,
            OP_CANCEL => Request::Cancel,
            OP_SHUTDOWN => Request::Shutdown,
            OP_STATS => Request::Stats,
            op => return Err(ProtoError::BadOpcode(op)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode into a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let (opcode, payload) = match self {
            Response::Chunk { channel, data } => {
                let mut p = Vec::with_capacity(2 + data.len());
                p.extend_from_slice(&channel.to_be_bytes());
                p.extend_from_slice(data);
                (OP_CHUNK, p)
            }
            Response::Done(s) => {
                let mut p = Vec::with_capacity(40);
                for v in [s.tuples, s.elements, s.bytes, s.streams, s.elapsed_us] {
                    p.extend_from_slice(&v.to_be_bytes());
                }
                (OP_DONE, p)
            }
            Response::Error { code, message } => {
                let mut p = vec![code.to_u8()];
                put_string(&mut p, message);
                (OP_ERROR, p)
            }
            Response::Busy { message } => {
                let mut p = Vec::new();
                put_string(&mut p, message);
                (OP_BUSY, p)
            }
            Response::Pong => (OP_PONG, Vec::new()),
            Response::Goodbye => (OP_GOODBYE, Vec::new()),
            Response::Stats { data } => (OP_STATS_RESP, data.clone()),
        };
        frame_bytes(opcode, &payload)
    }

    /// Decode from an opcode + payload (the frame header already consumed).
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
            opcode,
        };
        let resp = match opcode {
            OP_CHUNK => {
                let channel = c.u16()?;
                let data = c.buf[c.pos..].to_vec();
                c.pos = c.buf.len();
                Response::Chunk { channel, data }
            }
            OP_DONE => Response::Done(DoneStats {
                tuples: c.u64()?,
                elements: c.u64()?,
                bytes: c.u64()?,
                streams: c.u64()?,
                elapsed_us: c.u64()?,
            }),
            OP_ERROR => {
                let raw = c.u8()?;
                let code = ErrorCode::from_u8(raw)
                    .ok_or_else(|| c.bad(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    message: c.string()?,
                }
            }
            OP_BUSY => Response::Busy {
                message: c.string()?,
            },
            OP_PONG => Response::Pong,
            OP_GOODBYE => Response::Goodbye,
            OP_STATS_RESP => {
                let data = c.buf[c.pos..].to_vec();
                c.pos = c.buf.len();
                Response::Stats { data }
            }
            op => return Err(ProtoError::BadOpcode(op)),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Assemble a complete frame from opcode + payload.
fn frame_bytes(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let len = 1 + payload.len();
    debug_assert!(len <= MAX_FRAME_LEN);
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_be_bytes());
    out.push(opcode);
    out.extend_from_slice(payload);
    out
}

/// A retained buffer that CHUNK frames are assembled in and shipped from:
/// frame header, channel and payload sit back to back, so a frame leaves
/// in one `write_all` (one syscall on a `TCP_NODELAY` socket) with the
/// payload copied once — into here — and nothing allocated per frame.
/// Produces exactly the bytes of [`Response::Chunk`]'s `encode`.
pub struct ChunkFrame {
    /// Header placeholder, then the payload gathered so far.
    buf: Vec<u8>,
}

/// `u32` length + opcode + `u16` channel.
const CHUNK_HEADER: usize = 7;

impl ChunkFrame {
    /// An empty frame with room for `payload` bytes.
    pub fn with_capacity(payload: usize) -> ChunkFrame {
        let mut buf = Vec::with_capacity(CHUNK_HEADER + payload);
        buf.resize(CHUNK_HEADER, 0);
        ChunkFrame { buf }
    }

    /// Payload bytes gathered and not yet shipped.
    pub fn payload_len(&self) -> usize {
        self.buf.len() - CHUNK_HEADER
    }

    /// Append to the payload.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Ship the gathered payload as one CHUNK frame on `channel`, leaving
    /// the frame empty. Ships nothing if there is no payload.
    pub fn write_to<W: Write>(&mut self, channel: u16, out: &mut W) -> std::io::Result<()> {
        if self.payload_len() == 0 {
            return Ok(());
        }
        let len = self.buf.len() - 4;
        debug_assert!(len <= MAX_FRAME_LEN);
        self.buf[..4].copy_from_slice(&(len as u32).to_be_bytes());
        self.buf[4] = OP_CHUNK;
        self.buf[5..CHUNK_HEADER].copy_from_slice(&channel.to_be_bytes());
        let shipped = out.write_all(&self.buf);
        self.buf.truncate(CHUNK_HEADER);
        shipped
    }
}

/// One raw frame off the wire: opcode + payload, header already validated.
#[derive(Debug)]
pub struct RawFrame {
    /// The opcode byte.
    pub opcode: u8,
    /// The payload (frame length minus the opcode byte).
    pub payload: Vec<u8>,
}

/// Read exactly `buf.len()` bytes. Distinguishes the clean-close case
/// (`Ok(false)` when EOF arrives before the *first* byte and
/// `eof_ok` is set) from a mid-frame truncation (typed error).
fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    eof_ok: bool,
) -> Result<bool, ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok {
                    return Ok(false);
                }
                return Err(ProtoError::Truncated {
                    missing: buf.len() - filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame. Returns `Ok(None)` on a clean end of stream (EOF
/// exactly at a frame boundary); every other irregularity is a typed
/// [`ProtoError`]. The length field is validated **before** any payload
/// allocation, so a hostile length cannot balloon memory.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<RawFrame>, ProtoError> {
    let mut header = [0u8; 4];
    if !read_exact_or_truncated(r, &mut header, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(ProtoError::BadLength { len: len as u64 });
    }
    let mut opcode = [0u8; 1];
    read_exact_or_truncated(r, &mut opcode, false)?;
    let mut payload = vec![0u8; len - 1];
    read_exact_or_truncated(r, &mut payload, false)?;
    Ok(Some(RawFrame {
        opcode: opcode[0],
        payload,
    }))
}

/// Read one frame and decode it as a [`Request`].
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Request>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(f) => Request::decode(f.opcode, &f.payload).map(Some),
    }
}

/// Read one frame and decode it as a [`Response`].
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Response>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(f) => Response::decode(f.opcode, &f.payload).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_frame_ships_the_bytes_of_an_encoded_chunk_and_is_reusable() {
        let mut frame = ChunkFrame::with_capacity(8);
        let mut wire = Vec::new();
        frame.write_to(3, &mut wire).unwrap();
        assert!(wire.is_empty(), "no payload, no frame");
        for (channel, parts) in [
            (3u16, vec![&b"ab"[..], b"cde"]),
            (DOC_CHANNEL, vec![b"<x>"]),
        ] {
            for part in &parts {
                frame.extend(part);
            }
            let data = parts.concat();
            assert_eq!(frame.payload_len(), data.len());
            wire.clear();
            frame.write_to(channel, &mut wire).unwrap();
            assert_eq!(wire, Response::Chunk { channel, data }.encode());
            assert_eq!(frame.payload_len(), 0);
        }
    }

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Query {
                format: Format::Xml,
                view: ViewRef::Named("query1".into()),
                plan: "unified".into(),
                xpath: None,
            },
            Request::Query {
                format: Format::Tuples,
                view: ViewRef::Rxl("from Supplier $s construct <s/>".into()),
                plan: "edges:5".into(),
                xpath: None,
            },
            Request::Query {
                format: Format::Xml,
                view: ViewRef::Named("query1".into()),
                plan: "partitioned".into(),
                xpath: Some("/supplier[name = \"x\"]/part".into()),
            },
            Request::Ping,
            Request::Cancel,
            Request::Shutdown,
            Request::Stats,
        ];
        for req in reqs {
            let bytes = req.encode();
            let mut r = &bytes[..];
            let back = read_request(&mut r).unwrap().unwrap();
            assert_eq!(back, req);
            assert!(read_request(&mut r).unwrap().is_none(), "exactly one frame");
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Chunk {
                channel: DOC_CHANNEL,
                data: b"<supplier>".to_vec(),
            },
            Response::Chunk {
                channel: 3,
                data: vec![0, 1, 2, 255],
            },
            Response::Done(DoneStats {
                tuples: 10,
                elements: 20,
                bytes: 30,
                streams: 2,
                elapsed_us: 12345,
            }),
            Response::Error {
                code: ErrorCode::Timeout,
                message: "query timed out after 5ms".into(),
            },
            Response::Busy {
                message: "queue full".into(),
            },
            Response::Pong,
            Response::Goodbye,
            Response::Stats {
                data: br#"{"uptime_s":1.5}"#.to_vec(),
            },
        ];
        for resp in resps {
            let bytes = resp.encode();
            let mut r = &bytes[..];
            assert_eq!(read_response(&mut r).unwrap().unwrap(), resp);
        }
    }

    #[test]
    fn zero_and_oversize_lengths_rejected() {
        let mut zero = &[0u8, 0, 0, 0][..];
        assert!(matches!(
            read_frame(&mut zero),
            Err(ProtoError::BadLength { len: 0 })
        ));
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes();
        let mut r = &huge[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtoError::BadLength { .. })
        ));
    }

    #[test]
    fn truncation_mid_frame_is_typed() {
        let full = Request::Ping.encode();
        for cut in 1..full.len() {
            let mut r = &full[..cut];
            match read_frame(&mut r) {
                Err(ProtoError::Truncated { missing }) => assert!(missing > 0, "cut {cut}"),
                other => panic!("cut {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn eof_at_boundary_is_clean() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn garbage_opcode_rejected() {
        let frame = frame_bytes(0x7f, b"");
        let mut r = &frame[..];
        let raw = read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(
            Request::decode(raw.opcode, &raw.payload),
            Err(ProtoError::BadOpcode(0x7f))
        ));
        assert!(matches!(
            Response::decode(0x40, b""),
            Err(ProtoError::BadOpcode(0x40))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        assert!(matches!(
            Request::decode(OP_PING, &[9]),
            Err(ProtoError::BadPayload { .. })
        ));
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::UnknownView,
            ErrorCode::BadPlan,
            ErrorCode::Engine,
            ErrorCode::Cancelled,
            ErrorCode::Timeout,
            ErrorCode::Internal,
            ErrorCode::BadQuery,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(9), None);
    }

    #[test]
    fn plain_query_stays_on_the_original_opcode() {
        // Wire compatibility: a query without an XPath must encode exactly
        // as it did before the virtual-view extension.
        let req = Request::Query {
            format: Format::Xml,
            view: ViewRef::Named("query1".into()),
            plan: "unified".into(),
            xpath: None,
        };
        assert_eq!(req.encode()[4], OP_QUERY);
        let with_path = Request::Query {
            format: Format::Xml,
            view: ViewRef::Named("query1".into()),
            plan: "unified".into(),
            xpath: Some("//part".into()),
        };
        assert_eq!(with_path.encode()[4], OP_QUERY_XPATH);
    }
}
