//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message — request or response — travels in one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        0x42444769 ("iGDB" little-endian)
//!      4     8  id           correlation id, echoed on the response
//!     12     4  deadline_ms  requests: per-request budget (0 = server
//!                            default); responses: always 0
//!     16     1  op           opcode (requests) / tag (responses)
//!     17     4  len          payload length in bytes
//!     21   len  payload      opcode-specific little-endian fields
//! ```
//!
//! All integers are little-endian; floats are IEEE-754 bit patterns in a
//! `u64`. The frame is self-delimiting, so a reader always knows whether
//! it is desynchronized: a bad magic, an oversized `len`, or bytes left
//! over after decoding are each a typed [`ProtoError`], which the server
//! answers with a [`ServeError::BadRequest`] before closing the
//! connection (a desynchronized stream cannot be trusted further).
//!
//! The error taxonomy on the wire is exactly [`ServeError`]: tag
//! [`TAG_ERROR`] carries the one-byte [`ServeError::code`], a `u64`
//! auxiliary (deadline budget or queue depth), and a detail string.

use std::io::{Read, Write};

use igdb_fault::ServeError;

use crate::recorder::{ClientRow, HistDigest, RecorderSnapshot};

/// `"iGDB"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"iGDB");

/// Fixed frame-header size (magic + id + deadline + op + len).
pub const HEADER_LEN: usize = 21;

/// Default cap on payload length; a frame claiming more is refused
/// without reading it.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Response tag carrying a [`ServeError`].
pub const TAG_ERROR: u8 = 0xE0;

/// A request the server can execute.
///
/// `Sleep` and `Panic` are chaos-harness instruments: they only decode
/// when the server was started with `enable_test_ops` (production
/// configurations answer them with `BadRequest`). `Introspect` is the
/// control op, answered inline by the connection reader — it bypasses the
/// request queue so the chaos harness can observe saturation while every
/// worker is busy.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe through the full queue/worker path.
    Ping,
    /// One shortest-path query over the physical graph.
    SpQuery { from: u32, to: u32 },
    /// A batch of shortest-path queries; the deadline is checked between
    /// pairs (the analysis-loop safepoint).
    SpBatch { pairs: Vec<(u32, u32)> },
    /// Hazard-region exposure (§4.4) over an axis-aligned bounding box.
    RiskExposure { west: f64, south: f64, east: f64, north: f64 },
    /// Country-presence footprint (§4.5, Table 2).
    Footprint { top_n: u16 },
    /// Test op: hold a worker for `ms`, checking the deadline every
    /// millisecond.
    Sleep { ms: u32 },
    /// Test op: panic inside the analysis (exercises containment).
    Panic,
    /// Control op: full live introspection (liveness gauges,
    /// flight-recorder snapshot, per-client table, registry counters),
    /// answered inline by the reader with a *versioned* payload — see
    /// [`Introspection`].
    Introspect,
}

impl Request {
    /// Stable opcode.
    pub fn op(&self) -> u8 {
        match self {
            Request::Ping => 0x01,
            Request::SpQuery { .. } => 0x02,
            Request::SpBatch { .. } => 0x03,
            Request::RiskExposure { .. } => 0x04,
            Request::Footprint { .. } => 0x05,
            Request::Sleep { .. } => 0x06,
            Request::Panic => 0x07,
            Request::Introspect => 0x09,
        }
    }

    /// Metric label for this request kind (`serve.requests{kind}`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::SpQuery { .. } => "sp_query",
            Request::SpBatch { .. } => "sp_batch",
            Request::RiskExposure { .. } => "risk",
            Request::Footprint { .. } => "footprint",
            Request::Sleep { .. } => "sleep",
            Request::Panic => "panic",
            Request::Introspect => "introspect",
        }
    }

    /// Serializes the payload (everything after the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping | Request::Panic | Request::Introspect => {}
            Request::SpQuery { from, to } => {
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&to.to_le_bytes());
            }
            Request::SpBatch { pairs } => {
                out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                for &(a, b) in pairs {
                    out.extend_from_slice(&a.to_le_bytes());
                    out.extend_from_slice(&b.to_le_bytes());
                }
            }
            Request::RiskExposure { west, south, east, north } => {
                for v in [west, south, east, north] {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Request::Footprint { top_n } => out.extend_from_slice(&top_n.to_le_bytes()),
            Request::Sleep { ms } => out.extend_from_slice(&ms.to_le_bytes()),
        }
        out
    }

    /// Decodes a request payload for `op`. Rejects trailing bytes: a
    /// frame that decodes but is longer than its opcode allows is a
    /// desynchronization signal, not padding.
    pub fn decode(op: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cur::new(payload);
        let req = match op {
            0x01 => Request::Ping,
            0x02 => Request::SpQuery { from: c.u32()?, to: c.u32()? },
            0x03 => {
                let n = c.u32()? as usize;
                // Bound before allocating: the count must be consistent
                // with the bytes actually present.
                if payload.len().saturating_sub(4) != n * 8 {
                    return Err(ProtoError::BadValue {
                        what: "sp_batch pair count disagrees with payload length",
                    });
                }
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((c.u32()?, c.u32()?));
                }
                Request::SpBatch { pairs }
            }
            0x04 => Request::RiskExposure {
                west: c.f64()?,
                south: c.f64()?,
                east: c.f64()?,
                north: c.f64()?,
            },
            0x05 => Request::Footprint { top_n: c.u16()? },
            0x06 => Request::Sleep { ms: c.u32()? },
            0x07 => Request::Panic,
            0x09 => Request::Introspect,
            other => return Err(ProtoError::UnknownOpcode { op: other }),
        };
        c.finish()?;
        Ok(req)
    }
}

/// A typed response. Exactly one is produced for every admitted request,
/// and exactly one `Error` for every refused or failed one — the chaos
/// ledger's conservation law.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Pong,
    /// A route exists: hop count and length.
    Path { hops: u32, km: f64 },
    /// No route between the endpoints (a result, not an error).
    NoRoute,
    /// Batch summary: routed pairs, unreachable pairs, total km routed.
    Batch { routed: u32, unreachable: u32, total_km: f64 },
    Risk { paths: u32, cables: u32, metros: u32, ases: u32 },
    Footprint { rows: u32 },
    Slept,
    /// Live introspection snapshot; payload is versioned (see
    /// [`Introspection`]).
    Introspect(Introspection),
    Error(ServeError),
}

/// The `Introspect` response body: everything `igdb top` renders.
///
/// The wire payload leads with a one-byte version ([`INTROSPECT_VERSION`]);
/// a decoder seeing a version it does not understand refuses the whole
/// payload with a typed [`ProtoError::BadValue`] instead of guessing at
/// field offsets — the schema can evolve without silently misreading old
/// clients.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Introspection {
    /// Currently published epoch number.
    pub epoch: u64,
    /// Microseconds since the server started.
    pub uptime_us: u64,
    pub workers: u32,
    pub busy_workers: u32,
    pub queue_depth: u32,
    pub queue_capacity: u32,
    /// Metros in the currently published epoch: the bound on the metro
    /// ids a remote client may put in a query.
    pub n_metros: u32,
    pub draining: bool,
    /// Flight-recorder view: exact ledger, ring/slow summary, per-client
    /// table, epoch-pin distribution.
    pub recorder: RecorderSnapshot,
    /// The registry's deterministic counter snapshot
    /// (`name{label} value` lines) — reading it over the wire must not
    /// perturb the gated stream.
    pub counters: String,
}

/// Current version of the [`Introspection`] wire payload.
pub const INTROSPECT_VERSION: u8 = 2;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_digest(out: &mut Vec<u8>, d: &HistDigest) {
    for v in [d.count, d.p50_us, d.p99_us, d.max_us] {
        put_u64(out, v);
    }
}

fn get_digest(c: &mut Cur<'_>) -> Result<HistDigest, ProtoError> {
    Ok(HistDigest {
        count: c.u64()?,
        p50_us: c.u64()?,
        p99_us: c.u64()?,
        max_us: c.u64()?,
    })
}

impl Introspection {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(INTROSPECT_VERSION);
        put_u64(out, self.epoch);
        put_u64(out, self.uptime_us);
        for v in [
            self.workers,
            self.busy_workers,
            self.queue_depth,
            self.queue_capacity,
            self.n_metros,
        ] {
            put_u32(out, v);
        }
        out.push(self.draining as u8);
        let r = &self.recorder;
        put_u64(out, r.requests);
        put_u64(out, r.ok);
        for v in r.err {
            put_u64(out, v);
        }
        put_u64(out, r.live);
        for v in r.rejected {
            put_u64(out, v);
        }
        put_u64(out, r.bytes_in);
        put_u64(out, r.bytes_out);
        put_u32(out, r.ring_len);
        put_u32(out, r.ring_cap);
        put_u64(out, r.slow_count);
        put_u64(out, r.slow_ms);
        put_u32(out, r.clients.len() as u32);
        for row in &r.clients {
            put_u64(out, row.conn);
            put_u64(out, row.requests);
            put_u64(out, row.ok);
            for v in row.err {
                put_u64(out, v);
            }
            for v in row.rejected {
                put_u64(out, v);
            }
            put_u64(out, row.bytes_in);
            put_u64(out, row.bytes_out);
            put_digest(out, &row.queue_wait);
        }
        put_u32(out, r.epoch_pins.len() as u32);
        for &(e, n) in &r.epoch_pins {
            put_u64(out, e);
            put_u64(out, n);
        }
        put_u64(out, r.pins_evicted);
        put_digest(out, &r.epoch_lag);
        put_u32(out, self.counters.len() as u32);
        out.extend_from_slice(self.counters.as_bytes());
    }

    fn decode_from(c: &mut Cur<'_>) -> Result<Self, ProtoError> {
        let version = c.u8()?;
        if version != INTROSPECT_VERSION {
            return Err(ProtoError::BadValue {
                what: "unsupported introspection payload version",
            });
        }
        let epoch = c.u64()?;
        let uptime_us = c.u64()?;
        let workers = c.u32()?;
        let busy_workers = c.u32()?;
        let queue_depth = c.u32()?;
        let queue_capacity = c.u32()?;
        let n_metros = c.u32()?;
        let draining = c.u8()? != 0;
        let mut r = RecorderSnapshot {
            requests: c.u64()?,
            ok: c.u64()?,
            ..Default::default()
        };
        for v in r.err.iter_mut() {
            *v = c.u64()?;
        }
        r.live = c.u64()?;
        for v in r.rejected.iter_mut() {
            *v = c.u64()?;
        }
        r.bytes_in = c.u64()?;
        r.bytes_out = c.u64()?;
        r.ring_len = c.u32()?;
        r.ring_cap = c.u32()?;
        r.slow_count = c.u64()?;
        r.slow_ms = c.u64()?;
        let n_clients = c.u32()? as usize;
        // Bound before allocating (a client row is at least 15 u64s plus
        // the queue-wait digest on the wire).
        if n_clients > c.remaining() / (19 * 8) {
            return Err(ProtoError::BadValue {
                what: "client-table count disagrees with payload length",
            });
        }
        let mut clients = Vec::with_capacity(n_clients);
        for _ in 0..n_clients {
            let mut row = ClientRow {
                conn: c.u64()?,
                requests: c.u64()?,
                ok: c.u64()?,
                ..Default::default()
            };
            for v in row.err.iter_mut() {
                *v = c.u64()?;
            }
            for v in row.rejected.iter_mut() {
                *v = c.u64()?;
            }
            row.bytes_in = c.u64()?;
            row.bytes_out = c.u64()?;
            row.queue_wait = get_digest(c)?;
            clients.push(row);
        }
        r.clients = clients;
        let n_pins = c.u32()? as usize;
        if n_pins > c.remaining() / 16 {
            return Err(ProtoError::BadValue {
                what: "epoch-pin count disagrees with payload length",
            });
        }
        let mut pins = Vec::with_capacity(n_pins);
        for _ in 0..n_pins {
            pins.push((c.u64()?, c.u64()?));
        }
        r.epoch_pins = pins;
        r.pins_evicted = c.u64()?;
        r.epoch_lag = get_digest(c)?;
        let len = c.u32()? as usize;
        let counters = String::from_utf8_lossy(c.bytes(len)?).into_owned();
        Ok(Introspection {
            epoch,
            uptime_us,
            workers,
            busy_workers,
            queue_depth,
            queue_capacity,
            n_metros,
            draining,
            recorder: r,
            counters,
        })
    }
}

impl Response {
    /// Stable response tag.
    pub fn tag(&self) -> u8 {
        match self {
            Response::Pong => 0x81,
            Response::Path { .. } => 0x82,
            Response::NoRoute => 0x83,
            Response::Batch { .. } => 0x84,
            Response::Risk { .. } => 0x85,
            Response::Footprint { .. } => 0x86,
            Response::Slept => 0x87,
            Response::Introspect(_) => 0x89,
            Response::Error(_) => TAG_ERROR,
        }
    }

    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong | Response::NoRoute | Response::Slept => {}
            Response::Path { hops, km } => {
                out.extend_from_slice(&hops.to_le_bytes());
                out.extend_from_slice(&km.to_bits().to_le_bytes());
            }
            Response::Batch { routed, unreachable, total_km } => {
                out.extend_from_slice(&routed.to_le_bytes());
                out.extend_from_slice(&unreachable.to_le_bytes());
                out.extend_from_slice(&total_km.to_bits().to_le_bytes());
            }
            Response::Risk { paths, cables, metros, ases } => {
                for v in [paths, cables, metros, ases] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::Footprint { rows } => out.extend_from_slice(&rows.to_le_bytes()),
            Response::Introspect(i) => i.encode_into(&mut out),
            Response::Error(e) => {
                out.push(e.code());
                let (aux, detail): (u64, &str) = match e {
                    ServeError::BadRequest { detail } => (0, detail),
                    ServeError::Timeout { budget_ms } => (*budget_ms, ""),
                    ServeError::Overloaded { queue_depth } => (*queue_depth as u64, ""),
                    ServeError::Internal { detail } => (0, detail),
                    ServeError::ShuttingDown => (0, ""),
                };
                out.extend_from_slice(&aux.to_le_bytes());
                out.extend_from_slice(&(detail.len() as u32).to_le_bytes());
                out.extend_from_slice(detail.as_bytes());
            }
        }
        out
    }

    pub fn decode(tag: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cur::new(payload);
        let resp = match tag {
            0x81 => Response::Pong,
            0x82 => Response::Path { hops: c.u32()?, km: c.f64()? },
            0x83 => Response::NoRoute,
            0x84 => Response::Batch {
                routed: c.u32()?,
                unreachable: c.u32()?,
                total_km: c.f64()?,
            },
            0x85 => Response::Risk {
                paths: c.u32()?,
                cables: c.u32()?,
                metros: c.u32()?,
                ases: c.u32()?,
            },
            0x86 => Response::Footprint { rows: c.u32()? },
            0x87 => Response::Slept,
            0x89 => Response::Introspect(Introspection::decode_from(&mut c)?),
            TAG_ERROR => {
                let code = c.u8()?;
                let aux = c.u64()?;
                let len = c.u32()? as usize;
                let detail = String::from_utf8_lossy(c.bytes(len)?).into_owned();
                Response::Error(match code {
                    1 => ServeError::BadRequest { detail },
                    2 => ServeError::Timeout { budget_ms: aux },
                    3 => ServeError::Overloaded { queue_depth: aux as u32 },
                    4 => ServeError::Internal { detail },
                    5 => ServeError::ShuttingDown,
                    _ => return Err(ProtoError::BadValue { what: "unknown error code" }),
                })
            }
            other => return Err(ProtoError::UnknownOpcode { op: other }),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// A decode-level failure: the bytes did not form a valid frame or
/// payload. The server maps each to a [`ServeError::BadRequest`] with the
/// `Display` text as detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream is not speaking this protocol (or is desynchronized).
    BadMagic { got: u32 },
    /// Claimed payload length exceeds the configured cap.
    FrameTooLarge { len: u32, max: u32 },
    /// Payload ended before the opcode's fields did.
    Truncated { what: &'static str },
    /// Opcode/tag outside the protocol.
    UnknownOpcode { op: u8 },
    /// Payload longer than the opcode's fields.
    TrailingBytes { extra: usize },
    /// A field decoded but its value is inconsistent.
    BadValue { what: &'static str },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic { got } => write!(f, "bad frame magic 0x{got:08x}"),
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::Truncated { what } => write!(f, "truncated {what}"),
            ProtoError::UnknownOpcode { op } => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            ProtoError::BadValue { what } => f.write_str(what),
        }
    }
}

impl std::error::Error for ProtoError {}

/// One frame off the wire, not yet decoded past the header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub id: u64,
    pub deadline_ms: u32,
    pub op: u8,
    pub payload: Vec<u8>,
}

/// Why [`read_frame`] stopped.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed cleanly between frames.
    CleanEof,
    /// The read timeout fired *between* frames: the peer is idle, not
    /// misbehaving. Callers typically retry (it doubles as a periodic
    /// drain-flag check).
    IdleTimeout,
    /// The bytes violated the protocol (magic/size); connection must
    /// close after one typed error.
    Proto(ProtoError),
    /// Transport failure — includes read timeouts *inside* a frame (a
    /// stalled peer mid-frame: the slow-loris case).
    Io(std::io::Error),
}

impl FrameError {
    /// Whether this is a read timeout (slow-loris / stalled peer).
    pub fn is_stall(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// Writes one frame. The payload is assembled first so the header's
/// `len` is always consistent, then written in a single `write_all` —
/// the writer side is never a source of torn frames.
pub fn write_frame(
    w: &mut impl Write,
    id: u64,
    deadline_ms: u32,
    op: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&deadline_ms.to_le_bytes());
    buf.push(op);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame, distinguishing a clean EOF *between* frames (normal
/// hangup) from a truncation *inside* one (a protocol violation).
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte separately: EOF here is a clean close and a timeout is
    // mere idleness — only *inside* a frame do they become protocol or
    // stall errors.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::CleanEof),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(FrameError::IdleTimeout)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    header[0] = first[0];
    if let Err(e) = r.read_exact(&mut header[1..]) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Proto(ProtoError::Truncated { what: "frame header" })
        } else {
            FrameError::Io(e)
        });
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(FrameError::Proto(ProtoError::BadMagic { got: magic }));
    }
    let id = u64::from_le_bytes(header[4..12].try_into().unwrap());
    let deadline_ms = u32::from_le_bytes(header[12..16].try_into().unwrap());
    let op = header[16];
    let len = u32::from_le_bytes(header[17..21].try_into().unwrap());
    if len > max_frame {
        return Err(FrameError::Proto(ProtoError::FrameTooLarge { len, max: max_frame }));
    }
    // Grown as bytes arrive, never sized by the claimed `len`: a header
    // that promises more than its sender delivers costs what was sent.
    let mut payload = Vec::new();
    match r.take(u64::from(len)).read_to_end(&mut payload) {
        Ok(n) if n == len as usize => Ok(Frame { id, deadline_ms, op, payload }),
        Ok(_) => Err(FrameError::Proto(ProtoError::Truncated { what: "frame payload" })),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Little-endian field cursor over a payload slice.
struct Cur<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, off: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or(ProtoError::Truncated { what: "payload field" })?;
        let s = &self.b[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bytes not yet consumed (length-prefix sanity bounds).
    fn remaining(&self) -> usize {
        self.b.len() - self.off
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.off == self.b.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes { extra: self.b.len() - self.off })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = req.encode_payload();
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, 250, req.op(), &payload).unwrap();
        let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(frame.id, 7);
        assert_eq!(frame.deadline_ms, 250);
        assert_eq!(Request::decode(frame.op, &frame.payload).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::SpQuery { from: 3, to: 900 });
        roundtrip_request(Request::SpBatch { pairs: vec![(0, 1), (5, 2), (7, 7)] });
        roundtrip_request(Request::RiskExposure {
            west: -98.0,
            south: 27.0,
            east: -88.0,
            north: 31.5,
        });
        roundtrip_request(Request::Footprint { top_n: 11 });
        roundtrip_request(Request::Sleep { ms: 40 });
        roundtrip_request(Request::Panic);
        roundtrip_request(Request::Introspect);
    }

    #[test]
    fn responses_roundtrip() {
        let all = [
            Response::Pong,
            Response::Path { hops: 4, km: 1234.5 },
            Response::NoRoute,
            Response::Batch { routed: 10, unreachable: 2, total_km: 99.25 },
            Response::Risk { paths: 1, cables: 2, metros: 3, ases: 4 },
            Response::Footprint { rows: 11 },
            Response::Slept,
            Response::Error(ServeError::BadRequest { detail: "bad\nfield".into() }),
            Response::Error(ServeError::Timeout { budget_ms: 250 }),
            Response::Error(ServeError::Overloaded { queue_depth: 8 }),
            Response::Error(ServeError::Internal { detail: "panicked".into() }),
            Response::Error(ServeError::ShuttingDown),
        ];
        for resp in all {
            let payload = resp.encode_payload();
            assert_eq!(Response::decode(resp.tag(), &payload).unwrap(), resp);
        }
    }

    fn sample_introspection() -> Introspection {
        Introspection {
            epoch: 3,
            uptime_us: 1_234_567,
            workers: 4,
            busy_workers: 2,
            queue_depth: 1,
            queue_capacity: 64,
            n_metros: 40,
            draining: false,
            recorder: RecorderSnapshot {
                requests: 100,
                ok: 90,
                err: [0, 7, 0, 2, 0],
                live: 1,
                rejected: [1, 0, 5, 0, 0],
                bytes_in: 4200,
                bytes_out: 9001,
                ring_len: 100,
                ring_cap: 256,
                slow_count: 3,
                slow_ms: 50,
                clients: vec![
                    ClientRow {
                        conn: 1,
                        requests: 60,
                        ok: 55,
                        err: [0, 5, 0, 0, 0],
                        rejected: [0, 0, 3, 0, 0],
                        bytes_in: 2520,
                        bytes_out: 5000,
                        queue_wait: HistDigest { count: 60, p50_us: 40, p99_us: 900, max_us: 1500 },
                    },
                    ClientRow { conn: 2, requests: 40, ok: 35, ..Default::default() },
                ],
                epoch_pins: vec![(2, 30), (3, 70)],
                pins_evicted: 12,
                epoch_lag: HistDigest { count: 30, p50_us: 100, p99_us: 4000, max_us: 9000 },
            },
            counters: "serve.ok{ping} 32\nserve.ok{sp_query} 152\n".to_string(),
        }
    }

    #[test]
    fn introspection_roundtrips_versioned() {
        let resp = Response::Introspect(sample_introspection());
        let payload = resp.encode_payload();
        assert_eq!(payload[0], INTROSPECT_VERSION, "payload leads with the version");
        assert_eq!(Response::decode(resp.tag(), &payload).unwrap(), resp);
        // An all-defaults snapshot (fresh server) round-trips too.
        let empty = Response::Introspect(Introspection::default());
        assert_eq!(
            Response::decode(0x89, &empty.encode_payload()).unwrap(),
            empty
        );
    }

    #[test]
    fn unknown_introspection_version_is_refused_typed() {
        // Neither the next version nor the previous one (a v1 payload has
        // no `n_metros`) is ever read at this version's field offsets.
        for version in [INTROSPECT_VERSION + 1, 1] {
            let mut payload = Response::Introspect(sample_introspection()).encode_payload();
            payload[0] = version;
            match Response::decode(0x89, &payload) {
                Err(ProtoError::BadValue { what }) => {
                    assert_eq!(what, "unsupported introspection payload version")
                }
                other => panic!("expected a typed version refusal, got {other:?}"),
            }
        }
        // A count field inconsistent with the bytes present is refused
        // before allocation, like SpBatch.
        let mut payload = Response::Introspect(sample_introspection()).encode_payload();
        let clients_off = 1 + 8 + 8 + 20 + 1 // version..draining
            + 8 * (1 + 1 + 5 + 1 + 5 + 1 + 1) // ledger
            + 4 + 4 + 8 + 8; // ring summary
        payload[clients_off..clients_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Response::decode(0x89, &payload),
            Err(ProtoError::BadValue { .. })
        ));
    }

    #[test]
    fn bad_magic_oversize_truncation_and_trailing_are_typed() {
        // Garbage magic.
        let mut wire = vec![0xDE, 0xAD, 0xBE, 0xEF];
        wire.extend_from_slice(&[0u8; HEADER_LEN - 4]);
        match read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME) {
            Err(FrameError::Proto(ProtoError::BadMagic { got })) => {
                assert_eq!(got, 0xEFBEADDE)
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }

        // Oversized claimed length: refused before allocation.
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 0, 0x01, &[]).unwrap();
        wire[17..21].copy_from_slice(&(DEFAULT_MAX_FRAME + 1).to_le_bytes());
        match read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME) {
            Err(FrameError::Proto(ProtoError::FrameTooLarge { len, .. })) => {
                assert_eq!(len, DEFAULT_MAX_FRAME + 1)
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }

        // Header truncated mid-way.
        let wire = MAGIC.to_le_bytes();
        match read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME) {
            Err(FrameError::Proto(ProtoError::Truncated { what })) => {
                assert_eq!(what, "frame header")
            }
            other => panic!("expected Truncated header, got {other:?}"),
        }

        // Payload shorter than claimed.
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 0, 0x02, &[0u8; 8]).unwrap();
        wire.truncate(wire.len() - 3);
        match read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME) {
            Err(FrameError::Proto(ProtoError::Truncated { what })) => {
                assert_eq!(what, "frame payload")
            }
            other => panic!("expected Truncated payload, got {other:?}"),
        }

        // Clean EOF between frames is not an error class.
        match read_frame(&mut [].as_slice(), DEFAULT_MAX_FRAME) {
            Err(FrameError::CleanEof) => {}
            other => panic!("expected CleanEof, got {other:?}"),
        }

        // Trailing payload bytes are a desync signal.
        let mut payload = Request::SpQuery { from: 1, to: 2 }.encode_payload();
        payload.push(0);
        assert_eq!(
            Request::decode(0x02, &payload),
            Err(ProtoError::TrailingBytes { extra: 1 })
        );

        // Unknown opcode — including the retired `Stats` pair, 0x08/0x88.
        assert_eq!(Request::decode(0x7F, &[]), Err(ProtoError::UnknownOpcode { op: 0x7F }));
        assert_eq!(Request::decode(0x08, &[]), Err(ProtoError::UnknownOpcode { op: 8 }));
        assert_eq!(Response::decode(0x88, &[0; 17]), Err(ProtoError::UnknownOpcode { op: 0x88 }));

        // Batch count inconsistent with its bytes (never over-allocates).
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Request::decode(0x03, &payload),
            Err(ProtoError::BadValue { .. })
        ));
    }
}
