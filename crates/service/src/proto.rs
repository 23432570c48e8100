//! The length-prefixed, CRC-framed wire protocol between
//! [`crate::QuantileServer`] and [`crate::Coordinator`].
//!
//! ## Frame layout
//!
//! Every message travels as one frame on the TCP stream:
//!
//! ```text
//! u32 LE        frame length (bytes that follow; bounded by MAX_FRAME_LEN)
//! 4 bytes       magic "HSQS"
//! u64 LE        protocol version
//! u64 LE        message kind
//! ...           kind-specific body
//! u64 LE        CRC-64/ECMA of everything from the magic to here
//! ```
//!
//! Decoding follows the manifest-v4 idiom: a validating constructor per
//! message that checks the magic, the trailing CRC, the version (zero or
//! future versions are rejected), the kind, every count against the
//! bytes actually present (a hostile length can't force an allocation),
//! enum discriminants against their domain, and that the body is
//! consumed exactly — torn, truncated, bit-flipped and garbage frames
//! all surface as [`std::io::ErrorKind::InvalidData`], never as a panic
//! or a silently wrong message.
//!
//! Payload-level invariants are re-validated too: summary extracts go
//! through [`SourceView::try_from_raw`] (sorted values, `lo ≤ hi ≤
//! total`, `lo` and `hi` nondecreasing), epsilons through
//! [`hsq_core::validate_epsilon`], and probe bounds must satisfy
//! `lo ≤ hi` — a corrupt frame that *parses* must still not smuggle
//! unsound rank bounds into a bisection.

use std::io::{self, Read, Write};

use hsq_core::SourceView;
use hsq_storage::{crc, Item};

/// Frame magic: **HSQ** **S**ervice.
pub const MAGIC: &[u8; 4] = b"HSQS";
/// Current protocol version.
pub const VERSION: u64 = 1;
/// Upper bound on one frame's length (excluding the u32 prefix): big
/// enough for any realistic summary extract or ingest batch, small
/// enough that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 1 << 26; // 64 MiB

/// A request from coordinator to node.
#[derive(Clone, Debug, PartialEq)]
pub enum Request<T> {
    /// Liveness / handshake round-trip.
    Ping,
    /// Weighted stream ingest into the node's engine shards.
    Ingest {
        /// `(item, weight)` pairs, routed by the node's shard hash.
        items: Vec<(T, u64)>,
    },
    /// Archive the node's current stream into a time-step partition.
    EndStep,
    /// Open (or reuse) the per-tenant session: pins a snapshot epoch on
    /// the node so the tenant's queries hit the cached-summary path.
    OpenSession {
        /// Tenant id; sessions are keyed by it, server-side.
        tenant: u64,
        /// Force a fresh snapshot (advancing the epoch) instead of
        /// reusing the tenant's current one.
        refresh: bool,
    },
    /// Fetch the session snapshot's summary extract (the per-source
    /// views the combined summary is built from), full-union or
    /// windowed.
    Extract {
        /// Tenant id of an open session.
        tenant: u64,
        /// `None` = full union; `Some(w)` = newest `w` steps.
        window: Option<u64>,
    },
    /// One batched probe round: rank bounds for each `z`, summed over
    /// the node's shards.
    Probe {
        /// Tenant id of an open session.
        tenant: u64,
        /// `None` = full union; `Some(w)` = windowed probe.
        window: Option<u64>,
        /// Probe values for this round.
        zs: Vec<T>,
    },
}

/// A response from node to coordinator.
#[derive(Clone, Debug, PartialEq)]
pub enum Response<T> {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Ingest`].
    Ingested {
        /// Items ingested.
        items: u64,
        /// Total weight ingested.
        weight: u64,
    },
    /// Reply to [`Request::EndStep`].
    StepEnded {
        /// Number of engine shards that archived the step.
        shards: u64,
    },
    /// Reply to [`Request::OpenSession`]: the pinned snapshot's vitals.
    Session {
        /// Snapshot epoch (bumped by refresh; stable across reuse).
        epoch: u64,
        /// Total size `N` at snapshot time.
        total: u64,
        /// Stream weight `m` at snapshot time (the `ε·m` denominator).
        stream_weight: u64,
        /// Quarantined mass excluded from answers (bound widening).
        quarantined: u64,
        /// The node's accurate-response error parameter (`4ε₂`).
        epsilon: f64,
        /// Engine shards hosted by the node.
        shards: u64,
    },
    /// Reply to [`Request::Extract`]: per-source views plus the
    /// (windowed) total.
    Extract {
        /// Total size over the extract's scope.
        total: u64,
        /// Per-source views, in the node's canonical source order.
        sources: Vec<SourceView<T>>,
    },
    /// Reply to a windowed [`Request::Extract`]/[`Request::Probe`] when
    /// the window misaligns with partition boundaries on some shard.
    WindowUnavailable,
    /// Reply to [`Request::Probe`]: one `(lo, hi)` per probed `z`.
    Bounds {
        /// Summed rank bounds over the node's shards, `lo ≤ hi`.
        bounds: Vec<(u64, u64)>,
    },
    /// Request-level failure (unknown tenant, engine I/O error, ...).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("proto: {msg}"))
}

// ---------------------------------------------------------------------
// Frame body writer/reader (manifest idiom).

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn frame(kind: u64) -> Writer {
        let mut w = Writer {
            buf: Vec::with_capacity(64),
        };
        w.buf.extend_from_slice(MAGIC);
        w.u64(VERSION);
        w.u64(kind);
        w
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn item<T: Item>(&mut self, v: T) {
        let old = self.buf.len();
        self.buf.resize(old + T::ENCODED_LEN, 0);
        v.encode(&mut self.buf[old..]);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    fn seal(mut self) -> Vec<u8> {
        crc::seal(&mut self.buf);
        assert!(
            self.buf.len() <= MAX_FRAME_LEN,
            "frame exceeds MAX_FRAME_LEN"
        );
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> io::Result<u64> {
        if self.pos + 8 > self.buf.len() {
            return Err(corrupt("truncated frame body"));
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    fn flag(&mut self, what: &str) -> io::Result<bool> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt(what)),
        }
    }

    fn item<T: Item>(&mut self) -> io::Result<T> {
        if self.pos + T::ENCODED_LEN > self.buf.len() {
            return Err(corrupt("truncated frame body"));
        }
        let v = T::decode(&self.buf[self.pos..self.pos + T::ENCODED_LEN]);
        self.pos += T::ENCODED_LEN;
        Ok(v)
    }

    /// A count of records `entry_len` bytes each: bounded by the bytes
    /// actually remaining, so a hostile count cannot force a huge
    /// allocation before the (failing) reads would catch it.
    fn count(&mut self, entry_len: usize) -> io::Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if entry_len == 0 || n > remaining / entry_len.max(1) as u64 {
            return Err(corrupt("count exceeds frame size"));
        }
        Ok(n as usize)
    }

    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.count(1)?;
        let b = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(b)
    }

    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after message body"))
        }
    }
}

/// Verify magic + CRC + version and return `(kind, body reader)`.
fn open_frame(raw: &[u8]) -> io::Result<(u64, Reader<'_>)> {
    if raw.len() < MAGIC.len() + 8 + 8 + 8 {
        return Err(corrupt("frame too short"));
    }
    if &raw[..MAGIC.len()] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let body = crc::open(raw).map_err(|_| corrupt("frame checksum mismatch"))?;
    let mut r = Reader {
        buf: body,
        pos: MAGIC.len(),
    };
    let version = r.u64()?;
    if version == 0 || version > VERSION {
        return Err(corrupt("unsupported protocol version"));
    }
    let kind = r.u64()?;
    Ok((kind, r))
}

const K_PING: u64 = 1;
const K_INGEST: u64 = 2;
const K_END_STEP: u64 = 3;
const K_OPEN_SESSION: u64 = 4;
const K_EXTRACT: u64 = 5;
const K_PROBE: u64 = 6;

const K_PONG: u64 = 101;
const K_INGESTED: u64 = 102;
const K_STEP_ENDED: u64 = 103;
const K_SESSION: u64 = 104;
const K_EXTRACT_RESP: u64 = 105;
const K_WINDOW_UNAVAILABLE: u64 = 106;
const K_BOUNDS: u64 = 107;
const K_ERROR: u64 = 108;

fn write_window(w: &mut Writer, window: Option<u64>) {
    match window {
        Some(v) => {
            w.u64(1);
            w.u64(v);
        }
        None => {
            w.u64(0);
            w.u64(0);
        }
    }
}

fn read_window(r: &mut Reader<'_>) -> io::Result<Option<u64>> {
    let has = r.flag("window flag out of domain")?;
    let v = r.u64()?;
    Ok(if has { Some(v) } else { None })
}

impl<T: Item> Request<T> {
    /// Encode into a sealed frame (magic + version + kind + body + CRC).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Ping => Writer::frame(K_PING).seal(),
            Request::Ingest { items } => {
                let mut w = Writer::frame(K_INGEST);
                w.u64(items.len() as u64);
                for &(v, weight) in items {
                    w.item(v);
                    w.u64(weight);
                }
                w.seal()
            }
            Request::EndStep => Writer::frame(K_END_STEP).seal(),
            Request::OpenSession { tenant, refresh } => {
                let mut w = Writer::frame(K_OPEN_SESSION);
                w.u64(*tenant);
                w.u64(u64::from(*refresh));
                w.seal()
            }
            Request::Extract { tenant, window } => {
                let mut w = Writer::frame(K_EXTRACT);
                w.u64(*tenant);
                write_window(&mut w, *window);
                w.seal()
            }
            Request::Probe { tenant, window, zs } => {
                let mut w = Writer::frame(K_PROBE);
                w.u64(*tenant);
                write_window(&mut w, *window);
                w.u64(zs.len() as u64);
                for &z in zs {
                    w.item(z);
                }
                w.seal()
            }
        }
    }

    /// Validating decode of a received frame.
    pub fn decode(raw: &[u8]) -> io::Result<Request<T>> {
        let (kind, mut r) = open_frame(raw)?;
        let req = match kind {
            K_PING => Request::Ping,
            K_INGEST => {
                let n = r.count(T::ENCODED_LEN + 8)?;
                let mut items = Vec::with_capacity(n);
                // The node adds the frame's weights into its stream mass;
                // a frame whose total does not fit in u64 is unsound.
                let mut mass = 0u64;
                for _ in 0..n {
                    let v = r.item()?;
                    let weight = r.u64()?;
                    mass = mass
                        .checked_add(weight)
                        .ok_or_else(|| corrupt("ingest weights overflow u64"))?;
                    items.push((v, weight));
                }
                Request::Ingest { items }
            }
            K_END_STEP => Request::EndStep,
            K_OPEN_SESSION => Request::OpenSession {
                tenant: r.u64()?,
                refresh: r.flag("refresh flag out of domain")?,
            },
            K_EXTRACT => Request::Extract {
                tenant: r.u64()?,
                window: read_window(&mut r)?,
            },
            K_PROBE => {
                let tenant = r.u64()?;
                let window = read_window(&mut r)?;
                let n = r.count(T::ENCODED_LEN)?;
                let mut zs = Vec::with_capacity(n);
                for _ in 0..n {
                    zs.push(r.item()?);
                }
                Request::Probe { tenant, window, zs }
            }
            _ => return Err(corrupt("unknown request kind")),
        };
        r.finish()?;
        Ok(req)
    }
}

impl<T: Item> Response<T> {
    /// Encode into a sealed frame (magic + version + kind + body + CRC).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Pong => Writer::frame(K_PONG).seal(),
            Response::Ingested { items, weight } => {
                let mut w = Writer::frame(K_INGESTED);
                w.u64(*items);
                w.u64(*weight);
                w.seal()
            }
            Response::StepEnded { shards } => {
                let mut w = Writer::frame(K_STEP_ENDED);
                w.u64(*shards);
                w.seal()
            }
            Response::Session {
                epoch,
                total,
                stream_weight,
                quarantined,
                epsilon,
                shards,
            } => {
                let mut w = Writer::frame(K_SESSION);
                w.u64(*epoch);
                w.u64(*total);
                w.u64(*stream_weight);
                w.u64(*quarantined);
                w.u64(epsilon.to_bits());
                w.u64(*shards);
                w.seal()
            }
            Response::Extract { total, sources } => {
                let mut w = Writer::frame(K_EXTRACT_RESP);
                w.u64(*total);
                w.u64(sources.len() as u64);
                for s in sources {
                    w.u64(s.total());
                    w.u64(s.entries().len() as u64);
                    for &(v, lo, hi) in s.entries() {
                        w.item(v);
                        w.u64(lo);
                        w.u64(hi);
                    }
                }
                w.seal()
            }
            Response::WindowUnavailable => Writer::frame(K_WINDOW_UNAVAILABLE).seal(),
            Response::Bounds { bounds } => {
                let mut w = Writer::frame(K_BOUNDS);
                w.u64(bounds.len() as u64);
                for &(lo, hi) in bounds {
                    w.u64(lo);
                    w.u64(hi);
                }
                w.seal()
            }
            Response::Error { message } => {
                let mut w = Writer::frame(K_ERROR);
                w.bytes(message.as_bytes());
                w.seal()
            }
        }
    }

    /// Validating decode of a received frame. Payload invariants are
    /// checked too: extracts re-validate through
    /// [`SourceView::try_from_raw`], epsilons through
    /// [`hsq_core::validate_epsilon`], probe bounds must be ordered.
    pub fn decode(raw: &[u8]) -> io::Result<Response<T>> {
        let (kind, mut r) = open_frame(raw)?;
        let resp = match kind {
            K_PONG => Response::Pong,
            K_INGESTED => Response::Ingested {
                items: r.u64()?,
                weight: r.u64()?,
            },
            K_STEP_ENDED => Response::StepEnded { shards: r.u64()? },
            K_SESSION => {
                let epoch = r.u64()?;
                let total = r.u64()?;
                let stream_weight = r.u64()?;
                let quarantined = r.u64()?;
                let epsilon = hsq_core::validate_epsilon(f64::from_bits(r.u64()?))
                    .map_err(|e| corrupt(&e.to_string()))?;
                let shards = r.u64()?;
                if shards == 0 {
                    return Err(corrupt("session with zero shards"));
                }
                Response::Session {
                    epoch,
                    total,
                    stream_weight,
                    quarantined,
                    epsilon,
                    shards,
                }
            }
            K_EXTRACT_RESP => {
                let total = r.u64()?;
                // Each source costs at least 16 bytes (total + count).
                let n = r.count(16)?;
                let mut sources = Vec::with_capacity(n);
                for _ in 0..n {
                    let src_total = r.u64()?;
                    let entries_n = r.count(T::ENCODED_LEN + 16)?;
                    let mut entries = Vec::with_capacity(entries_n);
                    for _ in 0..entries_n {
                        let v: T = r.item()?;
                        let lo = r.u64()?;
                        let hi = r.u64()?;
                        entries.push((v, lo, hi));
                    }
                    sources.push(SourceView::try_from_raw(entries, src_total).map_err(corrupt)?);
                }
                Response::Extract { total, sources }
            }
            K_WINDOW_UNAVAILABLE => Response::WindowUnavailable,
            K_BOUNDS => {
                let n = r.count(16)?;
                let mut bounds = Vec::with_capacity(n);
                for _ in 0..n {
                    let lo = r.u64()?;
                    let hi = r.u64()?;
                    if lo > hi {
                        return Err(corrupt("probe bounds out of order"));
                    }
                    bounds.push((lo, hi));
                }
                Response::Bounds { bounds }
            }
            K_ERROR => {
                let message = std::str::from_utf8(r.bytes()?)
                    .map_err(|_| corrupt("error message not utf-8"))?
                    .to_string();
                Response::Error { message }
            }
            _ => return Err(corrupt("unknown response kind")),
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Stream framing.

/// Outcome of one non-blocking-ish frame read on a server connection.
#[derive(Debug)]
pub enum FrameRead {
    /// A whole frame arrived.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Eof,
    /// The read timed out before the frame *started* (idle connection —
    /// the serve loop uses this to poll its shutdown flag).
    Idle,
}

/// Write one frame: `u32 LE` length prefix, then the sealed frame, in a
/// single buffered write (one packet on loopback with `TCP_NODELAY`).
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    debug_assert!(frame.len() <= MAX_FRAME_LEN);
    let mut buf = Vec::with_capacity(4 + frame.len());
    buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    buf.extend_from_slice(frame);
    w.write_all(&buf)?;
    w.flush()
}

/// Blocking frame read for the coordinator side: a response is expected,
/// so EOF (clean or torn) is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    match read_frame_or_eof(r)? {
        FrameRead::Frame(f) => Ok(f),
        FrameRead::Eof => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "proto: connection closed while awaiting a response",
        )),
        FrameRead::Idle => unreachable!("Idle only arises under a read timeout"),
    }
}

/// Limits on one bounded frame read ([`read_frame_bounded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameLimits {
    /// Reject a length prefix above this *before* allocating anything —
    /// a hostile 4 GiB prefix costs four bytes of reading, not an
    /// allocation. At most [`MAX_FRAME_LEN`] (the encoder's own cap).
    pub max_len: usize,
    /// How many timed-out reads to tolerate *inside* a frame (after the
    /// first length byte) before declaring it torn. Each poll lasts one
    /// socket read-timeout, so `stall_polls × SO_RCVTIMEO` bounds how
    /// long a half-sent frame can pin the reader.
    pub stall_polls: u32,
}

impl FrameLimits {
    /// Coordinator-side defaults: full `MAX_FRAME_LEN`, a generous
    /// (but finite) stall budget.
    pub const fn standard() -> Self {
        FrameLimits {
            max_len: MAX_FRAME_LEN,
            stall_polls: 600,
        }
    }

    /// Server-side defaults: a tight stall budget so a hung peer
    /// mid-frame releases its connection thread after ~1 s (10 polls of
    /// the server's 100 ms idle timeout) instead of pinning it forever.
    pub const fn server() -> Self {
        FrameLimits {
            max_len: MAX_FRAME_LEN,
            stall_polls: 10,
        }
    }
}

impl Default for FrameLimits {
    fn default() -> Self {
        FrameLimits::standard()
    }
}

/// Frame read for the server side with [`FrameLimits::standard`]
/// limits; see [`read_frame_bounded`].
pub fn read_frame_or_eof(r: &mut impl Read) -> io::Result<FrameRead> {
    read_frame_bounded(r, FrameLimits::standard())
}

/// Chunk size for incremental frame-body allocation: memory is
/// committed as bytes actually arrive, never on the peer's say-so.
const BODY_CHUNK: usize = 64 * 1024;

/// Frame read distinguishing a clean EOF (peer done), an idle timeout
/// before the first length byte (poll shutdown and retry), and a torn
/// frame (error). A timeout that strikes *inside* a frame consumes one
/// unit of `limits.stall_polls`; exhausting the budget is a torn frame —
/// the length prefix promised bytes that never came. A declared length
/// above `limits.max_len` is rejected before any body allocation.
pub fn read_frame_bounded(r: &mut impl Read, limits: FrameLimits) -> io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    let mut stalls = 0u32;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(FrameRead::Eof),
            Ok(0) => return Err(corrupt("torn frame length prefix")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if got == 0 {
                    return Ok(FrameRead::Idle);
                }
                stalls += 1;
                if stalls >= limits.stall_polls {
                    return Err(corrupt("peer stalled mid length prefix"));
                }
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > limits.max_len.min(MAX_FRAME_LEN) {
        return Err(corrupt("oversized frame"));
    }
    // Grow the body buffer chunk-by-chunk as bytes arrive instead of
    // trusting `len` with one up-front allocation.
    let mut buf: Vec<u8> = Vec::new();
    let mut filled = 0usize;
    while filled < len {
        if filled == buf.len() {
            let grow = (len - filled).min(BODY_CHUNK);
            buf.resize(filled + grow, 0);
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(corrupt("torn frame body")),
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                stalls += 1;
                if stalls >= limits.stall_polls {
                    return Err(corrupt("peer stalled mid frame body"));
                }
            }
            Err(e) => return Err(e),
        }
    }
    buf.truncate(len);
    Ok(FrameRead::Frame(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request<u64>> {
        vec![
            Request::Ping,
            Request::Ingest {
                items: vec![(5, 1), (9, 3), (u64::MAX, 7)],
            },
            Request::EndStep,
            Request::OpenSession {
                tenant: 42,
                refresh: true,
            },
            Request::Extract {
                tenant: 42,
                window: None,
            },
            Request::Extract {
                tenant: 7,
                window: Some(3),
            },
            Request::Probe {
                tenant: 42,
                window: Some(2),
                zs: vec![1, 2, 3, u64::MAX],
            },
            Request::Probe {
                tenant: 0,
                window: None,
                zs: vec![],
            },
        ]
    }

    fn sample_responses() -> Vec<Response<u64>> {
        vec![
            Response::Pong,
            Response::Ingested {
                items: 3,
                weight: 11,
            },
            Response::StepEnded { shards: 8 },
            Response::Session {
                epoch: 2,
                total: 1000,
                stream_weight: 100,
                quarantined: 0,
                epsilon: 0.05,
                shards: 4,
            },
            Response::Extract {
                total: 30,
                sources: vec![
                    SourceView::try_from_raw(vec![(1u64, 1, 1), (9, 10, 10)], 10).unwrap(),
                    SourceView::try_from_raw(vec![(4u64, 2, 5)], 20).unwrap(),
                ],
            },
            Response::WindowUnavailable,
            Response::Bounds {
                bounds: vec![(0, 5), (7, 7)],
            },
            Response::Error {
                message: "unknown tenant 9".into(),
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in sample_requests() {
            let raw = req.encode();
            assert_eq!(Request::<u64>::decode(&raw).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in sample_responses() {
            let raw = resp.encode();
            assert_eq!(Response::<u64>::decode(&raw).unwrap(), resp);
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for req in sample_requests() {
            let raw = req.encode();
            for cut in 0..raw.len() {
                assert!(
                    Request::<u64>::decode(&raw[..cut]).is_err(),
                    "truncation at {cut}/{} accepted",
                    raw.len()
                );
            }
        }
        for resp in sample_responses() {
            let raw = resp.encode();
            for cut in 0..raw.len() {
                assert!(
                    Response::<u64>::decode(&raw[..cut]).is_err(),
                    "truncation at {cut}/{} accepted",
                    raw.len()
                );
            }
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_reencodes_differently() {
        // A single flipped bit anywhere must be caught by the CRC: the
        // decode either errors or (never) returns the original message.
        for resp in sample_responses() {
            let raw = resp.encode();
            for byte in 0..raw.len() {
                for bit in 0..8 {
                    let mut bad = raw.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        Response::<u64>::decode(&bad).is_err(),
                        "bit flip at {byte}.{bit} accepted"
                    );
                }
            }
        }
        for req in sample_requests() {
            let raw = req.encode();
            for byte in 0..raw.len() {
                for bit in 0..8 {
                    let mut bad = raw.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        Request::<u64>::decode(&bad).is_err(),
                        "bit flip at {byte}.{bit} accepted"
                    );
                }
            }
        }
    }

    #[test]
    fn garbage_frames_are_rejected() {
        // Deterministic pseudo-random garbage of assorted lengths.
        let mut rng = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for len in [0usize, 1, 3, 11, 28, 64, 257, 4096] {
            let garbage: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert!(Request::<u64>::decode(&garbage).is_err());
            assert!(Response::<u64>::decode(&garbage).is_err());
        }
    }

    /// Re-seal a frame body after tampering, so the CRC is valid and the
    /// *semantic* validation has to do the rejecting.
    fn reseal(raw: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = raw[..raw.len() - crc::TRAILER_LEN].to_vec();
        edit(&mut body);
        crc::seal(&mut body);
        body
    }

    #[test]
    fn semantic_validation_behind_a_valid_crc() {
        // Future version.
        let raw = Request::<u64>::encode(&Request::Ping);
        let bad = reseal(&raw, |b| b[4..12].copy_from_slice(&2u64.to_le_bytes()));
        assert!(Request::<u64>::decode(&bad).is_err());
        // Version zero.
        let bad = reseal(&raw, |b| b[4..12].copy_from_slice(&0u64.to_le_bytes()));
        assert!(Request::<u64>::decode(&bad).is_err());
        // Unknown kind.
        let bad = reseal(&raw, |b| b[12..20].copy_from_slice(&99u64.to_le_bytes()));
        assert!(Request::<u64>::decode(&bad).is_err());
        // Hostile count: claims 2^40 probe values in a tiny frame.
        let raw = Request::<u64>::encode(&Request::Probe {
            tenant: 1,
            window: None,
            zs: vec![7],
        });
        let count_at = raw.len() - 8 - 8 - 8; // before the one item + crc
        let bad = reseal(&raw, |b| {
            b[count_at..count_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes())
        });
        assert!(Request::<u64>::decode(&bad).is_err());
        // Out-of-domain flag.
        let raw = Request::<u64>::encode(&Request::OpenSession {
            tenant: 1,
            refresh: false,
        });
        let flag_at = raw.len() - 8 - 8;
        let bad = reseal(&raw, |b| {
            b[flag_at..flag_at + 8].copy_from_slice(&7u64.to_le_bytes())
        });
        assert!(Request::<u64>::decode(&bad).is_err());
        // Trailing bytes after a complete body.
        let raw = Request::<u64>::encode(&Request::Ping);
        let bad = reseal(&raw, |b| b.extend_from_slice(&[0u8; 8]));
        assert!(Request::<u64>::decode(&bad).is_err());
    }

    #[test]
    fn unsound_payloads_are_rejected() {
        // Unsorted extract entries survive the CRC but not try_from_raw.
        let good = Response::<u64>::encode(&Response::Extract {
            total: 10,
            sources: vec![SourceView::try_from_raw(vec![(3u64, 1, 2), (9, 3, 4)], 10).unwrap()],
        });
        // entries start after: magic(4) ver(8) kind(8) total(8) nsrc(8)
        // src_total(8) count(8); first entry value is 8 bytes BE.
        let first_value_at = 4 + 8 + 8 + 8 + 8 + 8 + 8;
        let bad = reseal(&good, |b| {
            b[first_value_at..first_value_at + 8].copy_from_slice(&u64::MAX.to_be_bytes())
        });
        assert!(Response::<u64>::decode(&bad).is_err());
        // Valid but non-monotone bounds: (3, 2, 4), (9, 1, 4) — each entry
        // has lo ≤ hi ≤ total, yet the lower bound falls along the entries.
        let good = Response::<u64>::encode(&Response::Extract {
            total: 10,
            sources: vec![SourceView::try_from_raw(vec![(3u64, 1, 4), (9, 1, 4)], 10).unwrap()],
        });
        let first_lo_at = first_value_at + 8;
        let bad = reseal(&good, |b| {
            b[first_lo_at..first_lo_at + 8].copy_from_slice(&2u64.to_le_bytes())
        });
        let err = Response::<u64>::decode(&bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not monotone"), "{err}");
        // Ingest weights whose sum overflows u64: each fits, the total
        // the node would add to its stream mass does not.
        let overflowing = Request::<u64>::encode(&Request::Ingest {
            items: vec![(1, u64::MAX), (2, 1)],
        });
        let err = Request::<u64>::decode(&overflowing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflow"), "{err}");
        let at_limit = Request::<u64>::encode(&Request::Ingest {
            items: vec![(1, u64::MAX - 1), (2, 1)],
        });
        assert!(Request::<u64>::decode(&at_limit).is_ok());
        // lo > hi probe bounds.
        let good = Response::<u64>::encode(&Response::Bounds {
            bounds: vec![(5, 5)],
        });
        let lo_at = 4 + 8 + 8 + 8;
        let bad = reseal(&good, |b| {
            b[lo_at..lo_at + 8].copy_from_slice(&9u64.to_le_bytes())
        });
        assert!(Response::<u64>::decode(&bad).is_err());
        // Garbage epsilon bits (NaN) behind a valid CRC.
        let good = Response::<u64>::encode(&Response::Session {
            epoch: 1,
            total: 10,
            stream_weight: 5,
            quarantined: 0,
            epsilon: 0.1,
            shards: 1,
        });
        let eps_at = 4 + 8 + 8 + 8 + 8 + 8 + 8;
        let bad = reseal(&good, |b| {
            b[eps_at..eps_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes())
        });
        assert!(Response::<u64>::decode(&bad).is_err());
    }

    #[test]
    fn stream_framing_roundtrip_and_torn_tail() {
        let frames: Vec<Vec<u8>> = sample_requests().iter().map(|r| r.encode()).collect();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = io::Cursor::new(&wire[..]);
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        // Clean EOF at a frame boundary.
        match read_frame_or_eof(&mut cursor).unwrap() {
            FrameRead::Eof => {}
            other => panic!("expected Eof, got {other:?}"),
        }
        // A torn tail (every proper prefix of the wire) errors or EOFs,
        // never yields a phantom frame beyond those fully present.
        for cut in 1..wire.len() {
            let mut c = io::Cursor::new(&wire[..cut]);
            let mut seen = 0usize;
            loop {
                match read_frame_or_eof(&mut c) {
                    Ok(FrameRead::Frame(f)) => {
                        assert_eq!(&f, &frames[seen], "phantom frame from torn wire");
                        seen += 1;
                    }
                    Ok(FrameRead::Eof) | Err(_) => break,
                    Ok(FrameRead::Idle) => unreachable!(),
                }
            }
            assert!(seen <= frames.len());
        }
        // An oversized length prefix is rejected outright.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        huge.extend_from_slice(&[0u8; 16]);
        assert!(read_frame(&mut io::Cursor::new(&huge[..])).is_err());
    }

    /// A reader that hands out its bytes one at a time, then reports
    /// `WouldBlock` forever — a peer that went quiet mid-frame.
    struct StalledPeer {
        data: Vec<u8>,
        pos: usize,
        reads: usize,
    }

    impl Read for StalledPeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.pos < self.data.len() && !buf.is_empty() {
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
            }
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocating() {
        // A ~4 GiB declared length: the reader must reject after the
        // four prefix bytes, without ever asking the peer for a body
        // byte (which is the observable proxy for "no allocation was
        // sized by the hostile prefix").
        let mut peer = StalledPeer {
            data: u32::MAX.to_le_bytes().to_vec(),
            pos: 0,
            reads: 0,
        };
        let err = read_frame_bounded(&mut peer, FrameLimits::standard()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(peer.pos, 4, "only the prefix was consumed");

        // The cap is configurable below MAX_FRAME_LEN...
        let tight = FrameLimits {
            max_len: 1024,
            stall_polls: 4,
        };
        let mut wire = Vec::new();
        wire.extend_from_slice(&2048u32.to_le_bytes());
        wire.extend_from_slice(&[0u8; 2048]);
        assert!(read_frame_bounded(&mut io::Cursor::new(&wire[..]), tight).is_err());
        // ...and cannot be raised above it.
        let loose = FrameLimits {
            max_len: usize::MAX,
            stall_polls: 4,
        };
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(read_frame_bounded(&mut io::Cursor::new(&huge[..]), loose).is_err());

        // A frame within the cap still round-trips through the bounded
        // reader, including bodies larger than one allocation chunk.
        let big = Request::<u64>::encode(&Request::Ingest {
            items: (0..16384u64).map(|v| (v, 1)).collect(),
        });
        assert!(big.len() > super::BODY_CHUNK);
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        match read_frame_bounded(&mut io::Cursor::new(&wire[..]), FrameLimits::standard()).unwrap()
        {
            FrameRead::Frame(f) => assert_eq!(f, big),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn mid_frame_stall_budget_is_finite() {
        // Half a frame then silence: the bounded reader gives up after
        // `stall_polls` timed-out reads instead of looping forever.
        let frame = Request::<u64>::encode(&Request::Ping);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let half = 4 + frame.len() / 2;
        let limits = FrameLimits {
            max_len: MAX_FRAME_LEN,
            stall_polls: 5,
        };
        let mut peer = StalledPeer {
            data: wire[..half].to_vec(),
            pos: 0,
            reads: 0,
        };
        let err = read_frame_bounded(&mut peer, limits).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            peer.reads <= half + 5 + 1,
            "reader kept polling past its stall budget ({} reads)",
            peer.reads
        );
        // A stall before any prefix byte is Idle, not an error — that is
        // the server's shutdown-poll signal.
        let mut quiet = StalledPeer {
            data: Vec::new(),
            pos: 0,
            reads: 0,
        };
        match read_frame_bounded(&mut quiet, limits).unwrap() {
            FrameRead::Idle => {}
            other => panic!("expected Idle, got {other:?}"),
        }
        // And a stall budget applies to a torn length prefix too.
        let mut torn = StalledPeer {
            data: wire[..2].to_vec(),
            pos: 0,
            reads: 0,
        };
        assert!(read_frame_bounded(&mut torn, limits).is_err());
    }
}
