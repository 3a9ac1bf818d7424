//! The `jigsaw serve` wire protocol: length-prefixed binary frames.
//!
//! The daemon speaks a std-only, little-endian framing over any byte
//! stream (a local Unix socket, or stdin/stdout in `--stdio` mode). Every
//! frame is:
//!
//! ```text
//! magic "JGSW" (4) · version u8 · kind u8 · payload_len u32 · payload
//! ```
//!
//! Payload layouts (all integers little-endian, all floats IEEE-754
//! `f64` bit patterns):
//!
//! | kind | frame      | payload                                          |
//! |------|------------|--------------------------------------------------|
//! | 1    | `Submit`   | tag u64 · priority u8 · 0 u8 · n u32 · budget_ms u32 · m u32 · m×(kx,ky) f64 · m×(re,im) f64 |
//! | 2    | `Result`   | tag u64 · cache_hit u8 · 0 u8 · n u32 · n²×(re,im) f64 |
//! | 3    | `Error`    | tag u64 · category u8 · 0 u8 · msg_len u32 · msg UTF-8 |
//! | 4    | `Ping`     | (empty)                                          |
//! | 5    | `Pong`     | (empty)                                          |
//! | 6    | `Shutdown` | (empty)                                          |
//! | 7    | `StatsRequest` | (empty)                                      |
//! | 8    | `StatsReply`   | versioned [`StatsSnapshot`] (layout below)   |
//! | 9    | `Overloaded`   | tag u64 · reason u8 · 0 u8 · retry_after_ms u32 · msg_len u32 · msg UTF-8 |
//! | 10   | `Drain`    | (empty)                                          |
//!
//! The `StatsReply` payload (strings are `u32` length + UTF-8 bytes;
//! histograms are `count u64 · sum u64 · nb u32 · nb×(lo u64 · hi u64 ·
//! c u64)`):
//!
//! ```text
//! stats_version u32 · uptime_ns u64 · queue_depth u32 · queue_high u32
//! · cache (hits u64 · misses u64 · evictions u64 · len u32 · capacity u32)
//! · nw u32 · nw×(busy_ns u64 · jobs u64)
//! · nwin u32 · nwin×(name str · window_ns u64 · hist)
//! · nc u32 · nc×(name str · value u64)
//! · ng u32 · ng×(name str · value f64)
//! · nh u32 · nh×(name str · hist)
//! · nf u32 · nf×(ts_ns u64 · kind u8 · request_id u64 · tag u64 · detail str)
//! ```
//!
//! A frame that violates the grammar (bad magic, unknown version or
//! kind, length out of bounds, payload shorter than its own counts
//! claim) decodes to [`ProtocolError::Malformed`]; the daemon answers
//! with an error frame of category [`ErrorCategory::Protocol`] and
//! closes the connection, since the stream position is no longer
//! trustworthy. Semantic problems inside a well-formed `Submit` (bad
//! `n`, non-finite coordinates, exhausted budget) come back as tagged
//! error frames on a connection that stays open.

use super::stats::{CacheStats, StatsSnapshot, WindowStats, WorkerStats};
use crate::Error;
use jigsaw_num::C64;
use jigsaw_telemetry::{FlightEvent, FlightKind, HistogramSnapshot};
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"JGSW";

/// Protocol version spoken by this build.
pub const VERSION: u8 = 1;

/// Upper bound on a frame payload (bytes). Chosen so an `n = 2048`
/// result image (`n²·16` bytes) fits with headroom while a corrupt
/// length prefix cannot make the daemon allocate unboundedly.
pub const MAX_PAYLOAD: u32 = 1 << 27;

/// Largest image size the serving protocol accepts (`Result` frames for
/// larger `n` would overflow [`MAX_PAYLOAD`]).
pub const MAX_N: u32 = 2048;

/// Job priority class. High-priority jobs are dequeued before any
/// normal-priority job, FIFO within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Default class.
    Normal,
    /// Dequeued ahead of every queued [`Priority::Normal`] job.
    High,
}

impl Priority {
    /// Wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            Priority::Normal => 0,
            Priority::High => 1,
        }
    }

    /// Decode the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(Priority::Normal),
            1 => Some(Priority::High),
            _ => None,
        }
    }
}

/// Failure category carried by an error frame. Mirrors the CLI exit-code
/// taxonomy (2 config · 3 data · 4 execution · 5 budget) plus a
/// serving-only `Protocol` category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCategory {
    /// A configuration parameter is outside its supported range.
    Config,
    /// Sample data malformed (non-finite coordinate, length mismatch).
    Data,
    /// A contained execution failure (the job panicked; daemon survives).
    Execution,
    /// The job's `RunBudget` was exhausted before a usable result.
    Budget,
    /// The client's bytes violated the frame grammar.
    Protocol,
    /// The daemon refused the job under load (see [`OverloadFrame`] —
    /// dedicated frame kind 9 carries the structured refusal; this
    /// category exists so clients and the CLI can classify it).
    Overloaded,
}

impl ErrorCategory {
    /// Wire encoding (matches the CLI exit code where one exists).
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCategory::Config => 2,
            ErrorCategory::Data => 3,
            ErrorCategory::Execution => 4,
            ErrorCategory::Budget => 5,
            ErrorCategory::Protocol => 6,
            ErrorCategory::Overloaded => 7,
        }
    }

    /// Decode the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            2 => Some(ErrorCategory::Config),
            3 => Some(ErrorCategory::Data),
            4 => Some(ErrorCategory::Execution),
            5 => Some(ErrorCategory::Budget),
            6 => Some(ErrorCategory::Protocol),
            7 => Some(ErrorCategory::Overloaded),
            _ => None,
        }
    }

    /// Classify a core error.
    pub fn from_error(e: &Error) -> Self {
        match e {
            Error::Config(_) => ErrorCategory::Config,
            Error::Data(_) => ErrorCategory::Data,
            Error::Execution(_) => ErrorCategory::Execution,
            Error::Budget(_) => ErrorCategory::Budget,
        }
    }
}

/// A reconstruction job submitted by a client: adjoint NuFFT of `m`
/// non-uniform samples onto an `n × n` image (f64, 2-D — the serving
/// layer fixes the scalar type and dimensionality at v1).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen correlation tag, echoed in the response.
    pub tag: u64,
    /// Queue priority class.
    pub priority: Priority,
    /// Image size per dimension (`N`).
    pub n: u32,
    /// Per-job wall-clock budget in milliseconds (0 = daemon default).
    pub budget_ms: u32,
    /// Non-uniform sample coordinates in cycles.
    pub coords: Vec<[f64; 2]>,
    /// Complex sample values, one per coordinate.
    pub values: Vec<C64>,
}

impl JobRequest {
    /// Rough resident cost of holding this job queued: the sample
    /// arrays (32 bytes per sample) plus the `n²` complex image (16
    /// bytes per pixel) an executor will allocate to answer it. Used by
    /// the daemon's `max_queued_bytes` admission ledger.
    pub fn approx_bytes(&self) -> usize {
        32 * self.coords.len().max(self.values.len())
            + 16 * (self.n as usize).saturating_mul(self.n as usize)
    }
}

/// A completed job: the reconstructed `n × n` image, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The request's correlation tag.
    pub tag: u64,
    /// Whether the plan came from the cache (true) or was built cold.
    pub cache_hit: bool,
    /// Image size per dimension.
    pub n: u32,
    /// Row-major `n²` complex image.
    pub image: Vec<C64>,
}

/// Why an overloaded daemon refused a job without running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue already held `max_queue_depth` normal-priority jobs.
    QueueDepth,
    /// Admitting the job would push queued sample bytes past
    /// `max_queued_bytes`.
    QueueBytes,
    /// The job's deadline had already expired before an executor could
    /// start it (swept from the queue or refused at `pop`).
    DeadlineExpired,
    /// The daemon is draining (graceful shutdown in progress): already
    /// accepted jobs still finish, new submits are refused. Retry
    /// against the restarted daemon.
    Draining,
}

impl ShedReason {
    /// Wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            ShedReason::QueueDepth => 1,
            ShedReason::QueueBytes => 2,
            ShedReason::DeadlineExpired => 3,
            ShedReason::Draining => 4,
        }
    }

    /// Decode the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(ShedReason::QueueDepth),
            2 => Some(ShedReason::QueueBytes),
            3 => Some(ShedReason::DeadlineExpired),
            4 => Some(ShedReason::Draining),
            _ => None,
        }
    }

    /// Short lowercase label for counters and dumps.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueDepth => "depth",
            ShedReason::QueueBytes => "bytes",
            ShedReason::DeadlineExpired => "expired",
            ShedReason::Draining => "draining",
        }
    }
}

/// Daemon → client: the job was refused without running because the
/// daemon is overloaded (bounded queue full, or the deadline already
/// expired in queue). `retry_after_ms` is the daemon's estimate of when
/// capacity will free up; a well-behaved client backs off at least that
/// long before resubmitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadFrame {
    /// The request's correlation tag.
    pub tag: u64,
    /// Why the job was shed.
    pub reason: ShedReason,
    /// Suggested client back-off before resubmitting, in milliseconds.
    pub retry_after_ms: u32,
    /// One-line human-readable message.
    pub message: String,
}

/// A structured failure report for one job (or, with `tag = 0` and
/// category [`ErrorCategory::Protocol`], for an unparseable frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The request's correlation tag (0 when no request was decoded).
    pub tag: u64,
    /// Failure category.
    pub category: ErrorCategory,
    /// One-line human-readable message.
    pub message: String,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → daemon: run a job.
    Submit(JobRequest),
    /// Daemon → client: job completed.
    Result(JobResult),
    /// Daemon → client: job or frame failed.
    Error(ErrorFrame),
    /// Liveness probe (client → daemon).
    Ping,
    /// Liveness answer, and the acknowledgement of `Shutdown`.
    Pong,
    /// Client → daemon: drain queued jobs, then exit cleanly.
    Shutdown,
    /// Client → daemon: send a live introspection snapshot. Answered on
    /// the connection's reader thread, never queued behind jobs.
    StatsRequest,
    /// Daemon → client: the introspection snapshot (boxed — it is an
    /// order of magnitude larger than every other variant).
    StatsReply(Box<StatsSnapshot>),
    /// Daemon → client: job refused under load; retry after the hint.
    Overloaded(OverloadFrame),
    /// Client → daemon: graceful drain. Acknowledged with [`Frame::Pong`];
    /// the daemon stops admitting (late submits get
    /// [`Frame::Overloaded`] with [`ShedReason::Draining`]), finishes
    /// every already-accepted job, snapshots its plan cache when
    /// configured, and exits 0. Distinct from the hard [`Frame::Shutdown`].
    Drain,
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Submit(_) => 1,
            Frame::Result(_) => 2,
            Frame::Error(_) => 3,
            Frame::Ping => 4,
            Frame::Pong => 5,
            Frame::Shutdown => 6,
            Frame::StatsRequest => 7,
            Frame::StatsReply(_) => 8,
            Frame::Overloaded(_) => 9,
            Frame::Drain => 10,
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The stream ended cleanly at a frame boundary.
    Eof,
    /// An I/O failure (including EOF mid-frame).
    Io(String),
    /// The bytes violate the frame grammar. The stream position is no
    /// longer trustworthy; the connection should be closed.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Eof => write!(f, "end of stream"),
            ProtocolError::Io(m) => write!(f, "i/o error: {m}"),
            ProtocolError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn push_hist(buf: &mut Vec<u8>, h: &HistogramSnapshot) {
    push_u64(buf, h.count);
    push_u64(buf, h.sum);
    push_u32(buf, h.buckets.len() as u32);
    for &(lo, hi, c) in &h.buckets {
        push_u64(buf, lo);
        push_u64(buf, hi);
        push_u64(buf, c);
    }
}

fn push_stats(buf: &mut Vec<u8>, s: &StatsSnapshot) {
    push_u32(buf, s.stats_version);
    push_u64(buf, s.uptime_ns);
    push_u32(buf, s.queue_depth);
    push_u32(buf, s.queue_high);
    push_u64(buf, s.cache.hits);
    push_u64(buf, s.cache.misses);
    push_u64(buf, s.cache.evictions);
    push_u32(buf, s.cache.len);
    push_u32(buf, s.cache.capacity);
    push_u32(buf, s.workers.len() as u32);
    for w in &s.workers {
        push_u64(buf, w.busy_ns);
        push_u64(buf, w.jobs);
    }
    push_u32(buf, s.windows.len() as u32);
    for w in &s.windows {
        push_str(buf, &w.name);
        push_u64(buf, w.window_ns);
        push_hist(buf, &w.hist);
    }
    push_u32(buf, s.counters.len() as u32);
    for (n, v) in &s.counters {
        push_str(buf, n);
        push_u64(buf, *v);
    }
    push_u32(buf, s.gauges.len() as u32);
    for (n, v) in &s.gauges {
        push_str(buf, n);
        push_f64(buf, *v);
    }
    push_u32(buf, s.histograms.len() as u32);
    for (n, h) in &s.histograms {
        push_str(buf, n);
        push_hist(buf, h);
    }
    push_u32(buf, s.flight.len() as u32);
    for e in &s.flight {
        push_u64(buf, e.ts_ns);
        buf.push(e.kind.as_u8());
        push_u64(buf, e.request_id);
        push_u64(buf, e.tag);
        push_str(buf, &e.detail);
    }
}

/// Frame header bytes: magic, version, kind, payload length.
const HEADER_LEN: usize = 10;

/// Append `16·len` bytes of little-endian `f64` pairs in one pass over a
/// pre-sized tail — no per-element capacity checks.
fn push_f64_pairs(buf: &mut Vec<u8>, pairs: impl ExactSizeIterator<Item = (f64, f64)>) {
    let start = buf.len();
    buf.resize(start + 16 * pairs.len(), 0);
    let (words, _) = buf[start..].as_chunks_mut::<8>();
    for (w, (a, b)) in words.chunks_exact_mut(2).zip(pairs) {
        w[0] = a.to_le_bytes();
        w[1] = b.to_le_bytes();
    }
}

/// Read back the pairs [`push_f64_pairs`] wrote (`bytes.len()` is a
/// multiple of 16).
fn f64_pairs(bytes: &[u8]) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
    let (words, _) = bytes.as_chunks::<8>();
    words
        .chunks_exact(2)
        .map(|w| (f64::from_le_bytes(w[0]), f64::from_le_bytes(w[1])))
}

/// Serialize a frame (header + payload) into a fresh byte vector.
///
/// Every frame but `StatsReply` knows its exact length up front: header
/// and payload go into one allocation of exactly the frame's size, so a
/// 4 MiB `Submit` is written once, never regrown or copied. The payload
/// length is patched into the header at the end.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let payload_hint = match frame {
        Frame::Submit(req) => 22 + 16 * (req.coords.len() + req.values.len()),
        Frame::Result(res) => 14 + 16 * res.image.len(),
        Frame::Error(err) => 14 + err.message.len(),
        Frame::Overloaded(o) => 18 + o.message.len(),
        // Stats replies are small and variable; they grow as they encode.
        _ => 0,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + payload_hint);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.kind());
    push_u32(&mut out, 0);
    match frame {
        Frame::Submit(req) => {
            push_u64(&mut out, req.tag);
            out.push(req.priority.as_u8());
            out.push(0);
            push_u32(&mut out, req.n);
            push_u32(&mut out, req.budget_ms);
            push_u32(&mut out, req.coords.len() as u32);
            push_f64_pairs(&mut out, req.coords.iter().map(|c| (c[0], c[1])));
            push_f64_pairs(&mut out, req.values.iter().map(|v| (v.re, v.im)));
        }
        Frame::Result(res) => {
            push_u64(&mut out, res.tag);
            out.push(u8::from(res.cache_hit));
            out.push(0);
            push_u32(&mut out, res.n);
            push_f64_pairs(&mut out, res.image.iter().map(|z| (z.re, z.im)));
        }
        Frame::Error(err) => {
            push_u64(&mut out, err.tag);
            out.push(err.category.as_u8());
            out.push(0);
            push_u32(&mut out, err.message.len() as u32);
            out.extend_from_slice(err.message.as_bytes());
        }
        Frame::StatsReply(s) => push_stats(&mut out, s),
        Frame::Overloaded(o) => {
            push_u64(&mut out, o.tag);
            out.push(o.reason.as_u8());
            out.push(0);
            push_u32(&mut out, o.retry_after_ms);
            push_u32(&mut out, o.message.len() as u32);
            out.extend_from_slice(o.message.as_bytes());
        }
        Frame::Ping | Frame::Pong | Frame::Shutdown | Frame::StatsRequest | Frame::Drain => {}
    }
    let len = (out.len() - HEADER_LEN) as u32;
    out[6..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    out
}

/// Write one frame and flush.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                ProtocolError::Malformed(format!(
                    "payload truncated: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }

    /// A length-prefixed UTF-8 string, capped at [`MAX_STATS_STR`].
    fn str_field(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        if len > MAX_STATS_STR {
            return Err(ProtocolError::Malformed(format!(
                "string field of {len} bytes exceeds maximum {MAX_STATS_STR}"
            )));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| ProtocolError::Malformed("string field is not UTF-8".into()))
    }

    /// A list count that must be payable by the remaining bytes at
    /// `min_item_bytes` each — rejects counts that would force a huge
    /// allocation before the bounds check catches the truncation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_item_bytes) > remaining {
            return Err(ProtocolError::Malformed(format!(
                "list of {n} items cannot fit in {remaining} remaining payload bytes"
            )));
        }
        Ok(n)
    }
}

/// Cap on any single string inside a `StatsReply` payload.
const MAX_STATS_STR: usize = 1 << 12;

fn decode_hist(c: &mut Cursor<'_>) -> Result<HistogramSnapshot, ProtocolError> {
    let count = c.u64()?;
    let sum = c.u64()?;
    let nb = c.count(24)?;
    let mut buckets = Vec::with_capacity(nb);
    let mut total = 0u64;
    for _ in 0..nb {
        let (lo, hi, n) = (c.u64()?, c.u64()?, c.u64()?);
        if lo >= hi {
            return Err(ProtocolError::Malformed(format!(
                "histogram bucket with lo {lo} ≥ hi {hi}"
            )));
        }
        total = total.saturating_add(n);
        buckets.push((lo, hi, n));
    }
    if total > count {
        return Err(ProtocolError::Malformed(format!(
            "histogram buckets hold {total} samples but count claims {count}"
        )));
    }
    Ok(HistogramSnapshot {
        count,
        sum,
        buckets,
    })
}

fn decode_stats(c: &mut Cursor<'_>) -> Result<StatsSnapshot, ProtocolError> {
    let stats_version = c.u32()?;
    let uptime_ns = c.u64()?;
    let queue_depth = c.u32()?;
    let queue_high = c.u32()?;
    let cache = CacheStats {
        hits: c.u64()?,
        misses: c.u64()?,
        evictions: c.u64()?,
        len: c.u32()?,
        capacity: c.u32()?,
    };
    let nw = c.count(16)?;
    let mut workers = Vec::with_capacity(nw);
    for _ in 0..nw {
        workers.push(WorkerStats {
            busy_ns: c.u64()?,
            jobs: c.u64()?,
        });
    }
    let nwin = c.count(32)?;
    let mut windows = Vec::with_capacity(nwin);
    for _ in 0..nwin {
        windows.push(WindowStats {
            name: c.str_field()?,
            window_ns: c.u64()?,
            hist: decode_hist(c)?,
        });
    }
    let nc = c.count(12)?;
    let mut counters = Vec::with_capacity(nc);
    for _ in 0..nc {
        counters.push((c.str_field()?, c.u64()?));
    }
    let ng = c.count(12)?;
    let mut gauges = Vec::with_capacity(ng);
    for _ in 0..ng {
        gauges.push((c.str_field()?, c.f64()?));
    }
    let nh = c.count(24)?;
    let mut histograms = Vec::with_capacity(nh);
    for _ in 0..nh {
        histograms.push((c.str_field()?, decode_hist(c)?));
    }
    let nf = c.count(29)?;
    let mut flight = Vec::with_capacity(nf);
    for _ in 0..nf {
        let ts_ns = c.u64()?;
        let kb = c.u8()?;
        let kind = FlightKind::from_u8(kb)
            .ok_or_else(|| ProtocolError::Malformed(format!("bad flight event kind {kb}")))?;
        flight.push(FlightEvent {
            ts_ns,
            kind,
            request_id: c.u64()?,
            tag: c.u64()?,
            detail: c.str_field()?,
        });
    }
    Ok(StatsSnapshot {
        stats_version,
        uptime_ns,
        queue_depth,
        queue_high,
        cache,
        workers,
        windows,
        counters,
        gauges,
        histograms,
        flight,
    })
}

/// Read one frame. [`ProtocolError::Eof`] means the stream ended cleanly
/// *between* frames; EOF inside a frame is [`ProtocolError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtocolError> {
    // Probe one byte so a clean close between frames is distinguishable
    // from a mid-frame truncation.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(ProtocolError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = first[0];
    r.read_exact(&mut header[1..])?;
    if header[..4] != MAGIC {
        return Err(ProtocolError::Malformed(format!(
            "bad magic {:02x?}",
            &header[..4]
        )));
    }
    if header[4] != VERSION {
        return Err(ProtocolError::Malformed(format!(
            "unsupported protocol version {}",
            header[4]
        )));
    }
    let kind = header[5];
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Malformed(format!(
            "payload length {len} exceeds maximum {MAX_PAYLOAD}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_payload(kind, &payload)
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
    let mut c = Cursor::new(payload);
    match kind {
        1 => {
            let tag = c.u64()?;
            let pr = c.u8()?;
            let priority = Priority::from_u8(pr)
                .ok_or_else(|| ProtocolError::Malformed(format!("bad priority byte {pr}")))?;
            let _reserved = c.u8()?;
            let n = c.u32()?;
            let budget_ms = c.u32()?;
            let m = c.u32()? as usize;
            // Two f64 per coordinate plus two per value: 32 bytes/sample.
            let expected = 22 + 32 * m as u64;
            if payload.len() as u64 != expected {
                return Err(ProtocolError::Malformed(format!(
                    "submit frame with m = {m} must carry {expected} payload bytes, got {}",
                    payload.len()
                )));
            }
            let coords = f64_pairs(c.take(16 * m)?).map(|(x, y)| [x, y]).collect();
            let values = f64_pairs(c.take(16 * m)?)
                .map(|(re, im)| C64::new(re, im))
                .collect();
            c.finish()?;
            Ok(Frame::Submit(JobRequest {
                tag,
                priority,
                n,
                budget_ms,
                coords,
                values,
            }))
        }
        2 => {
            let tag = c.u64()?;
            let cache_hit = c.u8()? != 0;
            let _reserved = c.u8()?;
            let n = c.u32()?;
            let pixels = (n as u64) * (n as u64);
            let expected = 14 + 16 * pixels;
            if payload.len() as u64 != expected {
                return Err(ProtocolError::Malformed(format!(
                    "result frame with n = {n} must carry {expected} payload bytes, got {}",
                    payload.len()
                )));
            }
            let image = f64_pairs(c.take(16 * pixels as usize)?)
                .map(|(re, im)| C64::new(re, im))
                .collect();
            c.finish()?;
            Ok(Frame::Result(JobResult {
                tag,
                cache_hit,
                n,
                image,
            }))
        }
        3 => {
            let tag = c.u64()?;
            let cat = c.u8()?;
            let category = ErrorCategory::from_u8(cat)
                .ok_or_else(|| ProtocolError::Malformed(format!("bad error category {cat}")))?;
            let _reserved = c.u8()?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let message = String::from_utf8(bytes.to_vec())
                .map_err(|_| ProtocolError::Malformed("error message is not UTF-8".into()))?;
            c.finish()?;
            Ok(Frame::Error(ErrorFrame {
                tag,
                category,
                message,
            }))
        }
        4..=7 | 10 => {
            c.finish()?;
            Ok(match kind {
                4 => Frame::Ping,
                5 => Frame::Pong,
                6 => Frame::Shutdown,
                7 => Frame::StatsRequest,
                _ => Frame::Drain,
            })
        }
        8 => {
            let stats = decode_stats(&mut c)?;
            c.finish()?;
            Ok(Frame::StatsReply(Box::new(stats)))
        }
        9 => {
            let tag = c.u64()?;
            let rb = c.u8()?;
            let reason = ShedReason::from_u8(rb)
                .ok_or_else(|| ProtocolError::Malformed(format!("bad shed reason {rb}")))?;
            let _reserved = c.u8()?;
            let retry_after_ms = c.u32()?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let message = String::from_utf8(bytes.to_vec())
                .map_err(|_| ProtocolError::Malformed("overload message is not UTF-8".into()))?;
            c.finish()?;
            Ok(Frame::Overloaded(OverloadFrame {
                tag,
                reason,
                retry_after_ms,
                message,
            }))
        }
        other => Err(ProtocolError::Malformed(format!(
            "unknown frame kind {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: &Frame) -> Frame {
        let bytes = encode(f);
        let mut r = io::Cursor::new(bytes);
        let back = read_frame(&mut r).expect("decode");
        // The stream must now be exactly at EOF.
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Eof)));
        back
    }

    #[test]
    fn empty_frames_round_trip() {
        for f in [
            Frame::Ping,
            Frame::Pong,
            Frame::Shutdown,
            Frame::StatsRequest,
            Frame::Drain,
        ] {
            assert_eq!(round_trip(&f), f);
        }
    }

    #[test]
    fn submit_round_trips_bitwise() {
        let req = JobRequest {
            tag: 0xDEAD_BEEF,
            priority: Priority::High,
            n: 64,
            budget_ms: 250,
            coords: vec![[0.25, -0.5], [f64::MIN_POSITIVE, 31.0]],
            values: vec![C64::new(1.5, -2.5), C64::new(-0.0, 3.25)],
        };
        match round_trip(&Frame::Submit(req.clone())) {
            Frame::Submit(back) => {
                assert_eq!(back.tag, req.tag);
                assert_eq!(back.priority, req.priority);
                assert_eq!(back.n, req.n);
                assert_eq!(back.budget_ms, req.budget_ms);
                // Bitwise, not approximate: the wire carries bit patterns.
                for (a, b) in back.coords.iter().zip(&req.coords) {
                    assert_eq!(a[0].to_bits(), b[0].to_bits());
                    assert_eq!(a[1].to_bits(), b[1].to_bits());
                }
                for (a, b) in back.values.iter().zip(&req.values) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn result_and_error_round_trip() {
        let res = Frame::Result(JobResult {
            tag: 7,
            cache_hit: true,
            n: 2,
            image: vec![C64::new(0.0, 1.0); 4],
        });
        assert_eq!(round_trip(&res), res);
        let err = Frame::Error(ErrorFrame {
            tag: 9,
            category: ErrorCategory::Budget,
            message: "deadline blown ×2 µ".into(),
        });
        assert_eq!(round_trip(&err), err);
    }

    #[test]
    fn overloaded_round_trips_retry_hint_bitwise() {
        for reason in [
            ShedReason::QueueDepth,
            ShedReason::QueueBytes,
            ShedReason::DeadlineExpired,
            ShedReason::Draining,
        ] {
            for retry_after_ms in [0u32, 1, 25, 100, 29_999, u32::MAX] {
                let f = Frame::Overloaded(OverloadFrame {
                    tag: 0x8000_0000_0000_0001,
                    reason,
                    retry_after_ms,
                    message: "queue full: 1024 jobs deep µ".into(),
                });
                match round_trip(&f) {
                    Frame::Overloaded(back) => {
                        assert_eq!(back.reason, reason);
                        // Bitwise: the hint must survive the wire exactly.
                        assert_eq!(
                            back.retry_after_ms.to_le_bytes(),
                            retry_after_ms.to_le_bytes()
                        );
                        assert_eq!(Frame::Overloaded(back), f);
                    }
                    other => panic!("wrong frame {other:?}"),
                }
            }
        }
    }

    #[test]
    fn overloaded_truncation_and_bad_reason_never_panic() {
        let bytes = encode(&Frame::Overloaded(OverloadFrame {
            tag: 42,
            reason: ShedReason::QueueBytes,
            retry_after_ms: 250,
            message: "x".repeat(48),
        }));
        // Cut at every byte boundary: clean error, never a panic.
        for cut in 0..bytes.len() {
            let e = read_frame(&mut io::Cursor::new(bytes[..cut].to_vec())).unwrap_err();
            assert!(
                matches!(
                    e,
                    ProtocolError::Io(_) | ProtocolError::Malformed(_) | ProtocolError::Eof
                ),
                "cut at {cut}: {e:?}"
            );
        }
        // An unknown reason byte is Malformed, not a panic: the decoder
        // stays total as new reasons append.
        let mut bad = bytes.clone();
        bad[10 + 8] = 0xEE;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bad)),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn overloaded_fuzz_decode_is_total() {
        let bytes = encode(&Frame::Overloaded(OverloadFrame {
            tag: 7,
            reason: ShedReason::DeadlineExpired,
            retry_after_ms: 1_000,
            message: "deadline expired 12ms before pop".into(),
        }));
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        for _ in 0..2_000 {
            let mut mutated = bytes.clone();
            let flips = 1 + (next() % 4) as usize;
            for _ in 0..flips {
                let idx = (next() % mutated.len() as u64) as usize;
                mutated[idx] ^= (next() & 0xFF) as u8;
            }
            let _ = read_frame(&mut io::Cursor::new(mutated));
        }
    }

    #[test]
    fn bad_magic_is_malformed() {
        let mut bytes = encode(&Frame::Ping);
        bytes[0] = b'X';
        let e = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(e, ProtocolError::Malformed(_)), "{e:?}");
    }

    #[test]
    fn bad_version_kind_and_length_are_malformed() {
        let mut v = encode(&Frame::Ping);
        v[4] = 99;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(v)),
            Err(ProtocolError::Malformed(_))
        ));
        let mut k = encode(&Frame::Ping);
        k[5] = 42;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(k)),
            Err(ProtocolError::Malformed(_))
        ));
        let mut l = encode(&Frame::Ping);
        l[6..10].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(l)),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn truncation_is_distinguished_from_clean_eof() {
        let bytes = encode(&Frame::Error(ErrorFrame {
            tag: 1,
            category: ErrorCategory::Data,
            message: "x".repeat(64),
        }));
        // Cut mid-frame: an I/O error, not a clean EOF.
        let cut = &bytes[..bytes.len() - 5];
        let e = read_frame(&mut io::Cursor::new(cut.to_vec())).unwrap_err();
        assert!(matches!(e, ProtocolError::Io(_)), "{e:?}");
        // Empty stream: clean EOF.
        assert!(matches!(
            read_frame(&mut io::Cursor::new(Vec::new())),
            Err(ProtocolError::Eof)
        ));
    }

    #[test]
    fn inconsistent_sample_count_is_malformed() {
        let mut bytes = encode(&Frame::Submit(JobRequest {
            tag: 1,
            priority: Priority::Normal,
            n: 8,
            budget_ms: 0,
            coords: vec![[0.0, 0.0]],
            values: vec![C64::new(0.0, 0.0)],
        }));
        // Claim m = 2 without providing the bytes.
        let m_offset = 10 + 8 + 1 + 1 + 4 + 4;
        bytes[m_offset..m_offset + 4].copy_from_slice(&2u32.to_le_bytes());
        let e = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(e, ProtocolError::Malformed(_)), "{e:?}");
    }

    #[test]
    fn stats_frames_round_trip() {
        assert_eq!(round_trip(&Frame::StatsRequest), Frame::StatsRequest);
        let reply = Frame::StatsReply(Box::new(super::super::stats::sample_snapshot()));
        assert_eq!(round_trip(&reply), reply);
        // An empty snapshot (all vecs empty) must also survive the wire.
        let empty = Frame::StatsReply(Box::new(StatsSnapshot {
            stats_version: super::super::stats::STATS_VERSION,
            uptime_ns: 0,
            queue_depth: 0,
            queue_high: 0,
            cache: CacheStats::default(),
            workers: Vec::new(),
            windows: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            flight: Vec::new(),
        }));
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn stats_reply_truncation_never_panics() {
        let bytes = encode(&Frame::StatsReply(Box::new(
            super::super::stats::sample_snapshot(),
        )));
        // Cutting the frame at every byte boundary must yield a clean
        // error (short header → Io; short payload → Io; inconsistent
        // interior counts → Malformed), never a panic or a bogus Ok.
        for cut in 0..bytes.len() {
            let e = read_frame(&mut io::Cursor::new(bytes[..cut].to_vec())).unwrap_err();
            assert!(
                matches!(
                    e,
                    ProtocolError::Io(_) | ProtocolError::Malformed(_) | ProtocolError::Eof
                ),
                "cut at {cut}: {e:?}"
            );
        }
    }

    #[test]
    fn stats_reply_fuzz_decode_is_total() {
        let bytes = encode(&Frame::StatsReply(Box::new(
            super::super::stats::sample_snapshot(),
        )));
        // Deterministic LCG-driven byte mutations: decode must return
        // Ok or Err, never panic, and never over-allocate (the count
        // guards bound Vec capacities by remaining payload bytes).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        for _ in 0..2_000 {
            let mut mutated = bytes.clone();
            let flips = 1 + (next() % 4) as usize;
            for _ in 0..flips {
                let idx = (next() % mutated.len() as u64) as usize;
                mutated[idx] ^= (next() & 0xFF) as u8;
            }
            let _ = read_frame(&mut io::Cursor::new(mutated));
        }
    }

    /// FNV-1a 64 of a byte string (a compact stand-in for long goldens).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wire_bytes_match_golden_frames() {
        // Version-1 wire bytes, pinned so the bulk codec cannot drift.
        let cases = [
            (
                Frame::Submit(JobRequest {
                    tag: 0x0123_4567_89AB_CDEF,
                    priority: Priority::High,
                    n: 32,
                    budget_ms: 250,
                    coords: vec![[0.25, -0.5], [-0.0, 31.75]],
                    values: vec![C64::new(1.5, -2.5), C64::new(f64::MIN_POSITIVE, 3.25)],
                }),
                "4a475357010156000000efcdab8967452301010020000000fa000000020000000000000000\
                 00d03f000000000000e0bf00000000000000800000000000c03f40000000000000f83f0000\
                 0000000004c000000000000010000000000000000a40",
            ),
            (
                Frame::Result(JobResult {
                    tag: 7,
                    cache_hit: true,
                    n: 1,
                    image: vec![C64::new(-1.0, 0.125)],
                }),
                "4a47535701021e0000000700000000000000010001000000000000000000f0bf000000000000c03f",
            ),
            (
                Frame::Error(ErrorFrame {
                    tag: 9,
                    category: ErrorCategory::Budget,
                    message: "late".into(),
                }),
                "4a47535701031200000009000000000000000500040000006c617465",
            ),
            (
                Frame::Overloaded(OverloadFrame {
                    tag: 11,
                    reason: ShedReason::QueueBytes,
                    retry_after_ms: 40,
                    message: "full".into(),
                }),
                "4a4753570109160000000b000000000000000200280000000400000066756c6c",
            ),
            (Frame::Ping, "4a475357010400000000"),
        ];
        for (frame, golden) in &cases {
            let bytes = encode(frame);
            assert_eq!(hex(&bytes), *golden, "{frame:?}");
            assert_eq!(bytes.len(), bytes.capacity(), "exactly sized: {frame:?}");
            assert_eq!(round_trip(frame), *frame);
        }
        let stats = encode(&Frame::StatsReply(Box::new(
            super::super::stats::sample_snapshot(),
        )));
        assert_eq!((stats.len(), fnv1a(&stats)), (422, 0x319f_cbea_77ab_6ced));
    }

    #[test]
    fn category_and_priority_codes_are_stable() {
        assert_eq!(ErrorCategory::Config.as_u8(), 2);
        assert_eq!(ErrorCategory::Data.as_u8(), 3);
        assert_eq!(ErrorCategory::Execution.as_u8(), 4);
        assert_eq!(ErrorCategory::Budget.as_u8(), 5);
        assert_eq!(ErrorCategory::Protocol.as_u8(), 6);
        assert_eq!(ErrorCategory::Overloaded.as_u8(), 7);
        for b in [2u8, 3, 4, 5, 6, 7] {
            assert_eq!(ErrorCategory::from_u8(b).map(|c| c.as_u8()), Some(b));
        }
        assert_eq!(ErrorCategory::from_u8(8), None);
        for r in [
            ShedReason::QueueDepth,
            ShedReason::QueueBytes,
            ShedReason::DeadlineExpired,
            ShedReason::Draining,
        ] {
            assert_eq!(ShedReason::from_u8(r.as_u8()), Some(r));
            assert!(!r.label().is_empty());
        }
        assert_eq!(ShedReason::from_u8(0), None);
        assert_eq!(ShedReason::from_u8(5), None);
        assert_eq!(Priority::from_u8(0), Some(Priority::Normal));
        assert_eq!(Priority::from_u8(1), Some(Priority::High));
        assert_eq!(Priority::from_u8(2), None);
        assert_eq!(
            ErrorCategory::from_error(&Error::Budget("x".into())),
            ErrorCategory::Budget
        );
    }
}
