//! The TWNP v1 wire format.
//!
//! Every message travels in one frame (all integers little-endian):
//!
//! | offset | size | field                                    |
//! |--------|------|------------------------------------------|
//! | 0      | 4    | magic `"TWNP"`                           |
//! | 4      | 1    | version (1)                              |
//! | 5      | 1    | frame kind                               |
//! | 6      | 4    | payload length `n`                       |
//! | 10     | `n`  | payload                                  |
//! | 10+`n` | 4    | CRC-32 over bytes `[0, 10+n)`            |
//!
//! Decoding validates in a fixed order — magic, version, kind, length
//! bound, payload, CRC — and reports the first failure as a typed
//! [`FrameError`]. Corruption is *detected*, never mis-parsed: any
//! single-byte change to a valid frame flips either a header check or the
//! CRC (`tests/net_protocol.rs` proves this by property). The length bound
//! is checked before any payload is read, so a corrupt length field can
//! never drive an allocation or a long blocking read.
//!
//! Payload layouts (also little-endian, validated with typed
//! [`PayloadError`]s and an exact-length check — trailing bytes are an
//! error, the same discipline `tests/format_stability.rs` pins for the
//! on-disk formats):
//!
//! * **RangeRequest** — tenant `u32`, budget (4×`u64`: deadline-ms,
//!   max-cells, max-candidate-bytes, max-pager-reads; 0 = unlimited),
//!   epsilon `f64`, count `u32`, count×`f64` values.
//! * **KnnRequest** — tenant `u32`, budget, k `u32`, count `u32`,
//!   count×`f64` values.
//! * **Response** — termination (2×`u8`), health (`u8` + two strings when
//!   degraded), [`QueryStats`] (24×`u64`), match count `u32`,
//!   count×(`u64` id, `f64` distance).
//! * **Shed** — retry-after-ms `u64`, queue depth `u64`, shed total `u64`.
//! * **Error** — code `u16`, UTF-8 message (`u32` length + bytes).
//!
//! Floats cross the wire as IEEE-754 bit patterns (`to_bits`/`from_bits`),
//! so NaN payloads and negative zeros survive exactly.

use std::fmt;
use std::time::Duration;

use tw_core::govern::{BudgetKind, Termination};
use tw_core::search::EngineHealth;
use tw_core::QueryStats;
use tw_storage::crc32;

use crate::convert::{duration_nanos, u32_len, usize_len};

/// Frame magic: `"TWNP"`.
pub const MAGIC: [u8; 4] = *b"TWNP";
/// Current protocol version.
pub const VERSION: u8 = 2;
/// Fixed frame header size: magic + version + kind + payload length.
pub const HEADER_BYTES: usize = 10;
/// Frame trailer size: the CRC-32.
pub const TRAILER_BYTES: usize = 4;
/// Default payload-size bound (4 MiB): large enough for any realistic
/// result page, small enough that a corrupt length field cannot drive an
/// absurd allocation.
pub const DEFAULT_MAX_PAYLOAD: u32 = 4 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: an ε-range query.
    RangeRequest,
    /// Client → server: a k-nearest-neighbour query.
    KnnRequest,
    /// Server → client: matches + stats + termination + health.
    Response,
    /// Server → client: admission control rejected the query.
    Shed,
    /// Server → client: the request failed; the connection may close.
    Error,
}

impl FrameKind {
    /// The wire byte for this kind.
    pub fn code(self) -> u8 {
        match self {
            FrameKind::RangeRequest => 1,
            FrameKind::KnnRequest => 2,
            FrameKind::Response => 3,
            FrameKind::Shed => 4,
            FrameKind::Error => 5,
        }
    }

    /// Decodes a wire byte.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(FrameKind::RangeRequest),
            2 => Some(FrameKind::KnnRequest),
            3 => Some(FrameKind::Response),
            4 => Some(FrameKind::Shed),
            5 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// A frame-level decode failure. Each variant names the first check that
/// failed, in validation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not `"TWNP"`.
    BadMagic([u8; 4]),
    /// The version byte is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte maps to no [`FrameKind`].
    UnknownKind(u8),
    /// The declared payload length exceeds the negotiated bound.
    FrameTooLarge { len: u32, max: u32 },
    /// The input ends before the declared frame does.
    Truncated { needed: usize, got: usize },
    /// The trailer CRC does not match the header‖payload bytes.
    BadCrc { expected: u32, actual: u32 },
    /// The frame was sound but its payload was not.
    BadPayload(PayloadError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds bound {max}")
            }
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::BadCrc { expected, actual } => write!(
                f,
                "frame CRC mismatch: computed {expected:#010x}, stored {actual:#010x}"
            ),
            FrameError::BadPayload(e) => write!(f, "bad frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::BadPayload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PayloadError> for FrameError {
    fn from(e: PayloadError) -> Self {
        FrameError::BadPayload(e)
    }
}

/// A payload-level decode failure inside a structurally sound frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// The payload ends before a field does.
    Truncated { needed: usize, got: usize },
    /// Bytes remain after the last field.
    TrailingBytes(usize),
    /// A string field is not valid UTF-8.
    BadUtf8(std::str::Utf8Error),
    /// An enum tag byte maps to no variant of `what`.
    BadTag { what: &'static str, tag: u8 },
    /// This payload cannot appear under this frame kind.
    UnexpectedKind(u8),
    /// A count field implies a length that overflows addressing.
    Oversize { count: u32 },
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::Truncated { needed, got } => {
                write!(f, "truncated payload: needed {needed} bytes, got {got}")
            }
            PayloadError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            PayloadError::BadUtf8(e) => write!(f, "invalid UTF-8 in string field: {e}"),
            PayloadError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            PayloadError::UnexpectedKind(k) => {
                write!(f, "frame kind {k} cannot carry this payload")
            }
            PayloadError::Oversize { count } => {
                write!(f, "element count {count} overflows the payload")
            }
        }
    }
}

impl std::error::Error for PayloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PayloadError::BadUtf8(e) => Some(e),
            _ => None,
        }
    }
}

/// One decoded frame: its kind and raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub payload: Vec<u8>,
}

/// Encodes one frame, CRC included.
pub fn encode_frame(
    kind: FrameKind,
    payload: &[u8],
    max_payload: u32,
) -> Result<Vec<u8>, FrameError> {
    let len = u32_len(payload.len()).ok_or(FrameError::FrameTooLarge {
        len: u32::MAX,
        max: max_payload,
    })?;
    if len > max_payload {
        return Err(FrameError::FrameTooLarge {
            len,
            max: max_payload,
        });
    }
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(kind.code());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// Validates a frame header, returning the kind and payload length.
///
/// Checks run in the documented order so the caller can bound its next
/// read *before* trusting the length field.
pub fn validate_header(
    header: &[u8; HEADER_BYTES],
    max_payload: u32,
) -> Result<(FrameKind, u32), FrameError> {
    let mut magic = [0u8; 4];
    magic.copy_from_slice(header.get(..4).unwrap_or(&[0; 4]));
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = header.get(4).copied().unwrap_or(0);
    if version != VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let code = header.get(5).copied().unwrap_or(0);
    let kind = FrameKind::from_code(code).ok_or(FrameError::UnknownKind(code))?;
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(header.get(6..10).unwrap_or(&[0; 4]));
    let len = u32::from_le_bytes(len_bytes);
    if len > max_payload {
        return Err(FrameError::FrameTooLarge {
            len,
            max: max_payload,
        });
    }
    Ok((kind, len))
}

/// Decodes one frame from the front of `bytes`, returning it and the
/// number of bytes consumed.
pub fn decode_frame(bytes: &[u8], max_payload: u32) -> Result<(Frame, usize), FrameError> {
    let header_slice = bytes.get(..HEADER_BYTES).ok_or(FrameError::Truncated {
        needed: HEADER_BYTES,
        got: bytes.len(),
    })?;
    let mut header = [0u8; HEADER_BYTES];
    header.copy_from_slice(header_slice);
    let (kind, len) = validate_header(&header, max_payload)?;
    let payload_len = usize_len(len);
    let total = HEADER_BYTES + payload_len + TRAILER_BYTES;
    let frame_bytes = bytes.get(..total).ok_or(FrameError::Truncated {
        needed: total,
        got: bytes.len(),
    })?;
    let covered = frame_bytes
        .get(..HEADER_BYTES + payload_len)
        .ok_or(FrameError::Truncated {
            needed: total,
            got: bytes.len(),
        })?;
    let expected = crc32(covered);
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(
        frame_bytes
            .get(HEADER_BYTES + payload_len..)
            .unwrap_or(&[0; 4]),
    );
    let actual = u32::from_le_bytes(crc_bytes);
    if expected != actual {
        return Err(FrameError::BadCrc { expected, actual });
    }
    let payload = covered.get(HEADER_BYTES..).unwrap_or(&[]).to_vec();
    Ok((Frame { kind, payload }, total))
}

// ---------------------------------------------------------------------------
// Payload reader / writer primitives
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a payload.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Self { rest: payload }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        match (self.rest.get(..n), self.rest.get(n..)) {
            (Some(head), Some(tail)) => {
                self.rest = tail;
                Ok(head)
            }
            _ => Err(PayloadError::Truncated {
                needed: n,
                got: self.rest.len(),
            }),
        }
    }

    fn u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u16(&mut self) -> Result<u16, PayloadError> {
        let mut arr = [0u8; 2];
        arr.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(arr))
    }

    fn u32(&mut self) -> Result<u32, PayloadError> {
        let mut arr = [0u8; 4];
        arr.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, PayloadError> {
        let mut arr = [0u8; 8];
        arr.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(arr))
    }

    fn f64(&mut self) -> Result<f64, PayloadError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, PayloadError> {
        let len = self.u32()?;
        let bytes = self.take(usize_len(len))?;
        let s = std::str::from_utf8(bytes).map_err(PayloadError::BadUtf8)?;
        Ok(s.to_string())
    }

    /// Asserts the payload is fully consumed.
    fn finish(self) -> Result<(), PayloadError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(PayloadError::TrailingBytes(self.rest.len()))
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    // Strings longer than u32::MAX bytes cannot occur: frames are bounded
    // far below that. Saturate rather than panic if one somehow does.
    put_u32(buf, u32_len(s.len()).unwrap_or(u32::MAX));
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A query budget as it crosses the wire. Zero means "unlimited" on every
/// axis, so an all-zero budget round-trips to [`tw_core::QueryBudget`]'s
/// inert unlimited form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireBudget {
    /// Wall-clock deadline in milliseconds; 0 = none.
    pub deadline_ms: u64,
    /// DTW cell cap; 0 = none.
    pub max_cells: u64,
    /// Candidate byte cap; 0 = none.
    pub max_candidate_bytes: u64,
    /// Pager read cap; 0 = none.
    pub max_pager_reads: u64,
}

impl WireBudget {
    /// Compiles the wire fields into an engine budget on `clock`, which is
    /// how a client deadline propagates into the server's governor.
    pub fn to_budget(self, clock: std::sync::Arc<dyn tw_core::Clock>) -> tw_core::QueryBudget {
        let mut budget = tw_core::QueryBudget::new().clock(clock);
        if self.deadline_ms > 0 {
            budget = budget.deadline(Duration::from_millis(self.deadline_ms));
        }
        if self.max_cells > 0 {
            budget = budget.max_cells(self.max_cells);
        }
        if self.max_candidate_bytes > 0 {
            budget = budget.max_candidate_bytes(self.max_candidate_bytes);
        }
        if self.max_pager_reads > 0 {
            budget = budget.max_pager_reads(self.max_pager_reads);
        }
        budget
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.deadline_ms);
        put_u64(buf, self.max_cells);
        put_u64(buf, self.max_candidate_bytes);
        put_u64(buf, self.max_pager_reads);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PayloadError> {
        Ok(Self {
            deadline_ms: r.u64()?,
            max_cells: r.u64()?,
            max_candidate_bytes: r.u64()?,
            max_pager_reads: r.u64()?,
        })
    }
}

/// The query form a request carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// ε-range search.
    Range { epsilon: f64 },
    /// k-nearest-neighbour search.
    Knn { k: u32 },
}

/// A complete query request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// QoS tenant this query bills to.
    pub tenant: u32,
    /// Resource limits the server must honour.
    pub budget: WireBudget,
    /// Range or kNN, with the form-specific parameter.
    pub kind: QueryKind,
    /// The query sequence.
    pub values: Vec<f64>,
}

impl QueryRequest {
    /// Serializes into (frame kind, payload bytes).
    pub fn encode(&self) -> (FrameKind, Vec<u8>) {
        let mut buf = Vec::with_capacity(4 + 32 + 12 + self.values.len() * 8);
        put_u32(&mut buf, self.tenant);
        self.budget.encode(&mut buf);
        let kind = match self.kind {
            QueryKind::Range { epsilon } => {
                put_f64(&mut buf, epsilon);
                FrameKind::RangeRequest
            }
            QueryKind::Knn { k } => {
                put_u32(&mut buf, k);
                FrameKind::KnnRequest
            }
        };
        put_u32(&mut buf, u32_len(self.values.len()).unwrap_or(u32::MAX));
        for v in &self.values {
            put_f64(&mut buf, *v);
        }
        (kind, buf)
    }

    /// Deserializes a request payload under its frame kind.
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Self, PayloadError> {
        let mut r = Reader::new(payload);
        let tenant = r.u32()?;
        let budget = WireBudget::decode(&mut r)?;
        let query_kind = match kind {
            FrameKind::RangeRequest => QueryKind::Range { epsilon: r.f64()? },
            FrameKind::KnnRequest => QueryKind::Knn { k: r.u32()? },
            other => return Err(PayloadError::UnexpectedKind(other.code())),
        };
        let values = decode_values(&mut r)?;
        r.finish()?;
        Ok(Self {
            tenant,
            budget,
            kind: query_kind,
            values,
        })
    }
}

fn decode_values(r: &mut Reader<'_>) -> Result<Vec<f64>, PayloadError> {
    let count = r.u32()?;
    let bytes = usize_len(count)
        .checked_mul(8)
        .ok_or(PayloadError::Oversize { count })?;
    // Reserve only what the remaining payload can actually hold; the frame
    // bound already capped it.
    if bytes > r.rest.len() {
        return Err(PayloadError::Truncated {
            needed: bytes,
            got: r.rest.len(),
        });
    }
    let mut values = Vec::with_capacity(usize_len(count));
    for _ in 0..count {
        values.push(r.f64()?);
    }
    Ok(values)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One match on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireMatch {
    pub id: u64,
    pub distance: f64,
}

/// Engine health as it crosses the wire. Owned strings (unlike
/// [`EngineHealth`], whose fallback name is `&'static str`) so a decoded
/// value has no lifetime ties.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum WireHealth {
    #[default]
    Healthy,
    Degraded {
        fallback: String,
        reason: String,
    },
}

impl From<&EngineHealth> for WireHealth {
    fn from(health: &EngineHealth) -> Self {
        match health {
            EngineHealth::Healthy => WireHealth::Healthy,
            EngineHealth::Degraded { fallback, reason } => WireHealth::Degraded {
                fallback: (*fallback).to_string(),
                reason: reason.clone(),
            },
        }
    }
}

/// A successful (possibly partial) query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// How the query ended; partial results carry an honest label.
    pub termination: Termination,
    /// Whether the primary plan answered or a fallback did.
    pub health: WireHealth,
    /// The full counter ledger for the query.
    pub stats: QueryStats,
    /// Matches, ascending by id.
    pub matches: Vec<WireMatch>,
}

impl QueryResponse {
    /// Serializes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(2 + 1 + 24 * 8 + 4 + self.matches.len() * 16);
        encode_termination(&mut buf, self.termination);
        match &self.health {
            WireHealth::Healthy => buf.push(0),
            WireHealth::Degraded { fallback, reason } => {
                buf.push(1);
                put_string(&mut buf, fallback);
                put_string(&mut buf, reason);
            }
        }
        encode_stats(&mut buf, &self.stats);
        put_u32(&mut buf, u32_len(self.matches.len()).unwrap_or(u32::MAX));
        for m in &self.matches {
            put_u64(&mut buf, m.id);
            put_f64(&mut buf, m.distance);
        }
        buf
    }

    /// Deserializes a response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, PayloadError> {
        let mut r = Reader::new(payload);
        let termination = decode_termination(&mut r)?;
        let health = match r.u8()? {
            0 => WireHealth::Healthy,
            1 => WireHealth::Degraded {
                fallback: r.string()?,
                reason: r.string()?,
            },
            tag => {
                return Err(PayloadError::BadTag {
                    what: "health",
                    tag,
                })
            }
        };
        let stats = decode_stats(&mut r)?;
        let count = r.u32()?;
        let mut matches = Vec::with_capacity(usize_len(count).min(r.rest.len() / 16 + 1));
        for _ in 0..count {
            matches.push(WireMatch {
                id: r.u64()?,
                distance: r.f64()?,
            });
        }
        r.finish()?;
        Ok(Self {
            termination,
            health,
            stats,
            matches,
        })
    }
}

fn encode_termination(buf: &mut Vec<u8>, t: Termination) {
    let (tag, detail) = match t {
        Termination::Complete => (0, 0),
        Termination::DeadlineExceeded => (1, 0),
        Termination::BudgetExhausted { which } => (
            2,
            match which {
                BudgetKind::DtwCells => 0,
                BudgetKind::CandidateBytes => 1,
                BudgetKind::PagerReads => 2,
            },
        ),
        Termination::Shed => (3, 0),
    };
    buf.push(tag);
    buf.push(detail);
}

fn decode_termination(r: &mut Reader<'_>) -> Result<Termination, PayloadError> {
    let tag = r.u8()?;
    let detail = r.u8()?;
    match (tag, detail) {
        (0, 0) => Ok(Termination::Complete),
        (1, 0) => Ok(Termination::DeadlineExceeded),
        (2, 0) => Ok(Termination::BudgetExhausted {
            which: BudgetKind::DtwCells,
        }),
        (2, 1) => Ok(Termination::BudgetExhausted {
            which: BudgetKind::CandidateBytes,
        }),
        (2, 2) => Ok(Termination::BudgetExhausted {
            which: BudgetKind::PagerReads,
        }),
        (3, 0) => Ok(Termination::Shed),
        (t, d) => Err(PayloadError::BadTag {
            what: "termination",
            tag: t.max(d),
        }),
    }
}

/// Serializes the full [`QueryStats`] ledger: 21 counters then 3 phase
/// timings, 24 little-endian `u64`s in declaration order. Extending
/// `QueryStats` requires a protocol version bump — the wire order is
/// pinned by `tests/net_protocol.rs`. Version 2 added `refine_candidates`
/// and `filter_ops`, so a client derives the same `SearchStats` view the
/// server would.
fn encode_stats(buf: &mut Vec<u8>, s: &QueryStats) {
    for v in [
        s.candidates,
        s.pruned_lb_kim,
        s.pruned_lb_yi,
        s.pruned_lb_keogh,
        s.pruned_lb_improved,
        s.pruned_embedding,
        s.verified,
        s.abandoned,
        s.skipped_unverified,
        s.dtw_cells,
        s.pivot_dtw,
        s.pager_reads,
        s.checksum_retries,
        s.index_internal_accesses,
        s.index_leaf_accesses,
        s.refine_candidates,
        s.filter_ops,
        s.wal_appends,
        s.snapshot_epoch,
        s.admission_shed,
        s.admission_queue_depth,
        duration_nanos(s.phases.filter),
        duration_nanos(s.phases.fetch),
        duration_nanos(s.phases.verify),
    ] {
        put_u64(buf, v);
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Result<QueryStats, PayloadError> {
    Ok(QueryStats {
        candidates: r.u64()?,
        pruned_lb_kim: r.u64()?,
        pruned_lb_yi: r.u64()?,
        pruned_lb_keogh: r.u64()?,
        pruned_lb_improved: r.u64()?,
        pruned_embedding: r.u64()?,
        verified: r.u64()?,
        abandoned: r.u64()?,
        skipped_unverified: r.u64()?,
        dtw_cells: r.u64()?,
        pivot_dtw: r.u64()?,
        pager_reads: r.u64()?,
        checksum_retries: r.u64()?,
        index_internal_accesses: r.u64()?,
        index_leaf_accesses: r.u64()?,
        refine_candidates: r.u64()?,
        filter_ops: r.u64()?,
        wal_appends: r.u64()?,
        snapshot_epoch: r.u64()?,
        admission_shed: r.u64()?,
        admission_queue_depth: r.u64()?,
        phases: tw_core::PhaseTimes {
            filter: Duration::from_nanos(r.u64()?),
            fetch: Duration::from_nanos(r.u64()?),
            verify: Duration::from_nanos(r.u64()?),
        },
    })
}

// ---------------------------------------------------------------------------
// Shed / error replies
// ---------------------------------------------------------------------------

/// The server's typed answer to a query it refused under overload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedReply {
    /// Client back-off hint.
    pub retry_after_ms: u64,
    /// The tenant gate's queue depth at shed time.
    pub queue_depth: u64,
    /// The tenant gate's cumulative shed count, this shed included.
    pub shed_total: u64,
}

impl ShedReply {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24);
        put_u64(&mut buf, self.retry_after_ms);
        put_u64(&mut buf, self.queue_depth);
        put_u64(&mut buf, self.shed_total);
        buf
    }

    pub fn decode(payload: &[u8]) -> Result<Self, PayloadError> {
        let mut r = Reader::new(payload);
        let reply = Self {
            retry_after_ms: r.u64()?,
            queue_depth: r.u64()?,
            shed_total: r.u64()?,
        };
        r.finish()?;
        Ok(reply)
    }
}

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame failed to decode; the connection will close.
    MalformedFrame,
    /// The frame was sound but the request payload was not.
    MalformedRequest,
    /// The engine rejected or failed the query.
    QueryFailed,
    /// The handler panicked or another server-side invariant broke.
    Internal,
    /// A code this client build does not know.
    Other(u16),
}

impl ErrorCode {
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::MalformedFrame => 1,
            ErrorCode::MalformedRequest => 2,
            ErrorCode::QueryFailed => 3,
            ErrorCode::Internal => 4,
            ErrorCode::Other(c) => c,
        }
    }

    pub fn from_code(code: u16) -> Self {
        match code {
            1 => ErrorCode::MalformedFrame,
            2 => ErrorCode::MalformedRequest,
            3 => ErrorCode::QueryFailed,
            4 => ErrorCode::Internal,
            other => ErrorCode::Other(other),
        }
    }
}

/// A typed failure reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    pub code: ErrorCode,
    pub message: String,
}

impl ErrorReply {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(2 + 4 + self.message.len());
        put_u16(&mut buf, self.code.code());
        put_string(&mut buf, &self.message);
        buf
    }

    pub fn decode(payload: &[u8]) -> Result<Self, PayloadError> {
        let mut r = Reader::new(payload);
        let reply = Self {
            code: ErrorCode::from_code(r.u16()?),
            message: r.string()?,
        };
        r.finish()?;
        Ok(reply)
    }
}

/// Every server → client message, decoded. The outcome is boxed: it
/// dwarfs the control replies and a reply is built once per query.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Outcome(Box<QueryResponse>),
    Shed(ShedReply),
    Error(ErrorReply),
}

/// Decodes a server reply frame into its typed form.
pub fn decode_reply(frame: &Frame) -> Result<Reply, PayloadError> {
    match frame.kind {
        FrameKind::Response => Ok(Reply::Outcome(Box::new(QueryResponse::decode(
            &frame.payload,
        )?))),
        FrameKind::Shed => Ok(Reply::Shed(ShedReply::decode(&frame.payload)?)),
        FrameKind::Error => Ok(Reply::Error(ErrorReply::decode(&frame.payload)?)),
        other => Err(PayloadError::UnexpectedKind(other.code())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> QueryRequest {
        QueryRequest {
            tenant: 7,
            budget: WireBudget {
                deadline_ms: 250,
                max_cells: 10_000,
                max_candidate_bytes: 0,
                max_pager_reads: 64,
            },
            kind: QueryKind::Range { epsilon: 1.5 },
            values: vec![0.0, -1.25, 3.5, f64::NAN, -0.0],
        }
    }

    fn sample_response() -> QueryResponse {
        let stats = QueryStats {
            candidates: 12,
            verified: 9,
            abandoned: 2,
            skipped_unverified: 1,
            dtw_cells: 4096,
            admission_shed: 3,
            admission_queue_depth: 2,
            phases: tw_core::PhaseTimes {
                filter: Duration::from_micros(120),
                ..Default::default()
            },
            ..Default::default()
        };
        QueryResponse {
            termination: Termination::BudgetExhausted {
                which: BudgetKind::DtwCells,
            },
            health: WireHealth::Degraded {
                fallback: "lb-scan".to_string(),
                reason: "index sidecar missing".to_string(),
            },
            stats,
            matches: vec![
                WireMatch {
                    id: 3,
                    distance: 0.25,
                },
                WireMatch {
                    id: 9,
                    distance: 1.0,
                },
            ],
        }
    }

    #[test]
    fn frame_round_trips() {
        let frame = encode_frame(FrameKind::Shed, b"abc", DEFAULT_MAX_PAYLOAD).unwrap();
        let (decoded, used) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(decoded.kind, FrameKind::Shed);
        assert_eq!(decoded.payload, b"abc");
    }

    #[test]
    fn request_round_trips_with_nan_values() {
        let req = sample_request();
        let (kind, payload) = req.encode();
        assert_eq!(kind, FrameKind::RangeRequest);
        let back = QueryRequest::decode(kind, &payload).unwrap();
        assert_eq!(back.tenant, req.tenant);
        assert_eq!(back.budget, req.budget);
        // NaN breaks PartialEq; compare bit patterns instead.
        let bits: Vec<u64> = back.values.iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u64> = req.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect);
    }

    #[test]
    fn knn_request_round_trips() {
        let mut req = sample_request();
        req.kind = QueryKind::Knn { k: 5 };
        req.values = vec![1.0, 2.0];
        let (kind, payload) = req.encode();
        assert_eq!(kind, FrameKind::KnnRequest);
        let back = QueryRequest::decode(kind, &payload).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn response_round_trips() {
        let resp = sample_response();
        let payload = resp.encode();
        let back = QueryResponse::decode(&payload).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn shed_and_error_round_trip() {
        let shed = ShedReply {
            retry_after_ms: 100,
            queue_depth: 4,
            shed_total: 17,
        };
        assert_eq!(ShedReply::decode(&shed.encode()).unwrap(), shed);
        let err = ErrorReply {
            code: ErrorCode::QueryFailed,
            message: "no such shard".to_string(),
        };
        assert_eq!(ErrorReply::decode(&err.encode()).unwrap(), err);
    }

    #[test]
    fn reply_dispatches_on_kind() {
        let frame = Frame {
            kind: FrameKind::Shed,
            payload: ShedReply::default().encode(),
        };
        assert!(matches!(decode_reply(&frame), Ok(Reply::Shed(_))));
        let req = Frame {
            kind: FrameKind::RangeRequest,
            payload: Vec::new(),
        };
        assert!(matches!(
            decode_reply(&req),
            Err(PayloadError::UnexpectedKind(1))
        ));
    }

    #[test]
    fn header_checks_run_in_order() {
        let good = encode_frame(FrameKind::Response, &[1, 2, 3], DEFAULT_MAX_PAYLOAD).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_frame(&bad_magic, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            decode_frame(&bad_version, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::UnsupportedVersion(9))
        ));

        let mut bad_kind = good.clone();
        bad_kind[5] = 200;
        assert!(matches!(
            decode_frame(&bad_kind, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::UnknownKind(200))
        ));

        // A huge declared length trips the bound before any payload read.
        let mut huge = good.clone();
        huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&huge, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut frame =
            encode_frame(FrameKind::Response, &[1, 2, 3, 4], DEFAULT_MAX_PAYLOAD).unwrap();
        frame[HEADER_BYTES] ^= 0x40;
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn truncated_frame_reports_need() {
        let frame = encode_frame(FrameKind::Error, &[9; 10], DEFAULT_MAX_PAYLOAD).unwrap();
        let cut = &frame[..frame.len() - 3];
        match decode_frame(cut, DEFAULT_MAX_PAYLOAD) {
            Err(FrameError::Truncated { needed, got }) => {
                assert_eq!(needed, frame.len());
                assert_eq!(got, cut.len());
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn oversize_encode_is_refused() {
        let payload = vec![0u8; 32];
        assert!(matches!(
            encode_frame(FrameKind::Response, &payload, 16),
            Err(FrameError::FrameTooLarge { len: 32, max: 16 })
        ));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut payload = ShedReply::default().encode();
        payload.push(0);
        assert!(matches!(
            ShedReply::decode(&payload),
            Err(PayloadError::TrailingBytes(1))
        ));
    }

    #[test]
    fn budget_compiles_to_engine_budget() {
        let wire = WireBudget {
            deadline_ms: 5,
            max_cells: 100,
            max_candidate_bytes: 0,
            max_pager_reads: 0,
        };
        let clock = std::sync::Arc::new(tw_core::ManualClock::new());
        let budget = wire.to_budget(clock.clone());
        assert!(!budget.is_unlimited());
        let token = budget.arm();
        assert!(!token.charge_cells(100));
        assert!(token.charge_cells(1));
        assert!(WireBudget::default()
            .to_budget(std::sync::Arc::new(tw_core::ManualClock::new()))
            .is_unlimited());
    }
}
