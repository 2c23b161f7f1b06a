//! Binary record codec.
//!
//! Sequences are stored as explicit little-endian records (no serde), in
//! one of two format generations:
//!
//! ```text
//! v1 record := id:u64 len:u32 values:[f64; len]
//! v2 record := id:u64 len:u32 crc:u32 values:[f64; len]
//! ```
//!
//! The v2 CRC-32 covers the id and length bytes plus every value byte, so
//! any single-byte corruption of a persisted record decodes to a typed
//! [`CodecError`] — never a panic, and never silently wrong data. The codec
//! is infallible on encode and validating on decode; it is the single place
//! that defines the on-page byte layout of a sequence.

use bytes::{BufMut, Bytes, BytesMut};

use crate::checksum::Crc32;
use crate::convert::{record_len_u32, u32_to_usize};

/// Errors produced while decoding a sequence record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the declared record was complete.
    Truncated { needed: usize, available: usize },
    /// The declared element count is beyond any sane record size.
    LengthOverflow(u32),
    /// A decoded element was NaN, which the engines cannot order.
    NanElement { id: u64, index: usize },
    /// The v2 record checksum does not match its bytes (the id itself may
    /// be part of the damage; it is reported as stored).
    ChecksumMismatch { id: u64 },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(
                    f,
                    "record truncated: needed {needed} bytes, had {available}"
                )
            }
            CodecError::LengthOverflow(n) => write!(f, "record length {n} exceeds limit"),
            CodecError::NanElement { id, index } => {
                write!(f, "sequence {id} holds NaN at index {index}")
            }
            CodecError::ChecksumMismatch { id } => {
                write!(f, "record checksum mismatch (stored id {id})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl CodecError {
    /// Whether the error means the stored bytes are damaged (as opposed to
    /// a short buffer, which recovery treats as a clean truncation point).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            CodecError::ChecksumMismatch { .. }
                | CodecError::LengthOverflow(_)
                | CodecError::NanElement { .. }
        )
    }
}

/// Record layout generation (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFormat {
    /// Unchecksummed legacy layout.
    V1,
    /// CRC-guarded layout.
    V2,
}

impl RecordFormat {
    /// Header bytes preceding the values.
    pub fn header_bytes(self) -> usize {
        match self {
            RecordFormat::V1 => RECORD_HEADER_BYTES,
            RecordFormat::V2 => RECORD_HEADER_BYTES_V2,
        }
    }

    /// Size in bytes of an encoded record holding `len` elements.
    pub fn encoded_len(self, len: usize) -> usize {
        self.header_bytes() + 8 * len
    }
}

/// Hard upper bound on elements per record (64 Mi elements ≈ 512 MiB),
/// a defence against decoding garbage as a gigantic allocation.
pub const MAX_RECORD_ELEMS: u32 = 1 << 26;

/// Header bytes preceding the values of every v1 record.
pub const RECORD_HEADER_BYTES: usize = 8 + 4;

/// Header bytes preceding the values of every v2 record (adds the CRC).
pub const RECORD_HEADER_BYTES_V2: usize = 8 + 4 + 4;

/// Size in bytes of an encoded v1 record holding `len` elements.
/// Prefer [`RecordFormat::encoded_len`] in format-aware code.
pub fn encoded_len(len: usize) -> usize {
    RecordFormat::V1.encoded_len(len)
}

/// A decoded record: a sequence id plus its values.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub id: u64,
    pub values: Vec<f64>,
}

/// Appends the v1 record encoding to `buf`.
pub fn encode_record(buf: &mut BytesMut, id: u64, values: &[f64]) {
    buf.reserve(encoded_len(values.len()));
    buf.put_u64_le(id);
    buf.put_u32_le(record_len_u32(values.len()));
    for &v in values {
        buf.put_f64_le(v);
    }
}

/// Appends the checksummed v2 record encoding to `buf`.
pub fn encode_record_v2(buf: &mut BytesMut, id: u64, values: &[f64]) {
    buf.reserve(RecordFormat::V2.encoded_len(values.len()));
    let mut crc = Crc32::new();
    crc.update(&id.to_le_bytes());
    crc.update(&record_len_u32(values.len()).to_le_bytes());
    for &v in values {
        crc.update(&v.to_le_bytes());
    }
    buf.put_u64_le(id);
    buf.put_u32_le(record_len_u32(values.len()));
    buf.put_u32_le(crc.finalize());
    for &v in values {
        buf.put_f64_le(v);
    }
}

/// Appends the record encoding for `format` to `buf`.
pub fn encode_record_fmt(format: RecordFormat, buf: &mut BytesMut, id: u64, values: &[f64]) {
    match format {
        RecordFormat::V1 => encode_record(buf, id, values),
        RecordFormat::V2 => encode_record_v2(buf, id, values),
    }
}

/// Encodes a single v1 record into a fresh buffer.
pub fn encode_record_to_bytes(id: u64, values: &[f64]) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(values.len()));
    encode_record(&mut buf, id, values);
    buf.freeze()
}

/// Encodes a single v2 record into a fresh buffer.
pub fn encode_record_to_bytes_v2(id: u64, values: &[f64]) -> Bytes {
    let mut buf = BytesMut::with_capacity(RecordFormat::V2.encoded_len(values.len()));
    encode_record_v2(&mut buf, id, values);
    buf.freeze()
}

/// Decodes one record in `format` from the front of `bytes`, returning it
/// with the number of bytes it occupied. This is the one decoder: every
/// check a stored record must pass — length bound, truncation, the v2 CRC,
/// NaN refusal — lives here, and it reads straight from the caller's slice
/// (a borrowed pool frame on the `get` path) into the returned values.
///
/// The v2 CRC is verified over the id, length and value bytes before any
/// value is accepted, so flipped bits anywhere in the record — including
/// the id — surface as [`CodecError::ChecksumMismatch`], not as wrong data.
pub fn decode_record_slice(
    format: RecordFormat,
    bytes: &[u8],
) -> Result<(Record, usize), CodecError> {
    let Some((head, rest)) = bytes.split_at_checked(format.header_bytes()) else {
        return Err(CodecError::Truncated {
            needed: format.header_bytes(),
            available: bytes.len(),
        });
    };
    let (id_len, crc_field) = head.split_at(RECORD_HEADER_BYTES);
    let (id_bytes, len_bytes) = id_len.split_at(8);
    let id = u64::from_le_bytes(le_array(id_bytes));
    let len = u32::from_le_bytes(le_array(len_bytes));
    if len > MAX_RECORD_ELEMS {
        return Err(CodecError::LengthOverflow(len));
    }
    let body_len = 8 * u32_to_usize(len);
    let Some(body) = rest.get(..body_len) else {
        return Err(CodecError::Truncated {
            needed: body_len,
            available: rest.len(),
        });
    };
    if format == RecordFormat::V2 {
        let mut crc = Crc32::new();
        crc.update(id_len);
        crc.update(body);
        // Do not decode values the checksum disowns.
        if crc.finalize() != u32::from_le_bytes(le_array(crc_field)) {
            return Err(CodecError::ChecksumMismatch { id });
        }
    }
    let mut values = Vec::with_capacity(u32_to_usize(len));
    for (index, chunk) in body.chunks_exact(8).enumerate() {
        let v = f64::from_le_bytes(le_array(chunk));
        if v.is_nan() {
            return Err(CodecError::NanElement { id, index });
        }
        values.push(v);
    }
    Ok((Record { id, values }, head.len() + body.len()))
}

/// The element count the record header at the front of `bytes` declares,
/// not yet bounded; `None` when `bytes` ends before the length field does.
pub(crate) fn declared_len(bytes: &[u8]) -> Option<u32> {
    let field = bytes.get(8..RECORD_HEADER_BYTES)?;
    Some(u32::from_le_bytes(le_array(field)))
}

/// The little-endian field held by `field`, whose length the caller has
/// already fixed to `N` by splitting; a mismatch would read as zeros.
fn le_array<const N: usize>(field: &[u8]) -> [u8; N] {
    field.try_into().unwrap_or([0; N])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_v1(bytes: &[u8]) -> Result<(Record, usize), CodecError> {
        decode_record_slice(RecordFormat::V1, bytes)
    }

    fn decode_v2(bytes: &[u8]) -> Result<(Record, usize), CodecError> {
        decode_record_slice(RecordFormat::V2, bytes)
    }

    #[test]
    fn roundtrip_simple() {
        let bytes = encode_record_to_bytes(7, &[1.0, -2.5, 3.25]);
        assert_eq!(bytes.len(), encoded_len(3));
        let (rec, used) = decode_v1(&bytes).expect("decode");
        assert_eq!(rec.id, 7);
        assert_eq!(rec.values, vec![1.0, -2.5, 3.25]);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn roundtrip_empty_values() {
        let bytes = encode_record_to_bytes(0, &[]);
        let (rec, _) = decode_v1(&bytes).expect("decode");
        assert_eq!(rec.id, 0);
        assert!(rec.values.is_empty());
    }

    #[test]
    fn consecutive_records_stream() {
        let mut buf = BytesMut::new();
        encode_record(&mut buf, 1, &[1.0]);
        encode_record(&mut buf, 2, &[2.0, 2.0]);
        encode_record(&mut buf, 3, &[]);
        let bytes = buf.freeze();
        let mut at = 0;
        let ids: Vec<u64> = (0..3)
            .map(|_| {
                let (rec, used) = decode_v1(&bytes[at..]).expect("decode");
                at += used;
                rec.id
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(at, bytes.len());
    }

    #[test]
    fn truncated_header_rejected() {
        let bytes = encode_record_to_bytes(1, &[1.0]);
        let err = decode_v1(&bytes[..5]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }));
    }

    #[test]
    fn truncated_body_rejected() {
        let bytes = encode_record_to_bytes(1, &[1.0, 2.0]);
        let err = decode_v1(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }));
    }

    #[test]
    fn insane_length_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u64_le(9);
        raw.put_u32_le(u32::MAX);
        let err = decode_v1(&raw).unwrap_err();
        assert_eq!(err, CodecError::LengthOverflow(u32::MAX));
    }

    #[test]
    fn nan_element_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u64_le(4);
        raw.put_u32_le(1);
        raw.put_f64_le(f64::NAN);
        let err = decode_v1(&raw).unwrap_err();
        assert!(matches!(err, CodecError::NanElement { id: 4, index: 0 }));
    }

    #[test]
    fn infinities_roundtrip() {
        // Infinities are representable (unlike NaN they are ordered).
        let bytes = encode_record_to_bytes(1, &[f64::INFINITY, f64::NEG_INFINITY]);
        let (rec, _) = decode_v1(&bytes).expect("decode");
        assert_eq!(rec.values, vec![f64::INFINITY, f64::NEG_INFINITY]);
    }

    #[test]
    fn v2_roundtrip() {
        let bytes = encode_record_to_bytes_v2(7, &[1.0, -2.5, 3.25]);
        assert_eq!(bytes.len(), RecordFormat::V2.encoded_len(3));
        let (rec, used) = decode_v2(&bytes).expect("decode");
        assert_eq!(rec.id, 7);
        assert_eq!(rec.values, vec![1.0, -2.5, 3.25]);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn v2_layout_is_v1_plus_crc() {
        // v2 := id:u64 len:u32 crc:u32 values — the v1 fields keep their
        // positions, the CRC slots in before the values.
        let v1 = encode_record_to_bytes(0x0102_0304_0506_0708, &[1.0]);
        let v2 = encode_record_to_bytes_v2(0x0102_0304_0506_0708, &[1.0]);
        assert_eq!(v2.len(), v1.len() + 4);
        assert_eq!(&v2[..12], &v1[..12]);
        assert_eq!(&v2[16..], &v1[12..]);
    }

    #[test]
    fn v2_every_single_byte_corruption_is_an_error() {
        let clean = encode_record_to_bytes_v2(42, &[1.5, -0.25, 1e9, 0.0]);
        for byte in 0..clean.len() {
            for delta in [0x01u8, 0x80, 0xFF] {
                let mut bad = clean.to_vec();
                bad[byte] ^= delta;
                // Any typed error is acceptable; a successful decode is not.
                if let Ok((rec, _)) = decode_v2(&bad) {
                    panic!("corruption at byte {byte} (^{delta:#04x}) decoded as {rec:?}")
                }
            }
        }
    }

    #[test]
    fn v2_checksum_mismatch_consumes_the_record() {
        // A stream must be able to step over a corrupt record deliberately:
        // the length a checksum failure leaves behind spans the whole record.
        let mut buf = BytesMut::new();
        encode_record_v2(&mut buf, 1, &[1.0]);
        encode_record_v2(&mut buf, 2, &[2.0]);
        let mut bytes = buf.freeze().to_vec();
        bytes[20] ^= 0xFF; // first value byte of record 1
        assert!(matches!(
            decode_v2(&bytes),
            Err(CodecError::ChecksumMismatch { id: 1 })
        ));
        let len = declared_len(&bytes).expect("length field intact");
        let skip = RecordFormat::V2.encoded_len(u32_to_usize(len));
        let (rec, _) = decode_v2(&bytes[skip..]).expect("next record intact");
        assert_eq!(rec.id, 2);
    }

    #[test]
    fn format_dispatch_matches_direct_calls() {
        let mut b1 = BytesMut::new();
        encode_record_fmt(RecordFormat::V1, &mut b1, 5, &[9.0]);
        assert_eq!(b1.freeze(), encode_record_to_bytes(5, &[9.0]));
        let mut b2 = BytesMut::new();
        encode_record_fmt(RecordFormat::V2, &mut b2, 5, &[9.0]);
        let frozen = b2.freeze();
        assert_eq!(frozen.clone(), encode_record_to_bytes_v2(5, &[9.0]));
        let (rec, _) = decode_record_slice(RecordFormat::V2, &frozen).unwrap();
        assert_eq!(rec.values, vec![9.0]);
    }
}
