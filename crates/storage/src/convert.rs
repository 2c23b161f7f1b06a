//! Checked integer conversions backing the on-disk formats.
//!
//! `codec.rs`, `checksum.rs` and `seqstore.rs` are format code where bare
//! `as` casts are banned (tw-analyze `cast` rule): a silent truncation there
//! writes a wrong length field or mis-reads one. Narrowings either carry a
//! structural invariant (documented here) or stay fallible for the decode
//! path to map to a typed error; widenings get `From`-style helpers so the
//! format code stays cast-free.

// Formats store lengths as u32/u64 and index memory with usize: the helpers
// below are only sound while usize is 32..=64 bits wide.
const _: () = assert!(usize::BITS >= 32 && usize::BITS <= 64);

/// `u32` → `usize`, infallible: usize is at least 32 bits (guard above).
#[inline]
pub(crate) const fn u32_to_usize(n: u32) -> usize {
    n as usize
}

/// `usize` → `u64`, infallible: usize is at most 64 bits (guard above).
#[inline]
pub(crate) fn usize_to_u64(n: usize) -> u64 {
    n as u64
}

/// `u64` → `usize` for in-page offsets: callers pass values already reduced
/// modulo the pager's (usize-sized) page size, so the conversion cannot lose
/// bits.
#[inline]
#[allow(clippy::expect_used)]
pub(crate) fn in_page_usize(n: u64) -> usize {
    // tw-allow(expect): argument is < page_size, which is a usize
    usize::try_from(n).expect("in-page offset exceeds address space")
}

/// A record's element count as the format's u32 length field. The codec
/// bounds record lengths to [`crate::codec::MAX_RECORD_ELEMS`] (far below
/// `u32::MAX`); a panic here means a store-level length check was bypassed —
/// truncating instead would persist a record that decodes to wrong data.
#[inline]
#[allow(clippy::expect_used)]
pub(crate) fn record_len_u32(len: usize) -> u32 {
    // tw-allow(expect): panicking beats silently truncating a length field
    u32::try_from(len).expect("record length exceeds the u32 format field")
}
