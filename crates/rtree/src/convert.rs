//! Checked integer conversions backing the page format.
//!
//! `persist.rs` is format code where bare `as` casts are banned (tw-analyze
//! `cast` rule): a silent truncation there writes a wrong header field or
//! mis-reads one. Narrowings with a structural invariant live here with the
//! invariant spelled out; plain widenings get `From`-style helpers so the
//! format code stays cast-free.

// The format addresses pages with u32 and in-memory structures with usize:
// both directions are only sound while usize is 32..=64 bits wide.
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

/// `usize` → `u32` for quantities the format already bounds to 32 bits:
/// page numbers and entry counts (the node arena refuses to grow past
/// `u32::MAX` slots, and fan-out is far below that).
#[inline]
#[allow(clippy::expect_used)]
pub(crate) fn usize_to_u32(n: usize) -> u32 {
    // tw-allow(expect): callers pass format-bounded quantities (≤ u32::MAX by construction)
    u32::try_from(n).expect("format-bounded quantity exceeds u32")
}
