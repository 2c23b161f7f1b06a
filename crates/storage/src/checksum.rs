//! Page checksumming.
//!
//! [`ChecksumPager`] decorates any [`Pager`] and guards every page with an
//! 8-byte trailer:
//!
//! ```text
//! physical page := payload:[u8; inner_size - 8] crc32:u32le tag:u16le ver:u16le
//! ```
//!
//! The CRC covers the payload bytes; the tag ("CP") and version pin the
//! trailer layout itself. Reads verify before handing bytes up; a mismatch
//! surfaces as [`PagerError::Corrupt`] rather than garbage data. The CRC32
//! (IEEE reflected polynomial, as used by zlib and ethernet) is implemented
//! here directly — the workspace deliberately carries no checksum crate.

use parking_lot::Mutex;

use crate::convert::u32_to_usize;
use crate::pager::{check_frame, Pager, PagerError};

/// Checksummed page format generation (see [`Pager::page_format_version`]).
pub const PAGE_FORMAT_CRC: u32 = 2;

/// Bytes reserved at the end of each physical page for the trailer.
pub const TRAILER_BYTES: usize = 8;

const TRAILER_TAG: u16 = u16::from_le_bytes(*b"CP");
const TRAILER_VERSION: u16 = 1;

/// Bytes folded per step of the slicing-by-8 kernel (one table each).
const SLICES: usize = 8;

/// Lookup tables for the reflected IEEE polynomial 0xEDB88320 (8 KB).
/// `T[0]` is the classic byte table; `T[k][b]` is the CRC state after byte
/// `b` and `k` zero bytes, which is what lets [`Crc32::update`] fold eight
/// input bytes with eight independent lookups instead of eight dependent
/// ones.
const fn crc32_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0usize;
    let mut seed = 0u32;
    while i < 256 {
        let mut crc = seed;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // tw-allow(slice-index): evaluated at compile time; i < 256
        tables[0][i] = crc;
        i += 1;
        seed += 1;
    }
    let mut k = 1usize;
    while k < SLICES {
        let mut i = 0usize;
        while i < 256 {
            // tw-allow(slice-index): evaluated at compile time; 1 <= k < SLICES, i < 256
            let prev = tables[k - 1][i];
            // tw-allow(slice-index): evaluated at compile time; the last index is a masked byte
            tables[k][i] = (prev >> 8) ^ tables[0][u32_to_usize(prev & 0xFF)];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; SLICES] = crc32_tables();

/// `T[k][byte]`. Every caller passes a literal `k`, so after inlining both
/// bounds checks fold away.
#[inline]
fn slice(k: usize, byte: u8) -> u32 {
    // tw-allow(slice-index): k is a literal < SLICES at each call; a u8 indexes [u32; 256]
    CRC32_TABLES[k][usize::from(byte)]
}

/// Incremental CRC-32 (IEEE, reflected) — for checksumming data that is
/// produced in pieces (record header then values) without concatenating.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Slicing-by-8: eight bytes per step while eight remain, then the
    /// byte-at-a-time loop for the tail. Same polynomial and values as the
    /// byte loop alone, for any split of the input across calls.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut rest = data;
        while let Some((&[b0, b1, b2, b3, b4, b5, b6, b7], tail)) = rest.split_first_chunk() {
            let [c0, c1, c2, c3] = crc.to_le_bytes();
            crc = slice(7, b0 ^ c0)
                ^ slice(6, b1 ^ c1)
                ^ slice(5, b2 ^ c2)
                ^ slice(4, b3 ^ c3)
                ^ slice(3, b4)
                ^ slice(2, b5)
                ^ slice(1, b6)
                ^ slice(0, b7);
            rest = tail;
        }
        for &b in rest {
            let [low, ..] = crc.to_le_bytes();
            crc = (crc >> 8) ^ slice(0, b ^ low);
        }
        self.state = crc;
    }

    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 (IEEE, reflected) of `data` — matches zlib's `crc32(0, ...)`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

/// A pager decorator that checksums every page.
///
/// The logical page size shrinks by [`TRAILER_BYTES`]; callers above see the
/// smaller size and never touch the trailer. `allocate` seals the fresh
/// zeroed page with a valid trailer so read-modify-write paths (the store's
/// `write_span`) can read pages they have allocated but not yet written.
#[derive(Debug)]
pub struct ChecksumPager<P: Pager> {
    inner: P,
    /// One physical page, reused by every read, write and allocate: the
    /// trailer has to be checked or sealed somewhere other than the caller's
    /// (trailer-less) buffer.
    frame: Mutex<Box<[u8]>>,
}

impl<P: Pager> ChecksumPager<P> {
    /// Wraps `inner`. Panics if the inner page size cannot fit a trailer
    /// plus a useful payload (construction-time misuse, not a data fault).
    pub fn new(inner: P) -> Self {
        assert!(
            inner.page_size() > TRAILER_BYTES + 16,
            "inner page size {} too small for a checksum trailer",
            inner.page_size()
        );
        let frame = Mutex::new(vec![0u8; inner.page_size()].into_boxed_slice());
        Self { inner, frame }
    }

    /// The wrapped pager.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Writes the trailer for the payload already in `frame`.
    fn seal(frame: &mut [u8]) {
        let (payload, trailer) = frame.split_at_mut(frame.len() - TRAILER_BYTES);
        trailer[0..4].copy_from_slice(&crc32(payload).to_le_bytes());
        trailer[4..6].copy_from_slice(&TRAILER_TAG.to_le_bytes());
        trailer[6..8].copy_from_slice(&TRAILER_VERSION.to_le_bytes());
    }

    fn verify(page: u64, frame: &[u8]) -> Result<&[u8], PagerError> {
        let (payload, trailer) = frame.split_at(frame.len() - TRAILER_BYTES);
        let tag = u16::from_le_bytes([trailer[4], trailer[5]]);
        let ver = u16::from_le_bytes([trailer[6], trailer[7]]);
        if tag != TRAILER_TAG {
            return Err(PagerError::Corrupt {
                page,
                reason: "bad page trailer tag",
            });
        }
        if ver != TRAILER_VERSION {
            return Err(PagerError::Corrupt {
                page,
                reason: "unsupported page trailer version",
            });
        }
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if stored != crc32(payload) {
            return Err(PagerError::Corrupt {
                page,
                reason: "checksum mismatch",
            });
        }
        Ok(payload)
    }
}

impl<P: Pager> Pager for ChecksumPager<P> {
    fn page_size(&self) -> usize {
        self.inner.page_size() - TRAILER_BYTES
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> Result<u64, PagerError> {
        let page = self.inner.allocate()?;
        // Seal the zeroed payload so the page verifies before first write.
        let frame = self.frame.get_mut();
        frame.fill(0);
        Self::seal(frame);
        self.inner.write_page(page, frame)?;
        Ok(page)
    }

    fn read_page(&self, page: u64, out: &mut [u8]) -> Result<(), PagerError> {
        check_frame(self.page_size(), out.len())?;
        let mut frame = self.frame.lock();
        // tw-allow(lock-hygiene): the guard is this read's own buffer, not shared state
        self.inner.read_page(page, &mut frame)?;
        out.copy_from_slice(Self::verify(page, &frame)?);
        Ok(())
    }

    fn write_page(&mut self, page: u64, data: &[u8]) -> Result<(), PagerError> {
        check_frame(self.page_size(), data.len())?;
        let frame = self.frame.get_mut();
        // tw-allow(slice-index): data.len() == frame.len() - TRAILER_BYTES, checked above
        frame[..data.len()].copy_from_slice(data);
        Self::seal(frame);
        self.inner.write_page(page, frame)
    }

    fn sync(&mut self) -> Result<(), PagerError> {
        self.inner.sync()
    }

    fn page_format_version(&self) -> u32 {
        PAGE_FORMAT_CRC
    }

    fn checksum_retries(&self) -> u64 {
        self.inner.checksum_retries()
    }

    fn set_governor(&self, token: &crate::govern::CancelToken) {
        self.inner.set_governor(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    /// The shared known-answer vectors: `tw_rtree`'s private copy of the
    /// kernel (`persist.rs`) pins the same four, so the copies cannot drift.
    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(crc32(&pattern), 0x7C32_1B5D);
    }

    /// The definition, one bit at a time: no table, no slicing.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic filler with no period the 8-byte step could hide in.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn kernel_matches_the_bitwise_reference_at_every_length() {
        // Past two 1 KB pages, so every tail length 0..8 follows both few
        // and many 8-byte steps.
        let data = noise(2064);
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
        // And from every alignment of the start within a word.
        for start in 0..16 {
            assert_eq!(crc32(&data[start..]), crc32_bitwise(&data[start..]));
        }
    }

    #[test]
    fn streamed_update_is_split_invariant() {
        let data = noise(1024);
        let whole = crc32_bitwise(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn roundtrip_and_logical_size() {
        let mut p = ChecksumPager::new(MemPager::new(256));
        assert_eq!(p.page_size(), 256 - TRAILER_BYTES);
        assert_eq!(p.page_format_version(), PAGE_FORMAT_CRC);
        let page = p.allocate().expect("alloc");
        let data: Vec<u8> = (0..p.page_size()).map(|i| (i % 97) as u8).collect();
        p.write_page(page, &data).expect("write");
        let mut out = vec![0u8; p.page_size()];
        p.read_page(page, &mut out).expect("read");
        assert_eq!(out, data);
    }

    #[test]
    fn fresh_pages_verify_without_a_write() {
        // write_span read-modify-writes freshly allocated pages; allocate
        // must seal them or every partial-page append would fail.
        let mut p = ChecksumPager::new(MemPager::new(256));
        let page = p.allocate().expect("alloc");
        let mut out = vec![0u8; p.page_size()];
        p.read_page(page, &mut out).expect("read fresh page");
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut p = ChecksumPager::new(MemPager::new(128));
        let page = p.allocate().unwrap();
        let data: Vec<u8> = (0..p.page_size()).map(|i| i as u8).collect();
        p.write_page(page, &data).unwrap();

        // Grab the sealed physical frame, then flip each bit in turn.
        let mut frame = vec![0u8; 128];
        let mut inner = p.into_inner();
        inner.read_page(page, &mut frame).unwrap();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut tampered = frame.clone();
                tampered[byte] ^= 1 << bit;
                inner.write_page(page, &tampered).unwrap();
                let reread = ChecksumPager::new(inner);
                let mut out = vec![0u8; reread.page_size()];
                let err = reread.read_page(page, &mut out).unwrap_err();
                assert!(
                    err.is_corruption(),
                    "flip at byte {byte} bit {bit} escaped: {err}"
                );
                inner = reread.into_inner();
            }
        }
    }

    #[test]
    fn wrong_frame_size_rejected() {
        let mut p = ChecksumPager::new(MemPager::new(256));
        p.allocate().unwrap();
        let mut physical = vec![0u8; 256];
        assert!(matches!(
            p.read_page(0, &mut physical),
            Err(PagerError::FrameSize { .. })
        ));
        assert!(matches!(
            p.write_page(0, &physical),
            Err(PagerError::FrameSize { .. })
        ));
    }
}
