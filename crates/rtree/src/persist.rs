//! Tree serialization: one node per fixed-size page, `NodeId` = page number.
//!
//! The format is a deliberately explicit little-endian layout (no serde) so
//! the bytes on a page are exactly what [`crate::page::PageLayout`] budgets
//! for:
//!
//! ```text
//! page  := header entries padding
//! header:= level:u32 count:u32
//! entry := min[f64; D] max[f64; D] payload:u64
//! ```
//!
//! Internal-node payloads store the child page number; leaf payloads store the
//! data id. A small file header carries the tree metadata.
//!
//! Two file generations exist. "TWR1" is the legacy unchecksummed layout
//! (40-byte header, then pages); it is still decoded for old index files.
//! "TWR2" is what [`RTree::to_bytes`] writes: the same header extended with
//! a header CRC (44 bytes), a per-page CRC-32 table, then the pages — so a
//! flipped bit anywhere in a persisted index is a typed decode error, never
//! a silently wrong tree. Both decoders finish with a structural walk that
//! rejects dangling, cyclic or level-inconsistent child references.

use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::convert::{u32_to_usize, usize_to_u32, usize_to_u64};
use crate::geometry::Rect;
use crate::node::{Entry, Node, NodeId, Payload};
use crate::page::NODE_HEADER_BYTES;
use crate::split::SplitAlgorithm;
use crate::tree::{RTree, RTreeConfig};

/// Magic marking a legacy serialized tree ("TWR1").
const MAGIC: u32 = 0x5457_5231;
/// Magic marking a checksummed serialized tree ("TWR2").
const MAGIC_V2: u32 = 0x5457_5232;

const HEADER_V1_BYTES: usize = 8 * 4 + 8;
const HEADER_V2_BYTES: usize = HEADER_V1_BYTES + 4;

/// Errors produced while decoding a serialized tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic number.
    BadMagic(u32),
    /// The stored dimensionality does not match the requested `D`.
    DimensionMismatch { stored: u32, requested: u32 },
    /// The buffer ended before the declared structure was complete.
    Truncated,
    /// A node referenced a page number beyond the page table.
    DanglingChild(u32),
    /// A page is referenced by more than one parent or reachable from
    /// itself — following children would revisit it, so the structure is
    /// not a tree.
    CyclicChild(u32),
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// Damaged page, or `u32::MAX` when the file header itself failed.
        page: u32,
    },
    /// Structural field held an impossible value.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            DecodeError::DimensionMismatch { stored, requested } => {
                write!(
                    f,
                    "dimension mismatch: stored {stored}, requested {requested}"
                )
            }
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::DanglingChild(p) => write!(f, "dangling child page {p}"),
            DecodeError::CyclicChild(p) => {
                write!(
                    f,
                    "page {p} referenced more than once (cycle or shared child)"
                )
            }
            DecodeError::ChecksumMismatch { page } => {
                if *page == u32::MAX {
                    write!(f, "file header checksum mismatch")
                } else {
                    write!(f, "page {page} checksum mismatch")
                }
            }
            DecodeError::Corrupt(what) => write!(f, "corrupt field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Errors from the file-level helpers ([`write_tree_file`] /
/// [`read_tree_file`]): either the bytes were bad or the I/O failed.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    Decode(DecodeError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index file I/O error: {e}"),
            PersistError::Decode(e) => write!(f, "index file decode error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Decode(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        PersistError::Decode(e)
    }
}

/// CRC-32 (IEEE, reflected) — same polynomial, slicing-by-8 kernel and
/// values as `tw_storage::crc32`, duplicated here because the rtree crate
/// stands alone (no storage dep). Both copies are pinned to the same
/// known-answer vectors by their tests so they cannot drift.
fn crc32(data: &[u8]) -> u32 {
    const SLICES: usize = 8;
    /// `T[0]` is the classic byte table; `T[k][b]` is the CRC state after
    /// byte `b` and `k` zero bytes.
    const fn tables() -> [[u32; 256]; SLICES] {
        let mut t = [[0u32; 256]; SLICES];
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
            t[0][i] = crc;
            i += 1;
            seed += 1;
        }
        let mut k = 1usize;
        while k < SLICES {
            let mut i = 0usize;
            while i < 256 {
                // tw-allow(slice-index): evaluated at compile time; 1 <= k < SLICES, i < 256
                let prev = t[k - 1][i];
                // tw-allow(slice-index): evaluated at compile time; the last index is a masked byte
                t[k][i] = (prev >> 8) ^ t[0][u32_to_usize(prev & 0xFF)];
                i += 1;
            }
            k += 1;
        }
        t
    }
    static TABLES: [[u32; 256]; SLICES] = tables();
    /// `T[k][byte]`; every caller passes a literal `k`.
    #[inline]
    fn slice(k: usize, byte: u8) -> u32 {
        // tw-allow(slice-index): k is a literal < SLICES at each call; a u8 indexes [u32; 256]
        TABLES[k][usize::from(byte)]
    }

    let mut crc = 0xFFFF_FFFFu32;
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
    !crc
}

/// Atomically replaces `path` with the serialized tree: write to a
/// temporary sibling, fsync it, rename over the target, fsync the
/// directory. A crash at any point leaves either the old complete file or
/// the new complete file — never a torn mix.
pub fn write_tree_file<P: AsRef<Path>, const D: usize>(
    path: P,
    tree: &RTree<D>,
    page_size: usize,
) -> Result<(), PersistError> {
    use std::io::Write;
    let path = path.as_ref();
    let bytes = tree.to_bytes(page_size);
    let tmp = path.with_extension("tmp-new");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Durability of the rename itself needs the directory synced; best
    // effort — some filesystems refuse to open directories for writing.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads and decodes a tree file written by [`write_tree_file`].
pub fn read_tree_file<P: AsRef<Path>, const D: usize>(path: P) -> Result<RTree<D>, PersistError> {
    let raw = std::fs::read(path)?;
    Ok(RTree::from_bytes(Bytes::from(raw))?)
}

impl<const D: usize> RTree<D> {
    /// Serializes the tree into a contiguous byte buffer of fixed-size pages.
    ///
    /// Free-list slots are compacted away: pages are renumbered densely in
    /// the order they are reachable from the root.
    pub fn to_bytes(&self, page_size: usize) -> Bytes {
        // Map reachable NodeIds -> dense page numbers (root gets page 0).
        let mut order: Vec<NodeId> = Vec::with_capacity(self.node_count());
        let mut page_of = vec![u32::MAX; self.nodes.len()];
        let mut stack = vec![self.root_id()];
        while let Some(id) = stack.pop() {
            if page_of[id.index()] != u32::MAX {
                continue;
            }
            page_of[id.index()] = usize_to_u32(order.len());
            order.push(id);
            for e in &self.node(id).entries {
                if let Payload::Child(c) = e.payload {
                    stack.push(c);
                }
            }
        }

        let entry_bytes = 2 * D * 8 + 8;
        let needed = NODE_HEADER_BYTES + self.config.max_entries * entry_bytes;
        assert!(
            needed <= page_size,
            "page size {page_size} too small for configured fan-out (needs {needed})"
        );

        // File header: magic, dim, page_size, page_count, root page, max
        // entries, min entries, split tag (u32 each), then len (u64) = 40 B,
        // then the header CRC = 44 B. A per-page CRC table follows, then the
        // pages themselves.
        let crc_table_len = order.len() * 4;
        let mut buf =
            BytesMut::with_capacity(HEADER_V2_BYTES + crc_table_len + order.len() * page_size);
        buf.put_u32_le(MAGIC_V2);
        buf.put_u32_le(usize_to_u32(D));
        buf.put_u32_le(usize_to_u32(page_size));
        buf.put_u32_le(usize_to_u32(order.len()));
        buf.put_u32_le(0); // root page (dense numbering puts root first)
        buf.put_u32_le(usize_to_u32(self.config.max_entries));
        buf.put_u32_le(usize_to_u32(self.config.min_entries));
        buf.put_u32_le(split_tag(self.config.split));
        buf.put_u64_le(usize_to_u64(self.len()));
        let header_crc = crc32(&buf[..HEADER_V1_BYTES]);
        buf.put_u32_le(header_crc);
        // Reserve the CRC table; filled in after the pages are rendered.
        let table_start = buf.len();
        buf.resize(table_start + crc_table_len, 0);

        for (i, &id) in order.iter().enumerate() {
            let node = self.node(id);
            let page_start = buf.len();
            buf.put_u32_le(node.level);
            buf.put_u32_le(usize_to_u32(node.entries.len()));
            for e in &node.entries {
                for axis in 0..D {
                    buf.put_f64_le(e.rect.min()[axis]);
                }
                for axis in 0..D {
                    buf.put_f64_le(e.rect.max()[axis]);
                }
                let payload = match e.payload {
                    Payload::Child(c) => u64::from(page_of[c.index()]),
                    Payload::Data(d) => d,
                };
                buf.put_u64_le(payload);
            }
            buf.resize(page_start + page_size, 0);
            let crc = crc32(&buf[page_start..page_start + page_size]);
            buf[table_start + 4 * i..table_start + 4 * i + 4].copy_from_slice(&crc.to_le_bytes());
        }
        buf.freeze()
    }

    /// Reconstructs a tree from [`RTree::to_bytes`] output ("TWR2") or from
    /// a legacy unchecksummed "TWR1" file.
    pub fn from_bytes(mut buf: Bytes) -> Result<Self, DecodeError> {
        if buf.remaining() < HEADER_V1_BYTES {
            return Err(DecodeError::Truncated);
        }
        let header_raw = buf.clone();
        let magic = buf.get_u32_le();
        let checksummed = match magic {
            MAGIC => false,
            MAGIC_V2 => true,
            other => return Err(DecodeError::BadMagic(other)),
        };
        let dim = buf.get_u32_le();
        if u32_to_usize(dim) != D {
            return Err(DecodeError::DimensionMismatch {
                stored: dim,
                requested: u32::try_from(D).unwrap_or(u32::MAX),
            });
        }
        let page_size = u32_to_usize(buf.get_u32_le());
        let page_count = u32_to_usize(buf.get_u32_le());
        let root_page = buf.get_u32_le();
        let max_entries = u32_to_usize(buf.get_u32_le());
        let min_entries = u32_to_usize(buf.get_u32_le());
        let split = split_from_tag(buf.get_u32_le()).ok_or(DecodeError::Corrupt("split tag"))?;
        let len = usize::try_from(buf.get_u64_le())
            .map_err(|_| DecodeError::Corrupt("length exceeds address space"))?;

        // The v2 header carries its own CRC plus a per-page CRC table.
        let mut page_crcs: Vec<u32> = Vec::new();
        if checksummed {
            if buf.remaining() < 4 {
                return Err(DecodeError::Truncated);
            }
            let stored = buf.get_u32_le();
            if stored != crc32(&header_raw[..HEADER_V1_BYTES]) {
                return Err(DecodeError::ChecksumMismatch { page: u32::MAX });
            }
            if buf.remaining() < page_count * 4 {
                return Err(DecodeError::Truncated);
            }
            page_crcs.reserve(page_count);
            for _ in 0..page_count {
                page_crcs.push(buf.get_u32_le());
            }
        }

        if u32_to_usize(root_page) >= page_count.max(1) {
            return Err(DecodeError::DanglingChild(root_page));
        }
        if buf.remaining() < page_count * page_size {
            return Err(DecodeError::Truncated);
        }

        let mut nodes = Vec::with_capacity(page_count);
        let mut crc_iter = page_crcs.iter();
        for page_no in 0..page_count {
            let mut page = buf.split_to(page_size);
            // The CRC table is empty for legacy (unchecksummed) files.
            if let Some(&expected) = crc_iter.next() {
                if crc32(&page) != expected {
                    return Err(DecodeError::ChecksumMismatch {
                        page: usize_to_u32(page_no),
                    });
                }
            }
            let level = page.get_u32_le();
            let count = u32_to_usize(page.get_u32_le());
            if count > max_entries + 1 {
                return Err(DecodeError::Corrupt("entry count exceeds fan-out"));
            }
            let entry_bytes = 2 * D * 8 + 8;
            if page.remaining() < count * entry_bytes {
                return Err(DecodeError::Truncated);
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let mut min = [0.0; D];
                let mut max = [0.0; D];
                for m in min.iter_mut() {
                    *m = page.get_f64_le();
                }
                for m in max.iter_mut() {
                    *m = page.get_f64_le();
                }
                let payload_word = page.get_u64_le();
                let payload = if level == 0 {
                    Payload::Data(payload_word)
                } else {
                    let child = u32::try_from(payload_word)
                        .map_err(|_| DecodeError::Corrupt("child page overflow"))?;
                    if u32_to_usize(child) >= page_count {
                        return Err(DecodeError::DanglingChild(child));
                    }
                    Payload::Child(NodeId(child))
                };
                entries.push(Entry {
                    rect: Rect::new(min, max),
                    payload,
                });
            }
            nodes.push(Node::with_entries(level, entries));
        }

        if nodes.is_empty() {
            nodes.push(Node::new(0));
        }
        validate_child_structure(&nodes, root_page)?;
        let mut tree = Self {
            nodes,
            root: NodeId(root_page),
            config: RTreeConfig {
                max_entries,
                min_entries,
                split,
            },
            len,
            free_list: Vec::new(),
        };
        // Summaries are derived state: rebuild them rather than trusting (or
        // extending) the wire format.
        tree.recompute_summaries();
        Ok(tree)
    }
}

/// Walks the decoded pages from the root, rejecting child references that
/// would make the structure something other than a tree: a page referenced
/// twice (shared child or a cycle) or a child whose level is not exactly
/// one below its parent. Range checks already happened during decode, so
/// indexing here cannot go out of bounds.
fn validate_child_structure<const D: usize>(
    nodes: &[Node<D>],
    root_page: u32,
) -> Result<(), DecodeError> {
    let mut visited = vec![false; nodes.len()];
    let mut stack = vec![u32_to_usize(root_page)];
    visited[u32_to_usize(root_page)] = true;
    while let Some(idx) = stack.pop() {
        let node = &nodes[idx];
        for e in &node.entries {
            if let Payload::Child(c) = e.payload {
                let child = c.index();
                if nodes[child].level + 1 != node.level {
                    return Err(DecodeError::Corrupt("child level"));
                }
                if visited[child] {
                    return Err(DecodeError::CyclicChild(c.0));
                }
                visited[child] = true;
                stack.push(child);
            }
        }
    }
    Ok(())
}

fn split_tag(s: SplitAlgorithm) -> u32 {
    match s {
        SplitAlgorithm::Linear => 0,
        SplitAlgorithm::Quadratic => 1,
        SplitAlgorithm::RStar => 2,
    }
}

fn split_from_tag(tag: u32) -> Option<SplitAlgorithm> {
    match tag {
        0 => Some(SplitAlgorithm::Linear),
        1 => Some(SplitAlgorithm::Quadratic),
        2 => Some(SplitAlgorithm::RStar),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    fn sample_tree(n: usize) -> RTree<4> {
        let cfg = RTreeConfig::for_page_size::<4>(1024, SplitAlgorithm::Quadratic);
        let mut t = RTree::new(cfg);
        for i in 0..n {
            let f = i as f64;
            t.insert_point(
                Point::new([f.sin() * 5.0, f.cos() * 5.0, f % 13.0, -f % 7.0]),
                i as u64,
            );
        }
        t
    }

    /// The vectors `tw_storage::crc32`'s tests pin, byte for byte (tails of
    /// 1, 3 and 0 bytes after 1, 5 and 128 eight-byte steps): the two copies
    /// of the kernel must agree on them or index files and store files stop
    /// sharing a checksum.
    #[test]
    fn crc32_known_vectors_match_the_storage_copy() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(crc32(&pattern), 0x7C32_1B5D);
    }

    #[test]
    fn roundtrip_preserves_contents_and_queries() {
        let t = sample_tree(500);
        let bytes = t.to_bytes(1024);
        let back: RTree<4> = RTree::from_bytes(bytes).expect("decode");
        assert_eq!(back.len(), t.len());
        assert_eq!(back.height(), t.height());
        let q = Point::new([0.0, 0.0, 5.0, -3.0]);
        for eps in [0.5, 2.0, 10.0] {
            let mut a = t.range_centered(&q, eps).ids;
            let mut b = back.range_centered(&q, eps).ids;
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "eps={eps}");
        }
    }

    #[test]
    fn roundtrip_empty_tree() {
        let t: RTree<4> = RTree::new(RTreeConfig::default());
        let back: RTree<4> = RTree::from_bytes(t.to_bytes(1024)).expect("decode");
        assert!(back.is_empty());
    }

    #[test]
    fn serialized_size_is_header_table_pages() {
        let t = sample_tree(200);
        let bytes = t.to_bytes(1024);
        let n = t.node_count();
        // 44-byte header, 4-byte CRC per page, then whole pages.
        assert_eq!(bytes.len(), HEADER_V2_BYTES + 4 * n + n * 1024);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut raw = BytesMut::new();
        raw.put_u32_le(0xdead_beef);
        raw.resize(64, 0);
        let err = RTree::<4>::from_bytes(raw.freeze()).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic(_)));
    }

    #[test]
    fn decode_rejects_wrong_dimension() {
        let t = sample_tree(10);
        let bytes = t.to_bytes(1024);
        let err = RTree::<2>::from_bytes(bytes).unwrap_err();
        assert!(matches!(err, DecodeError::DimensionMismatch { .. }));
    }

    #[test]
    fn decode_rejects_truncated_buffer() {
        let t = sample_tree(100);
        let bytes = t.to_bytes(1024);
        let cut = bytes.slice(0..bytes.len() - 100);
        let err = RTree::<4>::from_bytes(cut).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated));
    }

    /// Renders a tree in the legacy TWR1 layout (what old index files hold).
    fn to_bytes_v1(t: &RTree<4>, page_size: usize) -> Bytes {
        // Rewrite the v2 output: swap the magic, drop header CRC + table.
        let v2 = t.to_bytes(page_size);
        let page_count = u32::from_le_bytes([v2[12], v2[13], v2[14], v2[15]]) as usize;
        let mut out = BytesMut::with_capacity(HEADER_V1_BYTES + page_count * page_size);
        out.put_u32_le(MAGIC);
        out.extend_from_slice(&v2[4..HEADER_V1_BYTES]);
        out.extend_from_slice(&v2[HEADER_V2_BYTES + 4 * page_count..]);
        out.freeze()
    }

    #[test]
    fn legacy_twr1_files_still_decode() {
        let t = sample_tree(300);
        let legacy = to_bytes_v1(&t, 1024);
        assert_eq!(&legacy[0..4], &MAGIC.to_le_bytes());
        let back: RTree<4> = RTree::from_bytes(legacy).expect("legacy decode");
        assert_eq!(back.len(), t.len());
        let q = Point::new([1.0, -1.0, 6.0, -2.0]);
        let mut a = t.range_centered(&q, 3.0).ids;
        let mut b = back.range_centered(&q, 3.0).ids;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn single_bit_corruption_is_always_detected() {
        let t = sample_tree(60);
        let clean = t.to_bytes(1024);
        // Flip one bit at a spread of offsets across header, CRC table and
        // pages; every flip must produce an error, never a wrong tree.
        for offset in (0..clean.len()).step_by(97) {
            let mut bad = clean.to_vec();
            bad[offset] ^= 0x10;
            match RTree::<4>::from_bytes(Bytes::from(bad)) {
                Err(_) => {}
                Ok(_) => panic!("bit flip at offset {offset} went undetected"),
            }
        }
    }

    #[test]
    fn cyclic_child_reference_is_rejected() {
        // Build a real multi-level tree, then redirect one internal entry's
        // child pointer back at the root to create a cycle.
        let t = sample_tree(500);
        assert!(t.height() > 1, "need an internal level for this test");
        let bytes = t.to_bytes(1024);
        let page_count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
        let table_start = HEADER_V2_BYTES;
        let pages_start = table_start + 4 * page_count;
        // Page 0 is the root (internal, level > 0); its first entry payload
        // sits after the 8-byte node header and the 2*4*8-byte rect.
        let payload_off = pages_start + NODE_HEADER_BYTES + 2 * 4 * 8;
        let mut bad = bytes.to_vec();
        bad[payload_off..payload_off + 8].copy_from_slice(&0u64.to_le_bytes());
        // Reseal the page CRC so only the cycle (not the checksum) trips.
        let page0 = &bad[pages_start..pages_start + 1024];
        let crc = crc32(page0).to_le_bytes();
        bad[table_start..table_start + 4].copy_from_slice(&crc);
        let err = RTree::<4>::from_bytes(Bytes::from(bad)).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::CyclicChild(0) | DecodeError::Corrupt("child level")
            ),
            "self-referential child must be rejected, got {err:?}"
        );
    }

    #[test]
    fn shared_child_reference_is_rejected() {
        // Two sibling entries pointing at the same child page: not a tree.
        let t = sample_tree(500);
        assert!(t.height() > 1);
        let bytes = t.to_bytes(1024);
        let page_count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
        let table_start = HEADER_V2_BYTES;
        let pages_start = table_start + 4 * page_count;
        let entry_bytes = 2 * 4 * 8 + 8;
        let first_payload = pages_start + NODE_HEADER_BYTES + 2 * 4 * 8;
        let second_payload = first_payload + entry_bytes;
        let mut bad = bytes.to_vec();
        let first: [u8; 8] = bad[first_payload..first_payload + 8].try_into().unwrap();
        bad[second_payload..second_payload + 8].copy_from_slice(&first);
        let page0 = &bad[pages_start..pages_start + 1024];
        let crc = crc32(page0).to_le_bytes();
        bad[table_start..table_start + 4].copy_from_slice(&crc);
        let err = RTree::<4>::from_bytes(Bytes::from(bad)).unwrap_err();
        assert!(
            matches!(err, DecodeError::CyclicChild(_)),
            "shared child must be rejected, got {err:?}"
        );
    }

    #[test]
    fn tree_file_roundtrip_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("twrtree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.twr");
        let t = sample_tree(200);
        write_tree_file(&path, &t, 1024).expect("write");
        // Overwrite with a different tree: the rename path must replace it.
        let t2 = sample_tree(80);
        write_tree_file(&path, &t2, 1024).expect("rewrite");
        let back: RTree<4> = read_tree_file(&path).expect("read");
        assert_eq!(back.len(), t2.len());
        assert!(!path.with_extension("tmp-new").exists(), "no temp residue");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_after_deletions_compacts_free_pages() {
        let mut t = sample_tree(300);
        for i in (0..300).step_by(2) {
            let f = i as f64;
            let p = Point::new([f.sin() * 5.0, f.cos() * 5.0, f % 13.0, -f % 7.0]);
            assert!(t.remove_point(&p, i as u64));
        }
        let back: RTree<4> = RTree::from_bytes(t.to_bytes(1024)).expect("decode");
        assert_eq!(back.len(), 150);
        let mut ids: Vec<u64> = back.iter().map(|(_, id)| id).collect();
        ids.sort_unstable();
        let expect: Vec<u64> = (0..300u64).filter(|i| i % 2 == 1).collect();
        assert_eq!(ids, expect);
    }
}
