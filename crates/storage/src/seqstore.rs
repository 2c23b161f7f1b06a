//! The sequence database: variable-length sequences on fixed-size pages.
//!
//! Records are appended back-to-back in a byte-addressed data region that
//! spans pages (page 0 is a header page). The store keeps an in-memory
//! directory `SeqId -> (offset, length)`, rebuilt from the self-describing
//! records on open.
//!
//! Every logical operation accounts its I/O in an [`IoProfile`] under the
//! cold-cache assumption the paper's experiments imply: a random `get` costs
//! the pages the record spans, a full `scan` costs every data page
//! sequentially. The buffer pool's actual hit statistics are available
//! separately for cache-behaviour ablations.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

use crate::buffer::{BufferPool, BufferStats};
use crate::checksum::Crc32;
use crate::codec::{
    declared_len, decode_record_slice, encode_record_fmt, CodecError, RecordFormat,
};
use crate::convert::{in_page_usize, record_len_u32, u32_to_usize, usize_to_u64};
use crate::cost::IoProfile;
use crate::pager::{MemPager, Pager, PagerError};

/// Identifier of a sequence within a store (dense, starting at 0).
pub type SeqId = u64;

/// Magic marking a sequence store header page ("TWS1").
const MAGIC: u32 = 0x5457_5331;
const HEADER_PAGE: u64 = 0;
/// Bytes of the v2 header covered by its trailing CRC.
const HEADER_V2_CRC_SPAN: usize = 32;

/// Errors raised by the sequence store.
#[derive(Debug)]
pub enum StoreError {
    Pager(PagerError),
    Codec(CodecError),
    /// Header page malformed or missing magic.
    BadHeader(&'static str),
    /// Requested id not present.
    UnknownSequence(SeqId),
    /// Header declares a format generation this build does not know.
    UnsupportedVersion(u32),
    /// Header declares a page format other than the one the supplied pager
    /// stack implements (e.g. a checksummed file opened with a plain pager).
    PageFormatMismatch {
        header: u32,
        pager: u32,
    },
    /// Persisted state is internally inconsistent (beyond a single record).
    Corrupt(&'static str),
    /// An append offered a NaN element. The decoder refuses NaN as
    /// corruption, so storing one would poison every later `scan`/`open`;
    /// it is refused as bad input before a byte is written.
    InvalidElement {
        index: usize,
        value: f64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Pager(e) => write!(f, "storage error: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::BadHeader(w) => write!(f, "bad store header: {w}"),
            StoreError::UnknownSequence(id) => write!(f, "unknown sequence id {id}"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "store format version {v} not supported by this build")
            }
            StoreError::PageFormatMismatch { header, pager } => write!(
                f,
                "store was written with page format {header} but opened with a \
                 format-{pager} pager stack"
            ),
            StoreError::Corrupt(w) => write!(f, "store is corrupt: {w}"),
            StoreError::InvalidElement { index, value } => {
                write!(f, "element {index} cannot be stored: {value}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Pager(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl StoreError {
    /// Whether the error means persisted bytes are damaged (rather than a
    /// usage error or an I/O fault).
    pub fn is_corruption(&self) -> bool {
        match self {
            StoreError::Corrupt(_) | StoreError::BadHeader(_) => true,
            StoreError::Pager(e) => e.is_corruption(),
            StoreError::Codec(e) => e.is_corruption(),
            _ => false,
        }
    }

    /// Whether a retry of the failing operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Pager(e) if e.is_transient())
    }
}

impl From<PagerError> for StoreError {
    fn from(e: PagerError) -> Self {
        StoreError::Pager(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// Byte offset of the record within the data region.
    offset: u64,
    /// Number of elements.
    len: u32,
}

/// What a recovery pass found while reopening a store (see
/// [`SequenceStore::open_recovering`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records the header promised.
    pub expected_records: u64,
    /// Records that decoded cleanly (always a prefix).
    pub recovered_records: u64,
    /// Data bytes the header promised.
    pub expected_bytes: u64,
    /// Data bytes retained after truncating the damaged tail.
    pub recovered_bytes: u64,
}

impl RecoveryReport {
    /// Whether the store opened without losing anything.
    pub fn is_clean(&self) -> bool {
        self.recovered_records == self.expected_records
            && self.recovered_bytes == self.expected_bytes
    }

    /// Records lost to the damaged tail.
    pub fn lost_records(&self) -> u64 {
        self.expected_records - self.recovered_records
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(f, "store clean: {} records intact", self.recovered_records)
        } else {
            write!(
                f,
                "recovered {}/{} records ({} of {} data bytes); damaged tail truncated",
                self.recovered_records,
                self.expected_records,
                self.recovered_bytes,
                self.expected_bytes
            )
        }
    }
}

/// A paged store of numeric sequences.
pub struct SequenceStore<P: Pager> {
    pool: BufferPool<P>,
    directory: Vec<DirEntry>,
    /// Next free byte in the data region.
    write_cursor: u64,
    page_size: usize,
    /// Record layout this store reads and writes. Sticky: a store opened
    /// from a v1 file keeps appending v1 records so the file stays
    /// self-consistent; new stores always write v2.
    format: RecordFormat,
    io: Mutex<IoProfile>,
}

impl SequenceStore<MemPager> {
    /// An in-memory store with the paper's 1 KB pages.
    #[allow(clippy::expect_used)]
    pub fn in_memory() -> Self {
        Self::create(MemPager::new(crate::pager::DEFAULT_PAGE_SIZE), 64)
            // tw-allow(expect): a fresh MemPager is empty and cannot fail I/O
            .expect("in-memory store creation cannot fail")
    }
}

impl<P: Pager> SequenceStore<P> {
    /// Creates an empty store on a fresh pager (current, checksummed record
    /// format). The header is flushed immediately so even a writer killed
    /// right after `create` leaves an openable file.
    pub fn create(mut pager: P, pool_pages: usize) -> Result<Self, StoreError> {
        assert_eq!(pager.page_count(), 0, "create() requires an empty pager");
        pager.allocate()?; // header page
        let page_size = pager.page_size();
        let store = Self {
            pool: BufferPool::new(pager, pool_pages),
            directory: Vec::new(),
            write_cursor: 0,
            page_size,
            format: RecordFormat::V2,
            io: Mutex::new(IoProfile::default()),
        };
        store.write_header()?;
        store.pool.flush()?;
        Ok(store)
    }

    /// Parses the header page and prepares an empty-directory store.
    fn open_shell(pager: P, pool_pages: usize) -> Result<(Self, u64, u64), StoreError> {
        let page_size = pager.page_size();
        let page_format = pager.page_format_version();
        let pool = BufferPool::new(pager, pool_pages);
        let mut head = vec![0u8; page_size];
        pool.read(HEADER_PAGE, &mut head)?;
        let mut buf = Bytes::copy_from_slice(&head);
        if buf.get_u32_le() != MAGIC {
            return Err(StoreError::BadHeader("magic"));
        }
        let version = buf.get_u32_le();
        let (format, count, data_bytes) = match version {
            1 => {
                let count = buf.get_u64_le();
                let data_bytes = buf.get_u64_le();
                (RecordFormat::V1, count, data_bytes)
            }
            2 => {
                let header_page_format = buf.get_u32_le();
                let _reserved = buf.get_u32_le();
                let count = buf.get_u64_le();
                let data_bytes = buf.get_u64_le();
                let stored_crc = buf.get_u32_le();
                if crate::checksum::crc32(&head[..HEADER_V2_CRC_SPAN]) != stored_crc {
                    return Err(StoreError::BadHeader("header checksum mismatch"));
                }
                if header_page_format != page_format {
                    return Err(StoreError::PageFormatMismatch {
                        header: header_page_format,
                        pager: page_format,
                    });
                }
                (RecordFormat::V2, count, data_bytes)
            }
            v => return Err(StoreError::UnsupportedVersion(v)),
        };
        let store = Self {
            pool,
            directory: Vec::with_capacity(usize::try_from(count).unwrap_or(0)),
            write_cursor: data_bytes,
            page_size,
            format,
            io: Mutex::new(IoProfile::default()),
        };
        Ok((store, count, data_bytes))
    }

    /// Opens an existing store, rebuilding the directory by decoding the data
    /// region sequentially. Any damage — a corrupt record, a truncated tail —
    /// is an error; use [`SequenceStore::open_recovering`] to salvage instead.
    pub fn open(pager: P, pool_pages: usize) -> Result<Self, StoreError> {
        let (mut store, count, data_bytes) = Self::open_shell(pager, pool_pages)?;
        let format = store.format;
        let data_len = usize::try_from(data_bytes)
            .map_err(|_| StoreError::Corrupt("data extent exceeds address space"))?;
        // Filled outside `store` because `with_span` borrows it.
        let mut directory = std::mem::take(&mut store.directory);
        store.with_span(0, data_len, |mut raw| {
            let mut offset = 0u64;
            for expected_id in 0..count {
                let (rec, used) = decode_record_slice(format, raw)?;
                if rec.id != expected_id {
                    return Err(StoreError::Corrupt("record id out of order"));
                }
                directory.push(DirEntry {
                    offset,
                    len: record_len_u32(rec.values.len()),
                });
                offset += usize_to_u64(used);
                raw = raw.get(used..).unwrap_or_default();
            }
            Ok(())
        })?;
        store.directory = directory;
        *store.io.lock() = IoProfile::default();
        Ok(store)
    }

    /// Opens an existing store, salvaging as many records as possible.
    ///
    /// Records are decoded one at a time; the directory is truncated at the
    /// first record that is corrupt, out of order, or runs past the
    /// allocated pages (a crashed writer's unfinished tail). When anything
    /// was lost the trimmed header is persisted so subsequent plain `open`s
    /// succeed. Header-page damage is not recoverable here and still errors.
    pub fn open_recovering(
        pager: P,
        pool_pages: usize,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let (mut store, count, data_bytes) = Self::open_shell(pager, pool_pages)?;
        let format = store.format;
        // Never trust the header to read past what is physically allocated.
        let allocated = store
            .pool
            .page_count()
            .saturating_sub(1)
            .saturating_mul(usize_to_u64(store.page_size));
        let data_end = data_bytes.min(allocated);

        let mut offset = 0u64;
        for expected_id in 0..count {
            let header_need = usize_to_u64(format.header_bytes());
            if offset + header_need > data_end {
                break;
            }
            let Ok(Some(len)) =
                store.with_span(offset, format.header_bytes(), |head| Ok(declared_len(head)))
            else {
                break;
            };
            let need_bytes = format.encoded_len(u32_to_usize(len));
            let need = usize_to_u64(need_bytes);
            if len > crate::codec::MAX_RECORD_ELEMS || offset + need > data_end {
                break;
            }
            match store.with_span(offset, need_bytes, |raw| {
                Ok(decode_record_slice(format, raw)?.0)
            }) {
                Ok(rec) if rec.id == expected_id => {
                    store.directory.push(DirEntry {
                        offset,
                        len: record_len_u32(rec.values.len()),
                    });
                    offset += need;
                }
                _ => break,
            }
        }

        let report = RecoveryReport {
            expected_records: count,
            recovered_records: usize_to_u64(store.directory.len()),
            expected_bytes: data_bytes,
            recovered_bytes: offset,
        };
        store.write_cursor = offset;
        if !report.is_clean() {
            // Persist the trimmed extent so the next open sees a clean store.
            store.write_header()?;
            store.pool.flush()?;
        }
        *store.io.lock() = IoProfile::default();
        Ok((store, report))
    }

    /// Record layout generation this store reads and writes.
    pub fn record_format(&self) -> RecordFormat {
        self.format
    }

    /// Page format generation of the pager stack underneath.
    pub fn page_format_version(&self) -> u32 {
        self.pool.page_format_version()
    }

    /// Number of stored sequences.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the store holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Page size of the underlying pager.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages the data region occupies.
    pub fn data_pages(&self) -> u64 {
        self.write_cursor.div_ceil(usize_to_u64(self.page_size))
    }

    /// Total bytes of record data.
    pub fn data_bytes(&self) -> u64 {
        self.write_cursor
    }

    /// Length (element count) of a stored sequence without reading its data.
    pub fn sequence_len(&self, id: SeqId) -> Result<usize, StoreError> {
        self.dir(id).map(|e| u32_to_usize(e.len))
    }

    /// Number of pages a random read of `id` touches.
    pub fn sequence_pages(&self, id: SeqId) -> Result<u64, StoreError> {
        let e = self.dir(id)?;
        let bytes = usize_to_u64(self.format.encoded_len(u32_to_usize(e.len)));
        Ok(span_pages(e.offset, bytes, usize_to_u64(self.page_size)))
    }

    fn dir(&self, id: SeqId) -> Result<DirEntry, StoreError> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.directory.get(i))
            .copied()
            .ok_or(StoreError::UnknownSequence(id))
    }

    /// Appends a sequence, returning its id. NaN elements are refused with
    /// [`StoreError::InvalidElement`] and leave the store untouched;
    /// infinities are ordered and stay storable.
    pub fn append(&mut self, values: &[f64]) -> Result<SeqId, StoreError> {
        if let Some((index, &value)) = values.iter().enumerate().find(|(_, v)| v.is_nan()) {
            return Err(StoreError::InvalidElement { index, value });
        }
        let id = usize_to_u64(self.directory.len());
        let mut buf = BytesMut::new();
        encode_record_fmt(self.format, &mut buf, id, values);
        let offset = self.write_cursor;
        self.write_span(offset, &buf)?;
        self.directory.push(DirEntry {
            offset,
            len: record_len_u32(values.len()),
        });
        self.write_cursor += usize_to_u64(buf.len());
        Ok(id)
    }

    /// Random-access read of one sequence. Accounts `pages-spanned` random
    /// page reads in the I/O profile.
    pub fn get(&self, id: SeqId) -> Result<Vec<f64>, StoreError> {
        let e = self.dir(id)?;
        let bytes = self.format.encoded_len(u32_to_usize(e.len));
        let (rec, _) = self.with_span(e.offset, bytes, |raw| {
            Ok(decode_record_slice(self.format, raw)?)
        })?;
        if rec.id != id {
            return Err(StoreError::Corrupt("record id does not match directory"));
        }
        let mut io = self.io.lock();
        io.random_requests += 1;
        io.random_page_reads +=
            span_pages(e.offset, usize_to_u64(bytes), usize_to_u64(self.page_size));
        drop(io);
        Ok(rec.values)
    }

    /// Sequential scan over every `(id, values)` pair, materialized.
    /// Prefer [`SequenceStore::scan_visit`] for large databases — it streams
    /// page by page instead of buffering the whole data region.
    pub fn scan(&self) -> Result<Vec<(SeqId, Vec<f64>)>, StoreError> {
        let mut out = Vec::with_capacity(self.directory.len());
        self.scan_visit(|id, values| out.push((id, values)))?;
        Ok(out)
    }

    /// Streaming sequential scan: decodes one record at a time, holding at
    /// most one record plus one page in memory. Accounts one sequential pass
    /// over the whole data region, like [`SequenceStore::scan`].
    pub fn scan_visit<F>(&self, mut visit: F) -> Result<(), StoreError>
    where
        F: FnMut(SeqId, Vec<f64>),
    {
        // Undecoded bytes of the pages read so far; `at` is where the next
        // record starts in it.
        let mut buf = Vec::new();
        let mut at = 0usize;
        let mut next_page = 1u64; // page 0 is the header
        let last_page = self.data_page(self.write_cursor.saturating_sub(1));
        for (idx, entry) in self.directory.iter().enumerate() {
            let need = self.format.encoded_len(u32_to_usize(entry.len));
            while buf.len() - at < need {
                if next_page > last_page {
                    return Err(StoreError::Corrupt("directory points past the data region"));
                }
                buf.drain(..at);
                at = 0;
                self.pool
                    .with_page(next_page, |page| buf.extend_from_slice(page))?;
                next_page += 1;
            }
            let record = buf.get(at..at + need).unwrap_or_default();
            let (rec, _) = decode_record_slice(self.format, record)?;
            at += need;
            if rec.id != usize_to_u64(idx) {
                return Err(StoreError::Corrupt("record id does not match directory"));
            }
            visit(rec.id, rec.values);
        }
        self.io.lock().sequential_pages_scanned += self.data_pages();
        Ok(())
    }

    /// Takes and resets the accumulated I/O profile.
    pub fn take_io(&self) -> IoProfile {
        std::mem::take(&mut self.io.lock())
    }

    /// Reads the accumulated I/O profile without resetting it.
    pub fn io(&self) -> IoProfile {
        *self.io.lock()
    }

    /// Buffer pool counters (actual caching behaviour, not the model).
    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// Resets the buffer pool counters (e.g. between measured queries).
    pub fn reset_buffer_stats(&self) {
        self.pool.reset_stats()
    }

    /// Checksum-triggered read retries absorbed by the pager stack since the
    /// store was opened; 0 for stacks without a retry layer. Cumulative —
    /// callers measuring one query take a before/after delta.
    pub fn checksum_retries(&self) -> u64 {
        self.pool.checksum_retries()
    }

    /// Installs `token` as the pager stack's governor for the returned
    /// guard's lifetime: retry backoffs below are capped by the token's
    /// remaining deadline and stop once it cancels. Dropping the guard
    /// clears the governor so later ungoverned queries retry normally.
    /// Unlimited tokens install nothing (zero-cost no-op).
    pub fn govern_scope(&self, token: &crate::govern::CancelToken) -> GovernorGuard<'_, P> {
        if token.is_unlimited() {
            return GovernorGuard { store: None };
        }
        self.pool.set_governor(token);
        GovernorGuard { store: Some(self) }
    }

    /// Persists the header and flushes dirty pages.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.write_header()?;
        self.pool.flush()?;
        Ok(())
    }

    fn write_header(&self) -> Result<(), StoreError> {
        let mut page = BytesMut::with_capacity(self.page_size);
        page.put_u32_le(MAGIC);
        match self.format {
            RecordFormat::V1 => {
                page.put_u32_le(1); // version
                page.put_u64_le(usize_to_u64(self.directory.len()));
                page.put_u64_le(self.write_cursor);
            }
            RecordFormat::V2 => {
                page.put_u32_le(2); // version
                page.put_u32_le(self.pool.page_format_version());
                page.put_u32_le(0); // reserved
                page.put_u64_le(usize_to_u64(self.directory.len()));
                page.put_u64_le(self.write_cursor);
                let mut crc = Crc32::new();
                crc.update(&page[..HEADER_V2_CRC_SPAN]);
                page.put_u32_le(crc.finalize());
            }
        }
        page.resize(self.page_size, 0);
        self.pool.write(HEADER_PAGE, &page)?;
        Ok(())
    }

    /// Data-region page number holding byte `offset`.
    fn data_page(&self, offset: u64) -> u64 {
        1 + offset / usize_to_u64(self.page_size)
    }

    /// Runs `f` over the `len` data-region bytes at `offset`. Bytes that sit
    /// inside one page — most records — are lent straight from the pool
    /// frame; a span that straddles pages is assembled once. Either way each
    /// page is read through the pool exactly once, first to last.
    fn with_span<T>(
        &self,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        if len == 0 {
            return f(&[]);
        }
        let start = in_page_usize(offset % usize_to_u64(self.page_size));
        let first = self.data_page(offset);
        if start + len <= self.page_size {
            return self.pool.with_page(first, |page| {
                f(page.get(start..start + len).unwrap_or_default())
            })?;
        }
        let mut raw = Vec::with_capacity(len);
        let mut page = first;
        let mut skip = start;
        while raw.len() < len {
            self.pool.with_page(page, |bytes| {
                let rest = bytes.get(skip..).unwrap_or_default();
                raw.extend_from_slice(rest.get(..len - raw.len()).unwrap_or(rest));
            })?;
            page += 1;
            skip = 0;
        }
        f(&raw)
    }

    fn write_span(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let ps = usize_to_u64(self.page_size);
        // Ensure enough pages exist.
        let end = offset + usize_to_u64(data.len());
        let needed_last = self.data_page(end.saturating_sub(1).max(offset));
        while self.pool.page_count() <= needed_last {
            self.pool.allocate()?;
        }
        let mut page_buf = vec![0u8; self.page_size];
        let mut written = 0usize;
        let mut cursor = offset;
        while written < data.len() {
            let page = self.data_page(cursor);
            let in_page = in_page_usize(cursor % ps);
            let chunk = (self.page_size - in_page).min(data.len() - written);
            // Read-modify-write when the chunk does not cover the whole page.
            if chunk < self.page_size {
                self.pool.read(page, &mut page_buf)?;
            }
            page_buf[in_page..in_page + chunk].copy_from_slice(&data[written..written + chunk]);
            self.pool.write(page, &page_buf)?;
            written += chunk;
            cursor += usize_to_u64(chunk);
        }
        Ok(())
    }
}

/// Clears a store's pager governor on drop (see
/// [`SequenceStore::govern_scope`]).
#[must_use = "the governor is cleared when this guard drops"]
pub struct GovernorGuard<'a, P: Pager> {
    store: Option<&'a SequenceStore<P>>,
}

impl<P: Pager> Drop for GovernorGuard<'_, P> {
    fn drop(&mut self) {
        if let Some(store) = self.store {
            store
                .pool
                .set_governor(&crate::govern::CancelToken::unlimited());
        }
    }
}

/// Number of pages a byte span `[offset, offset+len)` touches.
fn span_pages(offset: u64, len: u64, page_size: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let first = offset / page_size;
    let last = (offset + len - 1) / page_size;
    last - first + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::FilePager;

    fn sample(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..(i % 40 + 1))
                    .map(|j| (i * 100 + j) as f64 * 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn append_and_get_roundtrip() {
        let mut store = SequenceStore::in_memory();
        let data = sample(50);
        for (i, s) in data.iter().enumerate() {
            let id = store.append(s).unwrap();
            assert_eq!(id, i as u64);
        }
        assert_eq!(store.len(), 50);
        for (i, s) in data.iter().enumerate() {
            assert_eq!(&store.get(i as u64).unwrap(), s);
        }
    }

    #[test]
    fn get_unknown_id_errors() {
        let store = SequenceStore::in_memory();
        assert!(matches!(store.get(0), Err(StoreError::UnknownSequence(0))));
    }

    #[test]
    fn scan_returns_everything_in_order() {
        let mut store = SequenceStore::in_memory();
        let data = sample(30);
        for s in &data {
            store.append(s).unwrap();
        }
        let scanned = store.scan().unwrap();
        assert_eq!(scanned.len(), 30);
        for (i, (id, values)) in scanned.iter().enumerate() {
            assert_eq!(*id, i as u64);
            assert_eq!(values, &data[i]);
        }
    }

    #[test]
    fn scan_visit_streams_same_contents_as_scan() {
        let mut store = SequenceStore::in_memory();
        let data = sample(40);
        for s in &data {
            store.append(s).unwrap();
        }
        let materialized = store.scan().unwrap();
        let mut streamed = Vec::new();
        store
            .scan_visit(|id, values| streamed.push((id, values)))
            .unwrap();
        assert_eq!(materialized, streamed);
        // Both account one sequential pass.
        let io = store.take_io();
        assert_eq!(io.sequential_pages_scanned, 2 * store.data_pages());
    }

    #[test]
    fn scan_visit_handles_records_spanning_pages() {
        let mut store = SequenceStore::in_memory();
        // Records far larger than a page (128 f64 per 1 KB page).
        for i in 0..5 {
            store.append(&vec![i as f64; 400]).unwrap();
        }
        let mut seen = 0usize;
        store
            .scan_visit(|id, values| {
                assert_eq!(values, vec![id as f64; 400]);
                seen += 1;
            })
            .unwrap();
        assert_eq!(seen, 5);
    }

    #[test]
    fn io_accounting_random_vs_sequential() {
        let mut store = SequenceStore::in_memory();
        // Long sequences spanning multiple 1 KB pages (128 f64 per page).
        for _ in 0..10 {
            store.append(&vec![1.0; 500]).unwrap();
        }
        store.take_io();
        store.get(3).unwrap();
        let io = store.take_io();
        assert!(io.random_page_reads >= 4, "spans >= 4 pages: {io:?}");
        assert_eq!(io.sequential_pages_scanned, 0);

        store.scan().unwrap();
        let io = store.take_io();
        assert_eq!(io.random_page_reads, 0);
        assert_eq!(io.sequential_pages_scanned, store.data_pages());
    }

    #[test]
    fn sequence_pages_matches_accounting() {
        let mut store = SequenceStore::in_memory();
        store.append(&vec![0.5; 300]).unwrap();
        store.take_io();
        store.get(0).unwrap();
        assert_eq!(
            store.take_io().random_page_reads,
            store.sequence_pages(0).unwrap()
        );
    }

    #[test]
    fn empty_sequence_roundtrip() {
        let mut store = SequenceStore::in_memory();
        let id = store.append(&[]).unwrap();
        assert_eq!(store.get(id).unwrap(), Vec::<f64>::new());
        assert_eq!(store.sequence_len(id).unwrap(), 0);
    }

    #[test]
    fn nan_append_is_refused_as_input_and_leaves_the_store_intact() {
        let mut store = SequenceStore::in_memory();
        store.append(&[1.0, 2.0]).unwrap();
        let bytes = store.data_bytes();
        let err = store.append(&[1.0, f64::NAN]).unwrap_err();
        assert!(
            matches!(err, StoreError::InvalidElement { index: 1, value } if value.is_nan()),
            "{err}"
        );
        assert!(!err.is_corruption(), "bad input is not damaged bytes");
        assert_eq!((store.len(), store.data_bytes()), (1, bytes));
        // Infinities are ordered and stay storable; later appends, a scan
        // and a strict reopen all succeed.
        let id = store.append(&[f64::INFINITY, f64::NEG_INFINITY]).unwrap();
        assert_eq!(id, 1);
        assert_eq!(store.scan().unwrap().len(), 2);
        store.flush().unwrap();
        let reopened = SequenceStore::open(store.pool.into_pager().unwrap(), 4).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(
            reopened.get(1).unwrap(),
            vec![f64::INFINITY, f64::NEG_INFINITY]
        );
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("twstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.pages");
        let data = sample(25);
        {
            let pager = FilePager::create(&path, 1024).unwrap();
            let mut store = SequenceStore::create(pager, 16).unwrap();
            for s in &data {
                store.append(s).unwrap();
            }
            store.flush().unwrap();
        }
        {
            let pager = FilePager::open(&path, 1024).unwrap();
            let store = SequenceStore::open(pager, 16).unwrap();
            assert_eq!(store.len(), 25);
            for (i, s) in data.iter().enumerate() {
                assert_eq!(&store.get(i as u64).unwrap(), s);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let mut pager = MemPager::new(1024);
        pager.allocate().unwrap();
        let err = match SequenceStore::open(pager, 4) {
            Err(e) => e,
            Ok(_) => panic!("garbage header must not open"),
        };
        assert!(matches!(err, StoreError::BadHeader("magic")));
    }

    #[test]
    fn long_sequences_span_pages_correctly() {
        let mut store = SequenceStore::in_memory();
        let long: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let id = store.append(&long).unwrap();
        assert_eq!(store.get(id).unwrap(), long);
        assert!(store.data_pages() > 70);
    }

    /// Builds a legacy v1 store image by hand: v1 header + v1 records.
    fn legacy_v1_pager(seqs: &[Vec<f64>]) -> MemPager {
        let mut data = BytesMut::new();
        for (id, s) in seqs.iter().enumerate() {
            crate::codec::encode_record(&mut data, id as u64, s);
        }
        let mut header = BytesMut::with_capacity(1024);
        header.put_u32_le(MAGIC);
        header.put_u32_le(1);
        header.put_u64_le(seqs.len() as u64);
        header.put_u64_le(data.len() as u64);
        header.resize(1024, 0);
        let mut pager = MemPager::new(1024);
        pager.allocate().unwrap();
        pager.write_page(0, &header).unwrap();
        let mut page = vec![0u8; 1024];
        for (i, chunk) in data.chunks(1024).enumerate() {
            pager.allocate().unwrap();
            page.fill(0);
            page[..chunk.len()].copy_from_slice(chunk);
            pager.write_page(1 + i as u64, &page).unwrap();
        }
        pager
    }

    #[test]
    fn legacy_v1_store_opens_and_stays_v1() {
        let data = sample(12);
        let pager = legacy_v1_pager(&data);
        let mut store = SequenceStore::open(pager, 16).expect("v1 compat open");
        assert_eq!(store.record_format(), RecordFormat::V1);
        for (i, s) in data.iter().enumerate() {
            assert_eq!(&store.get(i as u64).unwrap(), s);
        }
        // Appends stick to the v1 layout so the file stays self-consistent.
        store.append(&[7.0, 8.0]).unwrap();
        store.flush().unwrap();
        let pager = store.pool.into_pager().unwrap();
        let reopened = SequenceStore::open(pager, 16).expect("reopen after append");
        assert_eq!(reopened.record_format(), RecordFormat::V1);
        assert_eq!(reopened.len(), 13);
        assert_eq!(reopened.get(12).unwrap(), vec![7.0, 8.0]);
    }

    #[test]
    fn new_stores_write_v2_headers() {
        let store = SequenceStore::in_memory();
        assert_eq!(store.record_format(), RecordFormat::V2);
        let mut head = vec![0u8; 1024];
        store.pool.read(HEADER_PAGE, &mut head).unwrap();
        assert_eq!(&head[0..4], &MAGIC.to_le_bytes());
        assert_eq!(&head[4..8], &2u32.to_le_bytes());
    }

    #[test]
    fn corrupt_record_fails_open_but_recovers() {
        let mut pager = {
            let mut store = SequenceStore::in_memory();
            for i in 0..8 {
                store.append(&vec![i as f64; 40]).unwrap();
            }
            store.flush().unwrap();
            store.pool.into_pager().unwrap()
        };
        // Flip a byte inside record 5's values (record 0..4 live earlier).
        let victim_offset = {
            let store = SequenceStore::open(MemPagerClone::clone_pages(&pager), 8).unwrap();
            store.directory[5].offset
        };
        let page = 1 + victim_offset / 1024;
        let in_page = (victim_offset % 1024) as usize + 20;
        let mut buf = vec![0u8; 1024];
        pager.read_page(page, &mut buf).unwrap();
        buf[in_page] ^= 0xFF;
        pager.write_page(page, &buf).unwrap();

        let clone = MemPagerClone::clone_pages(&pager);
        assert!(SequenceStore::open(clone, 8).is_err(), "strict open fails");
        let (store, report) = SequenceStore::open_recovering(pager, 8).expect("recovery");
        assert_eq!(report.expected_records, 8);
        assert_eq!(report.recovered_records, 5, "prefix before the damage");
        for id in 0..5u64 {
            assert_eq!(store.get(id).unwrap(), vec![id as f64; 40]);
        }
    }

    /// Test helper: deep-copies a MemPager through the public Pager API.
    struct MemPagerClone;
    impl MemPagerClone {
        fn clone_pages(src: &MemPager) -> MemPager {
            let mut dst = MemPager::new(src.page_size());
            let mut buf = vec![0u8; src.page_size()];
            for p in 0..src.page_count() {
                dst.allocate().unwrap();
                src.read_page(p, &mut buf).unwrap();
                dst.write_page(p, &buf).unwrap();
            }
            dst
        }
    }

    #[test]
    fn span_pages_math() {
        assert_eq!(span_pages(0, 0, 1024), 0);
        assert_eq!(span_pages(0, 1, 1024), 1);
        assert_eq!(span_pages(0, 1024, 1024), 1);
        assert_eq!(span_pages(0, 1025, 1024), 2);
        assert_eq!(span_pages(1023, 2, 1024), 2);
        assert_eq!(span_pages(1024, 1024, 1024), 1);
    }
}
