//! The read path under `SequenceStore::get`: records are decoded from
//! borrowed pool frames (one page) or assembled once (several), and none of
//! that may change what a caller observes — the values, the pool's
//! hit/miss/eviction counts, the modeled I/O — or let a damaged page or
//! record through as values.
//!
//! The expected counts come from a model written here, not from the pool: a
//! `get` touches the pages its record spans once each, first to last, through
//! an exact-LRU cache. That is the access sequence of the copying read path
//! this one replaced, so the test passes unchanged on both.

#![allow(clippy::unwrap_used)] // test fixtures: a failed set-up step should abort the test

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use tw_storage::{
    BufferStats, ChecksumPager, CodecError, FaultConfig, FaultKind, FaultPager, FilePager,
    IoProfile, MemPager, Pager, PagerError, SequenceStore, StoreError, RECORD_HEADER_BYTES_V2,
};

/// Physical page; the checksum trailer leaves 120 payload bytes, i.e. 15
/// possible (8-aligned) record start offsets per page.
const PHYSICAL: usize = 128;
const LOGICAL: usize = PHYSICAL - tw_storage::TRAILER_BYTES;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twreadpath-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("store.tws")
}

/// Record lengths 0..=40 elements (16..=336 bytes: one to four pages) from a
/// fixed LCG, values that identify (record, position).
fn corpus(n: usize) -> Vec<Vec<f64>> {
    let mut x = 0x2001_0402u64;
    (0..n)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = (x >> 33) as usize % 41;
            (0..len).map(|j| (i * 1000 + j) as f64 * 0.25).collect()
        })
        .collect()
}

fn write_store(path: &Path, data: &[Vec<f64>]) {
    let pager = ChecksumPager::new(FilePager::create(path, PHYSICAL).unwrap());
    let mut store = SequenceStore::create(pager, 8).unwrap();
    for s in data {
        store.append(s).unwrap();
    }
    store.flush().unwrap();
}

/// Exact LRU over page numbers, counting what `BufferStats` counts.
struct LruModel {
    capacity: usize,
    clock: u64,
    resident: HashMap<u64, u64>,
    stats: BufferStats,
}

impl LruModel {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            clock: 0,
            resident: HashMap::new(),
            stats: BufferStats::default(),
        }
    }

    fn touch(&mut self, page: u64) {
        self.clock += 1;
        if let Some(stamp) = self.resident.get_mut(&page) {
            *stamp = self.clock;
            self.stats.hits += 1;
            return;
        }
        self.stats.misses += 1;
        if self.resident.len() >= self.capacity {
            let victim = *self.resident.iter().min_by_key(|(_, &t)| t).unwrap().0;
            self.resident.remove(&victim);
            self.stats.evictions += 1;
        }
        self.resident.insert(page, self.clock);
    }
}

/// (first page, last page) of each record, data pages numbered from 1.
fn extents(data: &[Vec<f64>]) -> Vec<(u64, u64)> {
    let mut offset = 0usize;
    data.iter()
        .map(|s| {
            let bytes = RECORD_HEADER_BYTES_V2 + 8 * s.len();
            let span = (1 + offset / LOGICAL, 1 + (offset + bytes - 1) / LOGICAL);
            offset += bytes;
            (span.0 as u64, span.1 as u64)
        })
        .collect()
}

#[test]
fn get_reports_the_same_values_pool_counts_and_io_at_every_offset_and_span() {
    let data = corpus(400);
    let spans = extents(&data);

    // The corpus must actually cover the cases named above: every start
    // offset, and at each one a record of every span class that fits there.
    let mut seen = std::collections::HashSet::new();
    let mut offset = 0usize;
    for (s, (first, last)) in data.iter().zip(&spans) {
        seen.insert((offset % LOGICAL, (last - first + 1).min(3)));
        offset += RECORD_HEADER_BYTES_V2 + 8 * s.len();
    }
    for start in (0..LOGICAL).step_by(8) {
        for class in 1..=3u64 {
            let fits = class > 1 || start + RECORD_HEADER_BYTES_V2 <= LOGICAL;
            assert_eq!(
                seen.contains(&(start, class)),
                fits,
                "offset {start}, {class}-page class"
            );
        }
    }

    let path = tmp("counts");
    write_store(&path, &data);
    // A scattered pass, then an ascending one (neighbours share pages).
    let n = data.len();
    let order: Vec<usize> = (0..n).map(|i| (i * 149) % n).chain(0..n).collect();

    for capacity in [1usize, 64] {
        let pager = ChecksumPager::new(FilePager::open(&path, PHYSICAL).unwrap());
        let store = SequenceStore::open(pager, capacity).unwrap();
        // What `open` left resident: the header, then every data page in order.
        let mut model = LruModel::new(capacity);
        let last_data_page = spans.last().unwrap().1;
        (0..=last_data_page).for_each(|p| model.touch(p));
        model.stats = BufferStats::default();
        store.reset_buffer_stats();
        store.take_io();

        let mut io = IoProfile::default();
        for &id in &order {
            assert_eq!(store.get(id as u64).unwrap(), data[id], "record {id}");
            let (first, last) = spans[id];
            (first..=last).for_each(|p| model.touch(p));
            io.random_requests += 1;
            io.random_page_reads += last - first + 1;
        }
        assert_eq!(store.buffer_stats(), model.stats, "capacity {capacity}");
        assert_eq!(store.take_io(), io, "capacity {capacity}");
        if capacity == 1 {
            // Every page of a straddling read evicts the one before it.
            assert_eq!(model.stats.evictions, model.stats.misses);
        } else {
            assert!(model.stats.hits > 0 && model.stats.evictions > 0);
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Ten-element records are 96 bytes: record 0 sits in data page 1, record 1
/// straddles pages 1–2, record 2 pages 2–3, and the last one lives pages away.
fn faulty_store() -> (
    SequenceStore<ChecksumPager<FaultPager<MemPager>>>,
    tw_storage::FaultHandle,
) {
    let (pager, handle) = FaultPager::new(MemPager::new(PHYSICAL), FaultConfig::quiet(7));
    let mut store = SequenceStore::create(ChecksumPager::new(pager), 2).unwrap();
    for i in 0..12 {
        store.append(&[i as f64; 10]).unwrap();
    }
    store.flush().unwrap();
    (store, handle)
}

fn assert_corrupt_page(err: StoreError, page: u64) {
    assert!(err.is_corruption(), "{err}");
    assert!(
        matches!(err, StoreError::Pager(PagerError::Corrupt { page: p, .. }) if p == page),
        "expected page {page} corrupt, got {err}"
    );
}

#[test]
fn bit_flip_in_the_first_page_of_a_straddling_record_is_typed_corruption() {
    let (store, faults) = faulty_store();
    store.get(11).unwrap(); // both frames now hold far-away pages
    faults.force_read(FaultKind::BitFlip { byte: 100, bit: 3 });
    assert_corrupt_page(store.get(1).unwrap_err(), 1);
    assert_eq!(faults.stats().bit_flips, 1);
    // The damaged bytes were not cached: a clean re-read serves the record.
    assert_eq!(store.get(1).unwrap(), vec![1.0; 10]);
}

#[test]
fn bit_flip_in_the_second_page_of_a_straddling_record_is_typed_corruption() {
    let (store, faults) = faulty_store();
    store.get(11).unwrap();
    store.get(0).unwrap(); // page 1 resident, page 2 not
    faults.force_read(FaultKind::BitFlip { byte: 5, bit: 0 });
    assert_corrupt_page(store.get(1).unwrap_err(), 2);
    assert_eq!(faults.stats().bit_flips, 1);
    assert_eq!(store.get(1).unwrap(), vec![1.0; 10]);
}

#[test]
fn a_wrong_record_crc_under_a_valid_page_crc_is_typed_corruption() {
    let path = tmp("record-crc");
    write_store(
        &path,
        &(0..12).map(|i| vec![i as f64; 10]).collect::<Vec<_>>(),
    );
    let pager = ChecksumPager::new(FilePager::open(&path, PHYSICAL).unwrap());
    let store = SequenceStore::open(pager, 1).unwrap();
    store.get(11).unwrap(); // the only frame holds a far-away page

    // Damage one value byte of record 0 and reseal the page, through a second
    // handle on the file: the page trailer verifies, the record does not.
    let mut raw = ChecksumPager::new(FilePager::open(&path, PHYSICAL).unwrap());
    let mut page = vec![0u8; LOGICAL];
    raw.read_page(1, &mut page).unwrap();
    page[RECORD_HEADER_BYTES_V2 + 3] ^= 0x40;
    raw.write_page(1, &page).unwrap();
    raw.sync().unwrap();

    let err = store.get(0).unwrap_err();
    assert!(err.is_corruption(), "{err}");
    assert!(
        matches!(
            err,
            StoreError::Codec(CodecError::ChecksumMismatch { id: 0 })
        ),
        "{err}"
    );
    // Record 1 starts in the damaged page but its own bytes are intact.
    assert_eq!(store.get(1).unwrap(), vec![1.0; 10]);
    std::fs::remove_file(&path).ok();
}
