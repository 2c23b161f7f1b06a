//! Property tests of the storage substrate: codec and store round-trips,
//! I/O accounting consistency, and buffer-pool equivalence to the raw pager.

use proptest::prelude::*;

use tw_storage::{
    crc32, decode_record_slice, encode_record_to_bytes, BufferPool, Crc32, MemPager, Pager,
    RecordFormat, SequenceStore,
};

/// CRC-32/IEEE by definition, one bit at a time — the reference the
/// slicing-by-8 kernel must equal.
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

fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// CRC-32: the kernel equals the bitwise definition for any bytes,
    /// however an incremental caller cuts them up.
    #[test]
    fn crc32_equals_bitwise_reference_under_any_split(
        data in prop::collection::vec(any::<u8>(), 0..3000),
        cuts in prop::collection::vec(0usize..3000, 0..6),
    ) {
        let expect = crc32_bitwise(&data);
        prop_assert_eq!(crc32(&data), expect);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut streamed = Crc32::new();
        let mut from = 0;
        for cut in cuts {
            streamed.update(&data[from..cut]);
            from = cut;
        }
        streamed.update(&data[from..]);
        prop_assert_eq!(streamed.finalize(), expect);
    }

    /// Codec: encode/decode is the identity for any finite payload.
    #[test]
    fn codec_roundtrip(id in any::<u64>(), values in values_strategy()) {
        let bytes = encode_record_to_bytes(id, &values);
        let (rec, _) = decode_record_slice(RecordFormat::V1, &bytes).expect("decode");
        prop_assert_eq!(rec.id, id);
        prop_assert_eq!(rec.values, values);
    }

    /// Codec: decoding any truncation of a valid record fails cleanly rather
    /// than panicking or producing garbage.
    #[test]
    fn codec_truncations_fail_cleanly(
        values in prop::collection::vec(-100.0f64..100.0, 1..50),
        cut in 0usize..16,
    ) {
        let bytes = encode_record_to_bytes(1, &values);
        let keep = bytes.len().saturating_sub(cut + 1);
        prop_assert!(decode_record_slice(RecordFormat::V1, &bytes[..keep]).is_err());
    }

    /// Store: append then read back arbitrary batches, in order and by id.
    #[test]
    fn store_roundtrip(batches in prop::collection::vec(values_strategy(), 1..40)) {
        let mut store = SequenceStore::in_memory();
        for (i, values) in batches.iter().enumerate() {
            let id = store.append(values).expect("append");
            prop_assert_eq!(id, i as u64);
        }
        prop_assert_eq!(store.len(), batches.len());
        for (i, values) in batches.iter().enumerate() {
            prop_assert_eq!(&store.get(i as u64).expect("get"), values);
            prop_assert_eq!(store.sequence_len(i as u64).expect("len"), values.len());
        }
        let scan = store.scan().expect("scan");
        for ((id, values), expect) in scan.iter().zip(&batches) {
            prop_assert_eq!(&values, &expect);
            prop_assert!(*id < batches.len() as u64);
        }
    }

    /// Store: the accounted random reads for a `get` always equal the page
    /// span the directory predicts.
    #[test]
    fn io_accounting_matches_prediction(batches in prop::collection::vec(values_strategy(), 1..20)) {
        let mut store = SequenceStore::in_memory();
        for values in &batches {
            store.append(values).expect("append");
        }
        store.take_io();
        for i in 0..batches.len() as u64 {
            let predicted = store.sequence_pages(i).expect("pages");
            store.get(i).expect("get");
            let io = store.take_io();
            prop_assert_eq!(io.random_page_reads, predicted, "sequence {}", i);
            prop_assert_eq!(io.sequential_pages_scanned, 0);
        }
    }

    /// Buffer pool: reads through any pool capacity return exactly what the
    /// raw pager holds.
    #[test]
    fn pool_transparent_for_any_capacity(
        pages in prop::collection::vec(prop::collection::vec(any::<u8>(), 64..=64), 1..12),
        capacity in 1usize..8,
        accesses in prop::collection::vec(0usize..12, 1..40),
    ) {
        let mut pager = MemPager::new(64);
        for page in &pages {
            let n = pager.allocate().expect("alloc");
            pager.write_page(n, page).expect("write");
        }
        let pool = BufferPool::new(pager, capacity);
        let mut buf = vec![0u8; 64];
        for &a in &accesses {
            let page = a % pages.len();
            pool.read(page as u64, &mut buf).expect("read");
            prop_assert_eq!(&buf, &pages[page]);
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.hits + stats.misses, accesses.len() as u64);
    }

    /// Store persists through flush + reopen on a shared pager image.
    #[test]
    fn store_reopen_equivalence(batches in prop::collection::vec(values_strategy(), 1..15)) {
        // Build on a file-backed store so reopen exercises the real path.
        let dir = std::env::temp_dir().join(format!("twprop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("s{}.pages", rand_suffix(&batches)));
        {
            let pager = tw_storage::FilePager::create(&path, 1024).expect("create");
            let mut store = SequenceStore::create(pager, 8).expect("store");
            for values in &batches {
                store.append(values).expect("append");
            }
            store.flush().expect("flush");
        }
        let pager = tw_storage::FilePager::open(&path, 1024).expect("open");
        let store = SequenceStore::open(pager, 8).expect("reopen");
        prop_assert_eq!(store.len(), batches.len());
        for (i, values) in batches.iter().enumerate() {
            prop_assert_eq!(&store.get(i as u64).expect("get"), values);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A content-derived suffix so parallel proptest cases don't collide on one
/// file name.
fn rand_suffix(batches: &[Vec<f64>]) -> u64 {
    let mut h = 1469598103934665603u64;
    for b in batches {
        h ^= b.len() as u64;
        h = h.wrapping_mul(1099511628211);
        if let Some(v) = b.first() {
            h ^= v.to_bits();
            h = h.wrapping_mul(1099511628211);
        }
    }
    h
}
