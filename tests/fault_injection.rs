//! Fault-schedule matrix: every search engine, run over a store whose pager
//! injects seeded faults, must either produce results identical to the
//! fault-free run or fail with a *typed* error / degrade to an exact
//! fallback. It must never panic, and it must never silently drop a
//! qualifying sequence — that would break the paper's no-false-dismissal
//! guarantee in the one place a user cannot see it.
//!
//! The protective stack under test is the production one:
//! `RetryPager<ChecksumPager<FaultPager<MemPager>>>` — faults injected at the
//! device level, checksums above them, bounded retry on top.

use proptest::prelude::*;
use tw_core::distance::DtwKind;
use tw_core::search::{EngineOpts, LbScan, ResilientSearch, SearchEngine, TwSimSearch};
use tw_core::TwError;
use tw_storage::{
    create_wal_file, decode_record_slice, encode_record_to_bytes_v2, open_wal_file, ChecksumPager,
    FaultConfig, FaultHandle, FaultPager, FilePager, MemPager, RecordFormat, RetryPager,
    RetryPolicy, SequenceStore, Wal, WalRecord,
};
use tw_workload::{generate_random_walks, RandomWalkConfig};

type FaultedStore = SequenceStore<RetryPager<ChecksumPager<FaultPager<MemPager>>>>;

fn dataset() -> Vec<Vec<f64>> {
    generate_random_walks(&RandomWalkConfig::paper(40, 32), 0xA11CE)
}

fn queries() -> Vec<(Vec<f64>, f64)> {
    let data = dataset();
    vec![
        (data[3].clone(), 0.0),
        (data[17].clone(), 0.4),
        (data[8].clone(), 1.5),
        (vec![5.0, 5.5, 6.0, 5.5], 0.8),
    ]
}

/// The ground truth, computed once over an untouched in-memory store.
fn fault_free_answers() -> Vec<Vec<u64>> {
    let mut store = SequenceStore::in_memory();
    for s in dataset() {
        store.append(&s).expect("append");
    }
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    queries()
        .iter()
        .map(|(q, eps)| {
            LbScan
                .range_search(&store, q, *eps, &opts)
                .expect("baseline")
                .ids()
        })
        .collect()
}

/// Builds the production pager stack around a fault injector, populates the
/// store while faults are disarmed, and returns the armed handle.
fn faulted_store(config: FaultConfig, policy: RetryPolicy) -> (FaultedStore, FaultHandle) {
    let (fault, handle) = FaultPager::new(MemPager::new(1024), config);
    let stack = RetryPager::new(ChecksumPager::new(fault), policy);
    let mut store = SequenceStore::create(stack, 8).expect("create");
    for s in dataset() {
        store.append(&s).expect("append");
    }
    store.flush().expect("flush");
    handle.arm();
    (store, handle)
}

#[test]
fn transient_faults_retry_to_identical_results() {
    let expected = fault_free_answers();
    for seed in [1u64, 2, 3, 7, 13] {
        // max_consecutive (2) stays below the retry budget (4 attempts), so
        // every operation eventually succeeds and results must be identical.
        let (store, handle) =
            faulted_store(FaultConfig::transient(seed, 200), RetryPolicy::default());
        let engine = TwSimSearch::build(&store).expect("build index under faults");
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        for (i, (q, eps)) in queries().iter().enumerate() {
            let lb = LbScan
                .range_search(&store, q, *eps, &opts)
                .expect("lb-scan under transient faults");
            assert_eq!(lb.ids(), expected[i], "lb-scan seed {seed} query {i}");
            let tw = engine
                .range_search(&store, q, *eps, &opts)
                .expect("tw-sim-search under transient faults");
            assert_eq!(tw.ids(), expected[i], "tw-sim seed {seed} query {i}");
        }
        assert!(
            handle.stats().transient_faults > 0,
            "schedule for seed {seed} never fired — the test proved nothing"
        );
    }
}

#[test]
fn read_bit_flips_heal_when_corrupt_retry_is_enabled() {
    let expected = fault_free_answers();
    for seed in [5u64, 11, 23] {
        // Bit flips happen in transit (the pager mutates the returned
        // buffer, not the stored page), so a checksum failure followed by a
        // re-read observes clean data. With `retry_corrupt` the stack heals
        // and answers must be identical to the fault-free run.
        let (store, handle) = faulted_store(
            FaultConfig::bit_flips(seed, 150),
            RetryPolicy::default().with_retry_corrupt(),
        );
        let engine = TwSimSearch::build(&store).expect("build index under flips");
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        for (i, (q, eps)) in queries().iter().enumerate() {
            let lb = LbScan
                .range_search(&store, q, *eps, &opts)
                .expect("lb-scan under healed flips");
            assert_eq!(lb.ids(), expected[i], "lb-scan seed {seed} query {i}");
            let tw = engine
                .range_search(&store, q, *eps, &opts)
                .expect("tw-sim-search under healed flips");
            assert_eq!(tw.ids(), expected[i], "tw-sim seed {seed} query {i}");
        }
        assert!(handle.stats().bit_flips > 0, "seed {seed} never flipped");
    }
}

#[test]
fn unhealed_corruption_is_a_typed_error_never_a_wrong_answer() {
    let expected = fault_free_answers();
    for seed in [4u64, 9, 21, 42] {
        // No corrupt-retry: a flipped read either misses the query's pages
        // (exact answer) or surfaces as a typed corruption error. A wrong
        // answer or a panic is the only unacceptable outcome.
        let (store, _handle) =
            faulted_store(FaultConfig::bit_flips(seed, 120), RetryPolicy::default());
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        for (i, (q, eps)) in queries().iter().enumerate() {
            match LbScan.range_search(&store, q, *eps, &opts) {
                Ok(out) => assert_eq!(out.ids(), expected[i], "seed {seed} query {i}"),
                Err(TwError::Storage(e)) => {
                    assert!(
                        e.is_corruption() || e.is_transient(),
                        "seed {seed} query {i}: untyped storage error {e}"
                    );
                }
                Err(other) => panic!("seed {seed} query {i}: unexpected error {other}"),
            }
        }
    }
}

#[test]
fn corrupt_index_file_degrades_to_the_exact_qualifying_set() {
    let dir = std::env::temp_dir().join(format!("twfault-idx-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let idx = dir.join("index.rtree");

    let mut store = SequenceStore::in_memory();
    for s in dataset() {
        store.append(&s).expect("append");
    }
    TwSimSearch::build(&store)
        .expect("build")
        .save_file(&idx)
        .expect("save");

    let expected = fault_free_answers();
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    // Corrupt a different region of the index file each round: wherever the
    // damage lands, the engine answers with exactly the qualifying set.
    let clean = std::fs::read(&idx).expect("read index");
    for frac in [3usize, 5, 7, 11] {
        let mut bad = clean.clone();
        let target = bad.len() * (frac - 1) / frac;
        bad[target] ^= 0x40;
        std::fs::write(&idx, &bad).expect("write corrupted");

        let engine = ResilientSearch::from_index_file(&idx, Some(store.len()));
        assert!(engine.is_index_offline(), "corruption at {target} missed");
        for (i, (q, eps)) in queries().iter().enumerate() {
            let out = engine
                .range_search(&store, q, *eps, &opts)
                .expect("degraded query");
            assert_eq!(out.ids(), expected[i], "frac {frac} query {i}");
            assert!(out.health.is_degraded());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_shard_index_degrades_that_shard_alone_and_stays_exact() {
    // One shard's R-tree file takes a bit flip. Opening the corpus must
    // succeed, only that shard's engine may go index-offline (falling back
    // to LB-Scan), the merged health must name the damaged shard — and the
    // fan-out answer must still be exactly the qualifying set.
    use tw_core::search::{CorpusSharder, ShardedSearch};
    use tw_storage::rtree_path;

    let dir = std::env::temp_dir().join(format!("twfault-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let data = dataset();
    let mut sharder = CorpusSharder::create(&dir, 10).expect("create sharder");
    for s in &data {
        sharder.append(s).expect("append");
    }
    let manifest = sharder.finish().expect("finish");
    assert_eq!(manifest.shard_count(), 4);

    // Flip one byte in the middle of shard 1's index file.
    let idx = rtree_path(&dir, 1);
    let mut raw = std::fs::read(&idx).expect("read shard index");
    let mid = raw.len() / 2;
    raw[mid] ^= 0x40;
    std::fs::write(&idx, &raw).expect("write corrupted shard index");

    let (sharded, reports) = ShardedSearch::open_dir(&dir, 16).expect("open corpus");
    assert_eq!(reports.len(), 4);
    for (i, shard) in sharded.shards().iter().enumerate() {
        assert_eq!(
            shard.engine().is_index_offline(),
            i == 1,
            "shard {i}: wrong index health"
        );
    }

    let expected = fault_free_answers();
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    for (i, (q, eps)) in queries().iter().enumerate() {
        let out = sharded
            .range_search_sharded(q, *eps, &opts)
            .expect("degraded fan-out");
        assert_eq!(out.merged.ids(), expected[i], "query {i}");
        assert!(out.merged.health.is_degraded(), "query {i}");
        match &out.merged.health {
            tw_core::search::EngineHealth::Degraded { reason, .. } => {
                assert!(
                    reason.contains("shard 1"),
                    "query {i}: health does not name the damaged shard: {reason}"
                );
                assert!(!reason.contains("shard 0"), "query {i}: {reason}");
                assert!(!reason.contains("shard 2"), "query {i}: {reason}");
                assert!(!reason.contains("shard 3"), "query {i}: {reason}");
            }
            other => panic!("query {i}: expected degraded health, got {other:?}"),
        }
        // The healthy shards answered through their indexes.
        for (si, shard_out) in out.per_shard.iter().enumerate() {
            assert_eq!(
                shard_out.health.is_degraded(),
                si == 1,
                "query {i} shard {si}: wrong per-shard health"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_and_transient_writes_never_corrupt_acknowledged_data() {
    // Writes that tear persist a prefix and report failure; the retry layer
    // rewrites the page. Appends that fail after the retry budget are NOT
    // acknowledged — the invariant is that every append that returned Ok is
    // readable afterwards.
    for seed in [6u64, 19, 31] {
        let (fault, handle) = FaultPager::new(
            MemPager::new(1024),
            FaultConfig {
                torn_write_per_mille: 150,
                transient_write_per_mille: 100,
                ..FaultConfig::quiet(seed)
            },
        );
        let stack = RetryPager::new(ChecksumPager::new(fault), RetryPolicy::default());
        let mut store = SequenceStore::create(stack, 8).expect("create");
        handle.arm();
        let mut acknowledged = Vec::new();
        for (i, s) in dataset().iter().enumerate() {
            if let Ok(id) = store.append(s) {
                acknowledged.push((id, i));
            }
        }
        handle.disarm();
        for (id, i) in &acknowledged {
            assert_eq!(
                store.get(*id).expect("acknowledged read"),
                dataset()[*i],
                "seed {seed} id {id}"
            );
        }
        assert!(handle.stats().injected() > 0, "seed {seed} never fired");
    }
}

#[test]
fn deadline_under_fault_storm_stays_exact_and_typed() {
    // The governor × fault cross-matrix: a 5 ms (simulated) deadline over a
    // store whose pager is having a transient-fault storm. The shared
    // `ManualClock` drives both sides — retry backoff sleeps advance the
    // same simulated time the deadline is measured against — so the
    // interaction is deterministic. Every query must end one of three ways:
    // complete with the exact answer, deadline-exceeded with an exact
    // subset and a balanced ledger, or a *typed* transient/corruption
    // error (the governor aborts retry loops, surfacing the device error).
    use std::sync::Arc;
    use std::time::Duration;
    use tw_core::govern::{ManualClock, QueryBudget, Termination};

    let expected = fault_free_answers();
    let mut deadline_hits = 0u64;
    for seed in [3u64, 13, 29, 57] {
        let clock = Arc::new(ManualClock::with_tick(Duration::from_micros(50)));
        let (fault, handle) =
            FaultPager::new(MemPager::new(1024), FaultConfig::transient(seed, 300));
        let stack = RetryPager::new(ChecksumPager::new(fault), RetryPolicy::default())
            .with_clock(clock.clone());
        let mut store = SequenceStore::create(stack, 8).expect("create");
        for s in dataset() {
            store.append(&s).expect("append");
        }
        store.flush().expect("flush");
        handle.arm();

        for (i, (q, eps)) in queries().iter().enumerate() {
            let budget = QueryBudget::new()
                .deadline(Duration::from_millis(5))
                .clock(clock.clone());
            let opts = EngineOpts::new()
                .kind(DtwKind::MaxAbs)
                .threads(1)
                .budget(budget);
            match LbScan.range_search(&store, q, *eps, &opts) {
                Ok(out) => {
                    assert!(
                        out.ids().iter().all(|id| expected[i].contains(id)),
                        "seed {seed} query {i}: non-subset answer {:?} vs {:?}",
                        out.ids(),
                        expected[i]
                    );
                    assert!(
                        out.query_stats.accounting_balanced(),
                        "seed {seed} query {i}: {:?}",
                        out.query_stats
                    );
                    match out.termination {
                        Termination::Complete => {
                            assert_eq!(out.ids(), expected[i], "seed {seed} query {i}")
                        }
                        Termination::DeadlineExceeded => deadline_hits += 1,
                        ref other => {
                            panic!("seed {seed} query {i}: unexpected termination {other:?}")
                        }
                    }
                }
                Err(TwError::Storage(e)) => {
                    assert!(
                        e.is_transient() || e.is_corruption(),
                        "seed {seed} query {i}: untyped storage error {e}"
                    );
                }
                Err(other) => panic!("seed {seed} query {i}: unexpected error {other}"),
            }
        }
        assert!(
            handle.stats().transient_faults > 0,
            "seed {seed}: fault schedule never fired"
        );
    }
    assert!(
        deadline_hits > 0,
        "no query ever hit the simulated deadline — the matrix proved nothing"
    );
}

proptest! {
    /// Any single-byte corruption anywhere in a checksummed record is a
    /// decode error — never a successful decode of wrong data.
    #[test]
    fn any_single_byte_corruption_of_a_v2_record_is_detected(
        id in 0u64..1_000_000,
        values in proptest::collection::vec(-1e6f64..1e6, 1..64),
        byte_index in 0usize..1000,
        xor_mask in 1u8..=255,
    ) {
        let clean = encode_record_to_bytes_v2(id, &values);
        let mut bad = clean.to_vec();
        let target = byte_index % bad.len();
        bad[target] ^= xor_mask;

        match decode_record_slice(RecordFormat::V2, &bad) {
            Ok((rec, _)) => {
                // A flip in the id or length fields can still checksum-fail;
                // a successful decode with intact payload is impossible
                // because the CRC covers id, length and values.
                prop_assert!(
                    rec.id != id || rec.values != values,
                    "corrupted record decoded byte-identical"
                );
                // ... and that case cannot happen either: any accepted decode
                // would need a CRC collision from a 1-byte flip, which CRC32
                // detects categorically. So reaching here at all is a bug.
                prop_assert!(false, "single-byte corruption went undetected");
            }
            Err(e) => prop_assert!(e.is_corruption() || matches!(e, tw_storage::CodecError::Truncated { .. })),
        }
    }
}

// ---------------------------------------------------------------------------
// WAL replay fault matrix: a write-ahead log must come back from torn tails
// by clean truncation, and from in-extent damage with a typed error — never
// with silently missing or altered acknowledged records.
// ---------------------------------------------------------------------------

const WAL_PAGE: usize = 1024;

fn wal_temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("twfault-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Write `count` acknowledged (committed) append records and return them.
fn committed_wal(path: &std::path::Path, count: u64) -> Vec<WalRecord> {
    let mut wal = create_wal_file(path, WAL_PAGE).expect("create wal");
    let mut records = Vec::new();
    for id in 0..count {
        let values: Vec<f64> = (0..24).map(|j| (id * 31 + j) as f64 * 0.25).collect();
        let record = WalRecord::AppendSequence { id, values };
        wal.append(&record).expect("append");
        wal.commit().expect("commit");
        records.push(record);
    }
    records
}

/// A crash after staging but before commit leaves a torn tail. Recovery must
/// keep every acknowledged record and discard the tail — clean truncation,
/// not an error, and certainly not replay of unacknowledged data.
#[test]
fn torn_wal_tail_is_discarded_without_losing_acknowledged_records() {
    let dir = wal_temp_dir("torn-tail");
    let path = dir.join("wal.twl");
    let committed = committed_wal(&path, 10);
    {
        // Re-open and stage records WITHOUT committing, then "crash" (drop).
        let (mut wal, replayed, report) = open_wal_file(&path, WAL_PAGE).expect("reopen");
        assert_eq!(replayed, committed, "clean reopen must replay exactly");
        assert!(report.is_clean());
        // Big enough to spill whole pages past the committed extent (the
        // recovery report only counts whole discarded pages, not slack).
        for id in 10..18 {
            wal.append(&WalRecord::AppendSequence {
                id,
                values: vec![1.0; 64],
            })
            .expect("stage");
        }
        assert_eq!(wal.staged_records(), 8);
        // Dropped here: staged pages may be on disk, the header is not.
    }

    let (wal, replayed, report) = open_wal_file(&path, WAL_PAGE).expect("recover");
    assert_eq!(
        replayed, committed,
        "torn tail changed the acknowledged record set"
    );
    assert_eq!(report.committed_records, 10);
    assert!(
        report.uncommitted_tail_bytes > 0,
        "the staged tail should be visible as discarded bytes"
    );
    assert!(!report.is_clean());
    assert_eq!(wal.committed_records(), 10);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flip INSIDE the committed extent is not recoverable by truncation:
/// an acknowledged record is damaged, and replay must say so with a typed
/// corruption error instead of returning a plausible-but-wrong record set.
#[test]
fn bit_flip_inside_committed_extent_is_typed_corruption() {
    let dir = wal_temp_dir("bit-flip");
    let path = dir.join("wal.twl");
    let committed = committed_wal(&path, 10);
    assert!(committed.len() == 10);

    let mut raw = std::fs::read(&path).expect("read wal file");
    assert!(
        raw.len() > WAL_PAGE + 64,
        "committed extent should span past the first data page"
    );
    // Damage the first data page, well inside the committed extent.
    raw[WAL_PAGE + 40] ^= 0x20;
    std::fs::write(&path, &raw).expect("write damaged wal");

    match open_wal_file(&path, WAL_PAGE) {
        Ok((_, replayed, _)) => {
            // If the stack somehow accepts the file, the acknowledged records
            // must still be byte-identical — anything else is silent loss.
            assert_eq!(replayed, committed, "damaged WAL replayed wrong records");
            panic!("a flipped bit inside the committed extent went undetected");
        }
        Err(e) => assert!(
            e.is_corruption(),
            "expected a typed corruption error, got: {e}"
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chopping whole committed pages off the end of the file (e.g. a filesystem
/// that lost an extent) removes acknowledged data; recovery must fail with a
/// typed error rather than quietly replaying the shortened prefix.
#[test]
fn truncated_committed_extent_is_a_typed_error_never_a_short_replay() {
    let dir = wal_temp_dir("chopped");
    let path = dir.join("wal.twl");
    let committed = committed_wal(&path, 10);

    // Keep the header page and the first data page only.
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open wal file");
    file.set_len(2 * WAL_PAGE as u64).expect("chop file");
    drop(file);

    match open_wal_file(&path, WAL_PAGE) {
        Ok((_, replayed, _)) => {
            assert_eq!(
                replayed, committed,
                "chopped WAL silently replayed a shortened record set"
            );
            panic!("chopped committed extent went undetected");
        }
        Err(e) => {
            // Typed: corruption (header promises more bytes than exist) —
            // the one thing it must never be is a short Ok.
            let msg = e.to_string();
            assert!(
                e.is_corruption() || msg.contains("page") || msg.contains("range"),
                "untyped error for chopped extent: {e}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Short reads during replay zero the tail of a page in transit. The page
/// checksum catches it, and with corrupt-retry enabled a re-read heals it —
/// replay converges to exactly the acknowledged record set.
#[test]
fn short_reads_during_replay_heal_to_the_exact_record_set() {
    let dir = wal_temp_dir("short-read");
    let path = dir.join("wal.twl");
    let committed = committed_wal(&path, 12);

    let mut healed = 0usize;
    for seed in 0..6u64 {
        let (file, _trimmed) = FilePager::open_trimmed(&path, WAL_PAGE).expect("open file");
        let config = FaultConfig {
            short_read_per_mille: 400,
            ..FaultConfig::quiet(seed)
        };
        let (faulty, handle) = FaultPager::new(file, config);
        handle.arm();
        let stack = RetryPager::new(
            ChecksumPager::new(faulty),
            RetryPolicy::default().with_retry_corrupt(),
        );

        let (wal, replayed, report) = Wal::open_recovering(stack).expect("healed replay");
        assert_eq!(
            replayed, committed,
            "seed {seed}: healed replay diverged from the acknowledged set"
        );
        assert_eq!(report.committed_records, 12);
        assert_eq!(wal.committed_records(), 12);
        if handle.stats().short_reads > 0 {
            healed += 1;
        }
    }
    assert!(
        healed > 0,
        "no seed ever fired a short read — matrix is vacuous"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same schedule WITHOUT corrupt-retry: replay may fail, but only with a
/// typed corruption error; any Ok must carry the exact acknowledged records.
#[test]
fn unhealed_short_reads_surface_typed_corruption_never_wrong_records() {
    let dir = wal_temp_dir("short-read-noheal");
    let path = dir.join("wal.twl");
    let committed = committed_wal(&path, 12);

    let mut fired = 0usize;
    let mut failures = 0usize;
    for seed in 0..8u64 {
        let (file, _trimmed) = FilePager::open_trimmed(&path, WAL_PAGE).expect("open file");
        let config = FaultConfig {
            short_read_per_mille: 400,
            ..FaultConfig::quiet(seed)
        };
        let (faulty, handle) = FaultPager::new(file, config);
        handle.arm();
        let stack = RetryPager::new(ChecksumPager::new(faulty), RetryPolicy::default());

        match Wal::open_recovering(stack) {
            Ok((_, replayed, _)) => assert_eq!(
                replayed, committed,
                "seed {seed}: faulted Ok replay diverged from the acknowledged set"
            ),
            Err(e) => {
                assert!(
                    e.is_corruption(),
                    "seed {seed}: untyped error under short reads: {e}"
                );
                failures += 1;
            }
        }
        fired += usize::from(handle.stats().short_reads > 0);
    }
    assert!(
        fired > 0,
        "no seed ever fired a short read — matrix is vacuous"
    );
    assert!(
        failures > 0,
        "no seed ever surfaced the corruption — raise the fault rate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transient read faults during replay retry to full recovery: same records,
/// no error, and the fault schedule demonstrably fired.
#[test]
fn transient_faults_during_replay_retry_to_full_recovery() {
    let dir = wal_temp_dir("transient-replay");
    let path = dir.join("wal.twl");
    let committed = committed_wal(&path, 12);

    let mut fired = 0usize;
    for seed in 0..6u64 {
        let (file, _trimmed) = FilePager::open_trimmed(&path, WAL_PAGE).expect("open file");
        let (faulty, handle) = FaultPager::new(file, FaultConfig::transient(seed, 300));
        handle.arm();
        let stack = RetryPager::new(ChecksumPager::new(faulty), RetryPolicy::default());

        let (wal, replayed, report) = Wal::open_recovering(stack).expect("retried replay");
        assert_eq!(
            replayed, committed,
            "seed {seed}: retried replay diverged from the acknowledged set"
        );
        assert!(report.is_clean());
        assert_eq!(wal.committed_records(), 12);
        fired += usize::from(handle.stats().transient_faults > 0);
    }
    assert!(
        fired > 0,
        "no seed ever fired a transient fault — matrix is vacuous"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
