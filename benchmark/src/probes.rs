//! Isolated per-layer measurements for the traced run.
//!
//! Each probe times calls into one layer's public functions on the traced
//! workload's own data — candidate pairs captured from its queries, its
//! shard files, its sequence shape — with the layers below stubbed out or
//! in memory. Probes never run inside a measured window.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tw_core::search::{TwSimSearch, VerifyMode};
use tw_core::{
    dtw, dtw_banded, dtw_within, Admission, AdmissionGate, BoundCascade, CascadeSpec,
    ConcurrentIngest, DtwKind, FeatureVector, QueryBudget,
};
use tw_net::{
    decode_frame, encode_frame, FrameKind, QueryRequest, QueryResponse, DEFAULT_MAX_PAYLOAD,
};
use tw_rtree::{KnnMetric, Point, RTree};
use tw_storage::{
    crc32, create_shard_segment, create_wal_file, open_shard_segment, rtree_path, segment_path,
    BufferPool, ChecksumPager, FilePager, Pager, RetryPager, RetryPolicy, WalRecord,
    DEFAULT_PAGE_SIZE,
};

use crate::exec::{engine_opts, request, run_snapshot, OpKind, Sharded};
use crate::phases::{append_phase, create_ingest, reopen_ingest};
use crate::run::{metric, Metric};
use crate::workload::{Spec, SMOKE_DIVISOR};

/// One candidate the workload's own queries fetched: the unit the distance
/// and bound probes replay.
pub struct Pair {
    pub query: usize,
    pub id: u64,
    pub values: Vec<f64>,
}

/// How much work a probe does: full size, or 1/50 of it under `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub smoke: bool,
}

impl Effort {
    fn iters(self, full: usize) -> usize {
        if self.smoke {
            (full / SMOKE_DIVISOR).max(8)
        } else {
            full
        }
    }
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// A cheap deterministic index stream for "random" page and id picks.
fn scatter(i: usize, modulus: u64) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % modulus.max(1)
}

/// DTW kernels on captured candidate pairs: million DP cells per second for
/// the full, early-abandoning, banded and L1-base kernels.
pub fn distance(pairs: &[Pair], queries: &[Vec<f64>], epsilon: f64, effort: Effort) -> Vec<Metric> {
    let cells_per_sweep: usize = pairs
        .iter()
        .map(|p| p.values.len() * queries[p.query].len())
        .sum();
    let sweeps = (effort.iters(20_000_000) / cells_per_sweep.max(1)).clamp(1, 2_000);
    let kernel = |run: &dyn Fn(&[f64], &[f64]) -> u64| {
        let mut cells = 0u64;
        let t = Instant::now();
        for _ in 0..sweeps {
            for p in pairs {
                cells += run(black_box(&p.values), black_box(&queries[p.query]));
            }
        }
        let secs = t.elapsed().as_secs_f64();
        (cells as f64 / 1e6 / secs, secs)
    };
    let (full, _) = kernel(&|s, q| black_box(dtw(s, q, DtwKind::MaxAbs)).cells);
    let (within, within_secs) =
        kernel(&|s, q| black_box(dtw_within(s, q, DtwKind::MaxAbs, epsilon)).cells);
    let (banded, _) =
        kernel(&|s, q| black_box(dtw_banded(s, q, DtwKind::MaxAbs, (q.len() / 10).max(1))).cells);
    let (sumabs, _) = kernel(&|s, q| black_box(dtw(s, q, DtwKind::SumAbs)).cells);
    vec![
        metric("distance.dtw_full_mcells_s", full, "Mcells/s"),
        metric("distance.dtw_within_mcells_s", within, "Mcells/s"),
        metric(
            "distance.dtw_within_ns_per_cand",
            within_secs * 1e9 / (sweeps * pairs.len()).max(1) as f64,
            "ns",
        ),
        metric("distance.dtw_banded_mcells_s", banded, "Mcells/s"),
        metric("distance.dtw_sumabs_mcells_s", sumabs, "Mcells/s"),
    ]
}

/// The bound layer in isolation: feature extraction, compiling the standard
/// cascade for a query, and one cascade check per captured candidate.
pub fn bound(pairs: &[Pair], queries: &[Vec<f64>], epsilon: f64, effort: Effort) -> Vec<Metric> {
    let n = queries.len().min(256);
    let feature_ns = ns_per(effort.iters(20_000), |i| {
        black_box(FeatureVector::from_values(black_box(&queries[i % n])));
    });
    let spec = CascadeSpec::standard();
    let prepare_ns = ns_per(effort.iters(2_000), |i| {
        black_box(BoundCascade::prepare(
            &spec,
            black_box(&queries[i % n]),
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        ));
    });
    let cascades: Vec<(usize, BoundCascade)> = {
        let mut seen: Vec<usize> = pairs.iter().map(|p| p.query).collect();
        seen.dedup();
        seen.into_iter()
            .map(|q| {
                let cascade =
                    BoundCascade::prepare(&spec, &queries[q], DtwKind::MaxAbs, VerifyMode::Exact);
                (q, cascade)
            })
            .collect()
    };
    let sweeps = (effort.iters(200_000) / pairs.len().max(1)).clamp(1, 10_000);
    let t = Instant::now();
    for _ in 0..sweeps {
        let mut at = 0;
        for p in pairs {
            if cascades[at].0 != p.query {
                at += 1;
            }
            black_box(cascades[at].1.check(p.id, black_box(&p.values), epsilon));
        }
    }
    let check_ns = t.elapsed().as_nanos() as f64 / (sweeps * pairs.len()).max(1) as f64;
    vec![
        metric("bound.feature_ns", feature_ns, "ns"),
        metric("bound.prepare_us", prepare_ns / 1e3, "us"),
        metric("bound.check_ns", check_ns, "ns"),
    ]
}

/// The index in isolation, on the corpus's first shard: traversal per query
/// (all shards), bulk load, incremental insert, and loading the index file.
pub fn rtree(
    sharded: &Sharded,
    dir: &Path,
    spec: &Spec,
    queries: &[Vec<f64>],
    effort: Effort,
) -> Vec<Metric> {
    let trees: Vec<&RTree<4>> = sharded
        .shards()
        .iter()
        .filter_map(|s| s.engine().primary().map(TwSimSearch::tree))
        .collect();
    let points: Vec<Point<4>> = queries
        .iter()
        .take(512)
        .map(|q| FeatureVector::from_values(q).as_point())
        .collect();
    let range_ns = ns_per(effort.iters(4_096), |i| {
        for tree in &trees {
            black_box(tree.range_centered(&points[i % points.len()], spec.epsilon));
        }
    });
    let fetch = (2 * spec.knn_k).max(16);
    let knn_ns = ns_per(effort.iters(1_024), |i| {
        for tree in &trees {
            black_box(tree.knn(&points[i % points.len()], fetch, KnnMetric::Chebyshev));
        }
    });

    let Some(first) = trees.first() else {
        return Vec::new();
    };
    let items: Vec<(Point<4>, u64)> = first
        .iter()
        .map(|(rect, id)| (Point::new(*rect.min()), id))
        .collect();
    let t = Instant::now();
    let bulk = RTree::bulk_load(TwSimSearch::paper_config(), black_box(items.clone()));
    let bulk_ms = t.elapsed().as_secs_f64() * 1e3;
    black_box(bulk.len());

    let inserts = items.len().min(2_000);
    let mut grown: RTree<4> = (*first).clone();
    let insert_ns = ns_per(inserts, |i| {
        grown.insert_point(items[i].0, (items.len() + i) as u64);
    });

    let t = Instant::now();
    let loaded = TwSimSearch::load_file(rtree_path(dir, 0), Some(items.len()));
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    black_box(loaded.is_ok());

    vec![
        metric("rtree.range_us", range_ns / 1e3, "us"),
        metric("rtree.knn_us", knn_ns / 1e3, "us"),
        metric("rtree.bulk_load_ms", bulk_ms, "ms"),
        metric("rtree.insert_us", insert_ns / 1e3, "us"),
        metric("rtree.load_file_ms", load_ms, "ms"),
    ]
}

/// The pager stack one decorator at a time over the first shard's segment
/// file, the pool's hit and miss paths, whole-record reads, CRC throughput,
/// and the write side (store append, WAL commit).
pub fn storage(
    dir: &Path,
    scratch: &Path,
    spec: &Spec,
    walks: &[Vec<f64>],
    effort: Effort,
) -> Result<Vec<Metric>, String> {
    let segment = segment_path(dir, 0);
    let open = || FilePager::open(&segment, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string());
    let pages = open()?.page_count();
    let reads = effort.iters(20_000);

    let raw = open()?;
    let mut frame = vec![0u8; raw.page_size()];
    let read_raw = ns_per(reads, |i| {
        let _ = black_box(raw.read_page(scatter(i, pages), &mut frame));
    });
    let checked = ChecksumPager::new(open()?);
    let mut payload = vec![0u8; checked.page_size()];
    let read_checksum = ns_per(reads, |i| {
        let _ = black_box(checked.read_page(scatter(i, pages), &mut payload));
    });
    let stack = || {
        Ok::<_, String>(RetryPager::new(
            ChecksumPager::new(open()?),
            RetryPolicy::default(),
        ))
    };
    let retried = stack()?;
    let read_retry = ns_per(reads, |i| {
        let _ = black_box(retried.read_page(scatter(i, pages), &mut payload));
    });

    // Pool: hits on a resident set, misses through a pool of 8 frames.
    let warm = BufferPool::new(stack()?, 64);
    for page in 0..32.min(pages) {
        let _ = warm.read(page, &mut payload);
    }
    let pool_hit = ns_per(reads, |i| {
        let _ = black_box(warm.read(scatter(i, 32.min(pages)), &mut payload));
    });
    let cold = BufferPool::new(stack()?, 8);
    let pool_miss = ns_per(reads, |i| {
        let _ = black_box(cold.read(scatter(i, pages), &mut payload));
    });

    // Whole records through `SequenceStore::get`.
    let whole = usize::try_from(pages).unwrap_or(usize::MAX) + 2;
    let (hot_store, _) = open_shard_segment(&segment, DEFAULT_PAGE_SIZE, whole)
        .map_err(|e| format!("opening segment 0: {e}"))?;
    hot_store.scan_visit(|_, _| {}).map_err(|e| e.to_string())?;
    let len = hot_store.len() as u64;
    let get_hit = ns_per(reads, |i| {
        let _ = black_box(hot_store.get(scatter(i, len)));
    });
    let (cold_store, _) = open_shard_segment(&segment, DEFAULT_PAGE_SIZE, 8)
        .map_err(|e| format!("opening segment 0: {e}"))?;
    let get_miss = ns_per(reads, |i| {
        let _ = black_box(cold_store.get(scatter(i, len)));
    });

    let block = vec![0xA5u8; 1 << 20];
    let crc_ns = ns_per(effort.iters(32), |_| {
        black_box(crc32(black_box(&block)));
    });

    // Write side: appends into a fresh segment (flushed once at the end),
    // and two-sync WAL commits of one append record each.
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let mut fresh = create_shard_segment(scratch.join("probe.seg"), DEFAULT_PAGE_SIZE, 64)
        .map_err(|e| format!("creating a probe segment: {e}"))?;
    let appends = walks.len().min(2_000);
    let t = Instant::now();
    for walk in &walks[..appends] {
        fresh.append(walk).map_err(|e| e.to_string())?;
    }
    fresh.flush().map_err(|e| e.to_string())?;
    let append_ns = t.elapsed().as_nanos() as f64 / appends.max(1) as f64;

    let mut wal = create_wal_file(scratch.join("probe.wal"), DEFAULT_PAGE_SIZE)
        .map_err(|e| format!("creating a probe WAL: {e}"))?;
    let commits = walks.len().min(effort.iters(300));
    let t = Instant::now();
    for (id, walk) in walks[..commits].iter().enumerate() {
        wal.append_commit(&WalRecord::AppendSequence {
            id: id as u64,
            values: walk.clone(),
        })
        .map_err(|e| e.to_string())?;
    }
    let commit_ns = t.elapsed().as_nanos() as f64 / commits.max(1) as f64;
    let wal_ratio = wal.committed_bytes() as f64 / (8 * commits * spec.seq_len).max(1) as f64;

    Ok(vec![
        metric("storage.read_raw_ns", read_raw, "ns"),
        metric("storage.read_checksum_ns", read_checksum, "ns"),
        metric("storage.read_retry_ns", read_retry, "ns"),
        metric("storage.pool_hit_ns", pool_hit, "ns"),
        metric("storage.pool_miss_ns", pool_miss, "ns"),
        metric("storage.get_hit_us", get_hit / 1e3, "us"),
        metric("storage.get_miss_us", get_miss / 1e3, "us"),
        metric("storage.crc32_mb_s", 1e9 / crc_ns, "MB/s"),
        metric("storage.append_us", append_ns / 1e3, "us"),
        metric("storage.wal_commit_us", commit_ns / 1e3, "us"),
        metric("storage.wal_bytes_per_user_byte", wal_ratio, "ratio"),
    ])
}

/// The governor in isolation: one uncontended admit/release on the gate and
/// arming a deadline budget into a live token.
pub fn govern(effort: Effort) -> Vec<Metric> {
    let gate = AdmissionGate::new(4, 16);
    let admit = ns_per(effort.iters(200_000), |_| {
        if let Admission::Granted(permit) = gate.admit() {
            drop(black_box(permit));
        }
    });
    let budget = QueryBudget::new().deadline(std::time::Duration::from_secs(30));
    let arm = ns_per(effort.iters(200_000), |_| {
        black_box(budget.arm());
    });
    vec![
        metric("govern.admit_ns", admit, "ns"),
        metric("govern.budget_arm_ns", arm, "ns"),
    ]
}

/// The TWNP codec in isolation, on this workload's own request and a reply
/// the server really sent.
pub fn net_codec(
    query: &[f64],
    kind: OpKind,
    reply: &QueryResponse,
    effort: Effort,
) -> Vec<Metric> {
    let iters = effort.iters(20_000);
    let req = request(query, kind);
    let encode_request = ns_per(iters, |_| {
        let (kind, payload) = black_box(&req).encode();
        black_box(
            encode_frame(kind, &payload, DEFAULT_MAX_PAYLOAD)
                .map(|b| b.len())
                .ok(),
        );
    });
    let (frame_kind, payload) = req.encode();
    let bytes = encode_frame(frame_kind, &payload, DEFAULT_MAX_PAYLOAD).unwrap_or_default();
    let decode_request = ns_per(iters, |_| {
        if let Ok((frame, _)) = decode_frame(black_box(&bytes), DEFAULT_MAX_PAYLOAD) {
            black_box(QueryRequest::decode(frame.kind, &frame.payload).is_ok());
        }
    });
    let encode_response = ns_per(iters, |_| {
        let payload = black_box(reply).encode();
        black_box(
            encode_frame(FrameKind::Response, &payload, DEFAULT_MAX_PAYLOAD)
                .map(|b| b.len())
                .ok(),
        );
    });
    let reply_bytes =
        encode_frame(FrameKind::Response, &reply.encode(), DEFAULT_MAX_PAYLOAD).unwrap_or_default();
    let decode_response = ns_per(iters, |_| {
        if let Ok((frame, _)) = decode_frame(black_box(&reply_bytes), DEFAULT_MAX_PAYLOAD) {
            black_box(QueryResponse::decode(&frame.payload).is_ok());
        }
    });
    vec![
        metric("net.encode_request_ns", encode_request, "ns"),
        metric("net.decode_request_ns", decode_request, "ns"),
        metric("net.encode_response_ns", encode_response, "ns"),
        metric("net.decode_response_ns", decode_response, "ns"),
    ]
}

/// The ingest layer: CPU cost of an append with the WAL in memory (no
/// fsync), one checkpoint fold, pinning a snapshot, a snapshot range query
/// over a non-empty tail, WAL volume per append, and a file-backed reopen.
pub fn ingest(
    spec: &Spec,
    scratch: &Path,
    walks: &[Vec<f64>],
    queries: &[Vec<f64>],
    threads: usize,
    effort: Effort,
) -> Result<Vec<Metric>, String> {
    let n = walks.len().min(2_000);
    let half = n / 2;
    let memory = ConcurrentIngest::in_memory();
    let mut writer = memory.writer().map_err(|e| e.to_string())?;
    let t = Instant::now();
    for walk in &walks[..half] {
        writer.append(walk).map_err(|e| e.to_string())?;
    }
    let append_ns = t.elapsed().as_nanos() as f64 / half.max(1) as f64;
    let wal_bytes_per_append = memory.wal_committed_bytes() as f64 / half.max(1) as f64;
    let t = Instant::now();
    writer.checkpoint().map_err(|e| e.to_string())?;
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    for walk in &walks[half..n] {
        writer.append(walk).map_err(|e| e.to_string())?;
    }
    let snapshot_ns = ns_per(effort.iters(100_000), |_| {
        black_box(memory.snapshot().len());
    });
    let opts = engine_opts(threads);
    let reads = queries.len().min(64);
    let mut failed = None;
    let reader_ns = ns_per(reads, |i| {
        if let Err(e) = run_snapshot(&memory.snapshot(), &queries[i], spec.epsilon, &opts) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(format!("ingest probe query: {e}"));
    }
    drop(writer);

    // Reopen: a file-backed ingest, two checkpoints folded and a tail of
    // acknowledged appends still in the WAL for recovery to replay.
    let dir = scratch.join("probe-ingest");
    let files = create_ingest(&dir)?;
    let quarter = (n / 4).max(1);
    let written = append_phase(
        &files,
        (0, &walks[..(3 * quarter).min(n) - quarter / 2]),
        quarter,
        None,
    );
    if written.failures.count > 0 {
        return Err(format!(
            "ingest probe appends: {:?}",
            written.failures.first
        ));
    }
    drop(files);
    let (reopened, reopen_ms) = reopen_ingest(&dir)?;
    if reopened.len() as u64 != written.acked {
        return Err(format!(
            "ingest probe reopened {} of {} acknowledged append(s)",
            reopened.len(),
            written.acked
        ));
    }

    Ok(vec![
        metric("ingest.append_us", append_ns / 1e3, "us"),
        metric("ingest.checkpoint_ms", checkpoint_ms, "ms"),
        metric("ingest.snapshot_ns", snapshot_ns, "ns"),
        metric("ingest.reader_query_ms", reader_ns / 1e6, "ms"),
        metric("ingest.wal_bytes_per_append", wal_bytes_per_append, "B"),
        metric("ingest.reopen_ms", reopen_ms, "ms"),
    ])
}
