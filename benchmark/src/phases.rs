//! The two measured phases every workload runs: a time-bounded read phase
//! (range and kNN ops, latency per class) and a fixed-count append phase
//! through the WAL-backed ingest.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tw_core::search::EngineOpts;
use tw_core::{ConcurrentIngest, QueryStats, SharedConcurrentIngest};
use tw_storage::Crc32;

use crate::corpus::{INGEST_DB, INGEST_INDEX, INGEST_WAL};
use crate::exec::{run_snapshot, Answer, OpKind};
use crate::workload::Spec;

/// At most this many failure messages are kept for the report.
const KEPT_FAILURES: usize = 5;

#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn record(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < KEPT_FAILURES {
            self.first.push(what);
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        for what in other.first {
            if self.first.len() < KEPT_FAILURES {
                self.first.push(what);
            }
        }
    }
}

/// What a stretch of the read phase produced.
#[derive(Debug, Default)]
pub struct ReadSamples {
    pub range_ms: Vec<f64>,
    pub knn_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
    /// `(op index, answer)` for the counted prefix.
    pub counted: Vec<(usize, Answer)>,
}

impl ReadSamples {
    pub fn absorb(&mut self, other: ReadSamples) {
        self.range_ms.extend(other.range_ms);
        self.knn_ms.extend(other.knn_ms);
        self.attempted += other.attempted;
        self.failures.absorb(other.failures);
        self.counted.extend(other.counted);
    }
}

/// The kind and query of read op `op`: the op list cycles through the pool.
pub fn read_op<'a>(spec: &Spec, queries: &'a [Vec<f64>], op: usize) -> (OpKind, &'a [f64]) {
    let kind = if spec.is_knn(op) {
        OpKind::Knn { k: spec.knn_k }
    } else {
        OpKind::Range {
            epsilon: spec.epsilon,
        }
    };
    (kind, &queries[op % queries.len()])
}

/// Runs `ops` in order until both the counted prefix is done and `budget`
/// has elapsed since `started`. Closed loop: the next op starts when the
/// previous one returned.
pub fn read_loop(
    spec: &Spec,
    queries: &[Vec<f64>],
    ops: impl Iterator<Item = usize>,
    (started, budget): (Instant, Duration),
    mut exec: impl FnMut(OpKind, &[f64]) -> Result<Answer, String>,
) -> ReadSamples {
    let mut out = ReadSamples::default();
    for op in ops {
        if op >= spec.counted_ops && started.elapsed() >= budget {
            break;
        }
        let (kind, query) = read_op(spec, queries, op);
        let t = Instant::now();
        let result = exec(kind, query);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match result {
            Ok(answer) => {
                match kind {
                    OpKind::Range { .. } => out.range_ms.push(ms),
                    OpKind::Knn { .. } => out.knn_ms.push(ms),
                }
                if op < spec.counted_ops {
                    out.counted.push((op, answer));
                }
            }
            Err(e) => out.failures.record(format!("read op {op}: {e}")),
        }
    }
    out
}

/// The exact, seed-determined part of a read phase: a CRC over every counted
/// op's `(index, sorted ids)` and the summed `QueryStats` counters.
pub struct Counted {
    pub answers_crc32: u32,
    pub matches: u64,
    pub stats: QueryStats,
}

pub fn fold_counted(counted: &mut [(usize, Answer)]) -> Counted {
    counted.sort_by_key(|(op, _)| *op);
    let mut crc = Crc32::new();
    let mut matches = 0u64;
    let mut stats = QueryStats::default();
    for (op, answer) in counted.iter() {
        let mut ids: Vec<u64> = answer.hits.iter().map(|h| h.0).collect();
        ids.sort_unstable();
        crc.update(&(*op as u64).to_le_bytes());
        crc.update(&(ids.len() as u64).to_le_bytes());
        for id in &ids {
            crc.update(&id.to_le_bytes());
        }
        matches += ids.len() as u64;
        stats.merge(&answer.stats);
    }
    Counted {
        answers_crc32: crc.finalize(),
        matches,
        stats,
    }
}

#[derive(Debug, Default)]
pub struct AppendSamples {
    pub append_us: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub wall_s: f64,
    /// Appends whose call returned `Ok` — each must survive a reopen.
    pub acked: u64,
    pub attempted: u64,
    pub failures: Failures,
    /// The snapshot reader's samples (empty without a reader) and how long
    /// it ran for.
    pub reader: ReadSamples,
    pub reader_wall_s: f64,
}

/// The reader is a closed-loop client with think time: it waits this long
/// after each reply. A reader that is busy half the time (3 ms pauses around
/// 3 ms queries) or more shares this machine's two cores with the writer and
/// the kernel's block-I/O threads badly enough that, for minutes at a time,
/// one append in fifteen waits 1-3 ms for a processor after its fsync —
/// `append_p95_us` five times higher, `appends_per_s` 40 % lower, same binary.
/// At a quarter duty that regime has not been seen.
const READER_THINK: Duration = Duration::from_millis(10);

impl AppendSamples {
    pub fn absorb(&mut self, other: AppendSamples) {
        self.append_us.extend(other.append_us);
        self.checkpoint_ms.extend(other.checkpoint_ms);
        self.wall_s += other.wall_s;
        self.acked += other.acked;
        self.attempted += other.attempted;
        self.failures.absorb(other.failures);
        self.reader.absorb(other.reader);
        self.reader_wall_s += other.reader_wall_s;
    }
}

/// Snapshot range queries run beside the writer until it finishes.
pub struct Reader<'a> {
    pub queries: &'a [Vec<f64>],
    pub epsilon: f64,
    pub opts: &'a EngineOpts,
}

/// One writer appends `data` in order, checkpointing whenever the count of
/// appends — `already` of them made by earlier calls — reaches a multiple of
/// `checkpoint_every`; with a `reader`, one more thread pins a fresh
/// snapshot, range-queries it and pauses [`READER_THINK`], until the writer
/// is done.
pub fn append_phase(
    ingest: &SharedConcurrentIngest,
    (already, data): (usize, &[Vec<f64>]),
    checkpoint_every: usize,
    reader: Option<Reader<'_>>,
) -> AppendSamples {
    let mut out = AppendSamples::default();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader_thread = reader.map(|r| {
            let done = &done;
            scope.spawn(move || {
                let mut samples = ReadSamples::default();
                let mut op = 0usize;
                let started = Instant::now();
                while !done.load(Ordering::Acquire) {
                    let query = &r.queries[op % r.queries.len()];
                    let t = Instant::now();
                    let result = run_snapshot(&ingest.snapshot(), query, r.epsilon, r.opts);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    samples.attempted += 1;
                    match result {
                        Ok(_) => samples.range_ms.push(ms),
                        Err(e) => samples.failures.record(format!("reader op {op}: {e}")),
                    }
                    op += 1;
                    std::thread::sleep(READER_THINK);
                }
                (samples, started.elapsed().as_secs_f64())
            })
        });

        // The first 5 % of the appends are warm-up: acknowledged and counted,
        // but outside the latency sample and the wall clock, so the disk and
        // the scheduler have settled into the phase before it is timed.
        let warmup = data.len() / 20;
        let mut started = Instant::now();
        match ingest.writer() {
            Err(e) => out.failures.record(format!("claiming the writer: {e}")),
            Ok(mut writer) => {
                for (i, values) in data.iter().enumerate() {
                    if i == warmup {
                        started = Instant::now();
                    }
                    let t = Instant::now();
                    let result = writer.append(values);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    out.attempted += 1;
                    match result {
                        Ok(_) => {
                            if i >= warmup {
                                out.append_us.push(us);
                            }
                            out.acked += 1;
                        }
                        Err(e) => out.failures.record(format!("append {i}: {e}")),
                    }
                    if (already + i + 1) % checkpoint_every == 0 {
                        let t = Instant::now();
                        match writer.checkpoint() {
                            Ok(_) => out.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3),
                            Err(e) => out.failures.record(format!("checkpoint at {i}: {e}")),
                        }
                    }
                }
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        if let Some(handle) = reader_thread {
            match handle.join() {
                Ok((samples, wall_s)) => (out.reader, out.reader_wall_s) = (samples, wall_s),
                Err(_) => out
                    .failures
                    .record("the reader thread panicked".to_string()),
            }
        }
    });
    out
}

pub fn create_ingest(dir: &Path) -> Result<SharedConcurrentIngest, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    ConcurrentIngest::create_file(
        dir.join(INGEST_DB),
        dir.join(INGEST_WAL),
        dir.join(INGEST_INDEX),
    )
    .map_err(|e| format!("creating the ingest files: {e}"))
}

/// Reopens the ingest files — store recovery, WAL replay of the
/// un-checkpointed tail, index load or rebuild — and returns the ingest with
/// the time that took, in milliseconds.
pub fn reopen_ingest(dir: &Path) -> Result<(SharedConcurrentIngest, f64), String> {
    let t = Instant::now();
    let (ingest, _recovery) = ConcurrentIngest::open_file(
        dir.join(INGEST_DB),
        dir.join(INGEST_WAL),
        dir.join(INGEST_INDEX),
    )
    .map_err(|e| format!("reopening the ingest files: {e}"))?;
    Ok((ingest, t.elapsed().as_secs_f64() * 1e3))
}
