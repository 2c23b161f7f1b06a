//! The measured run: set-up, warm-up, the read and append phases with
//! tracing off, answer checks, and the end-to-end metrics.

use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tw_core::search::{EngineOpts, TwSimSearch};
use tw_core::SystemClock;
use tw_net::{Client, ClientConfig, Server, ServerConfig, TenantQos};
use tw_storage::{open_sequence_file, DEFAULT_PAGE_SIZE};

use crate::corpus::{
    build_ingest_base, build_sharded, open_sharded, timed_builds, Scratch, BUILD_REPEATS,
    INGEST_DB, INGEST_INDEX,
};
use crate::exec::{
    engine_opts, request, run_flat_knn, run_served, run_sharded, run_snapshot, Answer, OpKind,
    Sharded, ShardedService,
};
use crate::json::Json;
use crate::oracle::Expect;
use crate::phases::{
    append_phase, create_ingest, fold_counted, read_loop, read_op, reopen_ingest, AppendSamples,
    Counted, Failures, ReadSamples, Reader,
};
use crate::stats::{median, Latencies};
use crate::workload::{append_sequences, for_each_corpus_sequence, queries, Access, Spec};

/// Share of `--seconds` the time-bounded read phase gets; the rest is left
/// for the fixed-count phase beside it.
const READ_SHARE: f64 = 0.75;
/// The corpus workloads alternate read and append slices this many times,
/// so that each phase samples the machine at many moments of the run: on
/// this VM a two-fsync append lands in one of two regimes ~20 % apart that
/// last a second or two, and a few long append slices would each sit in a
/// single one — `append_p95_us` then says how many of them drew the slow
/// regime.
const PHASE_SLICES: usize = 20;
/// The ingest workload's kNN phase over the reopened store.
const INGEST_KNN_SHARE: f64 = 0.25;
/// Operations the oracle brute-forces per run, outside the timed window.
pub const ORACLE_OPS: usize = 8;

/// Every end-to-end metric a measured run reports, in order: name, unit,
/// which direction is better, and the share of the parent's median by which
/// it may worsen before a change counts as a regression. `BENCHMARK.json`
/// lists exactly these.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.20),
    ("query_p95_ms", "ms", "lower", 0.25),
    ("knn_p50_ms", "ms", "lower", 0.20),
    ("knn_p95_ms", "ms", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.15),
    ("append_p50_us", "us", "lower", 0.25),
    ("append_p95_us", "us", "lower", 0.25),
    ("appends_per_s", "1/s", "higher", 0.25),
    ("rss_mb", "MB", "lower", 0.20),
    ("bytes_per_user_byte", "ratio", "lower", 0.01),
];

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub threads: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run (measured or traced) hands to the report.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Seed-determined values `compare` requires to be identical.
    pub exact: Vec<(String, u64)>,
    /// Sizes, sample counts and timing detail; informational.
    pub info: Vec<(String, Json)>,
    pub attempted: u64,
    pub failures: Failures,
}

impl Outcome {
    pub fn info(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    pub fn exact(&mut self, key: &str, value: u64) {
        self.exact.push((key.to_string(), value));
    }
}

/// Set-up time and its parts, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub builds: Vec<f64>,
    pub open: f64,
    pub warmup: f64,
}

impl SetupTimes {
    /// Median build + open (pre-warm included) + warm-up pass.
    pub fn total(&self) -> f64 {
        median(&mut self.builds.clone()) + self.open + self.warmup
    }

    fn describe(&self) -> Json {
        Json::obj(vec![
            (
                "build_s",
                Json::Arr(self.builds.iter().map(|&b| Json::Num(b)).collect()),
            ),
            ("open_s", Json::Num(self.open)),
            ("warmup_s", Json::Num(self.warmup)),
        ])
    }
}

/// A sharded corpus built, opened and pre-warmed — what the three in-process
/// query workloads and the served one run against.
pub struct CorpusFixture {
    pub sharded: Arc<Sharded>,
    pub queries: Vec<Vec<f64>>,
    pub setup: SetupTimes,
}

pub fn setup_corpus(cfg: &RunConfig, dir: &Path, builds: usize) -> Result<CorpusFixture, String> {
    let corpus_dir = dir.join("corpus");
    let builds = timed_builds(&corpus_dir, builds, |target| {
        build_sharded(&cfg.spec, cfg.seed, target)
    })?;
    let t = Instant::now();
    let sharded = Arc::new(open_sharded(&cfg.spec, &corpus_dir)?);
    let open = t.elapsed().as_secs_f64();
    Ok(CorpusFixture {
        sharded,
        queries: queries(&cfg.spec, cfg.seed),
        setup: SetupTimes {
            builds,
            open,
            warmup: 0.0,
        },
    })
}

/// The warm-up pass: the first 5 % of the counted ops, untimed per op.
pub fn warmup_ops(spec: &Spec) -> usize {
    (spec.counted_ops / 20).max(1)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let scratch = Scratch::create()?;
    let mut out = Outcome::default();
    out.info("workload", describe_spec(cfg));
    match cfg.spec.access {
        Access::InProcess | Access::Served => run_corpus(cfg, &scratch, &mut out)?,
        Access::Ingest => run_ingest(cfg, &scratch, &mut out)?,
    }
    Ok(out)
}

pub fn describe_spec(cfg: &RunConfig) -> Json {
    let spec = &cfg.spec;
    Json::obj(vec![
        ("sequences", Json::uint(spec.sequences as u64)),
        ("seq_len", Json::uint(spec.seq_len as u64)),
        ("shards", Json::uint(spec.shards as u64)),
        (
            "pool_pages_per_shard",
            spec.pool_pages
                .map_or(Json::str("whole segment, pre-warmed"), |p| {
                    Json::uint(p as u64)
                }),
        ),
        ("epsilon", Json::Num(spec.epsilon)),
        ("knn_k", Json::uint(spec.knn_k as u64)),
        ("range_per_knn", Json::uint(spec.range_per_knn as u64)),
        ("query_pool", Json::uint(spec.query_pool as u64)),
        ("counted_ops", Json::uint(spec.counted_ops as u64)),
        ("appends", Json::uint(spec.appends_for(cfg.seconds) as u64)),
        ("checkpoint_every", Json::uint(spec.checkpoint_every as u64)),
    ])
}

/// The closed-loop caller of the read phase: the next op starts when the
/// previous one returned.
enum Caller<'a> {
    InProcess {
        sharded: &'a Sharded,
        opts: &'a EngineOpts,
    },
    Served(Client<TcpStream>),
}

impl Caller<'_> {
    fn exec(&mut self, kind: OpKind, query: &[f64]) -> Result<Answer, String> {
        match self {
            Caller::InProcess { sharded, opts } => run_sharded(sharded, query, kind, opts),
            Caller::Served(client) => run_served(client, &request(query, kind)),
        }
    }
}

fn run_corpus(cfg: &RunConfig, scratch: &Scratch, out: &mut Outcome) -> Result<(), String> {
    let spec = &cfg.spec;
    let mut fixture = setup_corpus(cfg, scratch.path(), BUILD_REPEATS)?;
    let opts = engine_opts(cfg.threads);

    let mut server = None;
    let mut caller = match spec.access {
        Access::Served => {
            let t = Instant::now();
            let bound = server.insert(start_server(&fixture.sharded, cfg.threads)?);
            let client = connect(&bound.local_addr().to_string())?;
            fixture.setup.open += t.elapsed().as_secs_f64();
            Caller::Served(client)
        }
        _ => Caller::InProcess {
            sharded: &fixture.sharded,
            opts: &opts,
        },
    };
    let t = Instant::now();
    for op in 0..warmup_ops(spec) {
        let (kind, query) = read_op(spec, &fixture.queries, op);
        caller.exec(kind, query)?;
    }
    fixture.setup.warmup = t.elapsed().as_secs_f64();
    fixture.sharded.reset_pool_stats();

    // The measured phases, in `PHASE_SLICES` alternating slices: a share of
    // the read budget, then a share of the appends into a fresh WAL-backed
    // ingest beside the corpus.
    let side_dir = scratch.path().join("ingest");
    let appended = append_sequences(spec, cfg.seed, spec.appends_for(cfg.seconds));
    let side = create_ingest(&side_dir)?;
    let slice_budget = Duration::from_secs_f64(cfg.seconds * READ_SHARE / PHASE_SLICES as f64);
    let mut ops = 0..;
    let mut samples = ReadSamples::default();
    let mut read_wall = 0.0;
    let mut appends = AppendSamples::default();
    let chunk_len = appended.len().div_ceil(PHASE_SLICES).max(1);
    for (i, chunk) in appended.chunks(chunk_len).enumerate() {
        let started = Instant::now();
        samples.absorb(read_loop(
            spec,
            &fixture.queries,
            &mut ops,
            (started, slice_budget),
            |kind, q| caller.exec(kind, q),
        ));
        read_wall += started.elapsed().as_secs_f64();
        appends.absorb(append_phase(
            &side,
            (i * chunk_len, chunk),
            spec.checkpoint_every,
            None,
        ));
    }
    drop(caller);
    drop(side);
    let rss_mb = rss_mb();
    let scratch_bytes = scratch.bytes();

    if let Some(server) = server {
        let drained = server.drain();
        if !drained.server.ledger_balanced() {
            samples
                .failures
                .record(format!("server ledger unbalanced: {:?}", drained.server));
        }
        let unanswered = drained.server.frames_shed
            + drained.server.error_replies
            + drained.server.slow_client_drops
            + drained.server.io_drops
            + drained.server.bad_frames;
        out.info("server_frames_read", Json::uint(drained.server.frames_read));
        out.info("server_frames_not_answered", Json::uint(unanswered));
    }

    // Out-of-core witness: the pools were too small to hold what was read.
    let pool_misses = fixture.sharded.pool_misses();
    if let Some(pages) = spec.pool_pages {
        let resident = (fixture.sharded.shard_count() * pages) as u64;
        out.info("pool_misses", Json::uint(pool_misses));
        out.info("resident_frames", Json::uint(resident));
        if pool_misses <= resident {
            samples.failures.record(format!(
                "not out of core: {pool_misses} pool miss(es) against {resident} resident frame(s)"
            ));
        }
    }

    // Everything below is outside the timed window.
    let (reopened, _) = reopen_ingest(&side_dir)?;
    let lost = appends.acked.saturating_sub(reopened.len() as u64);
    drop(reopened);

    let counted = fold_counted(&mut samples.counted);
    let oracle_failures = check_against_oracle(cfg, &fixture.queries, &samples.counted, &[]);

    let user_values = (spec.sequences * spec.seq_len + appended.len() * spec.seq_len) as f64;
    report(
        out,
        Measured {
            setup: fixture.setup,
            read: samples,
            read_wall,
            appends,
            lost_appends: lost,
            counted,
            counts_exact: matches!(spec.access, Access::InProcess),
            oracle_failures,
            rss_mb,
            bytes_per_user_byte: scratch_bytes as f64 / (8.0 * user_values),
        },
    );
    Ok(())
}

fn run_ingest(cfg: &RunConfig, scratch: &Scratch, out: &mut Outcome) -> Result<(), String> {
    let spec = &cfg.spec;
    let dir = scratch.path().join("ingest");
    let builds = timed_builds(&dir, BUILD_REPEATS, |target| {
        build_ingest_base(spec, cfg.seed, target)
    })?;
    let t = Instant::now();
    let (ingest, _) = reopen_ingest(&dir)?;
    let mut setup = SetupTimes {
        builds,
        open: t.elapsed().as_secs_f64(),
        warmup: 0.0,
    };
    if ingest.len() != spec.sequences {
        return Err(format!(
            "base store opened with {} sequence(s), built {}",
            ingest.len(),
            spec.sequences
        ));
    }
    let pool = queries(spec, cfg.seed);
    let opts = engine_opts(cfg.threads);
    // The reader shares the machine with the writer: it verifies on its own
    // thread, so writer + reader never run more threads than `nproc`.
    let reader_opts = engine_opts(1);
    let t = Instant::now();
    for query in pool.iter().take(warmup_ops(spec)) {
        run_snapshot(&ingest.snapshot(), query, spec.epsilon, &reader_opts)?;
    }
    setup.warmup = t.elapsed().as_secs_f64();

    // Phase 1: the writer appends through the WAL beside one snapshot reader.
    let appended = append_sequences(spec, cfg.seed, spec.appends_for(cfg.seconds));
    let mut appends = append_phase(
        &ingest,
        (0, &appended),
        spec.checkpoint_every,
        Some(Reader {
            queries: &pool,
            epsilon: spec.epsilon,
            opts: &reader_opts,
        }),
    );
    let mut read = std::mem::take(&mut appends.reader);
    let mut read_wall = appends.reader_wall_s;
    drop(ingest);

    // Phase 2: kNN over the store and index a restart finds on disk.
    let (reopened, reopen_ms) = reopen_ingest(&dir)?;
    out.info("reopen_ms", Json::Num(reopen_ms));
    let expected_len = spec.sequences as u64 + appends.acked;
    let lost = expected_len.saturating_sub(reopened.len() as u64);
    let oracle_ranges = final_snapshot_ranges(&reopened, spec, &pool, &opts)?;
    drop(reopened);
    let (store, _) = open_sequence_file(dir.join(INGEST_DB), DEFAULT_PAGE_SIZE, 256)
        .map_err(|e| format!("opening the ingested store: {e}"))?;
    let index = TwSimSearch::load_file(dir.join(INGEST_INDEX), Some(store.len()))
        .map_err(|e| format!("loading the ingested index: {e}"))?;
    let started = Instant::now();
    let knn = read_loop(
        spec,
        &pool,
        0..,
        (
            started,
            Duration::from_secs_f64(cfg.seconds * INGEST_KNN_SHARE),
        ),
        |kind, q| match kind {
            OpKind::Knn { k } => run_flat_knn(&store, &index, q, k, &opts),
            OpKind::Range { .. } => Err("the ingest workload's op list is kNN only".into()),
        },
    );
    read_wall += started.elapsed().as_secs_f64();
    read.absorb(knn);
    let rss_mb = rss_mb();
    let scratch_bytes = scratch.bytes();
    drop((store, index));

    let counted = fold_counted(&mut read.counted);
    let oracle_failures = check_against_oracle(cfg, &pool, &read.counted, &oracle_ranges);
    let user_values = ((spec.sequences + appended.len()) * spec.seq_len) as f64;
    report(
        out,
        Measured {
            setup,
            read,
            read_wall,
            appends,
            lost_appends: lost,
            counted,
            counts_exact: true,
            oracle_failures,
            rss_mb,
            bytes_per_user_byte: scratch_bytes as f64 / (8.0 * user_values),
        },
    );
    Ok(())
}

/// Range queries against the final snapshot of the reopened ingest — the
/// range half of the ingest workload's oracle ops, run outside any timed
/// window. Returns `(query index, answer)`.
fn final_snapshot_ranges(
    ingest: &tw_core::SharedConcurrentIngest,
    spec: &Spec,
    pool: &[Vec<f64>],
    opts: &EngineOpts,
) -> Result<Vec<(usize, Answer)>, String> {
    let snapshot = ingest.snapshot();
    (0..ORACLE_OPS / 2)
        .map(|i| {
            let q = (i * pool.len()) / (ORACLE_OPS / 2);
            run_snapshot(&snapshot, &pool[q], spec.epsilon, opts).map(|a| (q, a))
        })
        .collect()
}

pub fn start_server(sharded: &Arc<Sharded>, threads: usize) -> Result<Server, String> {
    Server::bind(
        "127.0.0.1:0",
        Arc::new(ShardedService {
            sharded: Arc::clone(sharded),
            threads,
        }),
        ServerConfig {
            // Wide enough that a closed-loop client is never shed.
            default_qos: TenantQos {
                max_concurrent: 4,
                max_queued: 16,
            },
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("binding the server: {e}"))
}

pub fn connect(addr: &str) -> Result<Client<TcpStream>, String> {
    Client::connect(addr, Arc::new(SystemClock::new()), ClientConfig::default())
        .map_err(|e| format!("connecting to {addr}: {e}"))
}

/// Which counted ops the oracle re-answers: spread over the prefix, offset
/// by the seed, with every other pick moved to a kNN op when there is one.
fn oracle_picks(spec: &Spec, seed: u64, wanted: usize) -> Vec<usize> {
    let counted = spec.counted_ops;
    let stride = (counted / wanted).max(1);
    let mut picks: Vec<usize> = Vec::new();
    for j in 0..wanted.min(counted) {
        let mut op = (j * stride + (seed as usize % stride)) % counted;
        if j % 2 == 1 {
            if let Some(knn) = (op..counted).chain(0..op).find(|&o| spec.is_knn(o)) {
                op = knn;
            }
        }
        if !picks.contains(&op) {
            picks.push(op);
        }
    }
    picks
}

/// Brute-forces [`ORACLE_OPS`] operations with the independent oracle and
/// returns one message per mismatch. `extra_ranges` are range answers taken
/// outside the counted prefix (the ingest workload's final-snapshot queries).
fn check_against_oracle(
    cfg: &RunConfig,
    pool: &[Vec<f64>],
    counted: &[(usize, Answer)],
    extra_ranges: &[(usize, Answer)],
) -> Vec<String> {
    let spec = &cfg.spec;
    let mut failures = Vec::new();
    let mut checks: Vec<(String, Expect, &Answer)> = Vec::new();
    for op in oracle_picks(spec, cfg.seed, ORACLE_OPS - extra_ranges.len()) {
        let Some((_, answer)) = counted.iter().find(|(o, _)| *o == op) else {
            failures.push(format!("oracle: counted op {op} has no answer"));
            continue;
        };
        let (kind, query) = read_op(spec, pool, op);
        let expect = match kind {
            OpKind::Range { epsilon } => Expect::range(query.to_vec(), epsilon),
            OpKind::Knn { k } => Expect::knn(query.to_vec(), k),
        };
        checks.push((format!("op {op} ({kind:?})"), expect, answer));
    }
    for (q, answer) in extra_ranges {
        checks.push((
            format!("final-snapshot range on query {q}"),
            Expect::range(pool[*q].clone(), spec.epsilon),
            answer,
        ));
    }

    let mut next_id = 0u64;
    let mut feed = |values: &[f64]| {
        for (_, expect, _) in &mut checks {
            expect.visit(next_id, values);
        }
        next_id += 1;
    };
    for_each_corpus_sequence(spec, cfg.seed, |_, walk| {
        feed(walk);
        Ok(())
    })
    .expect("visiting never fails");
    if spec.access == Access::Ingest {
        for walk in append_sequences(spec, cfg.seed, spec.appends_for(cfg.seconds)) {
            feed(&walk);
        }
    }

    for (what, expect, answer) in &checks {
        let same = expect.answer().len() == answer.hits.len()
            && expect
                .answer()
                .iter()
                .zip(&answer.hits)
                .all(|(e, g)| e.0 == g.0 && e.1.to_bits() == g.1.to_bits());
        if !same {
            failures.push(format!(
                "oracle mismatch on {what}: expected {} hit(s) {:?}…, got {} {:?}…",
                expect.answer().len(),
                expect.answer().iter().take(3).collect::<Vec<_>>(),
                answer.hits.len(),
                answer.hits.iter().take(3).collect::<Vec<_>>(),
            ));
        }
    }
    failures
}

/// VmRSS of this process in MB, from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Measured {
    setup: SetupTimes,
    read: ReadSamples,
    read_wall: f64,
    appends: AppendSamples,
    lost_appends: u64,
    counted: Counted,
    /// Whether the `QueryStats` counts of the counted prefix repeat exactly
    /// (in process) or only the answers do (the server's connection threads
    /// share the per-store I/O ledgers the counts pass through).
    counts_exact: bool,
    oracle_failures: Vec<String>,
    rss_mb: f64,
    bytes_per_user_byte: f64,
}

fn report(out: &mut Outcome, m: Measured) {
    let range = Latencies::new(m.read.range_ms);
    let knn = Latencies::new(m.read.knn_ms);
    let append = Latencies::new(m.appends.append_us);
    let read_ops = (range.count() + knn.count()) as f64;

    let values = [
        m.setup.total(),
        range.at(0.50),
        range.at(0.95),
        knn.at(0.50),
        knn.at(0.95),
        read_ops / m.read_wall,
        append.at(0.50),
        append.at(0.95),
        append.count() as f64 / m.appends.wall_s,
        m.rss_mb,
        m.bytes_per_user_byte,
    ];
    out.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| metric(name, value, unit))
        .collect();

    out.attempted = m.read.attempted + m.appends.attempted + ORACLE_OPS as u64;
    out.failures.absorb(m.read.failures);
    out.failures.absorb(m.appends.failures);
    for _ in 0..m.lost_appends {
        out.failures
            .record("an acknowledged append was missing after reopen".to_string());
    }
    for failure in m.oracle_failures {
        out.failures.record(failure);
    }

    out.exact("answers_crc32", u64::from(m.counted.answers_crc32));
    out.exact("matches", m.counted.matches);
    out.exact("acked_appends", m.appends.acked);
    if m.counts_exact {
        let s = &m.counted.stats;
        for (name, value) in [
            ("candidates", s.candidates),
            ("verified", s.verified),
            ("abandoned", s.abandoned),
            ("dtw_cells", s.dtw_cells),
            ("pager_reads", s.pager_reads),
            ("index_internal_accesses", s.index_internal_accesses),
            ("index_leaf_accesses", s.index_leaf_accesses),
        ] {
            out.exact(name, value);
        }
    }

    out.info("setup", m.setup.describe());
    out.info("read_wall_s", Json::Num(m.read_wall));
    out.info("append_wall_s", Json::Num(m.appends.wall_s));
    out.info(
        "checkpoint_ms",
        Json::Arr(
            m.appends
                .checkpoint_ms
                .iter()
                .map(|&c| Json::Num(c))
                .collect(),
        ),
    );
    for (class, lat, unit) in [
        ("query", &range, "ms"),
        ("knn", &knn, "ms"),
        ("append", &append, "us"),
    ] {
        out.info(&format!("{class}_samples"), Json::uint(lat.count() as u64));
        out.info(
            &format!("{class}_percentiles_{unit}"),
            Json::obj(
                [
                    ("p25", 0.25),
                    ("p50", 0.5),
                    ("p75", 0.75),
                    ("p90", 0.9),
                    ("p95", 0.95),
                    ("p99", 0.99),
                ]
                .iter()
                .map(|(name, p)| (*name, Json::Num(lat.at(*p))))
                .collect(),
            ),
        );
        if let Some((p, value)) = lat.tail() {
            out.info(
                &format!("{class}_highest_supported_tail"),
                Json::obj(vec![
                    ("percentile", Json::Num(p * 100.0)),
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit)),
                ]),
            );
        }
    }
}
