//! Command implementations. Every command works against the on-disk formats
//! (paged sequence store + serialized R-tree), so the CLI demonstrates the
//! full persistence path of the library.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tw_core::distance::DtwKind;
use tw_core::govern::{QueryBudget, Termination};
use tw_core::search::{
    CorpusSharder, EngineHealth, EngineOpts, NaiveScan, ResilientSearch, SearchEngine,
    ShardedSearch, SubsequenceIndex, TwSimSearch, WindowSpec,
};
use tw_core::{IngestHandle, SharedConcurrentIngest, TwError};
use tw_net::{
    Client, ClientConfig, QueryKind, QueryRequest, QueryService, Reply, Server, ServerConfig,
    ServiceOutcome, TenantQos, WireBudget, WireHealth,
};
use tw_rtree::{read_tree_file, RTree};
use tw_storage::{
    create_sequence_file, manifest_path, open_sequence_file, open_wal_file, DynSequenceStore,
    RecordFormat, RecoveryReport, SegmentPager, SyncPager, WalRecord,
};
use tw_workload::{
    cbf_dataset, generate_random_walks, generate_stocks, normalize_to_unit_range, RandomWalkConfig,
    StockConfig,
};

use crate::args::{Command, DataKind, QuerySource, USAGE};

/// A command failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn fail<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> CliError + '_ {
    move |e| CliError(format!("{context}: {e}"))
}

/// Opens a store through the auto-sniffing protective stack: plain v1 files
/// and checksummed v2 files both work, torn tails are recovered. The report
/// says whether recovery had to drop anything.
fn open_store(db: &Path) -> Result<(DynSequenceStore, RecoveryReport), CliError> {
    open_sequence_file(db, 1024, 256).map_err(fail(&format!("open {}", db.display())))
}

/// Prints a one-line warning when opening had to discard a damaged tail.
fn warn_recovery(report: &RecoveryReport, out: &mut dyn Write) -> Result<(), CliError> {
    if !report.is_clean() {
        writeln!(
            out,
            "warning: store tail was damaged; recovered {} of {} record(s)",
            report.recovered_records, report.expected_records
        )
        .map_err(fail("write"))?;
    }
    Ok(())
}

/// Buffer-pool frames each shard of a sharded corpus gets when `query` or
/// `serve` opens it.
const SHARD_POOL_PAGES: usize = 64;

fn load_index(path: &Path) -> Result<RTree<4>, CliError> {
    read_tree_file(path).map_err(fail(&format!("read index {}", path.display())))
}

/// Executes a parsed command, writing human-readable output to `out`.
pub fn run(command: Command, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        Command::Help => {
            writeln!(out, "{USAGE}").map_err(fail("write"))?;
            Ok(())
        }
        Command::Generate {
            kind,
            count,
            len,
            seed,
            out: path,
        } => generate(kind, count, len, seed, &path, out),
        Command::Index { db, out: path } => index(&db, &path, out),
        Command::Info { db, index } => info(&db, index.as_deref(), out),
        Command::Query {
            db,
            index,
            epsilon,
            source,
            knn,
            stats,
            deadline_ms,
            max_cells,
        } => {
            let budget = QueryOptions {
                knn,
                stats,
                deadline_ms,
                max_cells,
            };
            query(&db, index.as_deref(), epsilon, source, &budget, out)
        }
        Command::Align { db, a, b } => align(&db, a, b, out),
        Command::Subseq {
            db,
            epsilon,
            values,
            min_len,
            max_len,
        } => subseq(&db, epsilon, &values, min_len, max_len, out),
        Command::VerifyStore { db, index, wal } => {
            verify_store(&db, index.as_deref(), wal.as_deref(), out)
        }
        Command::Serve {
            db,
            index,
            addr,
            max_concurrent,
            max_queued,
            drain_after_ms,
        } => serve(
            &db,
            index.as_deref(),
            &addr,
            TenantQos {
                max_concurrent,
                max_queued,
            },
            drain_after_ms,
            out,
        ),
        Command::NetQuery {
            addr,
            epsilon,
            knn,
            values,
            tenant,
            deadline_ms,
            max_cells,
            stats,
        } => {
            let spec = NetQuerySpec {
                epsilon,
                knn,
                values,
                tenant,
                deadline_ms,
                max_cells,
                stats,
            };
            net_query(&addr, &spec, out)
        }
        Command::Ingest {
            db,
            wal,
            index,
            shards,
            kind,
            count,
            len,
            seed,
            checkpoint_every,
            readers,
            follow,
        } => {
            let spec = IngestSpec {
                kind,
                count,
                len,
                seed,
                checkpoint_every,
                readers,
                follow,
            };
            match (shards, wal, index) {
                (Some(n), _, _) => ingest_sharded(&db, n, &spec, out),
                (None, Some(wal), Some(index)) => ingest(&db, &wal, &index, &spec, out),
                // The parser enforces this; keep the error typed anyway.
                (None, _, _) => Err(CliError(
                    "ingest needs --wal and --index (or --shards)".into(),
                )),
            }
        }
    }
}

/// Full integrity sweep: open with recovery, decode every record (which
/// re-verifies page and record checksums end to end), and — when given — the
/// index file, reporting whether queries would degrade, and the write-ahead
/// log, reporting how many acknowledged appends a recovery would replay.
fn verify_store(
    db: &Path,
    index: Option<&Path>,
    wal: Option<&Path>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (store, report) = open_store(db)?;
    writeln!(out, "store        {}", db.display()).map_err(fail("write"))?;
    let page_format = match store.page_format_version() {
        2 => "v2 (per-page checksums)".to_string(),
        v => format!("v{v} (plain pages)"),
    };
    writeln!(out, "page format  {page_format}").map_err(fail("write"))?;
    let record_format = match store.record_format() {
        RecordFormat::V2 => "v2 (per-record checksums)",
        RecordFormat::V1 => "v1 (no checksums)",
    };
    writeln!(out, "records      {record_format}").map_err(fail("write"))?;
    let mut decoded = 0u64;
    store
        .scan_visit(|_, _| decoded += 1)
        .map_err(fail("decode sweep"))?;
    if report.is_clean() {
        writeln!(out, "integrity    OK: {decoded} record(s) decoded cleanly")
            .map_err(fail("write"))?;
    } else {
        writeln!(
            out,
            "integrity    RECOVERED: {} of {} record(s) readable ({} lost to a damaged tail)",
            report.recovered_records,
            report.expected_records,
            report.lost_records()
        )
        .map_err(fail("write"))?;
    }
    if let Some(index_path) = index {
        match TwSimSearch::load_file(index_path, Some(store.len())) {
            Ok(engine) => writeln!(
                out,
                "index        OK: {} entries, {} nodes, height {}",
                engine.len(),
                engine.tree().node_count(),
                engine.tree().height()
            )
            .map_err(fail("write"))?,
            Err(e) => writeln!(
                out,
                "index        UNUSABLE ({e}); queries will fall back to lb-scan"
            )
            .map_err(fail("write"))?,
        }
    }
    if let Some(wal_path) = wal {
        verify_wal(wal_path, store.len() as u64, out)?;
    }
    Ok(())
}

/// The `--wal` leg of `verify-store`: replays the committed extent in memory
/// (nothing is written back) and reports what a recovery would do. An
/// acknowledged append the store cannot anchor — an id gap — is data loss
/// and fails the command.
fn verify_wal(wal_path: &Path, store_len: u64, out: &mut dyn Write) -> Result<(), CliError> {
    let (wal, records, report) =
        open_wal_file(wal_path, 1024).map_err(fail(&format!("open wal {}", wal_path.display())))?;
    writeln!(out, "wal          {}", wal_path.display()).map_err(fail("write"))?;
    let tail = if report.uncommitted_tail_bytes == 0 {
        "tail clean".to_string()
    } else {
        format!(
            "{} unacknowledged tail byte(s) discarded",
            report.uncommitted_tail_bytes
        )
    };
    writeln!(
        out,
        "wal records  {} committed in {} byte(s); {tail}",
        wal.committed_records(),
        wal.committed_bytes(),
    )
    .map_err(fail("write"))?;
    let mut already_folded = 0u64;
    let mut pending = 0u64;
    let mut next = store_len;
    for record in &records {
        let WalRecord::AppendSequence { id, .. } = record else {
            continue;
        };
        if *id < store_len {
            already_folded += 1;
        } else if *id == next {
            pending += 1;
            next += 1;
        } else {
            writeln!(
                out,
                "wal replay   GAP: acknowledged append {id} beyond the recoverable extent {next}"
            )
            .map_err(fail("write"))?;
            return Err(CliError(
                "WAL acknowledges an append the store cannot anchor: acknowledged data was lost"
                    .into(),
            ));
        }
    }
    writeln!(
        out,
        "wal replay   {pending} append(s) pending, {already_folded} already folded"
    )
    .map_err(fail("write"))?;
    writeln!(
        out,
        "recoverable  {next} sequence(s) (store {store_len} + wal replay {pending})"
    )
    .map_err(fail("write"))?;
    Ok(())
}

/// The query engine behind `serve`: a sharded corpus fan-out or a flat
/// store with an R-tree, wrapped as a [`QueryService`] so every TWNP
/// request — range or kNN, with its wire budget compiled onto the server
/// clock — runs the same governed paths the local `query` command uses.
enum ServeBackend {
    Sharded(ShardedSearch<SegmentPager>),
    Flat(Box<FlatBackend>),
}

struct FlatBackend {
    store: DynSequenceStore,
    /// Range path when `--index` was given: degrades (never fails)
    /// if the index file cannot be trusted.
    resilient: Option<ResilientSearch>,
    /// Built at startup from the store; serves kNN always, and range
    /// when no index file was given.
    indexed: TwSimSearch,
}

struct EngineService {
    backend: ServeBackend,
}

impl EngineService {
    /// Opens the database the same way `query` does — a directory with a
    /// shard manifest fans out, anything else is a flat store — and
    /// returns a one-line description for the startup banner.
    fn open(db: &Path, index: Option<&Path>) -> Result<(Self, String), CliError> {
        if manifest_path(db).is_file() {
            let (sharded, reports) = ShardedSearch::open_dir(db, SHARD_POOL_PAGES)
                .map_err(fail(&format!("open sharded corpus {}", db.display())))?;
            let recovered = reports.iter().filter(|r| !r.is_clean()).count();
            let mut describe = format!(
                "sharded corpus {} ({} shard(s), {} sequence(s))",
                db.display(),
                sharded.shard_count(),
                sharded.total_sequences()
            );
            if recovered > 0 {
                describe.push_str(&format!("; {recovered} shard tail(s) recovered"));
            }
            return Ok((
                Self {
                    backend: ServeBackend::Sharded(sharded),
                },
                describe,
            ));
        }
        let (store, report) = open_store(db)?;
        let indexed = TwSimSearch::build(&store).map_err(fail("build index"))?;
        let resilient = index.map(|path| ResilientSearch::from_index_file(path, Some(store.len())));
        let mut describe = format!(
            "store {} ({} sequence(s), {})",
            db.display(),
            store.len(),
            match (index, &resilient) {
                (Some(path), _) => format!("index file {}", path.display()),
                _ => "index built at startup".to_string(),
            }
        );
        if !report.is_clean() {
            describe.push_str(&format!(
                "; tail recovered {} of {} record(s)",
                report.recovered_records, report.expected_records
            ));
        }
        Ok((
            Self {
                backend: ServeBackend::Flat(Box::new(FlatBackend {
                    store,
                    resilient,
                    indexed,
                })),
            },
            describe,
        ))
    }
}

impl QueryService for EngineService {
    fn execute(
        &self,
        request: &QueryRequest,
        budget: QueryBudget,
    ) -> Result<ServiceOutcome, TwError> {
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).budget(budget);
        match &self.backend {
            ServeBackend::Sharded(sharded) => match request.kind {
                QueryKind::Range { epsilon } => sharded
                    .range_search_sharded(&request.values, epsilon, &opts)
                    .map(|o| o.merged.into()),
                QueryKind::Knn { k } => sharded
                    .knn_sharded(
                        &request.values,
                        usize::try_from(k).unwrap_or(usize::MAX),
                        &opts,
                    )
                    .map(|o| o.merged.into()),
            },
            ServeBackend::Flat(flat) => match request.kind {
                QueryKind::Range { epsilon } => match &flat.resilient {
                    Some(engine) => engine
                        .range_search(&flat.store, &request.values, epsilon, &opts)
                        .map(Into::into),
                    None => flat
                        .indexed
                        .range_search(&flat.store, &request.values, epsilon, &opts)
                        .map(Into::into),
                },
                QueryKind::Knn { k } => flat
                    .indexed
                    .knn_governed(
                        &flat.store,
                        &request.values,
                        usize::try_from(k).unwrap_or(usize::MAX),
                        &opts,
                    )
                    .map(Into::into),
            },
        }
    }
}

/// `twsearch serve`: bind, serve until killed (or for `--drain-after-ms`),
/// then drain gracefully and print the reconciled frame ledger.
fn serve(
    db: &Path,
    index: Option<&Path>,
    addr: &str,
    qos: TenantQos,
    drain_after_ms: Option<u64>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (service, describe) = EngineService::open(db, index)?;
    let config = ServerConfig {
        default_qos: qos,
        ..ServerConfig::default()
    };
    let server =
        Server::bind(addr, Arc::new(service), config).map_err(fail(&format!("bind {addr}")))?;
    writeln!(out, "serving {describe}").map_err(fail("write"))?;
    writeln!(
        out,
        "listening on {} (tenant QoS: {} concurrent, {} queued)",
        server.local_addr(),
        qos.max_concurrent,
        qos.max_queued
    )
    .map_err(fail("write"))?;
    out.flush().map_err(fail("flush stdout"))?;
    match drain_after_ms {
        Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
        // Until killed; the OS reclaims everything on exit.
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    let report = server.drain();
    let s = &report.server;
    writeln!(
        out,
        "drained: {} frame(s) read; {} response(s), {} shed, {} error repl(ies), \
         {} slow-client drop(s), {} io drop(s), {} bad frame(s), {} panic(s)",
        s.frames_read,
        s.responses_sent,
        s.frames_shed,
        s.error_replies,
        s.slow_client_drops,
        s.io_drops,
        s.bad_frames,
        s.handler_panics
    )
    .map_err(fail("write"))?;
    if !s.ledger_balanced() {
        return Err(CliError(format!(
            "server frame ledger does not balance: {s:?}"
        )));
    }
    writeln!(
        out,
        "ledger balanced; {} connection(s) accepted, {} closed",
        s.connections_accepted, s.connections_closed
    )
    .map_err(fail("write"))?;
    Ok(())
}

/// The knobs of `net-query`, bundled to keep the call site readable.
struct NetQuerySpec {
    epsilon: Option<f64>,
    knn: Option<u32>,
    values: Vec<f64>,
    tenant: u32,
    deadline_ms: Option<u64>,
    max_cells: Option<u64>,
    stats: bool,
}

/// `twsearch net-query`: one request, one typed reply. A shed reply prints
/// the server's back-off hint; a typed server error fails the command.
fn net_query(addr: &str, spec: &NetQuerySpec, out: &mut dyn Write) -> Result<(), CliError> {
    let mut client = Client::connect(
        addr,
        Arc::new(tw_core::SystemClock::new()),
        ClientConfig::default(),
    )
    .map_err(fail(&format!("connect {addr}")))?;
    let kind = match (spec.epsilon, spec.knn) {
        (Some(epsilon), _) => QueryKind::Range { epsilon },
        (None, Some(k)) => QueryKind::Knn { k },
        // The parser enforces this; keep the error typed anyway.
        (None, None) => return Err(CliError("net-query needs --eps or --knn".into())),
    };
    let request = QueryRequest {
        tenant: spec.tenant,
        budget: WireBudget {
            deadline_ms: spec.deadline_ms.unwrap_or(0),
            max_cells: spec.max_cells.unwrap_or(0),
            max_candidate_bytes: 0,
            max_pager_reads: 0,
        },
        kind,
        values: spec.values.clone(),
    };
    match client.call(&request).map_err(fail("query"))? {
        Reply::Outcome(resp) => {
            if let WireHealth::Degraded { fallback, reason } = &resp.health {
                writeln!(out, "warning: degraded to {fallback}: {reason}")
                    .map_err(fail("write"))?;
            }
            warn_termination(&resp.termination, out)?;
            let what = match kind {
                QueryKind::Range { epsilon } => format!("within tolerance {epsilon}"),
                QueryKind::Knn { k } => format!("nearest (k = {k})"),
            };
            writeln!(out, "{} match(es) {what}:", resp.matches.len()).map_err(fail("write"))?;
            for m in &resp.matches {
                writeln!(out, "  id {:>6}  distance {:.4}", m.id, m.distance)
                    .map_err(fail("write"))?;
            }
            if spec.stats {
                write_query_stats(&resp.stats, out)?;
            }
            Ok(())
        }
        Reply::Shed(shed) => {
            writeln!(
                out,
                "shed by server: retry after {} ms (queue depth {}, {} shed total)",
                shed.retry_after_ms, shed.queue_depth, shed.shed_total
            )
            .map_err(fail("write"))?;
            Ok(())
        }
        Reply::Error(e) => Err(CliError(format!(
            "server error ({:?}): {}",
            e.code, e.message
        ))),
    }
}

fn subseq(
    db: &Path,
    epsilon: f64,
    values: &[f64],
    min_len: usize,
    max_len: usize,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (store, _) = open_store(db)?;
    let spec = WindowSpec::new(min_len, max_len, 2, 1).map_err(fail("window spec"))?;
    let index = SubsequenceIndex::build(&store, spec).map_err(fail("build window index"))?;
    let (matches, stats) = index
        .search(&store, values, epsilon, DtwKind::MaxAbs)
        .map_err(fail("subsequence query"))?;
    writeln!(
        out,
        "{} window(s) within tolerance {epsilon} (indexed {} windows, verified {}):",
        matches.len(),
        index.window_count(),
        stats.dtw_invocations
    )
    .map_err(fail("write"))?;
    for m in matches.iter().take(50) {
        writeln!(
            out,
            "  sequence {:>5}  [{:>5}..{:<5})  distance {:.4}",
            m.id,
            m.offset,
            m.offset + m.len,
            m.distance
        )
        .map_err(fail("write"))?;
    }
    if matches.len() > 50 {
        writeln!(out, "  ... and {} more", matches.len() - 50).map_err(fail("write"))?;
    }
    Ok(())
}

fn align(db: &Path, a: u64, b: u64, out: &mut dyn Write) -> Result<(), CliError> {
    let (store, _) = open_store(db)?;
    let sa = store.get(a).map_err(fail(&format!("load sequence {a}")))?;
    let sb = store.get(b).map_err(fail(&format!("load sequence {b}")))?;
    if sa.is_empty() || sb.is_empty() {
        return Err(CliError("cannot align empty sequences".into()));
    }
    let alignment = tw_core::Alignment::compute(&sa, &sb, DtwKind::MaxAbs);
    writeln!(
        out,
        "aligning sequence {a} (len {}) with sequence {b} (len {}):\n{}",
        sa.len(),
        sb.len(),
        alignment.render()
    )
    .map_err(fail("write"))?;
    Ok(())
}

/// The seeded corpus a `generate`/`ingest` run appends.
fn generate_data(kind: DataKind, count: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    match kind {
        DataKind::Walk => generate_random_walks(&RandomWalkConfig::paper(count, len), seed),
        DataKind::Stock => {
            let mut d = generate_stocks(
                &StockConfig {
                    count,
                    mean_len: len,
                    len_jitter: len / 4,
                },
                seed,
            );
            normalize_to_unit_range(&mut d, 1.0, 10.0);
            d
        }
        DataKind::Cbf => cbf_dataset(count, len, 0.2, seed)
            .into_iter()
            .map(|(_, s)| s)
            .collect(),
    }
}

fn generate(
    kind: DataKind,
    count: usize,
    len: usize,
    seed: u64,
    path: &Path,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let data = generate_data(kind, count, len, seed);
    let mut store = create_sequence_file(path, 1024, 256)
        .map_err(fail(&format!("create {}", path.display())))?;
    // Crash-test hook: abort the process (no flush, no cleanup) after N
    // appends, simulating a writer dying mid-ingest. Recovery on the next
    // open must cope with whatever state the file was left in.
    let crash_after: Option<usize> = std::env::var("TWSEARCH_CRASH_AFTER_APPENDS")
        .ok()
        .and_then(|v| v.parse().ok());
    for (appended, s) in data.iter().enumerate() {
        store.append(s).map_err(fail("append"))?;
        // Periodic flushes bound how much an interrupted ingest can lose.
        if (appended + 1) % 1024 == 0 {
            store.flush().map_err(fail("flush"))?;
        }
        if crash_after == Some(appended + 1) {
            std::process::abort();
        }
    }
    store.flush().map_err(fail("flush"))?;
    writeln!(
        out,
        "wrote {} sequences ({} pages of 1 KB) to {}",
        store.len(),
        store.data_pages() + 1,
        path.display()
    )
    .map_err(fail("write"))?;
    Ok(())
}

/// The knobs of the `ingest` command, bundled to keep the call site readable.
struct IngestSpec {
    kind: DataKind,
    count: usize,
    len: usize,
    seed: u64,
    checkpoint_every: Option<usize>,
    readers: usize,
    follow: bool,
}

/// One acknowledged append: WAL-committed by the library, echoed as an
/// `acked <id>` line (flushed, so a killed writer leaves an exact record of
/// what it promised), then the crash hook and periodic checkpoints run.
fn ack_append(
    writer: &mut IngestHandle<'_, SyncPager>,
    values: &[f64],
    acked: &mut u64,
    crash_after: Option<u64>,
    checkpoint_every: Option<usize>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let id = writer.append(values).map_err(fail("append"))?;
    writeln!(out, "acked {id}").map_err(fail("write"))?;
    out.flush().map_err(fail("flush stdout"))?;
    *acked += 1;
    // Crash-test hook: abort the process — no flush, no checkpoint, no
    // cleanup — after N *acknowledged* appends. Recovery must replay every
    // acked line the next open sees.
    if crash_after == Some(*acked) {
        std::process::abort();
    }
    if let Some(every) = checkpoint_every {
        if (*acked).is_multiple_of(every as u64) {
            let report = writer.checkpoint().map_err(fail("checkpoint"))?;
            writeln!(
                out,
                "checkpoint folded {} (epoch {})",
                report.folded, report.epoch
            )
            .map_err(fail("write"))?;
            out.flush().map_err(fail("flush stdout"))?;
        }
    }
    Ok(())
}

/// WAL-backed concurrent ingest: opens (recovering) the store + WAL + index
/// triple, claims the single writer, and appends — generated sequences or
/// stdin lines (`--follow`) — while `--readers` threads continuously pin
/// snapshots and query them, checking each outcome for snapshot consistency.
fn ingest(
    db: &Path,
    wal: &Path,
    index: &Path,
    spec: &IngestSpec,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (ingest, recovery) = SharedConcurrentIngest::open_or_create_file(db, wal, index)
        .map_err(fail(&format!("open ingest {}", db.display())))?;
    if !recovery.is_clean() {
        writeln!(out, "recovery: {recovery}").map_err(fail("write"))?;
    }
    writeln!(
        out,
        "opened {} sequence(s) at epoch {}",
        ingest.len(),
        ingest.epoch()
    )
    .map_err(fail("write"))?;
    out.flush().map_err(fail("flush stdout"))?;

    let crash_after: Option<u64> = std::env::var("TWSEARCH_CRASH_AFTER_APPENDS")
        .ok()
        .and_then(|v| v.parse().ok());

    let stop = AtomicBool::new(false);
    let reader_broken = AtomicBool::new(false);
    let reader_queries = AtomicU64::new(0);
    let (acked, final_report) = std::thread::scope(|scope| {
        for _ in 0..spec.readers {
            let (ingest, stop) = (&ingest, &stop);
            let (broken, queries) = (&reader_broken, &reader_queries);
            scope.spawn(move || {
                let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
                let query = [5.0, 5.5, 5.0, 6.0];
                while !stop.load(Ordering::Acquire) {
                    let snap = ingest.snapshot();
                    let visible = snap.len() as u64;
                    let consistent = match snap.search(&query, 1.0, &opts) {
                        Ok(outcome) => {
                            outcome.query_stats.accounting_balanced()
                                && outcome.query_stats.snapshot_epoch == snap.epoch()
                                && outcome.matches.iter().all(|m| m.id < visible)
                        }
                        Err(_) => false,
                    };
                    if !consistent {
                        broken.store(true, Ordering::Release);
                        return;
                    }
                    queries.fetch_add(1, Ordering::AcqRel);
                }
            });
        }
        let result = ingest_writer_loop(&ingest, spec, crash_after, out);
        stop.store(true, Ordering::Release);
        result
        // Scope exit joins the readers.
    })?;

    writeln!(
        out,
        "ingested {acked} sequence(s); {} total at epoch {} (checkpoint folded {})",
        ingest.len(),
        final_report.epoch,
        final_report.folded
    )
    .map_err(fail("write"))?;
    if spec.readers > 0 {
        writeln!(
            out,
            "readers: {} thread(s) ran {} snapshot quer(ies), all consistent",
            spec.readers,
            reader_queries.load(Ordering::Acquire)
        )
        .map_err(fail("write"))?;
    }
    if reader_broken.load(Ordering::Acquire) {
        return Err(CliError(
            "a reader observed an inconsistent snapshot (unbalanced counters, foreign epoch, or an id beyond the pinned view)"
                .into(),
        ));
    }
    Ok(())
}

/// The writer side of `ingest`: claim, append (generated or stdin), final
/// checkpoint. Returns the acknowledged-append count and the last report.
fn ingest_writer_loop(
    ingest: &SharedConcurrentIngest,
    spec: &IngestSpec,
    crash_after: Option<u64>,
    out: &mut dyn Write,
) -> Result<(u64, tw_core::CheckpointReport), CliError> {
    let mut writer = ingest.writer().map_err(fail("claim writer"))?;
    let mut acked = 0u64;
    if spec.follow {
        use std::io::BufRead;
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(fail("read stdin"))?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let values: Vec<f64> = trimmed
                .split(',')
                .map(|tok| {
                    tok.trim()
                        .parse::<f64>()
                        .map_err(|_| CliError(format!("cannot parse value '{tok}'")))
                })
                .collect::<Result<_, _>>()?;
            ack_append(
                &mut writer,
                &values,
                &mut acked,
                crash_after,
                spec.checkpoint_every,
                out,
            )?;
        }
    } else {
        for values in generate_data(spec.kind, spec.count, spec.len, spec.seed) {
            ack_append(
                &mut writer,
                &values,
                &mut acked,
                crash_after,
                spec.checkpoint_every,
                out,
            )?;
        }
    }
    let report = writer.checkpoint().map_err(fail("final checkpoint"))?;
    Ok((acked, report))
}

/// Sharded corpus ingest: fold the generated run into fixed-capacity shards
/// under `dir` (per-shard segment + R-tree + sidecar), committing the corpus
/// by writing the CRC'd manifest last. `twsearch query --db DIR` then
/// fans out across the shards.
fn ingest_sharded(
    dir: &Path,
    shards: usize,
    spec: &IngestSpec,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let capacity = spec.count.div_ceil(shards).max(1);
    let mut sharder = CorpusSharder::create(dir, capacity)
        .map_err(fail(&format!("create sharded corpus {}", dir.display())))?;
    // Crash-test hook: abort the process *mid-fold* — after the N-th shard's
    // segment and R-tree are durable, before its sidecar and before any
    // manifest write. The crash harness uses this to prove the manifest-last
    // commit protocol: the reopened directory is previous-or-empty, never a
    // manifest naming half-written shards.
    let crash_after: Option<usize> = std::env::var("TWSEARCH_CRASH_AFTER_FOLDS")
        .ok()
        .and_then(|v| v.parse().ok());
    if let Some(after) = crash_after {
        sharder = sharder.fold_hook(move |index| {
            if index + 1 >= after {
                std::process::abort();
            }
        });
    }
    for values in generate_data(spec.kind, spec.count, spec.len, spec.seed) {
        sharder.append(&values).map_err(fail("append"))?;
    }
    let manifest = sharder.finish().map_err(fail("commit manifest"))?;
    writeln!(
        out,
        "sharded {} sequence(s) into {} shard(s) of <= {capacity}; manifest {}",
        manifest.total_sequences(),
        manifest.shard_count(),
        manifest_path(dir).display()
    )
    .map_err(fail("write"))?;
    Ok(())
}

fn index(db: &Path, path: &Path, out: &mut dyn Write) -> Result<(), CliError> {
    let (store, _) = open_store(db)?;
    let engine = TwSimSearch::build(&store).map_err(fail("build index"))?;
    engine
        .save_file(path)
        .map_err(fail(&format!("write {}", path.display())))?;
    writeln!(
        out,
        "indexed {} sequences: {} R-tree nodes, height {}, written to {}",
        engine.len(),
        engine.tree().node_count(),
        engine.tree().height(),
        path.display()
    )
    .map_err(fail("write"))?;
    Ok(())
}

fn info(db: &Path, index: Option<&Path>, out: &mut dyn Write) -> Result<(), CliError> {
    let (store, report) = open_store(db)?;
    warn_recovery(&report, out)?;
    let lens: Vec<usize> = (0..store.len() as u64)
        .map(|id| store.sequence_len(id).unwrap_or(0))
        .collect();
    let total: usize = lens.iter().sum();
    writeln!(out, "database     {}", db.display()).map_err(fail("write"))?;
    writeln!(out, "sequences    {}", store.len()).map_err(fail("write"))?;
    if !lens.is_empty() {
        writeln!(
            out,
            "lengths      min {} / mean {:.1} / max {}",
            lens.iter().min().unwrap(),
            total as f64 / lens.len() as f64,
            lens.iter().max().unwrap()
        )
        .map_err(fail("write"))?;
    }
    writeln!(
        out,
        "storage      {} data pages ({} KiB)",
        store.data_pages(),
        store.data_bytes() / 1024
    )
    .map_err(fail("write"))?;
    if let Some(index_path) = index {
        let tree = load_index(index_path)?;
        writeln!(
            out,
            "index        {} nodes, height {}, {} entries ({})",
            tree.node_count(),
            tree.height(),
            tree.len(),
            index_path.display()
        )
        .map_err(fail("write"))?;
    }
    Ok(())
}

/// The `--stats` table: per-phase wall clock, then the pipeline counters in
/// accounting order (candidates = pruned + verified + abandoned).
fn write_query_stats(qs: &tw_core::QueryStats, out: &mut dyn Write) -> Result<(), CliError> {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1000.0;
    writeln!(out, "pipeline phases:").map_err(fail("write"))?;
    writeln!(out, "  filter {:>10.3} ms", ms(qs.phases.filter)).map_err(fail("write"))?;
    writeln!(out, "  fetch  {:>10.3} ms", ms(qs.phases.fetch)).map_err(fail("write"))?;
    writeln!(out, "  verify {:>10.3} ms", ms(qs.phases.verify)).map_err(fail("write"))?;
    writeln!(out, "  total  {:>10.3} ms", ms(qs.phases.total())).map_err(fail("write"))?;
    writeln!(out, "pipeline counters:").map_err(fail("write"))?;
    let rows: [(&str, u64); 19] = [
        ("candidates", qs.candidates),
        ("pruned (lb_kim)", qs.pruned_lb_kim),
        ("pruned (lb_yi)", qs.pruned_lb_yi),
        ("pruned (lb_keogh)", qs.pruned_lb_keogh),
        ("pruned (lb_improved)", qs.pruned_lb_improved),
        ("pruned (embedding)", qs.pruned_embedding),
        ("verified", qs.verified),
        ("abandoned", qs.abandoned),
        ("skipped unverified", qs.skipped_unverified),
        ("dtw cells", qs.dtw_cells),
        ("pivot dtw", qs.pivot_dtw),
        ("index node accesses", qs.index_node_accesses()),
        ("index leaf accesses", qs.index_leaf_accesses),
        ("pager reads", qs.pager_reads),
        ("checksum retries", qs.checksum_retries),
        ("wal appends", qs.wal_appends),
        ("snapshot epoch", qs.snapshot_epoch),
        ("admission shed", qs.admission_shed),
        ("admission queue", qs.admission_queue_depth),
    ];
    for (label, value) in rows {
        writeln!(out, "  {label:<20} {value:>10}").map_err(fail("write"))?;
    }
    Ok(())
}

/// The optional knobs of the `query` command, bundled to keep the call site
/// readable.
struct QueryOptions {
    knn: Option<usize>,
    stats: bool,
    deadline_ms: Option<u64>,
    max_cells: Option<u64>,
}

impl QueryOptions {
    /// The governor budget implied by `--deadline-ms` / `--max-cells`, or
    /// `None` when neither was given (ungoverned query).
    fn budget(&self) -> Option<QueryBudget> {
        if self.deadline_ms.is_none() && self.max_cells.is_none() {
            return None;
        }
        let mut budget = QueryBudget::new();
        if let Some(ms) = self.deadline_ms {
            budget = budget.deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(cells) = self.max_cells {
            budget = budget.max_cells(cells);
        }
        Some(budget)
    }
}

/// Prints the one-line partial-result warning when a query was cut short.
fn warn_termination(termination: &Termination, out: &mut dyn Write) -> Result<(), CliError> {
    if !termination.is_complete() {
        writeln!(
            out,
            "warning: partial results — query terminated early: {termination}"
        )
        .map_err(fail("write"))?;
    }
    Ok(())
}

/// Fan-out query against a sharded corpus directory (detected by its
/// manifest). Budgets span the whole fan-out through the shared token; a
/// shard with a damaged index degrades alone.
fn query_sharded(
    dir: &Path,
    epsilon: f64,
    source: QuerySource,
    options: &QueryOptions,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (sharded, reports) = ShardedSearch::open_dir(dir, SHARD_POOL_PAGES)
        .map_err(fail(&format!("open sharded corpus {}", dir.display())))?;
    for (i, report) in reports.iter().enumerate() {
        if !report.is_clean() {
            writeln!(
                out,
                "warning: shard {i} tail was damaged; recovered {} of {} record(s)",
                report.recovered_records, report.expected_records
            )
            .map_err(fail("write"))?;
        }
    }
    let query_values = match source {
        QuerySource::Values(v) => v,
        QuerySource::FromId(id) => sharded
            .get(id)
            .map_err(fail(&format!("load query sequence {id}")))?,
    };
    if query_values.is_empty() {
        return Err(CliError("query sequence is empty".into()));
    }
    let mut opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    if let Some(budget) = options.budget() {
        opts = opts.budget(budget);
    }
    let outcome = sharded
        .range_search_sharded(&query_values, epsilon, &opts)
        .map_err(fail("query"))?;
    if let EngineHealth::Degraded { fallback, reason } = &outcome.merged.health {
        writeln!(out, "warning: degraded to {fallback}: {reason}").map_err(fail("write"))?;
    }
    warn_termination(&outcome.merged.termination, out)?;
    writeln!(
        out,
        "{} sequence(s) within tolerance {epsilon} across {} shard(s):",
        outcome.merged.matches.len(),
        sharded.shard_count()
    )
    .map_err(fail("write"))?;
    for m in &outcome.merged.matches {
        writeln!(out, "  id {:>6}  distance {:.4}", m.id, m.distance).map_err(fail("write"))?;
    }
    if options.stats {
        write_query_stats(&outcome.merged.query_stats, out)?;
        // More misses than frames means the corpus was read from disk, not
        // served from memory: the out-of-core witness.
        writeln!(
            out,
            "pool misses {} / resident frames {}",
            sharded.pool_misses(),
            sharded.shard_count() * SHARD_POOL_PAGES
        )
        .map_err(fail("write"))?;
    }
    if let Some(k) = options.knn {
        let knn_out = sharded
            .knn_sharded(&query_values, k, &opts)
            .map_err(fail("knn"))?;
        warn_termination(&knn_out.merged.termination, out)?;
        writeln!(out, "top-{k} nearest:").map_err(fail("write"))?;
        for n in &knn_out.merged.matches {
            writeln!(out, "  id {:>6}  distance {:.4}", n.id, n.distance).map_err(fail("write"))?;
        }
    }
    Ok(())
}

fn query(
    db: &Path,
    index: Option<&Path>,
    epsilon: f64,
    source: QuerySource,
    options: &QueryOptions,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    // A database path holding a shard manifest is a sharded corpus: the
    // query fans out across its shards instead of opening one store file.
    if manifest_path(db).is_file() {
        return query_sharded(db, epsilon, source, options, out);
    }
    let (store, report) = open_store(db)?;
    warn_recovery(&report, out)?;
    let query_values = match source {
        QuerySource::Values(v) => v,
        QuerySource::FromId(id) => store
            .get(id)
            .map_err(fail(&format!("load query sequence {id}")))?,
    };
    if query_values.is_empty() {
        return Err(CliError("query sequence is empty".into()));
    }

    // With an index file: Algorithm 1 over the deserialized tree, degrading
    // to the exact scan path if the index cannot be trusted. Without: honest
    // sequential scan.
    let mut opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    if let Some(budget) = options.budget() {
        opts = opts.budget(budget);
    }
    let outcome = if let Some(index_path) = index {
        let engine = ResilientSearch::from_index_file(index_path, Some(store.len()));
        let outcome = engine
            .range_search(&store, &query_values, epsilon, &opts)
            .map_err(fail("query"))?;
        if let EngineHealth::Degraded { fallback, reason } = &outcome.health {
            writeln!(out, "warning: degraded to {fallback}: {reason}").map_err(fail("write"))?;
        }
        outcome
    } else {
        NaiveScan
            .range_search(&store, &query_values, epsilon, &opts)
            .map_err(fail("scan"))?
    };
    let matches: Vec<(u64, f64)> = outcome.matches.iter().map(|m| (m.id, m.distance)).collect();

    warn_termination(&outcome.termination, out)?;
    writeln!(
        out,
        "{} sequence(s) within tolerance {epsilon}:",
        matches.len()
    )
    .map_err(fail("write"))?;
    for (id, d) in &matches {
        writeln!(out, "  id {id:>6}  distance {d:.4}").map_err(fail("write"))?;
    }
    if options.stats {
        write_query_stats(&outcome.query_stats, out)?;
    }

    if let Some(k) = options.knn {
        let engine = TwSimSearch::build(&store).map_err(fail("build index"))?;
        let knn_out = engine
            .knn_governed(&store, &query_values, k, &opts)
            .map_err(fail("knn"))?;
        warn_termination(&knn_out.termination, out)?;
        writeln!(out, "top-{k} nearest:").map_err(fail("write"))?;
        for n in &knn_out.matches {
            writeln!(out, "  id {:>6}  distance {:.4}", n.id, n.distance).map_err(fail("write"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run_str(line: &str) -> Result<String, CliError> {
        let mut buf = Vec::new();
        run(parse(&argv(line)).expect("parse"), &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8"))
    }

    fn temp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("twcli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn full_cli_workflow() {
        let dir = temp("flow");
        let db = dir.join("db.tws");
        let idx = dir.join("db.rtree");

        let g = run_str(&format!(
            "generate --kind walk --count 60 --len 40 --seed 5 --out {}",
            db.display()
        ))
        .expect("generate");
        assert!(g.contains("wrote 60 sequences"));

        let i = run_str(&format!(
            "index --db {} --out {}",
            db.display(),
            idx.display()
        ))
        .expect("index");
        assert!(i.contains("indexed 60 sequences"));

        let info = run_str(&format!(
            "info --db {} --index {}",
            db.display(),
            idx.display()
        ))
        .expect("info");
        assert!(info.contains("sequences    60"));
        assert!(info.contains("index"));

        // Query using a stored sequence: it must match itself at eps 0.
        let q = run_str(&format!(
            "query --db {} --index {} --eps 0.0 --from-id 3",
            db.display(),
            idx.display()
        ))
        .expect("query");
        assert!(q.contains("id      3  distance 0.0000"), "{q}");

        // And the indexed answer equals the scan answer at a loose eps.
        let with_idx = run_str(&format!(
            "query --db {} --index {} --eps 0.3 --from-id 3",
            db.display(),
            idx.display()
        ))
        .expect("query idx");
        let no_idx = run_str(&format!(
            "query --db {} --eps 0.3 --from-id 3",
            db.display()
        ))
        .expect("query scan");
        assert_eq!(with_idx, no_idx);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_stats_flag_prints_phase_table() {
        let dir = temp("stats");
        let db = dir.join("db.tws");
        let idx = dir.join("db.rtree");
        run_str(&format!(
            "generate --kind walk --count 40 --len 30 --seed 8 --out {}",
            db.display()
        ))
        .expect("generate");
        run_str(&format!(
            "index --db {} --out {}",
            db.display(),
            idx.display()
        ))
        .expect("index");

        let with_stats = run_str(&format!(
            "query --db {} --index {} --eps 0.2 --from-id 1 --stats",
            db.display(),
            idx.display()
        ))
        .expect("query");
        for needle in [
            "pipeline phases:",
            "filter",
            "verify",
            "pipeline counters:",
            "candidates",
            "dtw cells",
            "pager reads",
        ] {
            assert!(
                with_stats.contains(needle),
                "missing {needle:?}:\n{with_stats}"
            );
        }

        // Without the flag the table is absent.
        let without = run_str(&format!(
            "query --db {} --index {} --eps 0.2 --from-id 1",
            db.display(),
            idx.display()
        ))
        .expect("query");
        assert!(!without.contains("pipeline counters:"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_budget_flags_cut_work_and_warn() {
        let dir = temp("budget");
        let db = dir.join("db.tws");
        run_str(&format!(
            "generate --kind walk --count 50 --len 40 --seed 4 --out {}",
            db.display()
        ))
        .expect("generate");

        // A one-cell budget trips on the first DTW column: the scan reports
        // partial results and says why.
        let strict = run_str(&format!(
            "query --db {} --eps 0.5 --from-id 1 --max-cells 1 --stats",
            db.display()
        ))
        .expect("query");
        assert!(
            strict.contains("partial results") && strict.contains("budget-exhausted(dtw-cells)"),
            "{strict}"
        );
        assert!(strict.contains("skipped unverified"), "{strict}");

        // A generous budget changes nothing: same output as the ungoverned
        // run, no warning.
        let loose = run_str(&format!(
            "query --db {} --eps 0.5 --from-id 1 --max-cells 99999999 --deadline-ms 60000",
            db.display()
        ))
        .expect("query");
        let ungoverned = run_str(&format!(
            "query --db {} --eps 0.5 --from-id 1",
            db.display()
        ))
        .expect("query");
        assert_eq!(loose, ungoverned);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_with_literal_values_and_knn() {
        let dir = temp("vals");
        let db = dir.join("db.tws");
        run_str(&format!(
            "generate --kind cbf --count 30 --len 64 --seed 2 --out {}",
            db.display()
        ))
        .expect("generate");
        let out = run_str(&format!(
            "query --db {} --eps 100 --values 0,0,3,6,6,3,0,0 --knn 3",
            db.display()
        ))
        .expect("query");
        assert!(out.contains("top-3 nearest:"));
        assert!(out.matches("distance").count() >= 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subseq_finds_windows() {
        let dir = temp("subseq");
        let db = dir.join("db.tws");
        run_str(&format!(
            "generate --kind walk --count 8 --len 40 --seed 4 --out {}",
            db.display()
        ))
        .expect("generate");
        // A generous tolerance guarantees hits.
        let out = run_str(&format!(
            "subseq --db {} --eps 5 --values 5,5,5,5 --min-len 4 --max-len 8",
            db.display()
        ))
        .expect("subseq");
        assert!(out.contains("window(s) within tolerance"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn align_renders_mapping() {
        let dir = temp("align");
        let db = dir.join("db.tws");
        run_str(&format!(
            "generate --kind walk --count 5 --len 12 --seed 8 --out {}",
            db.display()
        ))
        .expect("generate");
        let out = run_str(&format!("align --db {} --a 0 --b 1", db.display())).expect("align");
        assert!(out.contains("aligning sequence 0"));
        assert!(out.contains("distance ="));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_store_reports_health() {
        let dir = temp("verify");
        let db = dir.join("db.tws");
        let idx = dir.join("db.rtree");
        run_str(&format!(
            "generate --kind walk --count 20 --len 16 --seed 1 --out {}",
            db.display()
        ))
        .expect("generate");
        run_str(&format!(
            "index --db {} --out {}",
            db.display(),
            idx.display()
        ))
        .expect("index");

        let ok = run_str(&format!(
            "verify-store --db {} --index {}",
            db.display(),
            idx.display()
        ))
        .expect("verify");
        assert!(ok.contains("integrity    OK"), "{ok}");
        assert!(ok.contains("per-page checksums"), "{ok}");
        assert!(ok.contains("index        OK"), "{ok}");

        // Flip a bit in the index: verify-store flags it, the query answers
        // anyway (degraded), and the answers equal the scan path's.
        let mut raw = std::fs::read(&idx).expect("read idx");
        let mid = raw.len() / 2;
        raw[mid] ^= 0x04;
        std::fs::write(&idx, raw).expect("write idx");

        let bad = run_str(&format!(
            "verify-store --db {} --index {}",
            db.display(),
            idx.display()
        ))
        .expect("verify corrupt");
        assert!(bad.contains("index        UNUSABLE"), "{bad}");

        let degraded = run_str(&format!(
            "query --db {} --index {} --eps 0.4 --from-id 2",
            db.display(),
            idx.display()
        ))
        .expect("degraded query");
        assert!(
            degraded.contains("warning: degraded to lb-scan"),
            "{degraded}"
        );
        let scan = run_str(&format!(
            "query --db {} --eps 0.4 --from-id 2",
            db.display()
        ))
        .expect("scan query");
        // Same qualifying set below the warning line.
        let degraded_body = degraded.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(degraded_body, scan.trim_end());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_builds_queryable_store_with_wal() {
        let dir = temp("ingest");
        let db = dir.join("db.tws");
        let wal = dir.join("db.twl");
        let idx = dir.join("db.twr");
        let out = run_str(&format!(
            "ingest --db {} --wal {} --index {} --count 30 --len 16 --seed 6 --checkpoint-every 10 --readers 2",
            db.display(),
            wal.display(),
            idx.display()
        ))
        .expect("ingest");
        assert!(out.contains("acked 0"), "{out}");
        assert!(out.contains("acked 29"), "{out}");
        assert!(out.contains("ingested 30 sequence(s)"), "{out}");
        assert!(out.contains("all consistent"), "{out}");

        // verify-store audits all three files; a checkpointed WAL is empty.
        let v = run_str(&format!(
            "verify-store --db {} --index {} --wal {}",
            db.display(),
            idx.display(),
            wal.display()
        ))
        .expect("verify");
        assert!(v.contains("integrity    OK"), "{v}");
        assert!(v.contains("index        OK"), "{v}");
        assert!(v.contains("0 append(s) pending"), "{v}");
        assert!(v.contains("recoverable  30 sequence(s)"), "{v}");

        // Reopening is clean (nothing to recover) and queries work.
        let re = run_str(&format!(
            "ingest --db {} --wal {} --index {} --count 0",
            db.display(),
            wal.display(),
            idx.display()
        ))
        .expect("reopen");
        assert!(re.contains("opened 30 sequence(s)"), "{re}");
        assert!(!re.contains("recovery:"), "{re}");
        let q = run_str(&format!(
            "query --db {} --index {} --eps 0.0 --from-id 3",
            db.display(),
            idx.display()
        ))
        .expect("query");
        assert!(q.contains("id      3  distance 0.0000"), "{q}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unclean_shutdown_is_reported_and_recovered() {
        let dir = temp("walreplay");
        let db = dir.join("db.tws");
        let wal = dir.join("db.twl");
        let idx = dir.join("db.twr");
        // Acknowledge five appends, then "crash" (drop with no checkpoint):
        // every append lives only in the WAL.
        {
            let ing = SharedConcurrentIngest::create_file(&db, &wal, &idx).expect("create");
            let mut w = ing.writer().expect("writer");
            for i in 0..5u64 {
                w.append(&[i as f64, 1.0, 2.0, 3.0]).expect("append");
            }
        }
        let v = run_str(&format!(
            "verify-store --db {} --wal {}",
            db.display(),
            wal.display()
        ))
        .expect("verify");
        assert!(v.contains("5 append(s) pending"), "{v}");
        assert!(v.contains("recoverable  5 sequence(s)"), "{v}");

        // A recover-only ingest replays them into the store + index.
        let re = run_str(&format!(
            "ingest --db {} --wal {} --index {} --count 0",
            db.display(),
            wal.display(),
            idx.display()
        ))
        .expect("recover");
        assert!(re.contains("recovery:"), "{re}");
        assert!(re.contains("replayed 5 append(s)"), "{re}");
        assert!(re.contains("opened 5 sequence(s)"), "{re}");

        let v2 = run_str(&format!(
            "verify-store --db {} --index {} --wal {}",
            db.display(),
            idx.display(),
            wal.display()
        ))
        .expect("verify after recovery");
        assert!(v2.contains("integrity    OK"), "{v2}");
        assert!(v2.contains("index        OK"), "{v2}");
        assert!(v2.contains("0 append(s) pending"), "{v2}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_ingest_and_query_agree_with_flat_store() {
        let dir = temp("sharded");
        let corpus = dir.join("corpus");
        let db = dir.join("flat.tws");

        let s = run_str(&format!(
            "ingest --db {} --shards 3 --count 30 --len 16 --seed 6",
            corpus.display()
        ))
        .expect("sharded ingest");
        assert!(s.contains("sharded 30 sequence(s) into 3 shard(s)"), "{s}");

        // The same generator seed through the flat path gives the same
        // corpus, so the two query paths must print the same matches.
        run_str(&format!(
            "generate --kind walk --count 30 --len 16 --seed 6 --out {}",
            db.display()
        ))
        .expect("generate");
        let sharded_q = run_str(&format!(
            "query --db {} --eps 0.3 --from-id 3 --knn 2",
            corpus.display()
        ))
        .expect("sharded query");
        let flat_q = run_str(&format!(
            "query --db {} --eps 0.3 --from-id 3 --knn 2",
            db.display()
        ))
        .expect("flat query");
        assert!(sharded_q.contains("across 3 shard(s)"), "{sharded_q}");
        assert!(
            sharded_q.contains("id      3  distance 0.0000"),
            "{sharded_q}"
        );
        // Identical bodies below the differing headline.
        let body = |s: &str| {
            s.lines()
                .skip(1)
                .map(str::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(body(&sharded_q), body(&flat_q));

        // Budgets flow through the shared fan-out token.
        let strict = run_str(&format!(
            "query --db {} --eps 0.3 --from-id 3 --max-cells 1 --stats",
            corpus.display()
        ))
        .expect("governed sharded query");
        assert!(
            strict.contains("partial results") && strict.contains("budget-exhausted(dtw-cells)"),
            "{strict}"
        );
        // 3 shards × 64 pool frames each.
        assert!(strict.contains("resident frames 192"), "{strict}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_stats_table_includes_ingest_gauges() {
        let dir = temp("gaugerows");
        let db = dir.join("db.tws");
        run_str(&format!(
            "generate --kind walk --count 10 --len 12 --seed 2 --out {}",
            db.display()
        ))
        .expect("generate");
        let out = run_str(&format!(
            "query --db {} --eps 0.5 --from-id 0 --stats",
            db.display()
        ))
        .expect("query");
        assert!(out.contains("wal appends"), "{out}");
        assert!(out.contains("snapshot epoch"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_net_query_round_trip() {
        let dir = temp("serve");
        let corpus = dir.join("corpus");
        run_str(&format!(
            "ingest --db {} --shards 2 --count 20 --len 16 --seed 6",
            corpus.display()
        ))
        .expect("sharded ingest");

        // Reserve a free port, then serve the corpus on it for a bounded
        // window while the client side runs against it.
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
            probe.local_addr().expect("probe addr").to_string()
        };
        let serve_line = format!(
            "serve --db {} --addr {addr} --drain-after-ms 4000",
            corpus.display()
        );
        let server = std::thread::spawn(move || run_str(&serve_line));

        // The server needs a moment to open the corpus and bind; retry
        // until the first query lands.
        let range_line = format!("net-query --addr {addr} --eps 0.3 --values 5,5.2,5,5.4 --stats");
        let mut range = Err(CliError("never ran".into()));
        for _ in 0..200 {
            range = run_str(&range_line);
            if range.is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let range = range.expect("range query against live server");
        assert!(range.contains("match(es) within tolerance 0.3"), "{range}");
        assert!(range.contains("pipeline counters:"), "{range}");
        assert!(range.contains("admission queue"), "{range}");

        let knn = run_str(&format!(
            "net-query --addr {addr} --knn 2 --values 5,5.2,5,5.4 --deadline-ms 30000"
        ))
        .expect("knn query against live server");
        assert!(knn.contains("2 match(es) nearest (k = 2):"), "{knn}");

        // A starved budget comes back as typed partial results, not an
        // error: deadline propagation end to end.
        let strict = run_str(&format!(
            "net-query --addr {addr} --eps 0.3 --values 5,5.2,5,5.4 --max-cells 1"
        ))
        .expect("governed query against live server");
        assert!(
            strict.contains("partial results") && strict.contains("budget-exhausted(dtw-cells)"),
            "{strict}"
        );

        // A non-finite query element is refused where it enters the engine
        // and crosses the wire as a typed error, for both query kinds.
        let mut client = Client::connect(
            &addr,
            Arc::new(tw_core::SystemClock::new()),
            ClientConfig::default(),
        )
        .expect("connect");
        for kind in [QueryKind::Range { epsilon: 0.3 }, QueryKind::Knn { k: 2 }] {
            let request = QueryRequest {
                tenant: 0,
                budget: WireBudget::default(),
                kind,
                values: vec![5.0, f64::NAN, 5.0],
            };
            match client.call(&request).expect("typed reply") {
                Reply::Error(e) => {
                    assert_eq!(e.code, tw_net::ErrorCode::QueryFailed);
                    assert!(e.message.contains("element 1 is not finite"), "{e:?}");
                }
                other => panic!("expected a typed error, got {other:?}"),
            }
        }
        drop(client);

        let served = server.join().expect("join server").expect("serve");
        assert!(served.contains("listening on"), "{served}");
        assert!(served.contains("ledger balanced"), "{served}");
        assert!(served.contains("3 response(s)"), "{served}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_clients_balance_both_ledgers() {
        let dir = temp("clients");
        let corpus = dir.join("corpus");
        run_str(&format!(
            "ingest --db {} --shards 3 --count 96 --len 32 --seed 42",
            corpus.display()
        ))
        .expect("sharded ingest");
        let (service, _) = EngineService::open(&corpus, None).expect("open corpus");
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(service),
            ServerConfig {
                default_qos: TenantQos {
                    max_concurrent: 4,
                    max_queued: 16,
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr().to_string();

        // Eight clients, each querying with a stored sequence so every
        // request has at least one candidate to verify. Every 4th request
        // is a kNN, every 3rd carries a 50-cell cap: far below one 32 × 32
        // DP, so it must come back as a typed partial, never an error.
        const CLIENTS: usize = 8;
        const REQUESTS: usize = 9;
        let queries = generate_data(DataKind::Walk, CLIENTS, 32, 42);
        let tallies: Vec<[u64; 4]> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .enumerate()
                .map(|(index, query)| {
                    let addr = &addr;
                    scope.spawn(move || {
                        // [complete, partial, shed, error]
                        let mut tally = [0u64; 4];
                        let clock = Arc::new(tw_core::SystemClock::new());
                        let mut client =
                            Client::connect(addr, clock, ClientConfig::default()).expect("connect");
                        for request in 0..REQUESTS {
                            let kind = if (index + request) % 4 == 3 {
                                QueryKind::Knn { k: 3 }
                            } else {
                                QueryKind::Range { epsilon: 2.0 }
                            };
                            let budget = if request % 3 == 2 {
                                WireBudget {
                                    max_cells: 50,
                                    ..WireBudget::default()
                                }
                            } else {
                                WireBudget {
                                    deadline_ms: 30_000,
                                    ..WireBudget::default()
                                }
                            };
                            let request = QueryRequest {
                                tenant: 0,
                                budget,
                                kind,
                                values: query.clone(),
                            };
                            match client.call(&request).expect("transport") {
                                Reply::Outcome(r) if r.termination.is_complete() => tally[0] += 1,
                                Reply::Outcome(_) => tally[1] += 1,
                                Reply::Shed(_) => tally[2] += 1,
                                Reply::Error(_) => tally[3] += 1,
                            }
                        }
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let drain = server.drain();

        let total = |i: usize| tallies.iter().map(|t| t[i]).sum::<u64>();
        assert_eq!(total(3), 0, "server errors");
        assert_eq!(
            total(0) + total(1) + total(2),
            (CLIENTS * REQUESTS) as u64,
            "every request answered"
        );
        assert!(total(1) > 0, "cell-capped requests must yield partials");
        assert_eq!(drain.server.bad_frames, 0, "{:?}", drain.server);
        assert_eq!(drain.server.handler_panics, 0, "{:?}", drain.server);
        assert!(drain.server.ledger_balanced(), "{:?}", drain.server);
        assert!(
            drain.aggregate.accounting_balanced(),
            "{:?}",
            drain.aggregate
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_database_is_a_clean_error() {
        let err = run_str("info --db /nonexistent/nope.tws").unwrap_err();
        assert!(err.0.contains("open"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str("help").expect("help");
        assert!(out.contains("twsearch generate"));
    }
}
