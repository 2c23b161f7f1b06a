//! The traced run: where the time of the workload's own operations goes.
//!
//! The engine's internals carry no spans yet, so the benchmark assembles the
//! paper's Algorithm 1 from the same public calls the engine makes —
//! `FeatureVector::from_values` → `RTree::range_centered` on each shard's
//! index → `SequenceStore::get` → `dtw_within` → merge — and records one span
//! per call. That staged pipeline must return exactly the engine's ids for
//! every operation. Beside it run the untraced engine (the reference wall
//! time, and the source of every `QueryStats`-derived number), a replay
//! through a loopback server whose service is wrapped in a timer, a
//! cascade-on replay for the bound tiers' prune counts, and the isolated
//! layer probes of [`crate::probes`].

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tw_core::search::{EngineOpts, TwSimSearch};
use tw_core::{dtw_within, CascadeSpec, DtwKind, FeatureVector, QueryBudget, QueryStats, TwError};
use tw_net::{
    encode_frame, FrameKind, QueryRequest, QueryResponse, QueryService, Reply, Server,
    ServerConfig, ServiceOutcome, DEFAULT_MAX_PAYLOAD,
};

use crate::corpus::Scratch;
use crate::exec::{engine_opts, request, run_sharded, Answer, OpKind, Sharded, ShardedService};
use crate::json::Json;
use crate::phases::{read_op, Failures};
use crate::probes::{self, Effort, Pair};
use crate::run::{
    connect, describe_spec, metric, setup_corpus, CorpusFixture, Metric, Outcome, RunConfig,
};
use crate::span::{layer_of, self_time_by, Recorder, Span, NO_PARENT};
use crate::workload::{append_sequences, Access, Spec};

/// Candidate pairs kept for the distance and bound probes.
const CAPTURED_PAIRS: usize = 256;
/// Operations replayed through the loopback server on workloads that are
/// not themselves served.
const SERVE_PROBE_OPS: usize = 400;
/// Range operations replayed with the standard cascade switched on.
const CASCADE_OPS: usize = 100;
/// The reference pass stops taking new ops after this long (but never before
/// [`MIN_TRACED_OPS`]); every later pass replays the ops it completed.
const REFERENCE_PASS_SECONDS: f64 = 3.0;
const MIN_TRACED_OPS: usize = 32;
/// Connections opened and dropped for `net.connect_us`.
const CONNECTS: usize = 20;

/// Every per-layer metric the traced run reports, in order: name, unit, and
/// which direction is better. `BENCHMARK.json` lists exactly these.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("distance.dtw_full_mcells_s", "Mcells/s", "higher"),
    ("distance.dtw_within_mcells_s", "Mcells/s", "higher"),
    ("distance.dtw_within_ns_per_cand", "ns", "lower"),
    ("distance.dtw_banded_mcells_s", "Mcells/s", "higher"),
    ("distance.dtw_sumabs_mcells_s", "Mcells/s", "higher"),
    ("distance.cells_per_query", "count", "lower"),
    ("distance.abandon_share", "ratio", "higher"),
    ("bound.feature_ns", "ns", "lower"),
    ("bound.prepare_us", "us", "lower"),
    ("bound.check_ns", "ns", "lower"),
    ("bound.prune_share", "ratio", "higher"),
    ("bound.pruned_lb_kim", "count", "higher"),
    ("bound.pruned_lb_yi", "count", "higher"),
    ("bound.pruned_lb_keogh", "count", "higher"),
    ("bound.pruned_lb_improved", "count", "higher"),
    ("rtree.range_us", "us", "lower"),
    ("rtree.knn_us", "us", "lower"),
    ("rtree.nodes_per_query", "count", "lower"),
    ("rtree.candidates_per_query", "count", "lower"),
    ("rtree.bulk_load_ms", "ms", "lower"),
    ("rtree.insert_us", "us", "lower"),
    ("rtree.load_file_ms", "ms", "lower"),
    ("storage.read_raw_ns", "ns", "lower"),
    ("storage.read_checksum_ns", "ns", "lower"),
    ("storage.read_retry_ns", "ns", "lower"),
    ("storage.pool_hit_ns", "ns", "lower"),
    ("storage.pool_miss_ns", "ns", "lower"),
    ("storage.get_hit_us", "us", "lower"),
    ("storage.get_miss_us", "us", "lower"),
    ("storage.crc32_mb_s", "MB/s", "higher"),
    ("storage.pool_hit_share", "ratio", "higher"),
    ("storage.pager_reads_per_query", "count", "lower"),
    ("storage.append_us", "us", "lower"),
    ("storage.wal_commit_us", "us", "lower"),
    ("storage.wal_bytes_per_user_byte", "ratio", "lower"),
    ("search.filter_ms", "ms", "lower"),
    ("search.fetch_ms", "ms", "lower"),
    ("search.verify_ms", "ms", "lower"),
    ("search.unattributed_ms", "ms", "lower"),
    ("search.fanout_speedup", "ratio", "higher"),
    ("search.candidate_ratio", "ratio", "lower"),
    ("search.matches_per_query", "count", "higher"),
    ("search.knn_ms", "ms", "lower"),
    ("govern.admit_ns", "ns", "lower"),
    ("govern.budget_arm_ns", "ns", "lower"),
    ("govern.shed_share", "ratio", "lower"),
    ("net.encode_request_ns", "ns", "lower"),
    ("net.decode_request_ns", "ns", "lower"),
    ("net.encode_response_ns", "ns", "lower"),
    ("net.decode_response_ns", "ns", "lower"),
    ("net.connect_us", "us", "lower"),
    ("net.roundtrip_overhead_us", "us", "lower"),
    ("net.bytes_per_reply", "B", "lower"),
    ("ingest.append_us", "us", "lower"),
    ("ingest.checkpoint_ms", "ms", "lower"),
    ("ingest.snapshot_ns", "ns", "lower"),
    ("ingest.reader_query_ms", "ms", "lower"),
    ("ingest.wal_bytes_per_append", "B", "lower"),
    ("ingest.reopen_ms", "ms", "lower"),
    ("share.distance", "ratio", "lower"),
    ("share.bound", "ratio", "lower"),
    ("share.rtree", "ratio", "lower"),
    ("share.storage", "ratio", "lower"),
    ("share.search", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// The spec the traced run replays. The ingest workload's own read ops are
/// snapshot queries beside a writer, which no staged pipeline can mirror
/// call for call; its trace replays range (at the reader's ε) and kNN ops
/// alternately over the base corpus as one shard, and the ingest probes
/// cover the write side.
fn traced_spec(spec: &Spec) -> Spec {
    let mut spec = spec.clone();
    if spec.access == Access::Ingest {
        spec.range_per_knn = 1;
    }
    spec
}

/// One untraced pass of the engine over the traced ops.
struct EnginePass {
    answers: Vec<Answer>,
    range_wall_s: f64,
    knn_wall_s: f64,
    range_ops: usize,
    knn_ops: usize,
    /// Summed `QueryStats` of the range ops.
    range_stats: QueryStats,
    matches: u64,
    pool_hits: u64,
    pool_misses: u64,
}

/// Runs ops `0..ops` through the engine, stopping early once `seconds` have
/// passed; `answers.len()` says how many ran.
fn engine_pass(
    fixture: &CorpusFixture,
    spec: &Spec,
    ops: usize,
    seconds: f64,
    opts: &EngineOpts,
) -> Result<EnginePass, String> {
    let sharded = &fixture.sharded;
    sharded.reset_pool_stats();
    let mut pass = EnginePass {
        answers: Vec::with_capacity(ops),
        range_wall_s: 0.0,
        knn_wall_s: 0.0,
        range_ops: 0,
        knn_ops: 0,
        range_stats: QueryStats::default(),
        matches: 0,
        pool_hits: 0,
        pool_misses: 0,
    };
    let started = Instant::now();
    for op in 0..ops {
        if op >= MIN_TRACED_OPS.min(ops) && started.elapsed().as_secs_f64() > seconds {
            break;
        }
        let (kind, query) = read_op(spec, &fixture.queries, op);
        let t = Instant::now();
        let answer =
            run_sharded(sharded, query, kind, opts).map_err(|e| format!("op {op}: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        match kind {
            OpKind::Range { .. } => {
                pass.range_wall_s += wall;
                pass.range_ops += 1;
                pass.range_stats.merge(&answer.stats);
                pass.matches += answer.hits.len() as u64;
            }
            OpKind::Knn { .. } => {
                pass.knn_wall_s += wall;
                pass.knn_ops += 1;
            }
        }
        pass.answers.push(answer);
    }
    for shard in sharded.shards() {
        let stats = shard.store().buffer_stats();
        pass.pool_hits += stats.hits;
        pass.pool_misses += stats.misses;
    }
    Ok(pass)
}

/// Algorithm 1 for one range op, stage by stage, one span per call. Mirrors
/// the engine's order within a shard: filter, fetch every candidate, verify
/// every candidate; then the fan-out's merge.
fn staged_range(
    sharded: &Sharded,
    (op, query_index, query): (u32, usize, &[f64]),
    epsilon: f64,
    rec: &mut Recorder,
    captured: &mut Vec<Pair>,
) -> Result<Vec<(u64, f64)>, String> {
    let root = rec.begin("search.range", NO_PARENT, op);
    let mut hits: Vec<(u64, f64)> = Vec::new();
    for shard in sharded.shards() {
        let tree = shard
            .engine()
            .primary()
            .map(TwSimSearch::tree)
            .ok_or("a shard index is offline")?;
        let feature = rec.time("bound.feature", root, op, || {
            FeatureVector::from_values(query).as_point()
        });
        let range = rec.time("rtree.range", root, op, || {
            tree.range_centered(&feature, epsilon)
        });
        let mut candidates = Vec::with_capacity(range.ids.len());
        for id in range.ids {
            let values = rec
                .time("storage.get", root, op, || shard.store().get(id))
                .map_err(|e| format!("fetching candidate {id}: {e}"))?;
            candidates.push((id, values));
        }
        let first_hit = hits.len();
        for (id, values) in &candidates {
            let outcome = rec.time("distance.dtw_within", root, op, || {
                dtw_within(values, query, DtwKind::MaxAbs, epsilon)
            });
            if let Some(distance) = outcome.within {
                hits.push((shard.base_id() + id, distance));
            }
        }
        rec.time("search.merge", root, op, || {
            hits[first_hit..].sort_by_key(|h| h.0);
        });
        if captured.len() < CAPTURED_PAIRS {
            let room = CAPTURED_PAIRS - captured.len();
            captured.extend(candidates.into_iter().take(room).map(|(id, values)| Pair {
                query: query_index,
                id,
                values,
            }));
        }
    }
    rec.end(root);
    Ok(hits)
}

fn same_ids(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0)
}

/// Times every `execute` the server makes, so a client-side `Client::call`
/// span can be split into time inside the engine and time around it.
struct TimedService {
    inner: ShardedService,
    executed: Mutex<Vec<(Instant, Instant)>>,
}

impl QueryService for TimedService {
    fn execute(
        &self,
        request: &QueryRequest,
        budget: QueryBudget,
    ) -> Result<ServiceOutcome, TwError> {
        let started = Instant::now();
        let result = self.inner.execute(request, budget);
        if let Ok(mut executed) = self.executed.lock() {
            executed.push((started, Instant::now()));
        }
        result
    }
}

struct ServePass {
    /// Mean of (`Client::call` wall − time inside `execute`) over range ops.
    roundtrip_overhead_us: f64,
    connect_us: f64,
    bytes_per_reply: f64,
    shed_share: f64,
    /// A reply the server really sent, for the codec probe.
    sample_reply: Option<QueryResponse>,
    failures: Failures,
    compared: u64,
}

/// Replays the first `ops` operations through a loopback server, one client,
/// recording a `net.call` span per request with the server's `execute` time
/// as its child.
fn serve_pass(
    fixture: &CorpusFixture,
    spec: &Spec,
    ops: usize,
    threads: usize,
    expected: &[Answer],
    rec: &mut Recorder,
) -> Result<ServePass, String> {
    let service = Arc::new(TimedService {
        inner: ShardedService {
            sharded: Arc::clone(&fixture.sharded),
            threads,
        },
        executed: Mutex::new(Vec::with_capacity(ops)),
    });
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn QueryService>,
        ServerConfig::default(),
    )
    .map_err(|e| format!("binding the trace server: {e}"))?;
    let addr = server.local_addr().to_string();

    let t = Instant::now();
    for _ in 0..CONNECTS {
        drop(connect(&addr)?);
    }
    let connect_us = t.elapsed().as_secs_f64() * 1e6 / CONNECTS as f64;

    let mut client = connect(&addr)?;
    let mut pass = ServePass {
        roundtrip_overhead_us: 0.0,
        connect_us,
        bytes_per_reply: 0.0,
        shed_share: 0.0,
        sample_reply: None,
        failures: Failures::default(),
        compared: 0,
    };
    let mut calls: Vec<(u32, OpKind, u64, u64)> = Vec::with_capacity(ops);
    let mut reply_bytes = 0usize;
    for (op, engine_answer) in expected.iter().enumerate().take(ops) {
        let (kind, query) = read_op(spec, &fixture.queries, op);
        let req = request(query, kind);
        let start_ns = rec.now_ns();
        let reply = client.call(&req);
        let end_ns = rec.now_ns();
        pass.compared += 1;
        match reply {
            Ok(Reply::Outcome(response)) => {
                let hits: Vec<(u64, f64)> = response
                    .matches
                    .iter()
                    .map(|m| (m.id, m.distance))
                    .collect();
                if !same_ids(&hits, &engine_answer.hits) {
                    pass.failures
                        .record(format!("served op {op}: ids differ from the engine's"));
                }
                reply_bytes +=
                    encode_frame(FrameKind::Response, &response.encode(), DEFAULT_MAX_PAYLOAD)
                        .map_or(0, |b| b.len());
                calls.push((op as u32, kind, start_ns, end_ns));
                if pass.sample_reply.is_none() && matches!(kind, OpKind::Range { .. }) {
                    pass.sample_reply = Some(*response);
                }
            }
            Ok(other) => pass
                .failures
                .record(format!("served op {op}: unexpected reply {other:?}")),
            Err(e) => return Err(format!("served op {op}: {e}")),
        }
    }
    drop(client);
    let drained = server.drain();
    pass.shed_share = drained.server.frames_shed as f64 / drained.server.frames_read.max(1) as f64;
    pass.bytes_per_reply = reply_bytes as f64 / calls.len().max(1) as f64;

    // One client, so the n-th `execute` served the n-th answered call.
    let executed = service
        .executed
        .lock()
        .map_err(|_| "the timed service's lock was poisoned")?;
    if executed.len() != calls.len() {
        return Err(format!(
            "{} call(s) answered but {} execute(s) timed",
            calls.len(),
            executed.len()
        ));
    }
    let mut overhead_ns = 0u64;
    let mut range_calls = 0u64;
    for ((op, kind, start_ns, end_ns), (exec_start, exec_end)) in calls.iter().zip(executed.iter())
    {
        let call = rec.push(Span {
            name: "net.call",
            start_ns: *start_ns,
            end_ns: *end_ns,
            parent: NO_PARENT,
            op: *op,
        });
        let inside = u64::try_from((*exec_end - *exec_start).as_nanos()).unwrap_or(u64::MAX);
        let exec_start_ns = rec.offset_ns(*exec_start);
        rec.push(Span {
            name: "search.execute",
            start_ns: exec_start_ns,
            end_ns: exec_start_ns + inside,
            parent: call,
            op: *op,
        });
        if matches!(kind, OpKind::Range { .. }) {
            overhead_ns += (end_ns - start_ns).saturating_sub(inside);
            range_calls += 1;
        }
    }
    pass.roundtrip_overhead_us = overhead_ns as f64 / 1e3 / range_calls.max(1) as f64;
    Ok(pass)
}

pub fn run(cfg: &RunConfig, spans_path: Option<&Path>) -> Result<Outcome, String> {
    let scratch = Scratch::create()?;
    let spec = traced_spec(&cfg.spec);
    let cfg = RunConfig {
        spec: spec.clone(),
        ..cfg.clone()
    };
    let fixture = setup_corpus(&cfg, scratch.path(), 1)?;
    let corpus_dir = scratch.path().join("corpus");
    let mut out = Outcome::default();
    out.info("workload", describe_spec(&cfg));

    // Untraced engine, sequential and fanned out; the sequential pass is the
    // reference the single-threaded staged pipeline is compared with.
    let single = engine_pass(
        &fixture,
        &spec,
        spec.counted_ops,
        REFERENCE_PASS_SECONDS,
        &engine_opts(1),
    )?;
    let ops = single.answers.len();
    let fanned = engine_pass(
        &fixture,
        &spec,
        ops,
        f64::INFINITY,
        &engine_opts(cfg.threads),
    )?;

    // The staged, traced pipeline over the same ops.
    let mut rec = Recorder::new();
    let mut captured = Vec::new();
    let mut failures = Failures::default();
    let mut staged_range_wall_ns = 0u64;
    let knn_opts = engine_opts(1);
    for op in 0..ops {
        let (kind, query) = read_op(&spec, &fixture.queries, op);
        let hits = match kind {
            OpKind::Range { epsilon } => {
                let t = rec.now_ns();
                let hits = staged_range(
                    &fixture.sharded,
                    (op as u32, op % fixture.queries.len(), query),
                    epsilon,
                    &mut rec,
                    &mut captured,
                )?;
                staged_range_wall_ns += rec.now_ns() - t;
                hits
            }
            // A kNN op is one span: the engine's kNN reports no phase times
            // to split it by.
            OpKind::Knn { .. } => {
                rec.time("search.knn", NO_PARENT, op as u32, || {
                    run_sharded(&fixture.sharded, query, kind, &knn_opts)
                })?
                .hits
            }
        };
        if !same_ids(&hits, &single.answers[op].hits) {
            failures.record(format!("traced op {op}: ids differ from the engine's"));
        }
    }
    let staged_spans = rec.spans().len();

    // Through the wire: the whole op list on the served workload, a slice of
    // it elsewhere (so `net.*` is reported on every data shape).
    let served_ops = match spec.access {
        Access::Served => ops,
        _ => ops.min(SERVE_PROBE_OPS),
    };
    let served = serve_pass(
        &fixture,
        &spec,
        served_ops,
        cfg.threads,
        &single.answers,
        &mut rec,
    )?;
    failures.absorb(served.failures);

    // Cascade on: what the bound tiers would prune on this workload's ops.
    let cascade_opts = engine_opts(1).cascade(CascadeSpec::standard());
    let mut cascade = QueryStats::default();
    for op in (0..ops).filter(|&op| !spec.is_knn(op)).take(CASCADE_OPS) {
        let (kind, query) = read_op(&spec, &fixture.queries, op);
        let answer = run_sharded(&fixture.sharded, query, kind, &cascade_opts)?;
        if !same_ids(&answer.hits, &single.answers[op].hits) {
            failures.record(format!("cascade-on op {op}: ids differ from cascade-off"));
        }
        cascade.merge(&answer.stats);
    }

    if let Some(path) = spans_path {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?,
        );
        rec.write_csv(&mut file)
            .and_then(|()| std::io::Write::flush(&mut file))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // Layer self times over the staged range ops.
    let spans = &rec.spans()[..staged_spans];
    let is_range_op = |s: &Span| !spec.is_knn(s.op as usize);
    let by_layer = self_time_by(spans, is_range_op, |s| layer_of(s.name));
    let by_stage = self_time_by(
        spans,
        |s| is_range_op(s) && s.name != "search.range",
        |s| s.name,
    );
    let staged_total: u64 = by_layer.values().sum();
    let stage_total: u64 = by_stage.values().sum();
    let share =
        |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / staged_total.max(1) as f64;
    let reference_ns = single.range_wall_s * 1e9;

    let walks = append_sequences(&spec, cfg.seed, 2_000.min(spec.sequences));
    let range_ops = single.range_ops.max(1) as f64;
    let rs = &single.range_stats;
    let phase_total_s = rs.phases.total().as_secs_f64();
    let sample_query = &fixture.queries[0];
    let sample_reply = served
        .sample_reply
        .ok_or("no range reply came back over the wire")?;

    let effort = Effort { smoke: cfg.smoke };
    let mut metrics: Vec<Metric> = Vec::with_capacity(PER_LAYER.len());
    metrics.extend(probes::distance(
        &captured,
        &fixture.queries,
        spec.epsilon,
        effort,
    ));
    metrics.push(metric(
        "distance.cells_per_query",
        rs.dtw_cells as f64 / range_ops,
        "count",
    ));
    metrics.push(metric(
        "distance.abandon_share",
        rs.abandoned as f64 / (rs.verified + rs.abandoned).max(1) as f64,
        "ratio",
    ));
    metrics.extend(probes::bound(
        &captured,
        &fixture.queries,
        spec.epsilon,
        effort,
    ));
    metrics.push(metric(
        "bound.prune_share",
        cascade.pruned_total() as f64 / cascade.candidates.max(1) as f64,
        "ratio",
    ));
    for (name, pruned) in [
        ("bound.pruned_lb_kim", cascade.pruned_lb_kim),
        ("bound.pruned_lb_yi", cascade.pruned_lb_yi),
        ("bound.pruned_lb_keogh", cascade.pruned_lb_keogh),
        ("bound.pruned_lb_improved", cascade.pruned_lb_improved),
    ] {
        metrics.push(metric(name, pruned as f64, "count"));
    }
    metrics.extend(probes::rtree(
        &fixture.sharded,
        &corpus_dir,
        &spec,
        &fixture.queries,
        effort,
    ));
    metrics.push(metric(
        "rtree.nodes_per_query",
        rs.index_node_accesses() as f64 / range_ops,
        "count",
    ));
    metrics.push(metric(
        "rtree.candidates_per_query",
        rs.candidates as f64 / range_ops,
        "count",
    ));
    metrics.extend(probes::storage(
        &corpus_dir,
        &scratch.path().join("probe"),
        &spec,
        &walks,
        effort,
    )?);
    metrics.push(metric(
        "storage.pool_hit_share",
        single.pool_hits as f64 / (single.pool_hits + single.pool_misses).max(1) as f64,
        "ratio",
    ));
    metrics.push(metric(
        "storage.pager_reads_per_query",
        rs.pager_reads as f64 / range_ops,
        "count",
    ));
    metrics.extend([
        metric(
            "search.filter_ms",
            rs.phases.filter.as_secs_f64() * 1e3 / range_ops,
            "ms",
        ),
        metric(
            "search.fetch_ms",
            rs.phases.fetch.as_secs_f64() * 1e3 / range_ops,
            "ms",
        ),
        metric(
            "search.verify_ms",
            rs.phases.verify.as_secs_f64() * 1e3 / range_ops,
            "ms",
        ),
        metric(
            "search.unattributed_ms",
            (single.range_wall_s - phase_total_s) * 1e3 / range_ops,
            "ms",
        ),
        metric(
            "search.fanout_speedup",
            single.range_wall_s / fanned.range_wall_s.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric(
            "search.candidate_ratio",
            rs.candidates as f64 / (range_ops * spec.sequences as f64),
            "ratio",
        ),
        metric(
            "search.matches_per_query",
            single.matches as f64 / range_ops,
            "count",
        ),
        metric(
            "search.knn_ms",
            single.knn_wall_s * 1e3 / single.knn_ops.max(1) as f64,
            "ms",
        ),
    ]);
    metrics.extend(probes::govern(effort));
    metrics.push(metric("govern.shed_share", served.shed_share, "ratio"));
    metrics.extend(probes::net_codec(
        sample_query,
        OpKind::Range {
            epsilon: spec.epsilon,
        },
        &sample_reply,
        effort,
    ));
    metrics.extend([
        metric("net.connect_us", served.connect_us, "us"),
        metric(
            "net.roundtrip_overhead_us",
            served.roundtrip_overhead_us,
            "us",
        ),
        metric("net.bytes_per_reply", served.bytes_per_reply, "B"),
    ]);
    metrics.extend(probes::ingest(
        &spec,
        scratch.path(),
        &walks,
        &fixture.queries,
        cfg.threads,
        effort,
    )?);
    for layer in ["distance", "bound", "rtree", "storage", "search"] {
        metrics.push(metric(format!("share.{layer}"), share(layer), "ratio"));
    }
    metrics.push(metric(
        "trace.coverage",
        stage_total as f64 / reference_ns.max(1.0),
        "ratio",
    ));
    metrics.push(metric(
        "trace.overhead_share",
        staged_range_wall_ns as f64 / reference_ns.max(1.0) - 1.0,
        "ratio",
    ));

    // Report in `PER_LAYER`'s order, whichever order the probes came in.
    if metrics.len() != PER_LAYER.len() {
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        return Err(format!(
            "per-layer metrics drifted from PER_LAYER: {names:?}"
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            metrics
                .iter()
                .find(|m| m.name == name && m.unit == unit)
                .cloned()
                .ok_or(format!("per-layer metric {name} ({unit}) was not produced"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    out.info("traced_ops", Json::uint(ops as u64));
    out.info("spans", Json::uint(rec.spans().len() as u64));
    out.info(
        "stage_self_ms_per_range_op",
        Json::Obj(
            by_stage
                .iter()
                .map(|(name, ns)| (name.to_string(), Json::Num(*ns as f64 / 1e6 / range_ops)))
                .collect(),
        ),
    );
    out.info(
        "engine_range_ms_threads_1",
        Json::Num(single.range_wall_s * 1e3 / range_ops),
    );
    out.info(
        "engine_range_ms_threads_n",
        Json::Num(fanned.range_wall_s * 1e3 / range_ops),
    );
    out.info("pool_misses", Json::uint(single.pool_misses));
    out.metrics = metrics;
    out.attempted = (2 * ops) as u64 + served.compared;
    out.failures = failures;
    Ok(out)
}
