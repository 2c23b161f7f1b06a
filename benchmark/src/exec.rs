//! Running one read operation against each access path, checked.
//!
//! Every path returns the same [`Answer`] and treats anything short of a
//! complete, healthy reply — an error, a shed, a partial result nobody asked
//! for, a degraded engine — as a failure the caller counts.

use std::net::TcpStream;
use std::sync::Arc;

use tw_core::search::{EngineOpts, ShardedSearch, TwSimSearch};
use tw_core::{DtwKind, QueryBudget, QueryStats, Snapshot, Termination, TwError};
use tw_net::{
    Client, QueryKind, QueryRequest, QueryService, Reply, ServiceOutcome, WireBudget, WireHealth,
};
use tw_storage::{DynSequenceStore, Pager, SegmentPager};

pub type Sharded = ShardedSearch<SegmentPager>;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    Range { epsilon: f64 },
    Knn { k: usize },
}

/// What one read operation returned: `(id, distance)` pairs — id order for a
/// range query, distance order for kNN — and the engine's own ledger.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    pub hits: Vec<(u64, f64)>,
    pub stats: QueryStats,
}

/// Engine threads: `min(nproc, 4)`.
pub fn engine_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The paper's model: L∞ base distance, exact verification, no cascade —
/// the options the CLI and the server use.
pub fn engine_opts(threads: usize) -> EngineOpts {
    EngineOpts::new().kind(DtwKind::MaxAbs).threads(threads)
}

/// A complete reply becomes an [`Answer`]; a partial one nobody asked for is
/// a failure.
fn answer(
    termination: Termination,
    hits: impl Iterator<Item = (u64, f64)>,
    stats: QueryStats,
) -> Result<Answer, String> {
    if !termination.is_complete() {
        return Err(format!("unrequested partial result: {termination}"));
    }
    Ok(Answer {
        hits: hits.collect(),
        stats,
    })
}

pub fn run_sharded(
    sharded: &Sharded,
    query: &[f64],
    kind: OpKind,
    opts: &EngineOpts,
) -> Result<Answer, String> {
    match kind {
        OpKind::Range { epsilon } => {
            let out = sharded
                .range_search_sharded(query, epsilon, opts)
                .map_err(|e| e.to_string())?
                .merged;
            if out.health.is_degraded() {
                return Err(format!("engine {}", out.health));
            }
            let hits = out.matches.iter().map(|m| (m.id, m.distance));
            answer(out.termination, hits, out.query_stats)
        }
        OpKind::Knn { k } => {
            let out = sharded
                .knn_sharded(query, k, opts)
                .map_err(|e| e.to_string())?
                .merged;
            let hits = out.matches.iter().map(|m| (m.id, m.distance));
            answer(out.termination, hits, out.query_stats)
        }
    }
}

/// A snapshot range query beside the writer.
pub fn run_snapshot<P: Pager>(
    snapshot: &Snapshot<'_, P>,
    query: &[f64],
    epsilon: f64,
    opts: &EngineOpts,
) -> Result<Answer, String> {
    let out = snapshot
        .search(query, epsilon, opts)
        .map_err(|e| e.to_string())?;
    let hits = out.matches.iter().map(|m| (m.id, m.distance));
    answer(out.termination, hits, out.query_stats)
}

/// kNN over a flat store and its index file, as `twsearch query --knn` does.
pub fn run_flat_knn(
    store: &DynSequenceStore,
    index: &TwSimSearch,
    query: &[f64],
    k: usize,
    opts: &EngineOpts,
) -> Result<Answer, String> {
    let out = index
        .knn_governed(store, query, k, opts)
        .map_err(|e| e.to_string())?;
    let hits = out.matches.iter().map(|m| (m.id, m.distance));
    answer(out.termination, hits, out.query_stats)
}

/// The sharded corpus behind the wire, as `twsearch serve` plugs it in.
pub struct ShardedService {
    pub sharded: Arc<Sharded>,
    pub threads: usize,
}

impl QueryService for ShardedService {
    fn execute(
        &self,
        request: &QueryRequest,
        budget: QueryBudget,
    ) -> Result<ServiceOutcome, TwError> {
        let opts = engine_opts(self.threads).budget(budget);
        match request.kind {
            QueryKind::Range { epsilon } => self
                .sharded
                .range_search_sharded(&request.values, epsilon, &opts)
                .map(|o| o.merged.into()),
            QueryKind::Knn { k } => self
                .sharded
                .knn_sharded(
                    &request.values,
                    usize::try_from(k).unwrap_or(usize::MAX),
                    &opts,
                )
                .map(|o| o.merged.into()),
        }
    }
}

/// Clients send a generous deadline, as `xtask loadtest` does: the budget
/// crosses the wire and arms a live token, but never trips.
const WIRE_DEADLINE_MS: u64 = 30_000;

pub fn request(query: &[f64], kind: OpKind) -> QueryRequest {
    QueryRequest {
        tenant: 0,
        budget: WireBudget {
            deadline_ms: WIRE_DEADLINE_MS,
            ..WireBudget::default()
        },
        kind: match kind {
            OpKind::Range { epsilon } => QueryKind::Range { epsilon },
            OpKind::Knn { k } => QueryKind::Knn {
                k: u32::try_from(k).unwrap_or(u32::MAX),
            },
        },
        values: query.to_vec(),
    }
}

pub fn run_served(
    client: &mut Client<TcpStream>,
    request: &QueryRequest,
) -> Result<Answer, String> {
    match client.call(request).map_err(|e| e.to_string())? {
        Reply::Outcome(response) => {
            if response.health != WireHealth::Healthy {
                return Err(format!("engine degraded: {:?}", response.health));
            }
            let hits = response.matches.iter().map(|m| (m.id, m.distance));
            answer(response.termination, hits, response.stats)
        }
        Reply::Shed(shed) => Err(format!("shed (queue depth {})", shed.queue_depth)),
        Reply::Error(e) => Err(format!("server error {:?}: {}", e.code, e.message)),
    }
}
