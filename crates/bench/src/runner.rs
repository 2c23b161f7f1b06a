//! Query-batch execution over the four methods.

use std::time::Duration;

use tw_core::distance::DtwKind;
use tw_core::search::{
    EngineOpts, LbScan, NaiveScan, SearchEngine, SearchOutcome, SearchStats, StFilterSearch,
    TwSimSearch,
};
use tw_core::QueryStats;
use tw_storage::{HardwareModel, IoProfile, MemPager, SequenceStore};

/// The four methods of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    NaiveScan,
    LbScan,
    StFilter,
    TwSimSearch,
}

impl Method {
    /// All four, in the order the paper's figures list them.
    pub const ALL: [Method; 4] = [
        Method::NaiveScan,
        Method::LbScan,
        Method::StFilter,
        Method::TwSimSearch,
    ];

    /// Label used in tables and CSV files.
    pub fn label(self) -> &'static str {
        match self {
            Method::NaiveScan => "naive-scan",
            Method::LbScan => "lb-scan",
            Method::StFilter => "st-filter",
            Method::TwSimSearch => "tw-sim-search",
        }
    }
}

/// Aggregated outcome of one method over a query batch: the summed
/// ledger plus what lives outside it, from which [`Self::stats`] derives
/// the paper's view.
#[derive(Debug, Clone)]
pub struct MethodBatch {
    pub method: Method,
    /// Summed ledger over the batch.
    pub query_stats: QueryStats,
    /// Summed store traffic over the batch.
    pub io: IoProfile,
    /// The largest database size a query saw.
    pub db_size: usize,
    /// Summed measured query time.
    pub cpu_time: Duration,
    /// Total matches across the batch.
    pub total_matches: usize,
    /// Queries executed.
    pub queries: usize,
}

impl MethodBatch {
    /// An empty batch for `method`.
    pub fn new(method: Method) -> Self {
        Self {
            method,
            query_stats: QueryStats::default(),
            io: IoProfile::default(),
            db_size: 0,
            cpu_time: Duration::ZERO,
            total_matches: 0,
            queries: 0,
        }
    }

    /// Adds one query's outcome to the batch.
    pub fn add(&mut self, outcome: &SearchOutcome) {
        self.query_stats.merge(&outcome.query_stats);
        self.io.add(&outcome.stats.io);
        self.db_size = self.db_size.max(outcome.stats.db_size);
        self.cpu_time += outcome.stats.cpu_time;
        self.total_matches += outcome.matches.len();
        self.queries += 1;
    }

    /// The paper's view of the summed ledger.
    pub fn stats(&self) -> SearchStats {
        SearchStats::from_ledger(&self.query_stats, self.io, self.db_size, self.cpu_time)
    }

    /// Mean candidate ratio per query. Naive-Scan has no filter, so
    /// Figure 2 plots its match count (the true result) as its candidates.
    pub fn mean_candidate_ratio(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        let ratio = match self.method {
            Method::NaiveScan if self.db_size > 0 => {
                self.total_matches as f64 / self.db_size as f64
            }
            _ => self.stats().candidate_ratio(),
        };
        ratio / self.queries as f64
    }

    /// Mean modeled elapsed time per query under the hardware model.
    pub fn mean_modeled_elapsed(&self, hw: &HardwareModel) -> Duration {
        if self.queries == 0 {
            return Duration::ZERO;
        }
        self.stats().modeled_elapsed(hw) / self.queries as u32
    }

    /// Mean measured CPU time per query.
    pub fn mean_cpu(&self) -> Duration {
        if self.queries == 0 {
            return Duration::ZERO;
        }
        self.cpu_time / self.queries as u32
    }

    /// Mean matches per query.
    pub fn mean_matches(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.total_matches as f64 / self.queries as f64
    }
}

/// Outcome of a full batch across the requested methods.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    pub per_method: Vec<MethodBatch>,
}

impl BatchOutcome {
    /// The batch entry for one method, if it ran.
    pub fn get(&self, method: Method) -> Option<&MethodBatch> {
        self.per_method.iter().find(|m| m.method == method)
    }
}

/// Loads a data set into an in-memory, 1 KB-paged sequence store.
pub fn build_store(data: &[Vec<f64>]) -> SequenceStore<MemPager> {
    let mut store = SequenceStore::in_memory();
    for s in data {
        store.append(s).expect("append synthetic sequence");
    }
    store
}

/// Pre-built engines for a store, so batch runs don't pay build cost per
/// query.
pub struct Engines {
    pub tw_sim: Option<TwSimSearch>,
    pub st_filter: Option<StFilterSearch>,
}

impl Engines {
    /// Builds the engines needed by `methods`.
    pub fn build(store: &SequenceStore<MemPager>, methods: &[Method]) -> Self {
        let tw_sim = methods
            .contains(&Method::TwSimSearch)
            .then(|| TwSimSearch::build(store).expect("build TW-Sim-Search index"));
        let st_filter = methods
            .contains(&Method::StFilter)
            .then(|| StFilterSearch::build(store).expect("build ST-Filter"));
        Self { tw_sim, st_filter }
    }

    /// The trait object executing `method` — the single dispatch point every
    /// batch run goes through.
    pub fn engine_for(&self, method: Method) -> &dyn SearchEngine<MemPager> {
        match method {
            Method::NaiveScan => &NaiveScan,
            Method::LbScan => &LbScan,
            Method::StFilter => self.st_filter.as_ref().expect("ST-Filter engine built"),
            Method::TwSimSearch => self.tw_sim.as_ref().expect("TW-Sim-Search engine built"),
        }
    }
}

/// Runs every query through every requested method, checking that all exact
/// methods return identical result sets (the no-false-dismissal guarantee is
/// verified on every batch, not assumed).
pub fn run_batch(
    store: &SequenceStore<MemPager>,
    engines: &Engines,
    queries: &[Vec<f64>],
    epsilon: f64,
    kind: DtwKind,
    methods: &[Method],
) -> BatchOutcome {
    let mut per_method: Vec<MethodBatch> = methods.iter().map(|&m| MethodBatch::new(m)).collect();

    let opts = EngineOpts::new().kind(kind);
    for query in queries {
        let mut reference_ids: Option<Vec<u64>> = None;
        for batch in per_method.iter_mut() {
            let result = engines
                .engine_for(batch.method)
                .range_search(store, query, epsilon, &opts)
                .expect("query execution");
            let ids = result.ids();
            match &reference_ids {
                None => reference_ids = Some(ids),
                Some(reference) => assert_eq!(
                    reference,
                    &ids,
                    "{} disagrees with the reference result set",
                    batch.method.label()
                ),
            }
            batch.add(&result);
        }
    }
    BatchOutcome { per_method }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

    #[test]
    fn batch_runs_all_methods_and_they_agree() {
        let data = generate_random_walks(&RandomWalkConfig::paper(40, 30), 1);
        let store = build_store(&data);
        let engines = Engines::build(&store, &Method::ALL);
        let queries = generate_queries(&data, 5, 2);
        let outcome = run_batch(
            &store,
            &engines,
            &queries,
            0.2,
            DtwKind::MaxAbs,
            &Method::ALL,
        );
        assert_eq!(outcome.per_method.len(), 4);
        let naive = outcome.get(Method::NaiveScan).unwrap();
        let tw = outcome.get(Method::TwSimSearch).unwrap();
        assert_eq!(naive.total_matches, tw.total_matches);
        assert_eq!(naive.queries, 5);
        // TW-Sim-Search candidates never exceed the database-per-query total.
        assert!(tw.stats().candidates <= naive.db_size * 5);
    }

    #[test]
    fn modeled_time_orders_methods_sanely() {
        // On a small but not tiny store, the scans pay sequential I/O while
        // the index pays a few random reads: TW-Sim must be cheapest.
        let data = generate_random_walks(&RandomWalkConfig::paper(300, 120), 3);
        let store = build_store(&data);
        let engines = Engines::build(&store, &[Method::NaiveScan, Method::TwSimSearch]);
        let queries = generate_queries(&data, 3, 4);
        let outcome = run_batch(
            &store,
            &engines,
            &queries,
            0.05,
            DtwKind::MaxAbs,
            &[Method::NaiveScan, Method::TwSimSearch],
        );
        let hw = HardwareModel::icde2001();
        let naive = outcome
            .get(Method::NaiveScan)
            .unwrap()
            .mean_modeled_elapsed(&hw);
        let tw = outcome
            .get(Method::TwSimSearch)
            .unwrap()
            .mean_modeled_elapsed(&hw);
        assert!(tw < naive, "tw {tw:?} >= naive {naive:?}");
    }
}
