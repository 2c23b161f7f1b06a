//! The four search methods of the paper's evaluation — Naive-Scan, LB-Scan,
//! ST-Filter and TW-Sim-Search — plus the FastMap method (§3.3, measured for
//! its false dismissals), kNN search and subsequence matching extensions.
//!
//! All exact engines answer the same question (§4.1): given a query sequence
//! `Q` and tolerance `ε`, find every data sequence `S` with
//! `D_tw(S, Q) <= ε`. They differ in *how much work* they spend doing it,
//! which is what their [`crate::stats::QueryStats`] ledger records and the
//! derived [`SearchStats`] view reports.

mod engine;
mod fastmap_search;
mod knn;
mod lb_scan;
mod naive_scan;
pub(crate) mod pipeline;
mod resilient;
mod sharded;
mod st_filter;
mod subsequence;
mod tw_sim_search;
mod verify;

pub use engine::{EngineHealth, EngineOpts, SearchEngine, SearchOutcome};
pub use fastmap_search::{false_dismissals, FastMapSearch};
pub use knn::{KnnMatch, KnnOutcome, ShardedKnnOutcome};
pub use lb_scan::LbScan;
pub use naive_scan::NaiveScan;
pub use resilient::ResilientSearch;
pub use sharded::{CorpusSharder, ShardHandle, ShardedOutcome, ShardedSearch};
pub use st_filter::StFilterSearch;
pub use subsequence::{SubsequenceIndex, SubsequenceMatch, SubsequenceOutcome, WindowSpec};
pub use tw_sim_search::{TwSimSearch, VerifyMode};
pub use verify::VerifyJob;

pub use crate::stats::SearchStats;

use tw_storage::SeqId;

/// A qualifying sequence with its exact time-warping distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    pub id: SeqId,
    pub distance: f64,
}

/// Outcome of one similarity query.
#[derive(Debug, Clone, Default)]
pub struct SearchResult {
    /// Matches sorted by ascending sequence id.
    pub matches: Vec<Match>,
    pub stats: SearchStats,
}

impl SearchResult {
    /// The matched ids, ascending.
    pub fn ids(&self) -> Vec<SeqId> {
        self.matches.iter().map(|m| m.id).collect()
    }
}

/// Shorthand used by the engine test modules: run a range query through the
/// [`SearchEngine`] trait with default options plus an explicit kind.
#[cfg(test)]
pub(crate) fn run_search<P, E>(
    engine: &E,
    store: &tw_storage::SequenceStore<P>,
    query: &[f64],
    epsilon: f64,
    kind: crate::distance::DtwKind,
) -> Result<SearchResult, crate::error::TwError>
where
    P: tw_storage::Pager,
    E: SearchEngine<P> + ?Sized,
{
    let opts = EngineOpts::new().kind(kind);
    Ok(engine
        .range_search(store, query, epsilon, &opts)?
        .into_result())
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;

    use std::time::Duration;

    use tw_storage::{HardwareModel, IoProfile};

    use crate::stats::QueryStats;

    fn view(ledger: &QueryStats, io: IoProfile, db_size: usize) -> SearchStats {
        SearchStats::from_ledger(ledger, io, db_size, Duration::ZERO)
    }

    #[test]
    fn candidate_ratio() {
        let ledger = QueryStats {
            candidates: 60,
            refine_candidates: 5,
            ..Default::default()
        };
        let stats = view(&ledger, IoProfile::default(), 200);
        assert_eq!(stats.candidates, 5);
        assert_eq!(stats.candidate_ratio(), 0.025);
        assert_eq!(SearchStats::default().candidate_ratio(), 0.0);
    }

    #[test]
    fn modeled_elapsed_prices_all_sources() {
        let hw = HardwareModel::icde2001();
        let ledger = QueryStats {
            index_internal_accesses: 4,
            index_leaf_accesses: 6,
            dtw_cells: 5_000_000,  // 1 s at the 2001 CPU rate
            filter_ops: 2_000_000, // 0.1 s
            ..Default::default()
        };
        let io = IoProfile {
            random_requests: 5,
            random_page_reads: 5,
            sequential_pages_scanned: 100,
        };
        let stats = view(&ledger, io, 0);
        assert_eq!(stats.index_node_accesses, 10);
        let t = stats.modeled_elapsed(&hw);
        // CPU terms alone contribute 1.1 s; disk terms are on top.
        assert!(t > Duration::from_millis(1_100));
        assert!(t > hw.disk.random_reads(15));
        // The model ignores the measuring machine's wall clock.
        let slower = SearchStats::from_ledger(&ledger, io, 0, Duration::from_secs(100));
        assert_eq!(slower.modeled_elapsed(&hw), t);
    }

    #[test]
    fn accumulate_sums_counters() {
        // A batch accumulates by merging ledgers and deriving one view:
        // invocations are verdicts plus pivot projections, summed.
        let mut a = QueryStats {
            refine_candidates: 2,
            verified: 1,
            abandoned: 1,
            ..Default::default()
        };
        a.merge(&QueryStats {
            refine_candidates: 3,
            verified: 2,
            pivot_dtw: 1,
            ..Default::default()
        });
        let stats =
            SearchStats::from_ledger(&a, IoProfile::default(), 100, Duration::from_millis(1));
        assert_eq!(stats.candidates, 5);
        assert_eq!(stats.dtw_invocations, 5);
        assert_eq!(stats.db_size, 100);
        assert_eq!(stats.cpu_time, Duration::from_millis(1));
    }
}
