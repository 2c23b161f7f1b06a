//! The four search methods of the paper's evaluation — Naive-Scan, LB-Scan,
//! ST-Filter and TW-Sim-Search — plus the FastMap method (§3.3, measured for
//! its false dismissals), kNN search and subsequence matching extensions.
//!
//! All exact engines answer the same question (§4.1): given a query sequence
//! `Q` and tolerance `ε`, find every data sequence `S` with
//! `D_tw(S, Q) <= ε`. They differ in *how much work* they spend doing it,
//! which is what [`SearchStats`] captures.

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

use std::time::Duration;

use tw_storage::{HardwareModel, IoProfile, SeqId};

/// A qualifying sequence with its exact time-warping distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    pub id: SeqId,
    pub distance: f64,
}

/// Work accounting for one query, the currency of the paper's figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Database size at query time (denominator of the candidate ratio).
    pub db_size: usize,
    /// Sequences that survived the filtering step and were verified with the
    /// exact distance (numerator of the candidate ratio, Figure 2).
    pub candidates: usize,
    /// Exact DTW computations started (early-abandoned ones included).
    pub dtw_invocations: u64,
    /// DP cells computed across exact DTW calls.
    pub dtw_cells: u64,
    /// Cheap lower-bound evaluations performed (one per sequence in LB-Scan).
    pub lb_evaluations: u64,
    /// Element-level filter work: lower-bound element operations (LB-Scan)
    /// or suffix-tree DP cells (ST-Filter), priced by the CPU model.
    pub filter_ops: u64,
    /// Index structure node accesses (R-tree nodes or suffix-tree nodes),
    /// priced as random page reads by the cost model.
    pub index_node_accesses: u64,
    /// Sequence-store traffic (candidate reads, sequential scans).
    pub io: IoProfile,
    /// Measured CPU/wall time of the query.
    pub cpu_time: Duration,
}

impl SearchStats {
    /// `candidates / database size` (Figure 2's Y-axis). Zero for an empty
    /// database.
    pub fn candidate_ratio(&self) -> f64 {
        if self.db_size == 0 {
            0.0
        } else {
            self.candidates as f64 / self.db_size as f64
        }
    }

    /// The fully modeled elapsed time on the paper's hardware (Figures 3–5's
    /// Y-axis): the disk model prices store traffic and index node accesses,
    /// the CPU model prices DP cells and filter operations. Deterministic —
    /// it does not depend on the measuring machine.
    pub fn modeled_elapsed(&self, hw: &HardwareModel) -> Duration {
        hw.disk
            .elapsed(&self.io)
            .saturating_add(hw.disk.random_reads(self.index_node_accesses))
            .saturating_add(hw.cpu.dtw_time(self.dtw_cells))
            .saturating_add(hw.cpu.filter_time(self.filter_ops))
    }

    /// Accumulates another query's stats (used to average over the paper's
    /// 100-query batches).
    pub fn accumulate(&mut self, other: &SearchStats) {
        self.db_size = self.db_size.max(other.db_size);
        self.candidates += other.candidates;
        self.dtw_invocations += other.dtw_invocations;
        self.dtw_cells += other.dtw_cells;
        self.lb_evaluations += other.lb_evaluations;
        self.filter_ops += other.filter_ops;
        self.index_node_accesses += other.index_node_accesses;
        self.io.add(&other.io);
        self.cpu_time += other.cpu_time;
    }
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

    #[test]
    fn candidate_ratio() {
        let stats = SearchStats {
            db_size: 200,
            candidates: 5,
            ..Default::default()
        };
        assert_eq!(stats.candidate_ratio(), 0.025);
        assert_eq!(SearchStats::default().candidate_ratio(), 0.0);
    }

    #[test]
    fn modeled_elapsed_prices_all_sources() {
        let hw = HardwareModel::icde2001();
        let stats = SearchStats {
            index_node_accesses: 10,
            dtw_cells: 5_000_000,  // 1 s at the 2001 CPU rate
            filter_ops: 2_000_000, // 0.1 s
            io: IoProfile {
                random_requests: 5,
                random_page_reads: 5,
                sequential_pages_scanned: 100,
            },
            ..Default::default()
        };
        let t = stats.modeled_elapsed(&hw);
        // CPU terms alone contribute 1.1 s; disk terms are on top.
        assert!(t > Duration::from_millis(1_100));
        assert!(t > hw.disk.random_reads(15));
        // The model ignores the measuring machine's wall clock.
        let mut faster = stats.clone();
        faster.cpu_time = Duration::from_secs(100);
        assert_eq!(faster.modeled_elapsed(&hw), t);
    }

    #[test]
    fn accumulate_sums_counters() {
        let mut a = SearchStats {
            db_size: 100,
            candidates: 2,
            dtw_invocations: 2,
            ..Default::default()
        };
        a.accumulate(&SearchStats {
            db_size: 100,
            candidates: 3,
            dtw_invocations: 3,
            cpu_time: Duration::from_millis(1),
            ..Default::default()
        });
        assert_eq!(a.candidates, 5);
        assert_eq!(a.dtw_invocations, 5);
        assert_eq!(a.db_size, 100);
        assert_eq!(a.cpu_time, Duration::from_millis(1));
    }
}
