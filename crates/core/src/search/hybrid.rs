//! Cost-based hybrid execution (extension).
//!
//! The paper's Figure 3 shows the regime boundary implicitly: at large
//! tolerances the index's candidate set approaches the database and a
//! sequential scan's streaming I/O beats per-candidate random reads. A real
//! deployment should not make the user pick — this engine runs the cheap
//! in-memory index filter first, *prices both continuations with the
//! hardware cost model*, and executes the cheaper one. Either way the result
//! set is exact.

use tw_storage::{HardwareModel, Pager, SequenceStore};

use crate::error::{validate_query, validate_tolerance, TwError};
use crate::feature::FeatureVector;
use crate::search::{EngineOpts, LbScan, SearchEngine, SearchOutcome, TwSimSearch};

/// Which continuation the hybrid engine executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridPlan {
    /// Verified the index's candidates with random reads (Algorithm 1).
    IndexVerify,
    /// Fell back to the lower-bound-filtered sequential scan.
    SequentialScan,
}

/// A cost-based router over [`TwSimSearch`] and [`LbScan`].
#[derive(Debug, Clone)]
pub struct HybridSearch {
    engine: TwSimSearch,
}

impl HybridSearch {
    /// Builds the underlying index.
    pub fn build<P: Pager>(store: &SequenceStore<P>) -> Result<Self, TwError> {
        Ok(Self {
            engine: TwSimSearch::build(store)?,
        })
    }

    /// Wraps an existing index.
    pub fn from_engine(engine: TwSimSearch) -> Self {
        Self { engine }
    }

    /// The underlying index engine.
    pub fn engine(&self) -> &TwSimSearch {
        &self.engine
    }

    /// Prices both continuations with the hardware model and picks the
    /// cheaper one. Returns the plan and the traversal stats the planning
    /// probe itself spent.
    fn choose_plan<P: Pager>(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        hw: &HardwareModel,
    ) -> Result<(HybridPlan, tw_rtree::QueryStats), TwError> {
        // The index filter itself is in-memory-cheap; run it to learn the
        // candidate count.
        validate_query(query)?;
        let q = FeatureVector::from_values(query).as_point();
        let probe = self.engine.tree().range_centered(&q, epsilon);
        let probe_nodes = probe.stats.node_accesses();

        // Price the index continuation: one random request per candidate
        // plus its pages, plus the node accesses already performed.
        let mut candidate_pages = 0u64;
        for &id in &probe.ids {
            candidate_pages += store.sequence_pages(id)?;
        }
        let index_io = tw_storage::IoProfile {
            random_requests: probe.ids.len() as u64,
            random_page_reads: candidate_pages,
            sequential_pages_scanned: 0,
        };
        let index_cost = hw
            .disk
            .elapsed(&index_io)
            .saturating_add(hw.disk.random_reads(probe_nodes));

        // Price the scan continuation: one streaming pass. (Verification DTW
        // cost is comparable on both paths — the scan's LB filter admits a
        // superset of the index's candidates — so I/O decides.)
        let scan_io = tw_storage::IoProfile {
            random_requests: 0,
            random_page_reads: 0,
            sequential_pages_scanned: store.data_pages(),
        };
        let scan_cost = hw
            .disk
            .elapsed(&scan_io)
            .saturating_add(hw.disk.random_reads(probe_nodes));

        let plan = if index_cost <= scan_cost {
            HybridPlan::IndexVerify
        } else {
            HybridPlan::SequentialScan
        };
        Ok((plan, probe.stats))
    }
}

impl<P: Pager> SearchEngine<P> for HybridSearch {
    fn name(&self) -> &str {
        "hybrid"
    }

    /// Prices the index and scan continuations with `opts.hardware`, runs
    /// the cheaper one, and records which in [`SearchOutcome::plan`]. Either
    /// way the result set is exact.
    fn range_search(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        validate_tolerance(epsilon)?;
        let (plan, probe_stats) = self.choose_plan(store, query, epsilon, &opts.hardware)?;

        // Either continuation reports the planner's probe traversal in its
        // stats — those node accesses were genuinely spent. (The index path
        // traverses again inside its own search; a production system would
        // reuse the probe's candidate list, but keeping Algorithm 1's entry
        // point untouched makes the engines directly comparable.)
        let mut outcome = match plan {
            HybridPlan::IndexVerify => {
                SearchEngine::range_search(&self.engine, store, query, epsilon, opts)?
            }
            HybridPlan::SequentialScan => {
                SearchEngine::range_search(&LbScan, store, query, epsilon, opts)?
            }
        };
        outcome.stats.index_node_accesses += probe_stats.node_accesses();
        outcome.query_stats.index_internal_accesses += probe_stats.internal_accesses;
        outcome.query_stats.index_leaf_accesses += probe_stats.leaf_accesses;
        outcome.plan = Some(plan);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DtwKind;
    use crate::search::NaiveScan;
    use tw_storage::SequenceStore;
    use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

    fn store_with(data: &[Vec<f64>]) -> SequenceStore<tw_storage::MemPager> {
        let mut store = SequenceStore::in_memory();
        for s in data {
            store.append(s).unwrap();
        }
        store
    }

    /// Runs the hybrid engine and returns `(result, plan)`.
    fn run(
        hybrid: &HybridSearch,
        store: &SequenceStore<tw_storage::MemPager>,
        query: &[f64],
        epsilon: f64,
        hw: HardwareModel,
    ) -> (crate::search::SearchResult, HybridPlan) {
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).hardware(hw);
        let outcome = hybrid.range_search(store, query, epsilon, &opts).unwrap();
        let plan = outcome.plan.unwrap();
        (outcome.into_result(), plan)
    }

    #[test]
    fn always_exact_whatever_the_plan() {
        let data = generate_random_walks(&RandomWalkConfig::paper(120, 60), 1);
        let store = store_with(&data);
        let hybrid = HybridSearch::build(&store).unwrap();
        let hw = HardwareModel::icde2001();
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let queries = generate_queries(&data, 4, 2);
        for q in &queries {
            for eps in [0.02, 0.3, 5.0, 100.0] {
                let (res, _plan) = run(&hybrid, &store, q, eps, hw);
                let naive = NaiveScan
                    .range_search(&store, q, eps, &opts)
                    .unwrap()
                    .into_result();
                assert_eq!(res.ids(), naive.ids(), "eps {eps}");
            }
        }
    }

    #[test]
    fn selective_queries_use_the_index() {
        let data = generate_random_walks(&RandomWalkConfig::paper(300, 80), 3);
        let store = store_with(&data);
        let hybrid = HybridSearch::build(&store).unwrap();
        let q = generate_queries(&data, 1, 4).remove(0);
        let (_, plan) = run(&hybrid, &store, &q, 0.02, HardwareModel::icde2001());
        assert_eq!(plan, HybridPlan::IndexVerify);
    }

    #[test]
    fn unselective_queries_fall_back_to_the_scan() {
        // A huge tolerance admits every sequence as a candidate: verifying
        // them with random reads costs more seeks than streaming the file.
        let data = generate_random_walks(&RandomWalkConfig::paper(300, 80), 5);
        let store = store_with(&data);
        let hybrid = HybridSearch::build(&store).unwrap();
        let q = generate_queries(&data, 1, 6).remove(0);
        let (_, plan) = run(&hybrid, &store, &q, 1000.0, HardwareModel::icde2001());
        assert_eq!(plan, HybridPlan::SequentialScan);
    }

    #[test]
    fn free_disk_always_prefers_index() {
        // With free I/O the index path is never costlier.
        let data = generate_random_walks(&RandomWalkConfig::paper(100, 40), 7);
        let store = store_with(&data);
        let hybrid = HybridSearch::build(&store).unwrap();
        let q = generate_queries(&data, 1, 8).remove(0);
        let (_, plan) = run(&hybrid, &store, &q, 1000.0, HardwareModel::cpu_only());
        assert_eq!(plan, HybridPlan::IndexVerify);
    }

    #[test]
    fn probe_traversal_lands_in_query_stats() {
        let data = generate_random_walks(&RandomWalkConfig::paper(120, 60), 11);
        let store = store_with(&data);
        let hybrid = HybridSearch::build(&store).unwrap();
        let q = generate_queries(&data, 1, 12).remove(0);
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let out = hybrid.range_search(&store, &q, 0.05, &opts).unwrap();
        let qs = out.query_stats;
        // The probe plus any index traversal agree with the aggregate stat.
        assert_eq!(qs.index_node_accesses(), out.stats.index_node_accesses);
        assert!(qs.index_node_accesses() > 0);
        // The probe only adds node accesses — accounting stays balanced.
        assert!(qs.accounting_balanced(), "{qs:?}");
        assert_eq!(qs.dtw_cells, out.stats.dtw_cells);
    }

    #[test]
    fn rejects_empty_query() {
        let data = generate_random_walks(&RandomWalkConfig::paper(10, 10), 9);
        let store = store_with(&data);
        let hybrid = HybridSearch::build(&store).unwrap();
        let opts = EngineOpts::new()
            .kind(DtwKind::MaxAbs)
            .hardware(HardwareModel::icde2001());
        assert!(hybrid.range_search(&store, &[], 1.0, &opts).is_err());
    }
}
