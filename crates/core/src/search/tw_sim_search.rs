//! TW-Sim-Search (§4.3, Algorithm 1): the paper's contribution.
//!
//! Build time: extract the warping-invariant 4-tuple feature vector of every
//! sequence and index the resulting 4-D points in an R-tree (1 KB pages as in
//! §5.1, bulk-loaded per §4.3.1).
//!
//! Query time:
//! 1. extract `Feature(Q)`;
//! 2. run a square range query of half-side `ε` centred at `Feature(Q)` —
//!    exactly the set `{S : D_tw-lb(S, Q) <= ε}`, which by Corollary 1
//!    contains every true answer;
//! 3. read each candidate sequence and verify with the exact (early-
//!    abandoned) time-warping distance.
//!
//! Steps 1–2 are [`TwSimSearch::propose`], this engine's candidate source;
//! step 3 is the shared refine step (`search/pipeline.rs`). `range_search`
//! runs one after the other. A caller that must size the refine work before
//! starting it — the shard fan-out deciding whether a query pays for a
//! thread — runs the two halves itself.

use std::path::Path;

use tw_rtree::{read_tree_file, write_tree_file, Point, RTree, RTreeConfig, SplitAlgorithm};
use tw_storage::{Pager, SeqId, SequenceStore};

use crate::error::TwError;
use crate::feature::FeatureVector;
use crate::search::pipeline::{Filtered, Proposals, Scope};
use crate::search::{EngineOpts, SearchEngine, SearchOutcome};
use crate::stats::Phase;

/// How TW-Sim-Search verifies candidates after the index filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// The paper's Algorithm 1: early-abandoning unconstrained DTW.
    Exact,
    /// Sakoe–Chiba-banded DTW with the given half-width; cheaper, answers
    /// range queries under the banded distance.
    Banded(usize),
}

/// The index-based engine.
#[derive(Debug, Clone)]
pub struct TwSimSearch {
    tree: RTree<4>,
}

impl TwSimSearch {
    /// The paper's index configuration: 4-D R-tree on 1 KB pages with
    /// Guttman's quadratic split.
    pub fn paper_config() -> RTreeConfig {
        RTreeConfig::for_page_size::<4>(1024, SplitAlgorithm::Quadratic)
    }

    /// Builds the index over every sequence in the store (bulk-loaded).
    pub fn build<P: Pager>(store: &SequenceStore<P>) -> Result<Self, TwError> {
        Self::build_with_config(store, Self::paper_config())
    }

    /// Builds with an explicit R-tree configuration (split-strategy and
    /// page-size ablations).
    pub fn build_with_config<P: Pager>(
        store: &SequenceStore<P>,
        config: RTreeConfig,
    ) -> Result<Self, TwError> {
        let mut items: Vec<(Point<4>, SeqId)> = Vec::with_capacity(store.len());
        for (id, values) in store.scan()? {
            if values.is_empty() {
                continue;
            }
            items.push((FeatureVector::from_values(&values).as_point(), id));
        }
        store.take_io(); // build-time I/O is not charged to queries
        Ok(Self {
            tree: RTree::bulk_load(config, items),
        })
    }

    /// Creates an empty index for incremental use.
    pub fn empty(config: RTreeConfig) -> Self {
        Self {
            tree: RTree::new(config),
        }
    }

    /// Wraps an already-built (e.g. deserialized) tree as an engine.
    pub fn from_tree(tree: RTree<4>) -> Self {
        Self { tree }
    }

    /// Persists the index crash-safely (temp file + fsync + atomic rename,
    /// checksummed TWR2 format).
    pub fn save_file<Q: AsRef<Path>>(&self, path: Q) -> Result<(), TwError> {
        write_tree_file(path, &self.tree, 1024)?;
        Ok(())
    }

    /// Loads a persisted index, refusing to serve from one that cannot be
    /// trusted.
    ///
    /// Three gates, in order:
    /// 1. decode — I/O failures, bad magic and per-page checksum mismatches
    ///    surface as [`TwError::Index`];
    /// 2. structural validation — MBR containment, entry fan-out and level
    ///    invariants ([`RTree::validate`]) must hold, else
    ///    [`TwError::CorruptIndex`];
    /// 3. cardinality — if the caller knows how many sequences the store
    ///    holds, an index of any other size is stale or damaged. Serving from
    ///    it could silently drop qualifying sequences, which would break the
    ///    no-false-dismissal guarantee — so it is rejected here.
    pub fn load_file<Q: AsRef<Path>>(
        path: Q,
        expected_len: Option<usize>,
    ) -> Result<Self, TwError> {
        let tree: RTree<4> = read_tree_file(path)?;
        let violations = tree.validate();
        if !violations.is_empty() {
            return Err(TwError::CorruptIndex(format!(
                "{} structural violation(s), first: {:?}",
                violations.len(),
                violations[0]
            )));
        }
        if let Some(expected) = expected_len {
            if tree.len() != expected {
                return Err(TwError::CorruptIndex(format!(
                    "index covers {} sequences but the store holds {expected}",
                    tree.len()
                )));
            }
        }
        Ok(Self { tree })
    }

    /// Inserts one sequence's feature vector (index maintenance, §4.3.1).
    pub fn insert(&mut self, values: &[f64], id: SeqId) -> Result<(), TwError> {
        if values.is_empty() {
            return Err(TwError::EmptySequence);
        }
        self.tree
            .insert_point(FeatureVector::from_values(values).as_point(), id);
        Ok(())
    }

    /// Removes a sequence from the index given its values and id.
    pub fn remove(&mut self, values: &[f64], id: SeqId) -> bool {
        if values.is_empty() {
            return false;
        }
        self.tree
            .remove_point(&FeatureVector::from_values(values).as_point(), id)
    }

    /// Number of indexed sequences.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The underlying R-tree (diagnostics, persistence).
    pub fn tree(&self) -> &RTree<4> {
        &self.tree
    }

    /// Steps 1–2 of Algorithm 1: opens the query's scope over `store` and
    /// runs the square range query. The proposals are the tree's own id
    /// vector; the index counters and the `Phase::Filter` time are already
    /// in the scope.
    pub(crate) fn propose<'s, P: Pager>(
        &self,
        store: &'s SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<Filtered<'s, P>, TwError> {
        let mut scope = Scope::open(store, query, epsilon, opts)?;
        let range = scope.counters.time(Phase::Filter, || {
            let feature_q = FeatureVector::from_values(query).as_point();
            self.tree.range_centered(&feature_q, epsilon)
        });
        scope.add_index(&range.stats);
        Ok(Filtered::new(scope, Proposals::Ids(range.ids)))
    }
}

impl<P: Pager> SearchEngine<P> for TwSimSearch {
    fn name(&self) -> &str {
        "tw-sim-search"
    }

    /// Algorithm 1. [`VerifyMode::Banded`] in the options verifies
    /// candidates under a Sakoe–Chiba band (an extension beyond the paper,
    /// standard in post-2002 DTW systems). The banded distance upper-bounds
    /// the unconstrained one, so the filter remains sound *for the banded
    /// distance*: the result is exactly the set
    /// `{S : D_tw^banded(S, Q) <= ε}` — a subset of the unconstrained
    /// answer, computed with far fewer DP cells. The band-width trade-off is
    /// measured by the harness ablations.
    fn range_search(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        self.propose(store, query, epsilon, opts)?
            .refine(query, epsilon, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DtwKind;
    use crate::search::{run_search, NaiveScan, SearchResult};
    use tw_storage::SequenceStore;

    fn store_with(data: &[Vec<f64>]) -> SequenceStore<tw_storage::MemPager> {
        let mut store = SequenceStore::in_memory();
        for s in data {
            store.append(s).unwrap();
        }
        store
    }

    /// Runs Algorithm 1 with an explicit verification mode.
    fn run_with(
        engine: &TwSimSearch,
        store: &SequenceStore<tw_storage::MemPager>,
        query: &[f64],
        epsilon: f64,
        verify: VerifyMode,
    ) -> SearchResult {
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).verify(verify);
        engine
            .range_search(store, query, epsilon, &opts)
            .unwrap()
            .into_result()
    }

    fn db() -> Vec<Vec<f64>> {
        vec![
            vec![20.0, 21.0, 21.0, 20.0, 23.0],
            vec![20.0, 20.0, 21.0, 20.0, 23.0, 23.0],
            vec![5.0, 6.0, 7.0],
            vec![19.5, 21.5, 20.5, 23.5],
            vec![40.0, 41.0, 42.0],
        ]
    }

    #[test]
    fn agrees_with_naive_scan() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let query = vec![20.0, 21.0, 20.0, 23.0];
        for kind in [DtwKind::SumAbs, DtwKind::SumSquared, DtwKind::MaxAbs] {
            for eps in [0.0, 0.3, 0.6, 2.0, 10.0] {
                let naive = run_search(&NaiveScan, &store, &query, eps, kind).unwrap();
                let idx = run_search(&engine, &store, &query, eps, kind).unwrap();
                assert_eq!(naive.ids(), idx.ids(), "{kind:?} eps {eps}");
            }
        }
    }

    #[test]
    fn uses_random_reads_not_scans() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let res = run_search(
            &engine,
            &store,
            &[20.0, 21.0, 20.0, 23.0],
            0.6,
            DtwKind::MaxAbs,
        )
        .unwrap();
        assert_eq!(res.stats.io.sequential_pages_scanned, 0);
        assert!(res.stats.index_node_accesses > 0);
        // Candidates are a strict subset of the database here.
        assert!(res.stats.candidates < res.stats.db_size);
    }

    #[test]
    fn query_stats_carry_index_and_io_breakdown() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let out = engine
            .range_search(&store, &[20.0, 21.0, 20.0, 23.0], 0.6, &opts)
            .unwrap();
        let qs = out.query_stats;
        assert_eq!(qs.candidates, out.stats.candidates as u64);
        assert_eq!(qs.pruned_total(), 0);
        assert!(qs.accounting_balanced(), "{qs:?}");
        assert_eq!(qs.index_node_accesses(), out.stats.index_node_accesses);
        assert!(qs.index_leaf_accesses > 0);
        assert_eq!(qs.dtw_cells, out.stats.dtw_cells);
        assert_eq!(qs.pager_reads, out.stats.io.total_pages());
    }

    #[test]
    fn filter_is_exactly_the_lb_ball() {
        let data = db();
        let store = store_with(&data);
        let engine = TwSimSearch::build(&store).unwrap();
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let eps = 1.0;
        let res = run_search(&engine, &store, &query, eps, DtwKind::MaxAbs).unwrap();
        let q = FeatureVector::from_values(&query);
        let expected: usize = data
            .iter()
            .filter(|s| FeatureVector::from_values(s).lb_distance(&q) <= eps)
            .count();
        assert_eq!(res.stats.candidates, expected);
    }

    #[test]
    fn incremental_insert_remove() {
        let store = store_with(&db());
        let mut engine = TwSimSearch::empty(TwSimSearch::paper_config());
        for (id, values) in store.scan().unwrap() {
            engine.insert(&values, id).unwrap();
        }
        assert_eq!(engine.len(), 5);
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let r1 = run_search(&engine, &store, &query, 0.6, DtwKind::MaxAbs).unwrap();
        let naive = run_search(&NaiveScan, &store, &query, 0.6, DtwKind::MaxAbs).unwrap();
        assert_eq!(r1.ids(), naive.ids());

        // Remove a matching sequence from the index: it disappears from
        // results without touching the store.
        assert!(engine.remove(&db()[0], 0));
        let r2 = run_search(&engine, &store, &query, 0.6, DtwKind::MaxAbs).unwrap();
        assert!(!r2.ids().contains(&0));
    }

    #[test]
    fn zero_tolerance_still_finds_warped_equals() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let res = run_search(
            &engine,
            &store,
            &[20.0, 21.0, 20.0, 23.0],
            0.0,
            DtwKind::MaxAbs,
        )
        .unwrap();
        assert_eq!(res.ids(), vec![0, 1]);
    }

    #[test]
    fn rejects_empty_query_and_bad_tolerance() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        assert!(run_search(&engine, &store, &[], 1.0, DtwKind::MaxAbs).is_err());
        assert!(run_search(&engine, &store, &[1.0], -0.5, DtwKind::MaxAbs).is_err());
    }

    #[test]
    fn empty_database_returns_nothing() {
        let store = SequenceStore::in_memory();
        let engine = TwSimSearch::build(&store).unwrap();
        let res = run_search(&engine, &store, &[1.0], 5.0, DtwKind::MaxAbs).unwrap();
        assert!(res.matches.is_empty());
    }

    #[test]
    fn banded_verification_subset_of_exact() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let exact = run_search(&engine, &store, &query, 0.6, DtwKind::MaxAbs).unwrap();
        for w in [1usize, 2, 8] {
            let banded = run_with(&engine, &store, &query, 0.6, VerifyMode::Banded(w));
            // Banded distance >= exact distance, so banded matches form a
            // subset of the exact ones.
            for m in &banded.matches {
                assert!(exact.ids().contains(&m.id), "w={w}");
            }
            // A full-width band is the exact answer.
            let full = run_with(&engine, &store, &query, 0.6, VerifyMode::Banded(100));
            assert_eq!(full.ids(), exact.ids());
        }
    }

    #[test]
    fn banded_verification_saves_cells() {
        let data: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let base = (i % 5) as f64;
                (0..300).map(|j| base + ((j % 7) as f64) * 0.01).collect()
            })
            .collect();
        let store = store_with(&data);
        let engine = TwSimSearch::build(&store).unwrap();
        let query: Vec<f64> = (0..300).map(|j| ((j % 7) as f64) * 0.01).collect();
        let exact = run_search(&engine, &store, &query, 0.05, DtwKind::MaxAbs).unwrap();
        let banded = run_with(&engine, &store, &query, 0.05, VerifyMode::Banded(5));
        assert_eq!(exact.ids(), banded.ids());
        assert!(banded.stats.dtw_cells < exact.stats.dtw_cells);
    }

    #[test]
    fn index_touches_few_nodes_on_selective_queries() {
        // A larger database: selective queries must not visit most of the
        // tree (the flatness claim of Figures 4-5).
        let data: Vec<Vec<f64>> = (0..500)
            .map(|i| {
                let base = (i % 50) as f64;
                vec![base, base + 0.5, base + 1.0, base + 0.2]
            })
            .collect();
        let store = store_with(&data);
        let engine = TwSimSearch::build(&store).unwrap();
        let res = run_search(&engine, &store, &[7.0, 7.5, 8.0, 7.2], 0.1, DtwKind::MaxAbs).unwrap();
        let total_nodes = engine.tree().node_count() as u64;
        assert!(
            res.stats.index_node_accesses < total_nodes / 2,
            "visited {} of {total_nodes}",
            res.stats.index_node_accesses
        );
        assert!(!res.matches.is_empty());
    }
}
