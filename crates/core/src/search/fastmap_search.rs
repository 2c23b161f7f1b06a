//! The FastMap method (§3.3, Yi et al.) — implemented to *measure* the false
//! dismissal the paper excludes it for.
//!
//! Build time: fit a `k`-dimensional FastMap embedding of the database using
//! the time-warping distance as the oracle, and index the embedded points in
//! an R-tree (`k <= 4`; unused axes are zero). Query time: embed the query
//! (it costs `2k` exact DTW evaluations against the pivot sequences), range-
//! search the embedded space, and verify candidates exactly.
//!
//! Because DTW is not a metric, the embedded Euclidean distance can
//! *overestimate* the true distance, so the range filter may drop true
//! answers — a **false dismissal**. [`FastMapSearch::search`] is therefore
//! approximate; the harness quantifies the recall loss against Naive-Scan
//! (DESIGN.md "ablation-fastmap").

use tw_fastmap::{DistanceOracle, FastMap};
use tw_rtree::{Point, RTree, RTreeConfig, SplitAlgorithm};
use tw_storage::{Pager, SeqId, SequenceStore};

use crate::distance::{dtw, DtwKind};
use crate::error::TwError;
use crate::search::pipeline::{Proposals, Scope};
use crate::search::{EngineOpts, SearchEngine, SearchOutcome, SearchResult};
use crate::stats::{wall_now, Phase};

/// The approximate FastMap engine.
#[derive(Debug, Clone)]
pub struct FastMapSearch {
    map: FastMap,
    tree: RTree<4>,
    kind: DtwKind,
    k: usize,
}

struct DtwOracle<'a> {
    data: &'a [Vec<f64>],
    kind: DtwKind,
}

impl DistanceOracle for DtwOracle<'_> {
    fn len(&self) -> usize {
        self.data.len()
    }
    fn distance(&self, a: usize, b: usize) -> f64 {
        dtw(&self.data[a], &self.data[b], self.kind).distance
    }
}

impl FastMapSearch {
    /// Fits a `k`-dimensional embedding (`1 <= k <= 4`) under the given
    /// distance kind and indexes it.
    pub fn build<P: Pager>(
        store: &SequenceStore<P>,
        k: usize,
        kind: DtwKind,
        seed: u64,
    ) -> Result<Self, TwError> {
        assert!((1..=4).contains(&k), "k must be in 1..=4, got {k}");
        let data: Vec<Vec<f64>> = store
            .scan()?
            .into_iter()
            .map(|(_, values)| values)
            .collect();
        store.take_io();
        let oracle = DtwOracle { data: &data, kind };
        let map = FastMap::fit(&oracle, k, seed);
        let items: Vec<(Point<4>, SeqId)> = map
            .coordinates()
            .iter()
            .enumerate()
            .map(|(id, c)| (pad_point(c), id as SeqId))
            .collect();
        let config = RTreeConfig::for_page_size::<4>(1024, SplitAlgorithm::Quadratic);
        Ok(Self {
            map,
            tree: RTree::bulk_load(config, items),
            kind,
            k,
        })
    }

    /// Embedded dimensionality.
    pub fn dimensions(&self) -> usize {
        self.k
    }
}

impl<P: Pager> SearchEngine<P> for FastMapSearch {
    fn name(&self) -> &str {
        "fastmap"
    }

    /// Approximate: may dismiss true answers (the phenomenon the engine
    /// exists to measure). The distance kind is fixed when the embedding is
    /// fitted, so `opts.kind` is ignored — build the engine with the kind
    /// you query under.
    fn range_search(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        let mut scope = Scope::open(store, query, epsilon, opts)?;

        // Embed the query: 2k exact DTW evaluations against pivot sequences.
        // `project` wants an infallible oracle, so a store fault (a failed
        // pivot read) is captured and surfaced afterwards instead of
        // panicking inside the closure. Pivot DTWs are embedding overhead,
        // not candidate verification: they count under `pivot_dtw` (their
        // cells still land in `dtw_cells`), outside the verify accounting.
        let mut pivot_dtw_cells = 0u64;
        let mut pivot_evals = 0u64;
        let mut pivot_fault: Option<TwError> = None;
        let started_filter = wall_now();
        let q_coords = self.map.project(|i| match store.get(i as SeqId) {
            Ok(pivot) => {
                let r = dtw(&pivot, query, self.kind);
                pivot_dtw_cells += r.cells;
                pivot_evals += 1;
                r.distance
            }
            Err(e) => {
                pivot_fault.get_or_insert(TwError::from(e));
                f64::NAN
            }
        });
        if let Some(fault) = pivot_fault {
            return Err(fault);
        }
        scope.stats.dtw_invocations += pivot_evals;
        scope.stats.dtw_cells += pivot_dtw_cells;
        scope.counters.add_pivot_dtw(pivot_evals);
        scope.counters.add_dtw_cells(pivot_dtw_cells);

        // Range-filter in the embedded space. The square query over-covers
        // the Euclidean ball; ball rejections are candidates pruned by the
        // embedding (a heuristic filter, not a lower bound).
        let mut range = self.tree.range_centered(&pad_point(&q_coords), epsilon);
        scope.add_index(&range.stats);
        let proposed = range.ids.len();
        let coordinates = self.map.coordinates();
        range.ids.retain(|&id| {
            coordinates
                .get(id as usize)
                .is_some_and(|coords| FastMap::embedded_distance(&q_coords, coords) <= epsilon)
        });
        let outside = (proposed - range.ids.len()) as u64;
        scope.counters.add_candidates(outside);
        scope.counters.add_pruned_embedding(outside);
        scope
            .counters
            .add_phase(Phase::Filter, started_filter.elapsed());
        // The embedding's kind is fixed at fit time, so the cascade is
        // prepared and the candidates verified at `self.kind` rather than
        // the (ignored) `opts.kind`.
        let opts = opts.clone().kind(self.kind);
        let matches = scope.refine(Proposals::Ids(range.ids), query, epsilon, &opts)?;
        Ok(scope.finish(matches))
    }
}

/// Zero-pads a `k <= 4` coordinate vector into the fixed 4-D index space.
fn pad_point(coords: &[f64]) -> Point<4> {
    let mut p = [0.0; 4];
    for (slot, &c) in p.iter_mut().zip(coords) {
        *slot = c;
    }
    Point::new(p)
}

/// Ids present in `exact` but missing from `approx` — the false dismissals
/// of an approximate engine.
pub fn false_dismissals(exact: &SearchResult, approx: &SearchResult) -> Vec<SeqId> {
    let approx_ids = approx.ids();
    exact
        .ids()
        .into_iter()
        .filter(|id| !approx_ids.contains(id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::NaiveScan;
    use tw_storage::SequenceStore;

    fn store_with(data: &[Vec<f64>]) -> SequenceStore<tw_storage::MemPager> {
        let mut store = SequenceStore::in_memory();
        for s in data {
            store.append(s).unwrap();
        }
        store
    }

    fn db() -> Vec<Vec<f64>> {
        vec![
            vec![20.0, 21.0, 21.0, 20.0, 23.0],
            vec![20.0, 20.0, 21.0, 20.0, 23.0, 23.0],
            vec![5.0, 6.0, 7.0],
            vec![19.5, 21.5, 20.5, 23.5],
            vec![40.0, 41.0, 42.0],
            vec![21.0, 22.0, 23.0],
        ]
    }

    #[test]
    fn returns_subset_of_exact_answers_with_exact_distances() {
        let store = store_with(&db());
        let engine = FastMapSearch::build(&store, 2, DtwKind::MaxAbs, 7).unwrap();
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        for eps in [0.0, 0.5, 1.0, 3.0] {
            let exact = NaiveScan
                .range_search(&store, &query, eps, &opts)
                .unwrap()
                .into_result();
            let approx = engine
                .range_search(&store, &query, eps, &opts)
                .unwrap()
                .into_result();
            // No false alarms: every returned match is a true match.
            let exact_ids = exact.ids();
            for m in &approx.matches {
                assert!(exact_ids.contains(&m.id), "eps {eps}: spurious {}", m.id);
            }
            // False dismissals are possible; they are what we measure.
            let fd = false_dismissals(&exact, &approx);
            assert_eq!(fd.len(), exact.matches.len() - approx.matches.len());
        }
    }

    #[test]
    fn non_metric_distance_can_cause_false_dismissal() {
        // A database engineered so DTW's triangle violations surface in the
        // embedding: repeated elements inflate distances to pivots.
        let data = vec![
            vec![0.0],
            vec![0.0, 2.0],
            vec![2.0, 2.0, 2.0],
            vec![1.0],
            vec![0.5, 0.5],
            vec![1.5, 1.6, 1.4],
        ];
        let store = store_with(&data);
        let query = vec![0.9];
        let mut any_dismissal = false;
        let opts = EngineOpts::new().kind(DtwKind::SumAbs);
        for seed in 0..20 {
            let engine = FastMapSearch::build(&store, 1, DtwKind::SumAbs, seed).unwrap();
            let exact = NaiveScan
                .range_search(&store, &query, 1.0, &opts)
                .unwrap()
                .into_result();
            let approx = engine
                .range_search(&store, &query, 1.0, &opts)
                .unwrap()
                .into_result();
            if !false_dismissals(&exact, &approx).is_empty() {
                any_dismissal = true;
                break;
            }
        }
        // At least one seed must exhibit the phenomenon the paper criticizes.
        assert!(
            any_dismissal,
            "expected a false dismissal under some pivot choice"
        );
    }

    #[test]
    fn generous_tolerance_recovers_everything() {
        let store = store_with(&db());
        let engine = FastMapSearch::build(&store, 3, DtwKind::MaxAbs, 1).unwrap();
        let query = vec![20.0, 21.0, 22.0];
        let eps = 100.0;
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let exact = NaiveScan
            .range_search(&store, &query, eps, &opts)
            .unwrap()
            .into_result();
        let approx = engine
            .range_search(&store, &query, eps, &opts)
            .unwrap()
            .into_result();
        assert_eq!(exact.ids(), approx.ids());
    }

    #[test]
    fn query_embedding_charges_pivot_dtw() {
        let store = store_with(&db());
        let engine = FastMapSearch::build(&store, 2, DtwKind::MaxAbs, 3).unwrap();
        let res = engine
            .range_search(&store, &[20.0, 21.0], 0.5, &EngineOpts::new())
            .unwrap()
            .into_result();
        // At least 2k pivot DTW evaluations happen before filtering.
        assert!(res.stats.dtw_invocations >= 4);
    }

    #[test]
    fn query_stats_separate_pivot_work_from_verification() {
        let store = store_with(&db());
        let engine = FastMapSearch::build(&store, 2, DtwKind::MaxAbs, 3).unwrap();
        let out = engine
            .range_search(&store, &[20.0, 21.0], 0.5, &EngineOpts::new())
            .unwrap();
        let qs = out.query_stats;
        assert!(qs.pivot_dtw >= 4, "{qs:?}");
        // Pivot DTWs are not part of the candidate accounting...
        assert!(qs.accounting_balanced(), "{qs:?}");
        assert_eq!(
            qs.verified + qs.abandoned + qs.pivot_dtw,
            out.stats.dtw_invocations
        );
        // ...but their cells are included, matching the SearchStats total.
        assert_eq!(qs.dtw_cells, out.stats.dtw_cells);
        assert_eq!(
            qs.candidates as usize,
            qs.pruned_embedding as usize + out.stats.candidates
        );
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=4")]
    fn oversized_k_rejected() {
        let store = store_with(&db());
        let _ = FastMapSearch::build(&store, 5, DtwKind::MaxAbs, 1);
    }
}
