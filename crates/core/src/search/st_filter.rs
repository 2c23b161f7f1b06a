//! ST-Filter (§3.4, Park et al.) as a whole-matching engine.
//!
//! Build time: categorize every sequence (100 equal-width categories in the
//! paper's setup) and build a generalized suffix tree over the category
//! strings. Query time: traverse the tree with the branch-and-bound
//! time-warping DP (see `tw-suffix`), then verify the surviving sequences
//! with the exact distance.
//!
//! The traversal's node accesses are priced as random page reads: the suffix
//! tree of a sequence database is far larger than the 4-D R-tree (§3.4's
//! "abnormally enlarged suffix tree"), which is exactly why the paper finds
//! ST-Filter uncompetitive for whole matching.

use tw_storage::{Pager, SequenceStore};
use tw_suffix::{CategoryMethod, StFilter, TraversalStats};

use crate::distance::dtw_within_governed;
use crate::error::TwError;
use crate::search::pipeline::{Proposals, Scope};
use crate::search::subsequence::SubsequenceOutcome;
use crate::search::{EngineOpts, SearchEngine, SearchOutcome, SubsequenceMatch};
use crate::stats::{Phase, PipelineCounters};

/// The suffix-tree baseline engine.
#[derive(Debug, Clone)]
pub struct StFilterSearch {
    filter: StFilter,
}

impl StFilterSearch {
    /// The paper's configuration: 100 equal-length-interval categories
    /// (§5.1).
    pub fn build<P: Pager>(store: &SequenceStore<P>) -> Result<Self, TwError> {
        Self::build_with_categories(store, 100, CategoryMethod::EqualWidth)
    }

    /// Builds with an explicit category count/method (the §3.4 trade-off
    /// ablation).
    pub fn build_with_categories<P: Pager>(
        store: &SequenceStore<P>,
        categories: usize,
        method: CategoryMethod,
    ) -> Result<Self, TwError> {
        let data: Vec<Vec<f64>> = store
            .scan()?
            .into_iter()
            .map(|(_, values)| values)
            .collect();
        store.take_io();
        Ok(Self {
            filter: StFilter::build(&data, categories, method),
        })
    }

    /// Number of suffix-tree nodes — the structure whose growth §3.4 blames
    /// for ST-Filter's whole-matching cost.
    pub fn tree_nodes(&self) -> usize {
        self.filter.tree().node_count()
    }

    /// Subsequence matching — ST-Filter's original purpose (Park et al.):
    /// find windows of stored sequences warpable onto the whole query within
    /// `epsilon`. The suffix-tree traversal proposes `(sequence, offset,
    /// length)` windows; each is verified with the exact distance against
    /// every admissible extension of the proposed prefix.
    ///
    /// Sound like the whole-matching filter: the traversal's category DP
    /// lower-bounds the true distance of every window sharing the proposed
    /// prefix, so qualifying windows always surface as candidates.
    ///
    /// Honours `opts.budget` (returning partial, still-exact window matches
    /// with the corresponding termination) and ledgers one candidate per
    /// proposed window: a proposal is `verified` or `abandoned` once every
    /// extension got a verdict, so its invocation count is its decided
    /// proposals, while all of its extension DPs are priced in `dtw_cells`.
    pub fn subsequence_search_governed<P: Pager>(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SubsequenceOutcome, TwError> {
        let scope = Scope::open(store, query, epsilon, opts)?;
        let (token, counters) = (&scope.token, &scope.counters);
        let filtered = counters.time(Phase::Filter, || {
            self.filter.subsequence_candidates(query, epsilon)
        });
        let total_windows = filtered.windows.len() as u64;
        ledger_traversal(counters, &filtered.stats);
        counters.add_candidates(total_windows);
        counters.add_refine_candidates(total_windows);

        // Group candidate windows per sequence so each is read once.
        let mut by_seq: std::collections::BTreeMap<u64, Vec<(usize, usize)>> =
            std::collections::BTreeMap::new();
        for (id, offset, len) in filtered.windows {
            by_seq.entry(id as u64).or_default().push((offset, len));
        }
        let mut matches = Vec::new();
        let mut verified = 0u64;
        let mut abandoned = 0u64;
        'candidates: for (id, windows) in by_seq {
            if token.cancelled() {
                break;
            }
            let values = store.get(id)?;
            let _ = token.charge_candidate_bytes(std::mem::size_of_val(values.as_slice()) as u64);
            for (offset, len) in windows {
                if token.cancelled() {
                    break 'candidates;
                }
                // The filter reports the shallowest qualifying prefix length;
                // the true best window starting at `offset` may be longer.
                // Verify each admissible window length from the proposal up.
                // The proposal counts as decided once every extension got a
                // verdict; any abandoned extension marks it abandoned.
                let mut proposal_abandoned = false;
                let mut proposal_cancelled = false;
                for end in (offset + len)..=values.len() {
                    let outcome =
                        dtw_within_governed(&values[offset..end], query, opts.kind, epsilon, token);
                    counters.add_dtw_cells(outcome.cells);
                    if outcome.cancelled {
                        proposal_cancelled = true;
                        break;
                    }
                    proposal_abandoned |= outcome.early_abandoned;
                    if let Some(distance) = outcome.within {
                        matches.push(SubsequenceMatch {
                            id,
                            offset,
                            len: end - offset,
                            distance,
                        });
                    }
                }
                if proposal_cancelled {
                    break 'candidates;
                }
                if proposal_abandoned {
                    abandoned += 1;
                } else {
                    verified += 1;
                }
            }
        }
        counters.add_verified(verified);
        counters.add_abandoned(abandoned);
        counters.add_skipped_unverified(total_windows - (verified + abandoned));
        matches.sort_by_key(|m| (m.id, m.offset, m.len));
        matches.dedup_by_key(|m| (m.id, m.offset, m.len));
        Ok(SubsequenceOutcome::close(scope, matches))
    }
}

/// Ledgers one suffix-tree traversal: its node visits (the tree has no
/// internal/leaf split in its traversal stats, so they count as internal
/// accesses) and its category DP cells as filter work.
fn ledger_traversal(counters: &PipelineCounters, walk: &TraversalStats) {
    counters.add_index_internal(walk.nodes_visited);
    counters.add_filter_ops(walk.dp_cells);
}

impl<P: Pager> SearchEngine<P> for StFilterSearch {
    fn name(&self) -> &str {
        "st-filter"
    }

    fn range_search(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        let scope = Scope::open(store, query, epsilon, opts)?;
        // The tree traversal's DP is a max-aggregation lower bound, which
        // also lower-bounds the additive kinds (a sum of non-negative terms
        // dominates its maximum) — the filter stays sound for every kind.
        let filtered = scope.counters.time(Phase::Filter, || {
            self.filter.whole_match_candidates(query, epsilon)
        });
        ledger_traversal(&scope.counters, &filtered.stats);
        let ids = filtered.ids.into_iter().map(|id| id as u64).collect();
        let matches = scope.refine(Proposals::Ids(ids), query, epsilon, opts)?;
        Ok(scope.finish(matches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DtwKind;
    use crate::search::{run_search, NaiveScan};
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
        ]
    }

    #[test]
    fn agrees_with_naive_scan() {
        let store = store_with(&db());
        let engine = StFilterSearch::build(&store).unwrap();
        let query = vec![20.0, 21.0, 20.0, 23.0];
        for kind in [DtwKind::SumAbs, DtwKind::SumSquared, DtwKind::MaxAbs] {
            for eps in [0.0, 0.3, 0.6, 2.0, 10.0] {
                let naive = run_search(&NaiveScan, &store, &query, eps, kind).unwrap();
                let st = run_search(&engine, &store, &query, eps, kind).unwrap();
                assert_eq!(naive.ids(), st.ids(), "{kind:?} eps {eps}");
            }
        }
    }

    #[test]
    fn filters_distant_sequences() {
        let store = store_with(&db());
        let engine = StFilterSearch::build(&store).unwrap();
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let res = engine
            .range_search(&store, &[20.0, 21.0, 20.0, 23.0], 0.6, &opts)
            .unwrap();
        assert!(res.stats.candidates < res.stats.db_size);
        assert!(res.stats.index_node_accesses > 0);
        let qs = res.query_stats;
        assert_eq!(qs.candidates, res.stats.candidates as u64);
        assert!(qs.accounting_balanced(), "{qs:?}");
        assert_eq!(qs.index_node_accesses(), res.stats.index_node_accesses);
        assert_eq!(qs.dtw_cells, res.stats.dtw_cells);
    }

    #[test]
    fn suffix_tree_larger_than_rtree() {
        // §3.4/§5.2's structural claim: the suffix tree dwarfs the R-tree on
        // the same data.
        let data: Vec<Vec<f64>> = (0..60)
            .map(|i| (0..40).map(|j| ((i * 7 + j * 3) % 23) as f64).collect())
            .collect();
        let store = store_with(&data);
        let st = StFilterSearch::build(&store).unwrap();
        let tw = crate::search::TwSimSearch::build(&store).unwrap();
        assert!(
            st.tree_nodes() > 10 * tw.tree().node_count(),
            "suffix tree {} vs R-tree {}",
            st.tree_nodes(),
            tw.tree().node_count()
        );
    }

    #[test]
    fn category_count_tradeoff() {
        let data: Vec<Vec<f64>> = (0..40)
            .map(|i| (0..30).map(|j| ((i + j * 2) % 19) as f64).collect())
            .collect();
        let store = store_with(&data);
        let coarse =
            StFilterSearch::build_with_categories(&store, 4, CategoryMethod::EqualWidth).unwrap();
        let fine =
            StFilterSearch::build_with_categories(&store, 64, CategoryMethod::EqualWidth).unwrap();
        let query: Vec<f64> = (0..30).map(|j| ((j * 2) % 19) as f64).collect();
        let rc = run_search(&coarse, &store, &query, 1.0, DtwKind::MaxAbs).unwrap();
        let rf = run_search(&fine, &store, &query, 1.0, DtwKind::MaxAbs).unwrap();
        // The §3.4 trade-off: finer categories => fewer candidates but a
        // larger tree.
        assert!(rf.stats.candidates <= rc.stats.candidates);
        assert!(fine.tree_nodes() >= coarse.tree_nodes());
        assert_eq!(rf.ids(), rc.ids()); // both exact after verification
    }

    #[test]
    fn subsequence_search_finds_embedded_pattern() {
        let data = vec![vec![1.0, 1.0, 7.0, 8.0, 9.0, 1.0, 1.0], vec![2.0, 2.0, 2.0]];
        let store = store_with(&data);
        let engine =
            StFilterSearch::build_with_categories(&store, 20, CategoryMethod::EqualWidth).unwrap();
        let out = engine
            .subsequence_search_governed(
                &store,
                &[7.0, 8.0, 9.0],
                0.5,
                &EngineOpts::new().kind(DtwKind::MaxAbs),
            )
            .unwrap();
        assert!(out
            .matches
            .iter()
            .any(|m| m.id == 0 && m.offset == 2 && m.len == 3 && m.distance == 0.0));
        assert!(out.matches.iter().all(|m| m.id == 0));
        assert!(out.stats.index_node_accesses > 0);
    }

    #[test]
    fn rejects_empty_query() {
        let store = store_with(&db());
        let engine = StFilterSearch::build(&store).unwrap();
        assert!(run_search(&engine, &store, &[], 1.0, DtwKind::MaxAbs).is_err());
    }
}
