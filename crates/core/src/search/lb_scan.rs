//! LB-Scan (§3.2, Yi et al.): sequentially scan the database but apply the
//! cheap `O(|S|+|Q|)` lower bound `D_lb` first; only sequences whose bound is
//! within the tolerance pay for an exact DTW verification.
//!
//! The scan still touches every page of the database — the method saves CPU,
//! not I/O, which is exactly why its elapsed time keeps growing with the
//! database in Figures 4 and 5 while TW-Sim-Search stays flat.

use tw_storage::{Pager, SequenceStore};

use crate::bound::{yi_value, BoundTier};
use crate::error::TwError;
use crate::search::pipeline::{Proposals, Scope};
use crate::search::{EngineOpts, SearchEngine, SearchOutcome};
use crate::stats::Phase;

/// The lower-bound-filtered sequential scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct LbScan;

/// One sequential pass over `store` (the scope's store), proposing the rows
/// it keeps resident for verification. With `yi` set, a row whose `D_lb`
/// exceeds `epsilon` is dismissed during the pass and ledgered as pruned by
/// Yi's bound (an empty row too: it cannot match a non-empty query); without
/// it every row is proposed. A budget that trips mid-pass turns the rest of
/// the pass into skips: the rows are still read (the scan is one pass), but
/// no filter CPU is spent on them and none is proposed.
pub(crate) fn scan_rows<P: Pager>(
    store: &SequenceStore<P>,
    scope: &Scope<'_, P>,
    query: &[f64],
    epsilon: f64,
    opts: &EngineOpts,
    yi: bool,
) -> Result<Proposals, TwError> {
    let token = &scope.token;
    let mut rows = Vec::new();
    let mut pruned = 0u64;
    let mut skipped = 0u64;
    let mut filter_ops = 0u64;
    let phase = if yi { Phase::Filter } else { Phase::Fetch };
    scope.counters.time(phase, || {
        store.scan_visit(|id, values| {
            if token.cancelled() {
                skipped += 1;
                return;
            }
            if yi {
                filter_ops += (values.len() + query.len()) as u64;
                if values.is_empty() || yi_value(&values, query, opts.kind) > epsilon {
                    pruned += 1;
                    return;
                }
            }
            let _ = token.charge_candidate_bytes(std::mem::size_of_val(values.as_slice()) as u64);
            rows.push((id, values));
        })
    })?;
    scope.counters.add_candidates(pruned + skipped);
    scope.counters.add_pruned(BoundTier::Yi, pruned);
    scope.counters.add_skipped_unverified(skipped);
    scope.counters.add_filter_ops(filter_ops);
    Ok(Proposals::Rows(rows))
}

impl<P: Pager> SearchEngine<P> for LbScan {
    fn name(&self) -> &str {
        "lb-scan"
    }

    /// With a cascade attached the scan proposes every row and leaves all
    /// pruning to the cascade's tiers: the same bound runs there (as the Yi
    /// tier) plus whatever tighter tiers the spec adds, each counted
    /// separately.
    fn range_search(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        let scope = Scope::open(store, query, epsilon, opts)?;
        let rows = scan_rows(store, &scope, query, epsilon, opts, opts.cascade.is_none())?;
        let matches = scope.refine(rows, query, epsilon, opts)?;
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
        let query = vec![20.0, 21.0, 20.0, 23.0];
        for kind in [DtwKind::SumAbs, DtwKind::SumSquared, DtwKind::MaxAbs] {
            for eps in [0.0, 0.3, 0.6, 2.0, 10.0] {
                let naive = run_search(&NaiveScan, &store, &query, eps, kind).unwrap();
                let lb = run_search(&LbScan, &store, &query, eps, kind).unwrap();
                assert_eq!(naive.ids(), lb.ids(), "{kind:?} eps {eps}");
            }
        }
    }

    #[test]
    fn filters_before_dtw() {
        let store = store_with(&db());
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let res = run_search(&LbScan, &store, &query, 0.6, DtwKind::MaxAbs).unwrap();
        // Sequences 2 (5..7) and 4 (40..42) are range-separated: LB prunes
        // them without any DTW call.
        assert!(res.stats.dtw_invocations <= 3, "{:?}", res.stats);
        // One `D_lb` evaluation per row: |S| + |Q| element operations each.
        assert_eq!(res.stats.filter_ops, (5 + 6 + 3 + 4 + 3) + 5 * 4);
        assert!(res.stats.candidates < res.stats.db_size);
    }

    #[test]
    fn saves_cells_over_naive() {
        // Databases of long, mostly-far sequences: LB-Scan computes far fewer
        // DP cells. (Early abandoning already helps Naive-Scan; LB-Scan skips
        // the DP entirely.)
        let data: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                (0..200)
                    .map(|j| (i * 10) as f64 + (j % 5) as f64 * 0.01)
                    .collect()
            })
            .collect();
        let store = store_with(&data);
        let query: Vec<f64> = (0..200).map(|j| (j % 5) as f64 * 0.01).collect();
        let naive = run_search(&NaiveScan, &store, &query, 0.5, DtwKind::MaxAbs).unwrap();
        let lb = run_search(&LbScan, &store, &query, 0.5, DtwKind::MaxAbs).unwrap();
        assert_eq!(naive.ids(), lb.ids());
        assert!(lb.stats.dtw_cells < naive.stats.dtw_cells);
    }

    #[test]
    fn scan_io_identical_to_naive() {
        let store = store_with(&db());
        let query = vec![20.0, 21.0];
        let naive = run_search(&NaiveScan, &store, &query, 0.5, DtwKind::MaxAbs).unwrap();
        let lb = run_search(&LbScan, &store, &query, 0.5, DtwKind::MaxAbs).unwrap();
        // Both methods scan the whole database: same sequential I/O.
        assert_eq!(naive.stats.io, lb.stats.io);
    }

    #[test]
    fn candidates_superset_of_matches() {
        let store = store_with(&db());
        let res = run_search(&LbScan, &store, &[20.0, 22.0, 23.0], 0.7, DtwKind::MaxAbs).unwrap();
        assert!(res.stats.candidates >= res.matches.len());
    }

    #[test]
    fn query_stats_split_pruned_from_verified() {
        let store = store_with(&db());
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let res = LbScan.range_search(&store, &query, 0.6, &opts).unwrap();
        let qs = res.query_stats;
        // All five rows enter the pipeline; the range-separated ones are
        // pruned by Yi's bound, the rest verified or abandoned.
        assert_eq!(qs.candidates, 5);
        assert!(qs.pruned_lb_yi >= 2, "{qs:?}");
        assert!(qs.accounting_balanced(), "{qs:?}");
        assert_eq!(qs.dtw_cells, res.stats.dtw_cells);
        assert_eq!(
            qs.verified + qs.abandoned,
            res.stats.dtw_invocations,
            "verify accounting matches the DTW invocation count"
        );
    }
}
