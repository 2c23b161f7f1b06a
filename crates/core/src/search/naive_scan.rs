//! Naive-Scan (§3.1): sequentially read every data sequence and verify it
//! with the exact time-warping distance.
//!
//! The only optimization applied is early abandoning, which is available to
//! every method's verification step alike; under the L∞ recurrence it fires
//! as soon as any whole DP column exceeds the tolerance (§4.1).

use tw_storage::{Pager, SequenceStore};

use crate::error::TwError;
use crate::search::lb_scan::scan_rows;
use crate::search::pipeline::Scope;
use crate::search::{EngineOpts, SearchEngine, SearchOutcome};

/// The sequential-scan baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveScan;

impl<P: Pager> SearchEngine<P> for NaiveScan {
    fn name(&self) -> &str {
        "naive-scan"
    }

    fn range_search(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        let scope = Scope::open(store, query, epsilon, opts)?;
        // No filtering step: every stored sequence goes to verification.
        let rows = scan_rows(store, &scope, query, epsilon, opts, false)?;
        let matches = scope.refine(rows, query, epsilon, opts)?;
        Ok(scope.finish(matches))
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;
    use crate::distance::{dtw, DtwKind};
    use crate::search::run_search;
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
        ]
    }

    #[test]
    fn finds_exact_matches() {
        let store = store_with(&db());
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let res = run_search(&NaiveScan, &store, &query, 0.0, DtwKind::MaxAbs).unwrap();
        // Sequences 0 and 1 warp exactly onto the query.
        assert_eq!(res.ids(), vec![0, 1]);
        for m in &res.matches {
            assert_eq!(m.distance, 0.0);
        }
    }

    #[test]
    fn tolerance_widens_result() {
        let store = store_with(&db());
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let tight = run_search(&NaiveScan, &store, &query, 0.0, DtwKind::MaxAbs).unwrap();
        let loose = run_search(&NaiveScan, &store, &query, 0.6, DtwKind::MaxAbs).unwrap();
        assert!(loose.matches.len() > tight.matches.len());
        assert!(loose.ids().contains(&3));
        assert!(!loose.ids().contains(&2));
    }

    #[test]
    fn distances_match_exact_dtw() {
        let store = store_with(&db());
        let query = vec![20.5, 21.0, 22.9];
        let res = run_search(&NaiveScan, &store, &query, 2.0, DtwKind::MaxAbs).unwrap();
        for m in &res.matches {
            let expect = dtw(&db()[m.id as usize], &query, DtwKind::MaxAbs).distance;
            assert!((m.distance - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn stats_reflect_full_scan() {
        let store = store_with(&db());
        let res = run_search(&NaiveScan, &store, &[20.0, 21.0], 0.5, DtwKind::MaxAbs).unwrap();
        assert_eq!(res.stats.db_size, 4);
        assert_eq!(res.stats.dtw_invocations, 4);
        assert!(res.stats.io.sequential_pages_scanned > 0);
        assert_eq!(res.stats.io.random_page_reads, 0);
        assert_eq!(res.stats.index_node_accesses, 0);
        // No filter: every row reaches the refine step. (Figure 2 plots the
        // match count as Naive-Scan's candidates; the runner applies that.)
        assert_eq!(res.stats.candidates, 4);
    }

    #[test]
    fn query_stats_account_every_row() {
        let store = store_with(&db());
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let res = NaiveScan
            .range_search(&store, &[20.0, 21.0], 0.5, &opts)
            .unwrap();
        let qs = res.query_stats;
        // Every stored row enters the pipeline; none are pruned.
        assert_eq!(qs.candidates, 4);
        assert_eq!(qs.pruned_total(), 0);
        assert!(qs.accounting_balanced());
        assert_eq!(qs.dtw_cells, res.stats.dtw_cells);
        assert!(qs.pager_reads > 0);
        assert_eq!(qs.checksum_retries, 0);
    }

    #[test]
    fn rejects_bad_tolerance() {
        let store = store_with(&db());
        assert!(run_search(&NaiveScan, &store, &[1.0], -1.0, DtwKind::MaxAbs).is_err());
        assert!(run_search(&NaiveScan, &store, &[1.0], f64::NAN, DtwKind::MaxAbs).is_err());
    }

    #[test]
    fn empty_database() {
        let store = SequenceStore::in_memory();
        let res = run_search(&NaiveScan, &store, &[1.0], 1.0, DtwKind::MaxAbs).unwrap();
        assert!(res.matches.is_empty());
        assert_eq!(res.stats.db_size, 0);
    }

    fn threaded_scan(
        store: &SequenceStore<tw_storage::MemPager>,
        query: &[f64],
        epsilon: f64,
        threads: usize,
    ) -> SearchOutcome {
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(threads);
        NaiveScan
            .range_search(store, query, epsilon, &opts)
            .unwrap()
    }

    fn grid_db(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let base = (i % 9) as f64;
                vec![base, base + 0.4, base + 0.9, base + 0.2]
            })
            .collect()
    }

    #[test]
    fn threaded_scan_agrees_with_sequential_scan() {
        let store = store_with(&grid_db(137));
        let query = vec![4.1, 4.5, 4.8];
        for threads in [2usize, 4, 7] {
            for eps in [0.2, 0.6, 3.0] {
                let seq = threaded_scan(&store, &query, eps, 1);
                let par = threaded_scan(&store, &query, eps, threads);
                assert_eq!(seq.ids(), par.ids(), "threads={threads} eps={eps}");
                assert_eq!(seq.stats.dtw_cells, par.stats.dtw_cells);
            }
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let store = store_with(&grid_db(3));
        let res = threaded_scan(&store, &[1.0, 1.4], 0.5, 16);
        assert_eq!(res.stats.dtw_invocations, 3);
    }

    #[test]
    fn threaded_scan_of_empty_database() {
        let store = SequenceStore::in_memory();
        let res = threaded_scan(&store, &[1.0], 1.0, 4);
        assert!(res.matches.is_empty());
    }

    #[test]
    fn works_under_additive_kinds() {
        let store = store_with(&db());
        let query = vec![20.0, 21.0, 20.0, 23.0];
        for kind in [DtwKind::SumAbs, DtwKind::SumSquared] {
            let res = run_search(&NaiveScan, &store, &query, 0.0, kind).unwrap();
            assert_eq!(res.ids(), vec![0, 1], "{kind:?}");
        }
    }
}
