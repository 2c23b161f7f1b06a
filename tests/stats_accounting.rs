//! The accounting invariant, enforced for all six engines at every
//! verification thread count:
//!
//! ```text
//! candidates == pruned_lb_kim + pruned_lb_yi + pruned_lb_keogh
//!               + pruned_lb_improved + pruned_embedding
//!               + verified + abandoned + skipped_unverified
//! ```
//!
//! plus `matches <= verified + abandoned` (a match must have been DTW'd) and
//! agreement between the legacy `SearchStats` aggregates and the new
//! `QueryStats` pipeline counters. A broken counter site anywhere in an
//! engine shows up here as an unbalanced ledger.

use tw_core::distance::DtwKind;
use tw_core::search::{
    EngineOpts, FastMapSearch, LbScan, NaiveScan, ResilientSearch, SearchEngine, StFilterSearch,
    TwSimSearch,
};
use tw_core::{CascadeSpec, QueryStats};
use tw_storage::{MemPager, SequenceStore};
use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

const VERIFY_THREADS: [usize; 3] = [1, 2, 4];

fn store_with(data: &[Vec<f64>]) -> SequenceStore<MemPager> {
    let mut store = SequenceStore::in_memory();
    for s in data {
        store.append(s).expect("append");
    }
    store
}

/// All six engines, including the approximate and degraded-capable ones.
fn all_engines(store: &SequenceStore<MemPager>) -> Vec<Box<dyn SearchEngine<MemPager>>> {
    vec![
        Box::new(NaiveScan),
        Box::new(LbScan),
        Box::new(StFilterSearch::build(store).expect("build st-filter")),
        Box::new(TwSimSearch::build(store).expect("build tw-sim")),
        Box::new(FastMapSearch::build(store, 2, DtwKind::MaxAbs, 7).expect("fit fastmap")),
        Box::new(ResilientSearch::new(
            TwSimSearch::build(store).expect("build tw-sim for resilient"),
        )),
    ]
}

/// The invariant itself, with a context string for failure messages.
fn assert_accounting(name: &str, ctx: &str, qs: &QueryStats, matches: usize) {
    assert!(
        qs.accounting_balanced(),
        "{name} {ctx}: candidates {} != pruned {} + verified {} + abandoned {} ({qs:?})",
        qs.candidates,
        qs.pruned_total(),
        qs.verified,
        qs.abandoned
    );
    assert!(
        matches as u64 <= qs.verified + qs.abandoned,
        "{name} {ctx}: {matches} matches but only {} DTW'd candidates",
        qs.verified + qs.abandoned
    );
}

#[test]
fn every_engine_balances_at_every_thread_count() {
    let data = generate_random_walks(&RandomWalkConfig::paper(70, 40), 31);
    let store = store_with(&data);
    let engines = all_engines(&store);
    let queries = generate_queries(&data, 3, 32);

    for engine in &engines {
        for threads in VERIFY_THREADS {
            let opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(threads);
            for (qi, query) in queries.iter().enumerate() {
                for eps in [0.05, 0.3, 2.0] {
                    let out = engine
                        .range_search(&store, query, eps, &opts)
                        .unwrap_or_else(|e| panic!("{}: {e:?}", engine.name()));
                    let ctx = format!("threads {threads} query {qi} eps {eps}");
                    assert_accounting(engine.name(), &ctx, &out.query_stats, out.matches.len());
                    // The stats layer and the legacy aggregate count the
                    // same DTW work.
                    assert_eq!(
                        out.query_stats.dtw_cells,
                        out.stats.dtw_cells,
                        "{} {ctx}",
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn every_engine_balances_with_the_cascade_armed() {
    // The satellite invariant: with the full tiered cascade on, the ledger
    // still closes on every engine — per-tier prunes are part of the sum,
    // not a side channel — and stays thread-count invariant.
    let data = generate_random_walks(&RandomWalkConfig::paper(70, 40), 33);
    let store = store_with(&data);
    let engines = all_engines(&store);
    let query = generate_queries(&data, 1, 34).remove(0);

    for engine in &engines {
        let mut base: Option<QueryStats> = None;
        for threads in VERIFY_THREADS {
            let opts = EngineOpts::new()
                .kind(DtwKind::MaxAbs)
                .threads(threads)
                .cascade(CascadeSpec::standard());
            for eps in [0.05, 0.3] {
                let out = engine
                    .range_search(&store, &query, eps, &opts)
                    .unwrap_or_else(|e| panic!("{}: {e:?}", engine.name()));
                let ctx = format!("cascade threads {threads} eps {eps}");
                assert_accounting(engine.name(), &ctx, &out.query_stats, out.matches.len());
                if eps == 0.05 {
                    match &base {
                        None => base = Some(out.query_stats),
                        Some(b) => assert!(
                            out.query_stats.counters_eq(b),
                            "{} {ctx}: {:?} vs {b:?}",
                            engine.name(),
                            out.query_stats
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn counters_are_thread_count_invariant() {
    let data = generate_random_walks(&RandomWalkConfig::paper(60, 35), 41);
    let store = store_with(&data);
    let engines = all_engines(&store);
    let query = generate_queries(&data, 1, 42).remove(0);

    for engine in &engines {
        let base = engine
            .range_search(&store, &query, 0.3, &EngineOpts::new().threads(1))
            .expect("threads=1");
        for threads in [2usize, 4] {
            let out = engine
                .range_search(&store, &query, 0.3, &EngineOpts::new().threads(threads))
                .expect("threaded");
            assert!(
                out.query_stats.counters_eq(&base.query_stats),
                "{} threads {threads}: {:?} vs {:?}",
                engine.name(),
                out.query_stats,
                base.query_stats
            );
        }
    }
}

#[test]
fn verify_work_matches_dtw_invocations() {
    // verified + abandoned is exactly the number of exact-DTW decision
    // procedures the engine ran on candidates; FastMap's pivot projections
    // are the one extra DTW source and are ledgered separately.
    let data = generate_random_walks(&RandomWalkConfig::paper(50, 30), 51);
    let store = store_with(&data);
    let engines = all_engines(&store);
    let query = generate_queries(&data, 1, 52).remove(0);
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);

    for engine in &engines {
        let out = engine
            .range_search(&store, &query, 0.3, &opts)
            .expect("search");
        let qs = out.query_stats;
        assert_eq!(
            qs.verified + qs.abandoned + qs.pivot_dtw,
            out.stats.dtw_invocations,
            "{}: {qs:?}",
            engine.name()
        );
        if engine.name() != "fastmap" {
            assert_eq!(qs.pivot_dtw, 0, "{}", engine.name());
        }
    }
}

#[test]
fn degraded_resilient_engine_still_balances() {
    let data = generate_random_walks(&RandomWalkConfig::paper(40, 30), 61);
    let store = store_with(&data);
    let engine = ResilientSearch::from_index_file("/nonexistent/stats.rtree", None);
    let query = generate_queries(&data, 1, 62).remove(0);
    for threads in VERIFY_THREADS {
        let out = engine
            .range_search(
                &store,
                &query,
                0.3,
                &EngineOpts::new().kind(DtwKind::MaxAbs).threads(threads),
            )
            .expect("degraded search");
        assert!(out.health.is_degraded());
        assert_accounting(
            "resilient-search(degraded)",
            &format!("threads {threads}"),
            &out.query_stats,
            out.matches.len(),
        );
        // The fallback is a scan: every stored row entered the pipeline.
        assert_eq!(out.query_stats.candidates, store.len() as u64);
    }
}

#[test]
fn pruned_candidates_are_never_matches() {
    // If a candidate was pruned by a lower bound it cannot appear in the
    // result set — matches fit inside the verified/abandoned budget even at
    // a tolerance where pruning is heavy.
    let data = generate_random_walks(&RandomWalkConfig::paper(80, 40), 71);
    let store = store_with(&data);
    let query = generate_queries(&data, 1, 72).remove(0);
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    let out = LbScan
        .range_search(&store, &query, 0.05, &opts)
        .expect("lb-scan");
    let qs = out.query_stats;
    assert!(
        qs.pruned_lb_yi > 0,
        "tolerance too loose to exercise pruning"
    );
    let naive = NaiveScan
        .range_search(&store, &query, 0.05, &opts)
        .expect("naive");
    // Exactness in the presence of pruning: the pruned rows were all true
    // rejections.
    assert_eq!(out.ids(), naive.ids());
    assert!(out.matches.len() as u64 <= qs.verified + qs.abandoned);
}

#[test]
fn knn_accounting_balances() {
    // kNN rides the same pipeline-counter ledger as the range engines:
    // every candidate the best-first stream yields gets a DP, which either
    // completes (`verified`) or proves the candidate farther than the k-th
    // best (`abandoned`); no bound tier ever prunes.
    use tw_core::search::ShardedSearch;

    let data = generate_random_walks(&RandomWalkConfig::paper(60, 35), 81);
    let store = store_with(&data);
    let engine = TwSimSearch::build(&store).expect("build tw-sim");
    let sharded = ShardedSearch::build_in_memory(&data, 16, None).expect("build sharded");
    let queries = generate_queries(&data, 2, 82);
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);

    for (qi, query) in queries.iter().enumerate() {
        for k in [1usize, 5, 20] {
            let out = engine.knn_governed(&store, query, k, &opts).expect("knn");
            let ctx = format!("query {qi} k={k}");
            let qs = &out.query_stats;
            assert_accounting("knn", &ctx, qs, out.matches.len());
            assert_eq!(out.matches.len(), k.min(store.len()), "{ctx}");
            assert_eq!(qs.pruned_total(), 0, "{ctx}");
            assert_eq!(
                qs.verified + qs.abandoned,
                out.stats.dtw_invocations,
                "{ctx}"
            );
            assert_eq!(
                qs.candidates,
                qs.verified + qs.abandoned + qs.skipped_unverified,
                "{ctx}"
            );
            assert!(qs.index_node_accesses() > 0, "{ctx}");
            assert!(out.termination.is_complete(), "{ctx}");

            // Sharded: each shard's share closes on its own and the shares
            // sum counter-wise to the merged ledger.
            let fan = sharded.knn_sharded(query, k, &opts).expect("sharded knn");
            let mut sum = QueryStats::default();
            let mut match_sum = 0usize;
            for (si, shard) in fan.per_shard.iter().enumerate() {
                assert_accounting(
                    "knn",
                    &format!("{ctx} shard {si}"),
                    &shard.query_stats,
                    shard.matches.len(),
                );
                sum.merge(&shard.query_stats);
                match_sum += shard.matches.len();
            }
            assert!(
                sum.counters_eq(&fan.merged.query_stats),
                "knn {ctx}: per-shard sum {sum:?} != merged {:?}",
                fan.merged.query_stats
            );
            assert_eq!(match_sum, fan.merged.matches.len(), "{ctx}");
        }
    }
}

#[test]
fn subsequence_accounting_balances() {
    use tw_core::search::{SubsequenceIndex, WindowSpec};

    let data = generate_random_walks(&RandomWalkConfig::paper(20, 30), 91);
    let store = store_with(&data);
    let spec = WindowSpec::new(6, 12, 2, 2).expect("spec");
    let index = SubsequenceIndex::build(&store, spec).expect("build windows");
    let query = generate_queries(&data, 1, 92).remove(0);
    let query = &query[..8.min(query.len())];

    for eps in [0.05, 0.3, 1.0] {
        let out = index
            .search_governed(&store, query, eps, &EngineOpts::new().kind(DtwKind::MaxAbs))
            .expect("subsequence search");
        let ctx = format!("eps {eps}");
        assert_accounting("subsequence", &ctx, &out.query_stats, out.matches.len());
        assert!(out.termination.is_complete(), "{ctx}");
        assert_eq!(
            out.query_stats.verified + out.query_stats.abandoned,
            out.stats.dtw_invocations,
            "{ctx}"
        );
    }
}

#[test]
fn sharded_fan_out_ledger_sums_exactly() {
    // Cross-shard accounting: the merged fan-out ledger balances, and every
    // per-shard counter sums *exactly* to the merged total — no work is
    // double-counted by the merge and none leaks.
    use tw_core::search::ShardedSearch;

    let data = generate_random_walks(&RandomWalkConfig::paper(60, 30), 111);
    let sharded = ShardedSearch::build_in_memory(&data, 16, None).expect("build sharded");
    assert!(sharded.shard_count() > 1);
    let queries = generate_queries(&data, 2, 112);

    for threads in VERIFY_THREADS {
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(threads);
        for (qi, query) in queries.iter().enumerate() {
            for eps in [0.05, 0.3, 2.0] {
                let out = sharded
                    .range_search_sharded(query, eps, &opts)
                    .expect("fan-out");
                let ctx = format!("threads {threads} query {qi} eps {eps}");
                assert_accounting(
                    "sharded",
                    &ctx,
                    &out.merged.query_stats,
                    out.merged.matches.len(),
                );
                // Each shard's own ledger closes too.
                let mut sum = QueryStats::default();
                let mut match_sum = 0usize;
                for (si, shard) in out.per_shard.iter().enumerate() {
                    assert_accounting(
                        "sharded",
                        &format!("{ctx} shard {si}"),
                        &shard.query_stats,
                        shard.matches.len(),
                    );
                    sum.merge(&shard.query_stats);
                    match_sum += shard.matches.len();
                }
                assert!(
                    sum.counters_eq(&out.merged.query_stats),
                    "sharded {ctx}: per-shard sum {sum:?} != merged {:?}",
                    out.merged.query_stats
                );
                assert_eq!(match_sum, out.merged.matches.len(), "sharded {ctx}");
            }
        }
    }
}

#[test]
fn exhausted_budget_mid_fan_out_still_sums_exactly() {
    // When a shared budget dies mid-fan-out, later shards skip their
    // candidates as `skipped_unverified` rather than verifying them — and
    // the per-shard ledgers must still sum exactly to the merged one,
    // skipped work included.
    use tw_core::govern::QueryBudget;
    use tw_core::search::ShardedSearch;

    let data = generate_random_walks(&RandomWalkConfig::paper(50, 30), 121);
    let sharded = ShardedSearch::build_in_memory(&data, 10, None).expect("build sharded");
    assert_eq!(sharded.shard_count(), 5);
    let query = generate_queries(&data, 1, 122).remove(0);

    for threads in VERIFY_THREADS {
        let opts = EngineOpts::new()
            .kind(DtwKind::MaxAbs)
            .threads(threads)
            .budget(QueryBudget::new().max_cells(1));
        let out = sharded
            .range_search_sharded(&query, 5.0, &opts)
            .expect("budgeted fan-out");
        let ctx = format!("threads {threads}");
        assert!(
            !out.merged.termination.is_complete(),
            "{ctx}: a 1-cell budget must exhaust"
        );
        assert!(
            out.merged.query_stats.skipped_unverified > 0,
            "{ctx}: {:?}",
            out.merged.query_stats
        );
        assert_accounting(
            "sharded(budget)",
            &ctx,
            &out.merged.query_stats,
            out.merged.matches.len(),
        );
        let mut sum = QueryStats::default();
        for (si, shard) in out.per_shard.iter().enumerate() {
            assert_accounting(
                "sharded(budget)",
                &format!("{ctx} shard {si}"),
                &shard.query_stats,
                shard.matches.len(),
            );
            sum.merge(&shard.query_stats);
        }
        assert!(
            sum.counters_eq(&out.merged.query_stats),
            "{ctx}: per-shard sum {sum:?} != merged {:?}",
            out.merged.query_stats
        );
        assert_eq!(
            sum.skipped_unverified, out.merged.query_stats.skipped_unverified,
            "{ctx}"
        );
    }
}

#[test]
fn st_filter_subsequence_accounting_balances() {
    let data = generate_random_walks(&RandomWalkConfig::paper(15, 25), 101);
    let store = store_with(&data);
    let engine = StFilterSearch::build(&store).expect("build st-filter");
    let query = generate_queries(&data, 1, 102).remove(0);
    let query = &query[..6.min(query.len())];

    for eps in [0.1, 0.5] {
        let out = engine
            .subsequence_search_governed(
                &store,
                query,
                eps,
                &EngineOpts::new().kind(DtwKind::MaxAbs),
            )
            .expect("st-filter subsequence");
        let ctx = format!("eps {eps}");
        assert_accounting(
            "st-filter-subsequence",
            &ctx,
            &out.query_stats,
            out.matches.len(),
        );
        assert!(out.termination.is_complete(), "{ctx}");
    }
}

/// Every counter of one range outcome, in this order:
///
/// * the `QueryStats` ledger: candidates, pruned by Kim / Yi / Keogh /
///   Improved / embedding, verified, abandoned, skipped_unverified;
/// * its costs: dtw_cells, pivot_dtw, pager_reads, checksum_retries,
///   index internal / leaf accesses;
/// * the `SearchStats` aggregates: db_size, candidates, dtw_invocations,
///   dtw_cells, lb_evaluations, filter_ops, index_node_accesses, random
///   requests, random page reads, sequential pages scanned;
/// * the match count, and 1 when the query completed.
///
/// Phase timers, gauges and `cpu_time` are left out: they are not
/// deterministic or not the engine's.
fn ledger(out: &tw_core::search::SearchOutcome) -> [u64; 27] {
    let (q, s) = (&out.query_stats, &out.stats);
    [
        q.candidates,
        q.pruned_lb_kim,
        q.pruned_lb_yi,
        q.pruned_lb_keogh,
        q.pruned_lb_improved,
        q.pruned_embedding,
        q.verified,
        q.abandoned,
        q.skipped_unverified,
        q.dtw_cells,
        q.pivot_dtw,
        q.pager_reads,
        q.checksum_retries,
        q.index_internal_accesses,
        q.index_leaf_accesses,
        s.db_size as u64,
        s.candidates as u64,
        s.dtw_invocations,
        s.dtw_cells,
        s.lb_evaluations,
        s.filter_ops,
        s.index_node_accesses,
        s.io.random_requests,
        s.io.random_page_reads,
        s.io.sequential_pages_scanned,
        out.matches.len() as u64,
        u64::from(out.termination.is_complete()),
    ]
}

/// The ledger of every engine on one seeded corpus, pinned value for value
/// (see [`ledger`] for the field order): plain `MaxAbs`, `SumAbs` with the
/// standard cascade armed, and `MaxAbs` under a fixed cell cap. The balance
/// tests above catch a counter that drifts out of the equation; this one
/// catches a counter that moves at all.
#[test]
fn every_engine_ledger_is_pinned() {
    use tw_core::govern::QueryBudget;

    #[rustfmt::skip]
    const PINNED: &[(&str, &str, [u64; 27])] = &[
        ("max-abs", "naive-scan", [60, 0, 0, 0, 0, 0, 9, 51, 0, 11584, 0, 16, 0, 0, 0, 60, 9, 60, 11584, 0, 0, 0, 0, 0, 16, 9, 1]),
        ("max-abs", "lb-scan", [60, 0, 51, 0, 0, 0, 9, 0, 0, 9216, 0, 16, 0, 0, 0, 60, 9, 9, 9216, 60, 3840, 0, 0, 0, 16, 9, 1]),
        ("max-abs", "st-filter", [10, 0, 0, 0, 0, 0, 9, 1, 0, 9984, 0, 12, 0, 260, 0, 60, 10, 10, 9984, 0, 157568, 260, 10, 12, 0, 9, 1]),
        ("max-abs", "tw-sim-search", [9, 0, 0, 0, 0, 0, 9, 0, 0, 9216, 0, 11, 0, 1, 2, 60, 9, 9, 9216, 0, 0, 3, 9, 11, 0, 9, 1]),
        ("max-abs", "fastmap", [10, 0, 0, 0, 0, 2, 7, 1, 0, 12032, 4, 16, 0, 1, 4, 60, 8, 12, 12032, 0, 0, 5, 12, 16, 0, 7, 1]),
        ("max-abs", "resilient-search", [9, 0, 0, 0, 0, 0, 9, 0, 0, 9216, 0, 11, 0, 1, 2, 60, 9, 9, 9216, 0, 0, 3, 9, 11, 0, 9, 1]),
        ("max-abs", "resilient-offline", [60, 0, 51, 0, 0, 0, 9, 0, 0, 9216, 0, 16, 0, 0, 0, 60, 9, 9, 9216, 60, 3840, 0, 0, 0, 16, 9, 1]),
        ("sum-abs+cascade", "naive-scan", [60, 25, 29, 0, 2, 0, 4, 0, 0, 4096, 0, 16, 0, 0, 0, 60, 3, 4, 4096, 0, 0, 0, 0, 0, 16, 3, 1]),
        ("sum-abs+cascade", "lb-scan", [60, 25, 29, 0, 2, 0, 4, 0, 0, 4096, 0, 16, 0, 0, 0, 60, 60, 4, 4096, 0, 0, 0, 0, 0, 16, 3, 1]),
        ("sum-abs+cascade", "st-filter", [36, 1, 29, 0, 2, 0, 4, 0, 0, 4096, 0, 46, 0, 773, 0, 60, 36, 4, 4096, 0, 495904, 773, 36, 46, 0, 3, 1]),
        ("sum-abs+cascade", "tw-sim-search", [35, 0, 29, 0, 2, 0, 4, 0, 0, 4096, 0, 45, 0, 1, 5, 60, 35, 4, 4096, 0, 0, 6, 35, 45, 0, 3, 1]),
        ("sum-abs+cascade", "fastmap", [35, 0, 0, 0, 0, 0, 35, 0, 0, 39936, 4, 51, 0, 1, 6, 60, 35, 39, 39936, 0, 0, 7, 39, 51, 0, 35, 1]),
        ("sum-abs+cascade", "resilient-search", [35, 0, 29, 0, 2, 0, 4, 0, 0, 4096, 0, 45, 0, 1, 5, 60, 35, 4, 4096, 0, 0, 6, 35, 45, 0, 3, 1]),
        ("sum-abs+cascade", "resilient-offline", [60, 25, 29, 0, 2, 0, 4, 0, 0, 4096, 0, 16, 0, 0, 0, 60, 60, 4, 4096, 0, 0, 0, 0, 0, 16, 3, 1]),
        ("cell-cap", "naive-scan", [60, 0, 0, 0, 0, 0, 6, 48, 6, 10080, 0, 16, 0, 0, 0, 60, 6, 54, 10080, 0, 0, 0, 0, 0, 16, 6, 0]),
        ("cell-cap", "lb-scan", [60, 0, 51, 0, 0, 0, 8, 0, 1, 8512, 0, 16, 0, 0, 0, 60, 9, 8, 8512, 60, 3840, 0, 0, 0, 16, 8, 0]),
        ("cell-cap", "st-filter", [10, 0, 0, 0, 0, 0, 7, 1, 2, 8544, 0, 12, 0, 260, 0, 60, 10, 8, 8544, 0, 157568, 260, 10, 12, 0, 7, 0]),
        ("cell-cap", "tw-sim-search", [9, 0, 0, 0, 0, 0, 8, 0, 1, 8512, 0, 11, 0, 1, 2, 60, 9, 8, 8512, 0, 0, 3, 9, 11, 0, 8, 0]),
        ("cell-cap", "fastmap", [10, 0, 0, 0, 0, 2, 7, 1, 0, 12032, 4, 16, 0, 1, 4, 60, 8, 12, 12032, 0, 0, 5, 12, 16, 0, 7, 1]),
        ("cell-cap", "resilient-search", [9, 0, 0, 0, 0, 0, 8, 0, 1, 8512, 0, 11, 0, 1, 2, 60, 9, 8, 8512, 0, 0, 3, 9, 11, 0, 8, 0]),
        ("cell-cap", "resilient-offline", [60, 0, 51, 0, 0, 0, 8, 0, 1, 8512, 0, 16, 0, 0, 0, 60, 9, 8, 8512, 60, 3840, 0, 0, 0, 16, 8, 0]),
    ];

    let data = generate_random_walks(&RandomWalkConfig::paper(60, 32), 131);
    let store = store_with(&data);
    let query = generate_queries(&data, 1, 132).remove(0);
    let engines: Vec<Box<dyn SearchEngine<MemPager>>> = vec![
        Box::new(NaiveScan),
        Box::new(LbScan),
        Box::new(StFilterSearch::build(&store).expect("build st-filter")),
        Box::new(TwSimSearch::build(&store).expect("build tw-sim")),
        Box::new(FastMapSearch::build(&store, 2, DtwKind::MaxAbs, 7).expect("fit fastmap")),
        Box::new(ResilientSearch::new(
            TwSimSearch::build(&store).expect("build tw-sim for resilient"),
        )),
        Box::new(ResilientSearch::from_index_file(
            "/nonexistent/pinned.rtree",
            None,
        )),
    ];
    let cases = [
        ("max-abs", 0.8, EngineOpts::new().kind(DtwKind::MaxAbs)),
        (
            "sum-abs+cascade",
            3.0,
            EngineOpts::new()
                .kind(DtwKind::SumAbs)
                .cascade(CascadeSpec::standard()),
        ),
        (
            "cell-cap",
            0.8,
            EngineOpts::new()
                .kind(DtwKind::MaxAbs)
                .budget(QueryBudget::new().max_cells(8_500)),
        ),
    ];
    let mut got = Vec::new();
    for (case, eps, opts) in &cases {
        for (i, engine) in engines.iter().enumerate() {
            let out = engine
                .range_search(&store, &query, *eps, &opts.clone().threads(1))
                .unwrap_or_else(|e| panic!("{case} {}: {e:?}", engine.name()));
            let name = if i == engines.len() - 1 {
                "resilient-offline"
            } else {
                engine.name()
            };
            got.push((*case, name, ledger(&out)));
        }
    }
    let table: String = got
        .iter()
        .map(|(case, name, l)| format!("        ({case:?}, {name:?}, {l:?}),\n"))
        .collect();
    assert!(
        got.len() == PINNED.len()
            && got
                .iter()
                .zip(PINNED)
                .all(|(g, p)| g.0 == p.0 && g.1 == p.1 && g.2 == p.2),
        "ledgers moved; the current table is:\n{table}"
    );
}
