//! Every exact engine — Naive-Scan, LB-Scan, ST-Filter and TW-Sim-Search —
//! returns an identical result set on realistic workloads (the paper's
//! correctness claim, checked across data families).
//!
//! All engines run through the unified [`SearchEngine`] trait, and every
//! workload is repeated at 1, 2 and 4 verification threads: the shared
//! verification pipeline must be deterministic, so the thread count can
//! never change a result set.

use tw_core::distance::DtwKind;
use tw_core::search::{
    EngineOpts, FastMapSearch, LbScan, NaiveScan, ResilientSearch, SearchEngine, ShardedSearch,
    StFilterSearch, TwSimSearch,
};
use tw_core::{BoundTier, CascadeSpec, ConcurrentIngest, TwError};
use tw_storage::{MemPager, SequenceStore};
use tw_workload::{
    cbf_dataset, generate_queries, generate_random_walks, generate_stocks, normalize_to_unit_range,
    RandomWalkConfig, StockConfig,
};

const VERIFY_THREADS: [usize; 3] = [1, 2, 4];

fn store_with(data: &[Vec<f64>]) -> SequenceStore<MemPager> {
    let mut store = SequenceStore::in_memory();
    for s in data {
        store.append(s).expect("append");
    }
    store
}

/// Every engine with the exactness guarantee, as trait objects.
fn exact_engines(store: &SequenceStore<MemPager>) -> Vec<Box<dyn SearchEngine<MemPager>>> {
    vec![
        Box::new(NaiveScan),
        Box::new(LbScan),
        Box::new(StFilterSearch::build(store).expect("build st-filter")),
        Box::new(TwSimSearch::build(store).expect("build tw-sim")),
    ]
}

fn assert_all_engines_agree(data: &[Vec<f64>], queries: &[Vec<f64>], epsilons: &[f64]) {
    let store = store_with(data);
    let engines = exact_engines(&store);
    for kind in [DtwKind::MaxAbs, DtwKind::SumAbs] {
        for threads in VERIFY_THREADS {
            // The full tiered cascade under exact verification is itself
            // exact, so it must never change a result set — only the work
            // accounting. Both arms run against the same cascade-less
            // reference.
            for cascade in [None, Some(CascadeSpec::standard())] {
                let mut opts = EngineOpts::new().kind(kind).threads(threads);
                opts.cascade = cascade.clone();
                for &eps in epsilons {
                    for (qi, q) in queries.iter().enumerate() {
                        let reference = NaiveScan
                            .range_search(&store, q, eps, &EngineOpts::new().kind(kind))
                            .expect("naive")
                            .ids();
                        for engine in &engines {
                            let ids = engine
                                .range_search(&store, q, eps, &opts)
                                .unwrap_or_else(|e| panic!("{} failed: {e:?}", engine.name()))
                                .ids();
                            // Identical — not merely equivalent — result sets:
                            // no false dismissal and no false alarm, in one.
                            assert_eq!(
                                reference,
                                ids,
                                "{}: {kind:?} eps {eps} query {qi} threads {threads} \
                                 cascade {}",
                                engine.name(),
                                cascade.is_some()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_random_walks() {
    let data = generate_random_walks(&RandomWalkConfig::paper(60, 40), 1);
    let queries = generate_queries(&data, 4, 2);
    assert_all_engines_agree(&data, &queries, &[0.05, 0.2, 1.0]);
}

#[test]
fn engines_agree_on_stock_data() {
    let mut data = generate_stocks(
        &StockConfig {
            count: 50,
            mean_len: 60,
            len_jitter: 20,
        },
        3,
    );
    normalize_to_unit_range(&mut data, 1.0, 10.0);
    let queries = generate_queries(&data, 4, 4);
    assert_all_engines_agree(&data, &queries, &[0.05, 0.3]);
}

#[test]
fn engines_agree_on_cbf_shapes() {
    let data: Vec<Vec<f64>> = cbf_dataset(30, 48, 0.3, 5)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let queries: Vec<Vec<f64>> = data.iter().take(3).cloned().collect();
    assert_all_engines_agree(&data, &queries, &[0.5, 2.0]);
}

#[test]
fn engines_agree_with_mixed_lengths_and_duplicates() {
    // Duplicates, singletons, constant sequences, and wildly varying lengths.
    let mut data = vec![
        vec![5.0],
        vec![5.0],
        vec![5.0; 100],
        vec![1.0, 2.0, 3.0],
        (0..200)
            .map(|i| (i as f64 * 0.1).sin() * 3.0 + 5.0)
            .collect(),
    ];
    data.extend(generate_random_walks(&RandomWalkConfig::paper(20, 15), 9));
    let queries = vec![vec![5.0, 5.0], vec![1.5, 2.5], data[4].clone()];
    assert_all_engines_agree(&data, &queries, &[0.0, 0.1, 1.0, 10.0]);
}

#[test]
fn matches_and_work_are_thread_count_invariant() {
    // Beyond the id sets: distances and the DTW cell count must not depend
    // on how verification is sharded (early abandonment is per-candidate).
    let data = generate_random_walks(&RandomWalkConfig::paper(80, 40), 17);
    let store = store_with(&data);
    let engines = exact_engines(&store);
    let query = generate_queries(&data, 1, 18).remove(0);
    for engine in &engines {
        let baseline = engine
            .range_search(&store, &query, 0.3, &EngineOpts::new())
            .expect("threads=1");
        for threads in [2usize, 4] {
            let out = engine
                .range_search(&store, &query, 0.3, &EngineOpts::new().threads(threads))
                .expect("threaded");
            for (a, b) in baseline.matches.iter().zip(&out.matches) {
                assert_eq!(a.id, b.id, "{} threads {threads}", engine.name());
                assert_eq!(
                    a.distance,
                    b.distance,
                    "{} threads {threads}",
                    engine.name()
                );
            }
            assert_eq!(baseline.matches.len(), out.matches.len());
            assert_eq!(
                baseline.stats.dtw_cells,
                out.stats.dtw_cells,
                "{} threads {threads}",
                engine.name()
            );
            // The pipeline counters are equally thread-invariant (phase
            // timers excepted — wall clock is never deterministic).
            assert!(
                out.query_stats.counters_eq(&baseline.query_stats),
                "{} threads {threads}: {:?} vs {:?}",
                engine.name(),
                out.query_stats,
                baseline.query_stats
            );
        }
    }
}

#[test]
fn cascade_tiers_are_monotone_in_work_not_results() {
    // Growing the cascade tier by tier never changes a match set — each
    // tier is a proven lower bound — while the DP work can only shrink
    // (more tiers prune at least as many candidates before verification).
    let data = generate_random_walks(&RandomWalkConfig::paper(60, 40), 29);
    let store = store_with(&data);
    let query = generate_queries(&data, 1, 30).remove(0);
    let prefixes: [&[BoundTier]; 5] = [
        &[],
        &[BoundTier::Kim],
        &[BoundTier::Kim, BoundTier::Yi],
        &[BoundTier::Kim, BoundTier::Yi, BoundTier::Keogh],
        &BoundTier::ALL,
    ];
    for engine in [
        Box::new(NaiveScan) as Box<dyn SearchEngine<MemPager>>,
        Box::new(LbScan),
        Box::new(TwSimSearch::build(&store).expect("build tw-sim")),
    ] {
        for eps in [0.1, 0.4] {
            let reference = engine
                .range_search(&store, &query, eps, &EngineOpts::new())
                .expect("no cascade");
            let mut last_cells = u64::MAX;
            for tiers in prefixes {
                let opts = EngineOpts::new().cascade(CascadeSpec::none().tiers(tiers));
                let out = engine
                    .range_search(&store, &query, eps, &opts)
                    .expect("cascade");
                assert_eq!(
                    reference.ids(),
                    out.ids(),
                    "{} eps {eps} tiers {tiers:?}",
                    engine.name()
                );
                assert!(
                    out.query_stats.accounting_balanced(),
                    "{} eps {eps} tiers {tiers:?}: {:?}",
                    engine.name(),
                    out.query_stats
                );
                assert!(
                    out.query_stats.dtw_cells <= last_cells,
                    "{} eps {eps} tiers {tiers:?}: cells grew",
                    engine.name()
                );
                last_cells = out.query_stats.dtw_cells;
            }
        }
    }
}

#[test]
fn fastmap_stays_a_subset_at_every_thread_count() {
    // The one approximate engine: never a false alarm, whatever the
    // verification parallelism.
    let data = generate_random_walks(&RandomWalkConfig::paper(40, 30), 21);
    let store = store_with(&data);
    let fastmap = FastMapSearch::build(&store, 2, DtwKind::MaxAbs, 7).expect("fit fastmap");
    let queries = generate_queries(&data, 3, 22);
    for threads in VERIFY_THREADS {
        let opts = EngineOpts::new().threads(threads);
        for q in &queries {
            for eps in [0.05, 0.3, 2.0] {
                let exact = NaiveScan
                    .range_search(&store, q, eps, &opts)
                    .expect("naive");
                let approx = fastmap
                    .range_search(&store, q, eps, &opts)
                    .expect("fastmap");
                let exact_ids = exact.ids();
                for id in approx.ids() {
                    assert!(
                        exact_ids.contains(&id),
                        "spurious {id} at threads {threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn knn_agrees_with_tolerance_search_boundary() {
    // The k-th neighbour's distance, used as a tolerance, must return at
    // least k sequences.
    let data = generate_random_walks(&RandomWalkConfig::paper(80, 30), 11);
    let store = store_with(&data);
    let tw = TwSimSearch::build(&store).expect("build");
    let query = generate_queries(&data, 1, 12).remove(0);
    let neighbors = tw
        .knn_governed(&store, &query, 5, &EngineOpts::new().kind(DtwKind::MaxAbs))
        .expect("knn")
        .matches;
    assert_eq!(neighbors.len(), 5);
    let radius = neighbors.last().unwrap().distance;
    let within = tw
        .range_search(&store, &query, radius, &EngineOpts::new())
        .expect("range");
    assert!(within.matches.len() >= 5);
    for n in &neighbors {
        assert!(within.ids().contains(&n.id));
    }
}

/// The kernels' contract is "finite query, NaN-free store", enforced where
/// the query enters: every read entry point refuses a NaN or ±inf element
/// with the element's index, before any store or index work.
#[test]
fn non_finite_queries_are_refused_at_every_read_entry_point() {
    let data = generate_random_walks(&RandomWalkConfig::paper(40, 16), 77);
    let store = store_with(&data);
    let opts = EngineOpts::new();
    let mut engines = exact_engines(&store);
    engines.push(Box::new(
        FastMapSearch::build(&store, 2, DtwKind::MaxAbs, 7).expect("fit fastmap"),
    ));
    engines.push(Box::new(ResilientSearch::new(
        TwSimSearch::build(&store).expect("build tw-sim"),
    )));
    // A degraded engine answers through LB-Scan: same refusal.
    engines.push(Box::new(ResilientSearch::from_index_file(
        "/nonexistent/index.rtree",
        None,
    )));
    let index = TwSimSearch::build(&store).expect("build tw-sim");
    let sharded = ShardedSearch::build_in_memory(&data, 10, None).expect("build sharded");
    let ingest = ConcurrentIngest::in_memory();
    {
        let mut writer = ingest.writer().expect("claim writer");
        for values in &data {
            writer.append(values).expect("append");
        }
    }
    let snapshot = ingest.snapshot();

    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut query = data[3].clone();
        query[5] = bad;
        let refused = |what: &str, result: Result<(), TwError>| match result {
            Err(TwError::InvalidElement { index: 5, value }) => {
                assert_eq!(value.to_bits(), bad.to_bits(), "{what}")
            }
            other => panic!("{what}: expected InvalidElement at 5 for {bad}, got {other:?}"),
        };
        for engine in &engines {
            let result = engine.range_search(&store, &query, 0.5, &opts);
            refused(engine.name(), result.map(|_| ()));
        }
        refused(
            "knn",
            index.knn_governed(&store, &query, 3, &opts).map(|_| ()),
        );
        refused(
            "sharded range",
            sharded.range_search_sharded(&query, 0.5, &opts).map(|_| ()),
        );
        refused(
            "sharded knn",
            sharded.knn_sharded(&query, 3, &opts).map(|_| ()),
        );
        refused("snapshot", snapshot.search(&query, 0.5, &opts).map(|_| ()));
        refused(
            "snapshot through a scan engine",
            snapshot
                .search_with(&NaiveScan, &query, 0.5, &opts)
                .map(|_| ()),
        );
    }
}
