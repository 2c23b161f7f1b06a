//! Integration tests of the query governor: deadlines, resource budgets,
//! cooperative cancellation, and admission control.
//!
//! The contract under test:
//!
//! * **No budget, no change** — an unarmed (or unreachable) budget leaves
//!   every engine's answer and ledger exactly as before.
//! * **Partial results are exact** — a query cut short by any budget returns
//!   a *subset* of the unbudgeted answer (every reported distance was
//!   verified with the exact DTW), never a superset or an approximation.
//! * **The ledger still balances** — candidates that never got a verdict are
//!   counted as `skipped_unverified`, so
//!   `candidates == pruned + verified + abandoned + skipped` holds under
//!   cancellation too.
//! * **Deadlines are mockable and honoured** — with a `ManualClock` the
//!   trip point is deterministic; with the real clock a 5 ms deadline
//!   returns well before a full scan would.
//! * **Overload sheds instead of queueing unboundedly** — an
//!   `AdmissionGate` at capacity answers `Termination::Shed` without
//!   touching the store.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use tw_core::distance::{dtw, DtwKind};
use tw_core::govern::{AdmissionGate, BudgetKind, ManualClock, QueryBudget, Termination};
use tw_core::search::{
    EngineOpts, FastMapSearch, LbScan, Match, NaiveScan, ResilientSearch, SearchEngine,
    StFilterSearch, SubsequenceIndex, TwSimSearch, WindowSpec,
};
use tw_storage::{MemPager, SequenceStore};
use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

fn store_with(data: &[Vec<f64>]) -> SequenceStore<MemPager> {
    let mut store = SequenceStore::in_memory();
    for s in data {
        store.append(s).expect("append");
    }
    store
}

/// All six range engines.
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

/// Every `(id, distance)` of `sub` appears identically in `full`.
fn is_exact_subset(sub: &[Match], full: &[Match]) -> bool {
    sub.iter().all(|m| {
        full.iter()
            .any(|f| f.id == m.id && f.distance == m.distance)
    })
}

#[test]
fn generous_budget_changes_nothing() {
    let data = generate_random_walks(&RandomWalkConfig::paper(60, 35), 201);
    let store = store_with(&data);
    let query = generate_queries(&data, 1, 202).remove(0);

    for engine in &all_engines(&store) {
        let plain = engine
            .range_search(
                &store,
                &query,
                0.3,
                &EngineOpts::new().kind(DtwKind::MaxAbs).threads(1),
            )
            .expect("ungoverned");
        let budget = QueryBudget::new()
            .deadline(Duration::from_secs(3600))
            .max_cells(u64::MAX / 2)
            .max_candidate_bytes(u64::MAX / 2)
            .max_pager_reads(u64::MAX / 2);
        let governed = engine
            .range_search(
                &store,
                &query,
                0.3,
                &EngineOpts::new()
                    .kind(DtwKind::MaxAbs)
                    .threads(1)
                    .budget(budget),
            )
            .expect("governed");
        assert!(plain.termination.is_complete(), "{}", engine.name());
        assert!(governed.termination.is_complete(), "{}", engine.name());
        assert_eq!(plain.ids(), governed.ids(), "{}", engine.name());
        assert!(
            governed.query_stats.counters_eq(&plain.query_stats),
            "{}: {:?} vs {:?}",
            engine.name(),
            governed.query_stats,
            plain.query_stats
        );
    }
}

#[test]
fn cell_budget_returns_exact_subset_with_balanced_ledger() {
    let data = generate_random_walks(&RandomWalkConfig::paper(80, 40), 211);
    let store = store_with(&data);
    let query = generate_queries(&data, 1, 212).remove(0);

    for engine in &all_engines(&store) {
        let full = engine
            .range_search(
                &store,
                &query,
                0.5,
                &EngineOpts::new().kind(DtwKind::MaxAbs).threads(1),
            )
            .expect("full run");
        for max_cells in [1u64, 100, 2_000, 50_000] {
            let out = engine
                .range_search(
                    &store,
                    &query,
                    0.5,
                    &EngineOpts::new()
                        .kind(DtwKind::MaxAbs)
                        .threads(1)
                        .budget(QueryBudget::new().max_cells(max_cells)),
                )
                .unwrap_or_else(|e| panic!("{} cells={max_cells}: {e:?}", engine.name()));
            let name = engine.name();
            assert!(
                is_exact_subset(&out.matches, &full.matches),
                "{name} cells={max_cells}: budgeted answer is not a subset"
            );
            assert!(
                out.query_stats.accounting_balanced(),
                "{name} cells={max_cells}: {:?}",
                out.query_stats
            );
            match out.termination {
                Termination::Complete => {
                    assert_eq!(out.ids(), full.ids(), "{name} cells={max_cells}")
                }
                Termination::BudgetExhausted {
                    which: BudgetKind::DtwCells,
                } => {}
                ref other => panic!("{name} cells={max_cells}: unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn byte_budget_trips_and_stays_exact() {
    let data = generate_random_walks(&RandomWalkConfig::paper(50, 30), 221);
    let store = store_with(&data);
    let query = generate_queries(&data, 1, 222).remove(0);

    for engine in &all_engines(&store) {
        let full = engine
            .range_search(
                &store,
                &query,
                0.5,
                &EngineOpts::new().kind(DtwKind::MaxAbs).threads(1),
            )
            .expect("full run");
        let out = engine
            .range_search(
                &store,
                &query,
                0.5,
                &EngineOpts::new()
                    .kind(DtwKind::MaxAbs)
                    .threads(1)
                    .budget(QueryBudget::new().max_candidate_bytes(1)),
            )
            .expect("byte-budgeted run");
        assert!(
            is_exact_subset(&out.matches, &full.matches),
            "{}: not a subset",
            engine.name()
        );
        assert!(
            out.query_stats.accounting_balanced(),
            "{}: {:?}",
            engine.name(),
            out.query_stats
        );
    }
}

#[test]
fn manual_clock_deadline_is_deterministic() {
    let data = generate_random_walks(&RandomWalkConfig::paper(120, 40), 231);
    let store = store_with(&data);
    let query = generate_queries(&data, 1, 232).remove(0);
    let engine = LbScan;

    let full = engine
        .range_search(
            &store,
            &query,
            0.5,
            &EngineOpts::new().kind(DtwKind::MaxAbs).threads(1),
        )
        .expect("full run");

    let run = || {
        // Every clock read advances simulated time by 1 ms; a 10 ms deadline
        // therefore trips on exactly the same cancellation check each run.
        let clock = Arc::new(ManualClock::with_tick(Duration::from_millis(1)));
        let budget = QueryBudget::new()
            .deadline(Duration::from_millis(10))
            .clock(clock);
        engine
            .range_search(
                &store,
                &query,
                0.5,
                &EngineOpts::new()
                    .kind(DtwKind::MaxAbs)
                    .threads(1)
                    .budget(budget),
            )
            .expect("deadlined run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.termination, Termination::DeadlineExceeded);
    assert_eq!(a.termination, b.termination);
    assert_eq!(a.ids(), b.ids(), "simulated deadline must be deterministic");
    assert!(a.query_stats.counters_eq(&b.query_stats));
    assert!(is_exact_subset(&a.matches, &full.matches));
    assert!(a.query_stats.accounting_balanced(), "{:?}", a.query_stats);
    assert!(a.query_stats.skipped_unverified > 0, "{:?}", a.query_stats);
}

#[test]
fn real_deadline_bounds_latency() {
    // A corpus big enough that the full scan takes well over the deadline.
    let data = generate_random_walks(&RandomWalkConfig::paper(600, 80), 241);
    let store = store_with(&data);
    let query = generate_queries(&data, 1, 242).remove(0);

    let budget = QueryBudget::new().deadline(Duration::from_millis(5));
    let started = std::time::Instant::now();
    let out = NaiveScan
        .range_search(
            &store,
            &query,
            0.5,
            &EngineOpts::new().kind(DtwKind::MaxAbs).budget(budget),
        )
        .expect("deadlined scan");
    let elapsed = started.elapsed();
    // 10x headroom over the 5 ms deadline absorbs scheduler noise while
    // still proving the scan did not run to completion on the clock's time.
    assert!(
        elapsed < Duration::from_millis(50),
        "5 ms deadline took {elapsed:?}"
    );
    assert!(
        out.query_stats.accounting_balanced(),
        "{:?}",
        out.query_stats
    );
}

#[test]
fn admission_gate_sheds_at_capacity_and_recovers() {
    let data = generate_random_walks(&RandomWalkConfig::paper(40, 30), 251);
    let store = store_with(&data);
    let query = generate_queries(&data, 1, 252).remove(0);
    let gate = AdmissionGate::new(1, 0);
    let engine = ResilientSearch::new(TwSimSearch::build(&store).expect("build"))
        .with_admission(gate.clone());

    // Fill the single slot from outside; with a zero-length queue the next
    // query must shed immediately — no blocking, no store access.
    let permit = match gate.admit() {
        tw_core::govern::Admission::Granted(p) => p,
        tw_core::govern::Admission::Shed => panic!("empty gate shed"),
    };
    let out = engine
        .range_search(
            &store,
            &query,
            0.3,
            &EngineOpts::new().kind(DtwKind::MaxAbs),
        )
        .expect("shed query");
    assert_eq!(out.termination, Termination::Shed);
    assert!(out.matches.is_empty());
    assert_eq!(out.query_stats.candidates, 0, "shed query did work");
    assert_eq!(gate.shed_count(), 1);

    // Releasing the slot restores service, and the answer is complete.
    drop(permit);
    let out = engine
        .range_search(
            &store,
            &query,
            0.3,
            &EngineOpts::new().kind(DtwKind::MaxAbs),
        )
        .expect("recovered query");
    assert!(out.termination.is_complete());
    assert_eq!(gate.shed_count(), 1);
    assert_eq!(gate.active(), 0, "permit leaked");
}

#[test]
fn admission_gate_queues_concurrent_queries_without_shedding() {
    let data = generate_random_walks(&RandomWalkConfig::paper(40, 30), 261);
    let gate = AdmissionGate::new(2, 16);
    let queries = generate_queries(&data, 8, 262);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for query in &queries {
            let gate = gate.clone();
            let data = &data;
            handles.push(scope.spawn(move || {
                let store = store_with(data);
                let engine = ResilientSearch::new(TwSimSearch::build(&store).expect("build"))
                    .with_admission(gate);
                engine
                    .range_search(&store, query, 0.3, &EngineOpts::new().kind(DtwKind::MaxAbs))
                    .expect("concurrent query")
                    .termination
            }));
        }
        for handle in handles {
            assert!(handle.join().expect("join").is_complete());
        }
    });
    assert_eq!(
        gate.shed_count(),
        0,
        "bounded queue should absorb the burst"
    );
    assert_eq!(gate.active(), 0);
    assert_eq!(gate.queued(), 0);
}

#[test]
fn sharded_deadline_mid_fan_out_returns_typed_exact_subset() {
    // A shared deadline expiring after shard k of n must surface as a
    // *typed* partial answer: the merged outcome is `DeadlineExceeded`, its
    // matches are an exact subset of the full fan-out answer, and no shard
    // is ever short-read — a shard either reports `Complete` with its full
    // per-shard answer, or reports the deadline itself with an exact subset.
    use tw_core::search::ShardedSearch;

    let data = generate_random_walks(&RandomWalkConfig::paper(60, 35), 291);
    let sharded = ShardedSearch::build_in_memory(&data, 12, None).expect("build sharded");
    assert_eq!(sharded.shard_count(), 5);
    let query = generate_queries(&data, 1, 292).remove(0);

    let full = sharded
        .range_search_sharded(
            &query,
            0.5,
            &EngineOpts::new().kind(DtwKind::MaxAbs).threads(1),
        )
        .expect("full fan-out");
    assert!(full.merged.termination.is_complete());

    let run = |deadline_ms: u64| {
        // Fresh simulated clock per run: every read advances 1 ms, so the
        // trip lands on exactly the same cancellation check each time.
        let clock = Arc::new(ManualClock::with_tick(Duration::from_millis(1)));
        let budget = QueryBudget::new()
            .deadline(Duration::from_millis(deadline_ms))
            .clock(clock);
        sharded
            .range_search_sharded(
                &query,
                0.5,
                &EngineOpts::new()
                    .kind(DtwKind::MaxAbs)
                    .threads(1)
                    .budget(budget),
            )
            .expect("deadlined fan-out")
    };

    // Walk a deadline ladder until the trip lands strictly mid-fan-out:
    // at least one leading shard complete, at least one trailing shard cut.
    let mut saw_mid_trip = false;
    for deadline_ms in [2u64, 5, 10, 20, 40, 80, 160, 320, 640] {
        let out = run(deadline_ms);
        match out.merged.termination {
            Termination::Complete => {
                assert_eq!(out.merged.ids(), full.merged.ids(), "{deadline_ms} ms");
                continue;
            }
            Termination::DeadlineExceeded => {}
            ref other => panic!("{deadline_ms} ms: unexpected {other:?}"),
        }
        assert!(
            is_exact_subset(&out.merged.matches, &full.merged.matches),
            "{deadline_ms} ms: merged answer is not an exact subset"
        );
        assert!(
            out.merged.query_stats.accounting_balanced(),
            "{deadline_ms} ms: {:?}",
            out.merged.query_stats
        );
        let complete_prefix = out
            .per_shard
            .iter()
            .take_while(|s| s.termination.is_complete())
            .count();
        for (si, shard) in out.per_shard.iter().enumerate() {
            if shard.termination.is_complete() {
                // Completeness means *that shard's whole answer*, id for id.
                assert_eq!(
                    shard.ids(),
                    full.per_shard[si].ids(),
                    "{deadline_ms} ms: shard {si} short-read its matches"
                );
            } else {
                assert_eq!(
                    shard.termination,
                    Termination::DeadlineExceeded,
                    "{deadline_ms} ms: shard {si}"
                );
                assert!(
                    is_exact_subset(&shard.matches, &full.per_shard[si].matches),
                    "{deadline_ms} ms: shard {si} partial answer is not exact"
                );
            }
        }
        if complete_prefix > 0 && complete_prefix < out.per_shard.len() {
            saw_mid_trip = true;
            // The simulated trip point is deterministic: same deadline,
            // same answer.
            let again = run(deadline_ms);
            assert_eq!(again.merged.termination, Termination::DeadlineExceeded);
            assert_eq!(again.merged.ids(), out.merged.ids(), "{deadline_ms} ms");
            assert!(again
                .merged
                .query_stats
                .counters_eq(&out.merged.query_stats));
        }
    }
    assert!(
        saw_mid_trip,
        "no deadline on the ladder tripped after shard k of n — retune the ladder"
    );
}

#[test]
fn knn_budget_returns_exact_partial_neighbours() {
    let data = generate_random_walks(&RandomWalkConfig::paper(60, 35), 271);
    let store = store_with(&data);
    let engine = TwSimSearch::build(&store).expect("build");
    let query = generate_queries(&data, 1, 272).remove(0);

    let out = engine
        .knn_governed(
            &store,
            &query,
            10,
            &EngineOpts::new()
                .kind(DtwKind::MaxAbs)
                .budget(QueryBudget::new().max_cells(500)),
        )
        .expect("budgeted knn");
    assert!(
        matches!(
            out.termination,
            Termination::BudgetExhausted {
                which: BudgetKind::DtwCells
            }
        ),
        "{:?}",
        out.termination
    );
    // Whatever came back is exact: recompute each distance from scratch.
    for m in &out.matches {
        let values = store.get(m.id).expect("get");
        let exact = dtw(&values, &query, DtwKind::MaxAbs).distance;
        assert_eq!(m.distance, exact, "id {}", m.id);
    }
    assert!(
        out.query_stats.accounting_balanced(),
        "{:?}",
        out.query_stats
    );
    assert!(
        out.query_stats.skipped_unverified > 0,
        "{:?}",
        out.query_stats
    );
    // The budget is smaller than one 35 × 35 table, so it trips *inside* the
    // first DP: nothing is verified, the one started candidate is ledgered
    // as skipped, and the cells spent stop short of a full table.
    assert!(out.matches.is_empty(), "{:?}", out.matches);
    assert_eq!(out.query_stats.skipped_unverified, 1);
    assert_eq!(out.query_stats.candidates, 1);
    let table = (query.len() * data[0].len()) as u64;
    assert!(
        out.query_stats.dtw_cells > 500 && out.query_stats.dtw_cells < table,
        "{} cells of a {table}-cell table",
        out.query_stats.dtw_cells
    );
}

#[test]
fn subsequence_budget_returns_exact_window_subset() {
    let data = generate_random_walks(&RandomWalkConfig::paper(20, 30), 281);
    let store = store_with(&data);
    let spec = WindowSpec::new(6, 12, 2, 2).expect("spec");
    let index = SubsequenceIndex::build(&store, spec).expect("build windows");
    let query = generate_queries(&data, 1, 282).remove(0);
    let query = &query[..8.min(query.len())];

    let full = index
        .search_governed(&store, query, 0.8, &EngineOpts::new().kind(DtwKind::MaxAbs))
        .expect("full subsequence search");
    let out = index
        .search_governed(
            &store,
            query,
            0.8,
            &EngineOpts::new()
                .kind(DtwKind::MaxAbs)
                .budget(QueryBudget::new().max_cells(200)),
        )
        .expect("budgeted subsequence search");
    assert!(!out.termination.is_complete(), "budget should trip");
    for m in &out.matches {
        assert!(
            full.matches.iter().any(|f| f.id == m.id
                && f.offset == m.offset
                && f.len == m.len
                && f.distance == m.distance),
            "window {m:?} not in the unbudgeted answer"
        );
    }
    assert!(
        out.query_stats.accounting_balanced(),
        "{:?}",
        out.query_stats
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any corpus, tolerance, and cell budget, the budgeted answer is an
    /// exact subset of the unbudgeted one and the ledger balances — across
    /// both scan engines (the index engines share their verify path).
    #[test]
    fn budgeted_answers_are_always_exact_subsets(
        seed in 0u64..1000,
        db_size in 5usize..40,
        eps in 0.05f64..1.0,
        max_cells in 1u64..20_000,
    ) {
        let data = generate_random_walks(&RandomWalkConfig::paper(db_size, 25), seed);
        let store = store_with(&data);
        let query = generate_queries(&data, 1, seed ^ 0x5eed).remove(0);
        let engines: [&dyn SearchEngine<MemPager>; 2] = [&NaiveScan, &LbScan];

        for engine in engines {
            let full = engine
                .range_search(
                    &store,
                    &query,
                    eps,
                    &EngineOpts::new().kind(DtwKind::MaxAbs).threads(1),
                )
                .expect("full run");
            let out = engine
                .range_search(
                    &store,
                    &query,
                    eps,
                    &EngineOpts::new()
                        .kind(DtwKind::MaxAbs)
                        .threads(1)
                        .budget(QueryBudget::new().max_cells(max_cells)),
                )
                .expect("budgeted run");
            prop_assert!(
                is_exact_subset(&out.matches, &full.matches),
                "{}: budgeted answer is not a subset",
                engine.name()
            );
            prop_assert!(
                out.query_stats.accounting_balanced(),
                "{}: {:?}",
                engine.name(),
                out.query_stats
            );
            if out.termination.is_complete() {
                prop_assert_eq!(out.ids(), full.ids());
            }
        }
    }
}
