//! k-nearest-neighbour search under the time-warping distance (extension).
//!
//! The paper's engine answers range queries; kNN is the other query the
//! index enables. Because `D_tw-lb` lower-bounds `D_tw`, the optimal
//! multi-step algorithm (Seidl & Kriegel) applies: take candidates in
//! ascending **lower-bound** order, verify each with the exact distance, and
//! stop once the next lower bound exceeds the current k-th best exact
//! distance — no further candidate can improve the result.
//!
//! There is one such loop, [`knn_best_first`], over a slice of
//! [`KnnSource`]s — one per shard, or a single one for a flat store:
//!
//! * each source with an index contributes an incremental R-tree cursor
//!   ([`tw_rtree::RTree::nearest`]) under the Chebyshev metric, whose
//!   `bound()` lower-bounds every sequence it has not yielded yet; a source
//!   whose index is offline yields its ids in order, all at bound 0 (no
//!   bound, so all of them are verified);
//! * the loop always advances the source with the smallest bound and stops
//!   when that bound is strictly greater than the k-th best distance, so
//!   the sequences that get a DP are those with `D_tw-lb <= d_k` plus the
//!   ones met before the k-th best tightened — whatever the shard layout;
//! * a candidate is verified with the early-abandoning, governed
//!   [`dtw_within_governed`] against the current k-th best (`+inf` until `k`
//!   neighbours are held): a DP is `abandoned` as soon as it cannot enter
//!   the result, and a budget or deadline cancels it mid-table;
//! * neighbours are ordered by `(distance, id)` — a candidate exactly as
//!   far as the k-th best replaces it when its id is smaller — so the
//!   answer does not depend on the order candidates arrive in.

use std::ops::Range;
use std::time::Duration;

use tw_rtree::{KnnMetric, Nearest, RTree};
use tw_storage::{IoProfile, Pager, SeqId, SequenceStore};

use crate::distance::{dtw_within_governed, DtwKind};
use crate::error::{validate_query, TwError};
use crate::feature::FeatureVector;
use crate::govern::{termination_of, CancelToken, Termination};
use crate::search::pipeline::Scope;
use crate::search::{EngineOpts, SearchStats, TwSimSearch};
use crate::stats::{wall_now, QueryStats};

/// One kNN answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnMatch {
    pub id: SeqId,
    pub distance: f64,
}

/// Everything one kNN query produced: neighbours plus the same observability
/// and governance surface the range engines report.
#[derive(Debug, Clone, Default)]
pub struct KnnOutcome {
    /// The `k` nearest neighbours found, ascending by `(distance, id)`.
    /// Under a tripped budget this may be fewer — or farther — than the true
    /// neighbours, but every reported distance is exact.
    pub matches: Vec<KnnMatch>,
    /// The paper's work accounting, derived from `query_stats`.
    pub stats: SearchStats,
    /// Per-phase observability breakdown; sequences fetched for exact
    /// verification are the "candidates", each one `verified` (its DP ran
    /// to completion), `abandoned` (its DP proved it farther than the k-th
    /// best) or `skipped_unverified` (a budget cancelled its DP).
    pub query_stats: QueryStats,
    /// Whether the query completed or was cut short by its budget.
    pub termination: Termination,
}

/// A kNN answer over several sources beside each source's share of it.
#[derive(Debug, Clone)]
pub struct ShardedKnnOutcome {
    /// The corpus-level k nearest neighbours, with every source's work
    /// summed.
    pub merged: KnnOutcome,
    /// Per source, in source order: the merged neighbours it holds (global
    /// ids) and the work done on its index and store. `stats.cpu_time` is
    /// not attributed per source — the sources share one interleaved loop.
    pub per_shard: Vec<KnnOutcome>,
}

/// One place [`knn_best_first`] draws candidates from.
pub(crate) struct KnnSource<'a, P: Pager> {
    /// The `D_tw-lb` index over `store`; `None` when it is offline, in
    /// which case every stored sequence is a candidate.
    pub tree: Option<&'a RTree<4>>,
    pub store: &'a SequenceStore<P>,
    /// Global id of the store's sequence 0.
    pub base_id: SeqId,
}

/// The not-yet-verified part of one source, nearest lower bound first.
enum Frontier<'a> {
    Index(Nearest<'a, 4>),
    Scan(Range<SeqId>),
}

impl Frontier<'_> {
    /// A lower bound on `D_tw` of everything not yet yielded; `None` once
    /// the source is exhausted.
    fn bound(&self) -> Option<f64> {
        match self {
            Frontier::Index(cursor) => cursor.bound(),
            Frontier::Scan(ids) => (!ids.is_empty()).then_some(0.0),
        }
    }

    /// Advances by one step, which may yield a store-local id.
    fn step(&mut self) -> Option<SeqId> {
        match self {
            Frontier::Index(cursor) => cursor.step().map(|n| n.id),
            Frontier::Scan(ids) => ids.next(),
        }
    }
}

/// One source's frontier and its scope (ledger and pager governor) while
/// the loop runs.
struct Active<'a, P: Pager> {
    source: &'a KnnSource<'a, P>,
    frontier: Frontier<'a>,
    scope: Scope<'a, P>,
}

impl<P: Pager> Active<'_, P> {
    /// Closes the source's scope — index accesses, pager traffic — and
    /// hands it its share of the global `best`. The sources share one
    /// interleaved loop, so no time is attributed to one of them.
    fn finish(self, best: &[KnnMatch]) -> KnnOutcome {
        let store = self.source.store;
        if let Frontier::Index(cursor) = &self.frontier {
            self.scope.add_index(&cursor.stats());
        }
        let out = self.scope.finish(Vec::new());
        let ids = self.source.base_id..self.source.base_id + store.len() as SeqId;
        KnnOutcome {
            matches: best
                .iter()
                .filter(|m| ids.contains(&m.id))
                .copied()
                .collect(),
            stats: SearchStats::from_ledger(
                &out.query_stats,
                out.stats.io,
                out.stats.db_size,
                Duration::ZERO,
            ),
            query_stats: out.query_stats,
            termination: out.termination,
        }
    }
}

/// The global best-first multi-step kNN search (see the module docs).
pub(crate) fn knn_best_first<P: Pager>(
    sources: &[KnnSource<'_, P>],
    query: &[f64],
    k: usize,
    kind: DtwKind,
    token: &CancelToken,
) -> Result<ShardedKnnOutcome, TwError> {
    validate_query(query)?;
    let started = wall_now();
    let q_point = FeatureVector::from_values(query).as_point();
    let mut active: Vec<Active<'_, P>> = sources
        .iter()
        .map(|source| Active {
            source,
            frontier: match source.tree {
                Some(tree) => Frontier::Index(tree.nearest(&q_point, KnnMetric::Chebyshev)),
                None => Frontier::Scan(0..source.store.len() as SeqId),
            },
            scope: Scope::with_token(source.store, token.clone()),
        })
        .collect();

    let mut best: Vec<KnnMatch> = Vec::new();
    while k > 0 && !token.cancelled() {
        // The source holding the globally smallest lower bound; ties go to
        // the earlier source.
        let Some((bound, nearest)) = active
            .iter_mut()
            .filter_map(|a| a.frontier.bound().map(|b| (b, a)))
            .min_by(|a, b| a.0.total_cmp(&b.0))
        else {
            break;
        };
        let kth_best = match best.last() {
            Some(worst) if best.len() == k => worst.distance,
            _ => f64::INFINITY,
        };
        if bound > kth_best {
            break;
        }
        let Some(local) = nearest.frontier.step() else {
            continue;
        };
        let values = nearest.source.store.get(local)?;
        let _ = token.charge_candidate_bytes(std::mem::size_of_val(values.as_slice()) as u64);
        let counters = &nearest.scope.counters;
        counters.add_candidates(1);
        counters.add_refine_candidates(1);
        // One ulp of slack: the kernel compares `SumSquared` tables against
        // `threshold²`, and `sqrt(x)² < x` for about half of all `x`, which
        // would abandon a candidate tied with the k-th best exactly.
        let threshold = kth_best * (1.0 + f64::EPSILON);
        let outcome = dtw_within_governed(&values, query, kind, threshold, token);
        counters.add_dtw_cells(outcome.cells);
        if outcome.cancelled {
            counters.add_skipped_unverified(1);
            break;
        }
        if outcome.early_abandoned {
            counters.add_abandoned(1);
        } else {
            counters.add_verified(1);
        }
        if let Some(distance) = outcome.within {
            let m = KnnMatch {
                id: nearest.source.base_id + local,
                distance,
            };
            let pos = best.partition_point(|x| {
                x.distance
                    .total_cmp(&m.distance)
                    .then(x.id.cmp(&m.id))
                    .is_lt()
            });
            if pos < k {
                best.insert(pos, m);
                best.truncate(k);
            }
        }
    }

    let per_shard: Vec<KnnOutcome> = active.into_iter().map(|a| a.finish(&best)).collect();
    let mut query_stats = QueryStats::default();
    let mut io = IoProfile::default();
    for out in &per_shard {
        query_stats.merge(&out.query_stats);
        io.add(&out.stats.io);
    }
    let db_size = per_shard.iter().map(|o| o.stats.db_size).sum();
    let merged = KnnOutcome {
        matches: best,
        stats: SearchStats::from_ledger(&query_stats, io, db_size, started.elapsed()),
        query_stats,
        termination: termination_of(token),
    };
    Ok(ShardedKnnOutcome { merged, per_shard })
}

impl TwSimSearch {
    /// Finds the `k` sequences with the smallest time-warping distance to
    /// `query` under `opts.kind`, ascending by `(distance, id)`: among
    /// sequences tied at the k-th distance the smaller ids are kept.
    ///
    /// Honours `opts.budget` (stopping the refinement early — mid-DP if
    /// need be — with whatever exact neighbours it has) and reports the
    /// [`QueryStats`] ledger. `opts.threads` is not consulted: the search
    /// is one sequential best-first stream.
    pub fn knn_governed<P: Pager>(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        k: usize,
        opts: &EngineOpts,
    ) -> Result<KnnOutcome, TwError> {
        let source = KnnSource {
            tree: Some(self.tree()),
            store,
            base_id: 0,
        };
        knn_best_first(&[source], query, k, opts.kind, &opts.arm_budget()).map(|o| o.merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{dtw, dtw_within};
    use tw_storage::SequenceStore;
    use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

    fn store_with(data: &[Vec<f64>]) -> SequenceStore<tw_storage::MemPager> {
        let mut store = SequenceStore::in_memory();
        for s in data {
            store.append(s).unwrap();
        }
        store
    }

    /// The definition: every distance, sorted by `(distance, id)`.
    fn brute_knn(data: &[Vec<f64>], query: &[f64], k: usize, kind: DtwKind) -> Vec<KnnMatch> {
        let mut all: Vec<KnnMatch> = (0..)
            .zip(data)
            .map(|(id, s)| KnnMatch {
                id,
                distance: dtw(s, query, kind).distance,
            })
            .collect();
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        all.truncate(k);
        all
    }

    fn knn(
        engine: &TwSimSearch,
        store: &SequenceStore<tw_storage::MemPager>,
        query: &[f64],
        k: usize,
        kind: DtwKind,
    ) -> KnnOutcome {
        engine
            .knn_governed(store, query, k, &EngineOpts::new().kind(kind))
            .unwrap()
    }

    fn db() -> Vec<Vec<f64>> {
        (0..60)
            .map(|i| {
                let base = (i % 12) as f64 * 2.0;
                vec![base, base + 0.3, base + 0.8, base + 0.1, base + 0.5]
            })
            .collect()
    }

    #[test]
    fn knn_distances_match_brute_force() {
        // `db()` holds every sequence five times, so each k below cuts
        // through a group of exact duplicates.
        let data = db();
        let store = store_with(&data);
        let engine = TwSimSearch::build(&store).unwrap();
        let query = vec![6.1, 6.4, 6.9, 6.2];
        for k in [1usize, 3, 10] {
            for kind in [DtwKind::MaxAbs, DtwKind::SumAbs, DtwKind::SumSquared] {
                let got = knn(&engine, &store, &query, k, kind).matches;
                assert_eq!(got, brute_knn(&data, &query, k, kind), "{kind:?} k={k}");
            }
        }
    }

    #[test]
    fn squared_ties_survive_the_threshold_round_trip() {
        // Exact duplicates under `SumSquared`: the k-th best is a square
        // root, and a kernel threshold of exactly that root would abandon
        // the tied copy with the smaller id on about one seed in twelve.
        for seed in 0..40u64 {
            let base = generate_random_walks(&RandomWalkConfig::paper(6, 5), seed);
            let data: Vec<Vec<f64>> = base.iter().cycle().take(30).cloned().collect();
            let store = store_with(&data);
            let engine = TwSimSearch::build(&store).unwrap();
            let query = generate_queries(&base, 1, seed ^ 77).remove(0);
            let kind = DtwKind::SumSquared;
            let got = knn(&engine, &store, &query, 2, kind).matches;
            assert_eq!(got, brute_knn(&data, &query, 2, kind), "seed {seed}");
        }
    }

    #[test]
    fn verifies_exactly_the_r_optimal_candidates() {
        // On a tie-free corpus the multi-step search is a pure function of
        // the data: walk the sequences in ascending D_tw-lb, verify each
        // against the k-th best so far, stop at the first bound above it.
        let data = generate_random_walks(&RandomWalkConfig::paper(300, 24), 1501);
        let store = store_with(&data);
        let engine = TwSimSearch::build(&store).unwrap();
        let kind = DtwKind::MaxAbs;
        for query in generate_queries(&data, 4, 1502) {
            let q_feat = FeatureVector::from_values(&query);
            let mut by_bound: Vec<(f64, &Vec<f64>)> = data
                .iter()
                .map(|s| (FeatureVector::from_values(s).lb_distance(&q_feat), s))
                .collect();
            by_bound.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert!(by_bound.windows(2).all(|w| w[0].0 < w[1].0), "tied bounds");
            for k in [1usize, 5, 20] {
                let d_k = brute_knn(&data, &query, k, kind)[k - 1].distance;
                let mut kept: Vec<f64> = Vec::new();
                let (mut verified, mut abandoned, mut cells) = (0u64, 0u64, 0u64);
                for &(bound, s) in &by_bound {
                    let kth_best = if kept.len() == k {
                        kept[k - 1]
                    } else {
                        f64::INFINITY
                    };
                    if bound > kth_best {
                        break;
                    }
                    let dp = dtw_within(s, &query, kind, kth_best);
                    cells += dp.cells;
                    if dp.early_abandoned {
                        abandoned += 1;
                    } else {
                        verified += 1;
                    }
                    if let Some(d) = dp.within {
                        kept.insert(kept.partition_point(|&x| x <= d), d);
                        kept.truncate(k);
                    }
                }
                let out = engine
                    .knn_governed(&store, &query, k, &EngineOpts::new())
                    .unwrap();
                let qs = out.query_stats;
                assert_eq!(
                    (qs.verified, qs.abandoned, qs.dtw_cells),
                    (verified, abandoned, cells),
                    "k={k}"
                );
                assert_eq!(qs.candidates, verified + abandoned, "k={k}");
                // Nothing with a bound at or under the final k-th distance
                // is left out, and the search stopped well short of a scan.
                let must = by_bound.iter().filter(|(b, _)| *b <= d_k).count() as u64;
                assert!(qs.candidates >= must, "k={k}: {} < {must}", qs.candidates);
                assert!(qs.candidates < data.len() as u64 / 2, "k={k}");
            }
        }
    }

    #[test]
    fn knn_results_sorted() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let got = knn(&engine, &store, &[3.0, 3.3, 3.8, 3.1], 8, DtwKind::MaxAbs).matches;
        for w in got.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn knn_k_larger_than_db() {
        let data = db();
        let store = store_with(&data);
        let engine = TwSimSearch::build(&store).unwrap();
        let got = knn(
            &engine,
            &store,
            &[1.0, 2.0],
            data.len() + 50,
            DtwKind::MaxAbs,
        )
        .matches;
        assert_eq!(got.len(), data.len());
    }

    #[test]
    fn knn_zero_k_and_empty_db() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        assert!(knn(&engine, &store, &[1.0], 0, DtwKind::MaxAbs)
            .matches
            .is_empty());

        let empty = SequenceStore::in_memory();
        let engine2 = TwSimSearch::build(&empty).unwrap();
        assert!(knn(&engine2, &empty, &[1.0], 3, DtwKind::MaxAbs)
            .matches
            .is_empty());
    }

    #[test]
    fn knn_verifies_fewer_than_db_when_selective() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let stats = knn(&engine, &store, &[6.1, 6.4, 6.9, 6.2], 2, DtwKind::MaxAbs).stats;
        assert!(
            stats.dtw_invocations < store.len() as u64,
            "verified {} of {}",
            stats.dtw_invocations,
            store.len()
        );
    }
}
