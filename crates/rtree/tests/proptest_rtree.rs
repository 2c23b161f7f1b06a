//! Property tests of the R-tree: structural invariants survive arbitrary
//! operation sequences, and every query form agrees with brute force.

use proptest::prelude::*;

use tw_rtree::{KnnMetric, Point, RTree, RTreeConfig, Rect, SplitAlgorithm};

#[derive(Debug, Clone)]
enum Op {
    Insert(f64, f64),
    RemoveNth(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Op::Insert(x, y)),
        1 => (0usize..64).prop_map(Op::RemoveNth),
    ]
}

fn configs() -> Vec<RTreeConfig> {
    [
        SplitAlgorithm::Linear,
        SplitAlgorithm::Quadratic,
        SplitAlgorithm::RStar,
    ]
    .into_iter()
    .map(|split| RTreeConfig {
        max_entries: 6,
        min_entries: 2,
        split,
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Arbitrary insert/remove interleavings keep every invariant and the
    /// tree contents equal to a model Vec.
    #[test]
    fn random_ops_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..120)) {
        for config in configs() {
            let mut tree: RTree<2> = RTree::new(config);
            let mut model: Vec<(f64, f64, u64)> = Vec::new();
            let mut next_id = 0u64;
            for op in &ops {
                match op {
                    Op::Insert(x, y) => {
                        tree.insert_point(Point::new([*x, *y]), next_id);
                        model.push((*x, *y, next_id));
                        next_id += 1;
                    }
                    Op::RemoveNth(n) => {
                        if !model.is_empty() {
                            let (x, y, id) = model.remove(n % model.len());
                            prop_assert!(tree.remove_point(&Point::new([x, y]), id));
                        }
                    }
                }
            }
            tree.assert_valid();
            prop_assert_eq!(tree.len(), model.len());
            let mut got: Vec<u64> = tree.iter().map(|(_, id)| id).collect();
            got.sort_unstable();
            let mut expect: Vec<u64> = model.iter().map(|&(_, _, id)| id).collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }

    /// Range queries agree with brute force on every split algorithm and on
    /// the bulk-loaded tree.
    #[test]
    fn range_agrees_with_brute_force(
        points in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..150),
        window in (-60.0f64..60.0, -60.0f64..60.0, 0.0f64..40.0, 0.0f64..40.0),
    ) {
        let (wx, wy, ww, wh) = window;
        let rect = Rect::new([wx, wy], [wx + ww, wy + wh]);
        let mut expect: Vec<u64> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| rect.contains_point(&Point::new([x, y])))
            .map(|(i, _)| i as u64)
            .collect();
        expect.sort_unstable();

        for config in configs() {
            let mut tree: RTree<2> = RTree::new(config);
            for (i, &(x, y)) in points.iter().enumerate() {
                tree.insert_point(Point::new([x, y]), i as u64);
            }
            let mut got = tree.range(&rect).ids;
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "incremental {:?}", config.split);
        }
        let items: Vec<(Point<2>, u64)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Point::new([x, y]), i as u64))
            .collect();
        let bulk = RTree::bulk_load(configs()[1], items);
        bulk.assert_valid();
        let mut got = bulk.range(&rect).ids;
        got.sort_unstable();
        prop_assert_eq!(got, expect, "bulk");
    }

    /// kNN distances agree with brute force under both metrics.
    #[test]
    fn knn_agrees_with_brute_force(
        points in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..100),
        query in (-60.0f64..60.0, -60.0f64..60.0),
        k in 1usize..12,
    ) {
        let q = Point::new([query.0, query.1]);
        let mut tree: RTree<2> = RTree::new(configs()[1]);
        for (i, &(x, y)) in points.iter().enumerate() {
            tree.insert_point(Point::new([x, y]), i as u64);
        }
        for metric in [KnnMetric::Euclidean, KnnMetric::Chebyshev] {
            let dist = |p: &Point<2>| match metric {
                KnnMetric::Euclidean => p.distance_sq(&q).sqrt(),
                KnnMetric::Chebyshev => p.chebyshev(&q),
            };
            let mut brute: Vec<f64> = points
                .iter()
                .map(|&(x, y)| dist(&Point::new([x, y])))
                .collect();
            brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
            brute.truncate(k);
            let res = tree.knn(&q, k, metric);
            prop_assert_eq!(res.neighbors.len(), brute.len());
            for (n, e) in res.neighbors.iter().zip(&brute) {
                prop_assert!((n.distance - e).abs() < 1e-9, "{metric:?}");
            }
        }
    }

    /// The incremental cursor yields every object exactly once in
    /// non-decreasing distance, its `bound()` never overshoots what comes
    /// next, and `knn(k)` is its first `k` at the same node-access cost.
    #[test]
    fn nearest_cursor_is_an_ordered_exhaustive_stream(
        points in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..100),
        query in (-60.0f64..60.0, -60.0f64..60.0),
        k in 0usize..12,
    ) {
        let q = Point::new([query.0, query.1]);
        let items: Vec<(Point<2>, u64)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Point::new([x, y]), i as u64))
            .collect();
        let tree = RTree::bulk_load(configs()[1], items);
        for metric in [KnnMetric::Euclidean, KnnMetric::Chebyshev] {
            let mut cursor = tree.nearest(&q, metric);
            let mut yielded = Vec::new();
            let mut stats_at = vec![cursor.stats()];
            while let Some(bound) = cursor.bound() {
                if let Some(n) = cursor.step() {
                    prop_assert!(bound <= n.distance, "{metric:?}: bound {bound} > {n:?}");
                    yielded.push(n);
                    stats_at.push(cursor.stats());
                }
            }
            prop_assert!(cursor.step().is_none());
            prop_assert!(yielded.windows(2).all(|w| w[0].distance <= w[1].distance));
            let mut ids: Vec<u64> = yielded.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..points.len() as u64).collect::<Vec<_>>());

            let res = tree.knn(&q, k, metric);
            let take = k.min(yielded.len());
            prop_assert_eq!(&res.neighbors[..], &yielded[..take]);
            prop_assert_eq!(res.stats, stats_at[take]);
        }
    }

    /// Serialization round-trips arbitrary trees.
    #[test]
    fn persist_roundtrip(
        points in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..120),
    ) {
        let mut tree: RTree<2> = RTree::new(configs()[2]);
        for (i, &(x, y)) in points.iter().enumerate() {
            tree.insert_point(Point::new([x, y]), i as u64);
        }
        let back: RTree<2> = RTree::from_bytes(tree.to_bytes(1024)).expect("decode");
        back.assert_valid();
        prop_assert_eq!(back.len(), tree.len());
        let mut a: Vec<u64> = tree.iter().map(|(_, id)| id).collect();
        let mut b: Vec<u64> = back.iter().map(|(_, id)| id).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}
