//! Query algorithms: rectangular range search (the square-range query of
//! Algorithm 1, Step 2) and best-first k-nearest-neighbour search.
//!
//! Every query reports how many index nodes it touched, split into internal
//! and leaf accesses. The experiment harness prices those accesses with the
//! storage cost model to reproduce the paper's disk-bound elapsed times.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::geometry::{Point, Rect};
use crate::node::{DataId, NodeId, Payload};
use crate::tree::RTree;

/// Node-access accounting attached to every query result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Internal (non-leaf) nodes read, including the root.
    pub internal_accesses: u64,
    /// Leaf nodes read.
    pub leaf_accesses: u64,
}

impl QueryStats {
    /// Total nodes read. With one node per page this equals page reads.
    pub fn node_accesses(&self) -> u64 {
        self.internal_accesses + self.leaf_accesses
    }
}

/// Result of a range query.
#[derive(Debug, Clone)]
pub struct RangeResult {
    /// Data ids whose rectangles intersect the query window, in traversal
    /// order.
    pub ids: Vec<DataId>,
    pub stats: QueryStats,
}

/// One k-nearest-neighbour match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    pub id: DataId,
    /// Distance from the query point under the metric the search ran with.
    pub distance: f64,
}

/// Result of a kNN query.
#[derive(Debug, Clone)]
pub struct KnnResult {
    /// Up to `k` nearest objects, ordered by non-decreasing distance.
    pub neighbors: Vec<Neighbor>,
    pub stats: QueryStats,
}

/// Point-to-rectangle metric used by the kNN search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KnnMetric {
    /// Euclidean distance.
    #[default]
    Euclidean,
    /// Chebyshev (L∞) distance — the metric of the paper's `D_tw-lb`, so kNN
    /// under this metric returns the sequences with the smallest lower-bound
    /// distance to the query's feature vector.
    Chebyshev,
}

impl<const D: usize> RTree<D> {
    /// Finds all objects whose rectangle intersects `window`.
    pub fn range(&self, window: &Rect<D>) -> RangeResult {
        let mut stats = QueryStats::default();
        let mut ids = Vec::new();
        if self.is_empty() {
            // The root is still inspected (one page read) even when empty.
            stats.leaf_accesses = 1;
            return RangeResult { ids, stats };
        }
        let mut stack = vec![self.root_id()];
        while let Some(node_id) = stack.pop() {
            let node = self.node(node_id);
            if node.is_leaf() {
                stats.leaf_accesses += 1;
            } else {
                stats.internal_accesses += 1;
            }
            for e in &node.entries {
                if !e.rect.intersects(window) {
                    continue;
                }
                match e.payload {
                    Payload::Child(c) => stack.push(c),
                    Payload::Data(d) => ids.push(d),
                }
            }
        }
        RangeResult { ids, stats }
    }

    /// The TW-Sim-Search square-range query: all objects within Chebyshev
    /// distance `epsilon` of `center` (Algorithm 1, Step 2).
    pub fn range_centered(&self, center: &Point<D>, epsilon: f64) -> RangeResult {
        self.range(&Rect::centered(center, epsilon))
    }

    /// An incremental best-first nearest-neighbour cursor over this tree
    /// (Hjaltason & Samet): neighbours come out one at a time in
    /// non-decreasing distance, and the caller decides when to stop.
    pub fn nearest(&self, query: &Point<D>, metric: KnnMetric) -> Nearest<'_, D> {
        let mut heap = BinaryHeap::new();
        let mut stats = QueryStats::default();
        if self.is_empty() {
            // Match range(): an empty tree costs one root inspection.
            stats.leaf_accesses = 1;
        } else {
            heap.push(Queued {
                dist: 0.0,
                item: Item::Node(self.root_id()),
            });
        }
        Nearest {
            tree: self,
            query: *query,
            metric,
            heap,
            stats,
        }
    }

    /// The `k` nearest objects: the first `k` the [`Self::nearest`] cursor
    /// yields.
    pub fn knn(&self, query: &Point<D>, k: usize, metric: KnnMetric) -> KnnResult {
        let mut cursor = self.nearest(query, metric);
        let mut neighbors = Vec::with_capacity(k.min(self.len()));
        neighbors.extend(cursor.by_ref().take(k));
        KnnResult {
            neighbors,
            stats: cursor.stats(),
        }
    }
}

enum Item {
    Node(NodeId),
    Object(DataId),
}

struct Queued {
    dist: f64,
    item: Item,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance via reversed comparison; total_cmp keeps
        // the order total even if a NaN distance ever slips in.
        other.dist.total_cmp(&self.dist)
    }
}

/// The best-first traversal state behind [`RTree::nearest`]: a priority
/// queue of unexpanded nodes and unyielded objects keyed by their distance
/// from the query point. As an [`Iterator`] it yields every object exactly
/// once, in non-decreasing distance.
pub struct Nearest<'t, const D: usize> {
    tree: &'t RTree<D>,
    query: Point<D>,
    metric: KnnMetric,
    heap: BinaryHeap<Queued>,
    stats: QueryStats,
}

impl<const D: usize> Nearest<'_, D> {
    /// A lower bound on the distance of everything not yet yielded — the
    /// queue's head, whether that is an object or an unexpanded node.
    /// `None` once the traversal is exhausted.
    pub fn bound(&self) -> Option<f64> {
        self.heap.peek().map(|q| q.dist)
    }

    /// Node accesses so far.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Pops the queue's head: an object is yielded, a node is read and its
    /// entries queued (yielding nothing). One step never reads more than
    /// one node, so a caller interleaving several cursors by
    /// [`Self::bound`] expands no node farther than it needs.
    pub fn step(&mut self) -> Option<Neighbor> {
        let Queued { dist, item } = self.heap.pop()?;
        match item {
            Item::Object(id) => Some(Neighbor { id, distance: dist }),
            Item::Node(node_id) => {
                let node = self.tree.node(node_id);
                if node.is_leaf() {
                    self.stats.leaf_accesses += 1;
                } else {
                    self.stats.internal_accesses += 1;
                }
                for e in &node.entries {
                    let dist = match self.metric {
                        KnnMetric::Euclidean => e.rect.min_dist_sq(&self.query).sqrt(),
                        KnnMetric::Chebyshev => e.rect.min_dist_chebyshev(&self.query),
                    };
                    let item = match e.payload {
                        Payload::Child(c) => Item::Node(c),
                        Payload::Data(id) => Item::Object(id),
                    };
                    self.heap.push(Queued { dist, item });
                }
                None
            }
        }
    }
}

impl<const D: usize> Iterator for Nearest<'_, D> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        while !self.heap.is_empty() {
            if let Some(neighbor) = self.step() {
                return Some(neighbor);
            }
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;
    use crate::split::SplitAlgorithm;
    use crate::tree::RTreeConfig;

    fn build_grid(n: usize) -> RTree<2> {
        let mut t = RTree::new(RTreeConfig {
            max_entries: 5,
            min_entries: 2,
            split: SplitAlgorithm::Quadratic,
        });
        for i in 0..n {
            let x = (i % 10) as f64;
            let y = (i / 10) as f64;
            t.insert_point(Point::new([x, y]), i as DataId);
        }
        t
    }

    fn brute_range(n: usize, window: &Rect<2>) -> Vec<DataId> {
        (0..n)
            .filter(|&i| {
                let p = Point::new([(i % 10) as f64, (i / 10) as f64]);
                window.contains_point(&p)
            })
            .map(|i| i as DataId)
            .collect()
    }

    #[test]
    fn range_matches_brute_force() {
        let t = build_grid(100);
        for window in [
            Rect::new([0.0, 0.0], [3.0, 3.0]),
            Rect::new([2.5, 2.5], [2.6, 2.6]),
            Rect::new([-5.0, -5.0], [20.0, 20.0]),
            Rect::new([40.0, 40.0], [50.0, 50.0]),
        ] {
            let mut got = t.range(&window).ids;
            got.sort_unstable();
            assert_eq!(got, brute_range(100, &window), "{window:?}");
        }
    }

    #[test]
    fn range_counts_node_accesses() {
        let t = build_grid(100);
        // A query covering everything must touch every node.
        let all = t.range(&Rect::new([-1.0, -1.0], [11.0, 11.0]));
        assert_eq!(all.stats.node_accesses() as usize, t.node_count());
        // A point query far outside touches only the root.
        let none = t.range(&Rect::new([100.0, 100.0], [101.0, 101.0]));
        assert_eq!(none.stats.node_accesses(), 1);
        assert!(none.ids.is_empty());
        // A selective query touches strictly fewer nodes than a full scan.
        let small = t.range(&Rect::new([0.0, 0.0], [1.0, 1.0]));
        assert!(small.stats.node_accesses() < all.stats.node_accesses());
    }

    #[test]
    fn range_centered_is_chebyshev_ball() {
        let t = build_grid(100);
        let got = t.range_centered(&Point::new([5.0, 5.0]), 1.0);
        let mut ids = got.ids;
        ids.sort_unstable();
        // 3x3 block around (5,5): x,y in {4,5,6}.
        let expect: Vec<DataId> = [44, 45, 46, 54, 55, 56, 64, 65, 66].into();
        assert_eq!(ids, expect);
    }

    #[test]
    fn empty_tree_range_costs_one_access() {
        let t: RTree<2> = RTree::new(RTreeConfig {
            max_entries: 4,
            min_entries: 2,
            split: SplitAlgorithm::Quadratic,
        });
        let r = t.range(&Rect::new([0.0, 0.0], [1.0, 1.0]));
        assert!(r.ids.is_empty());
        assert_eq!(r.stats.node_accesses(), 1);
    }

    #[test]
    fn knn_returns_sorted_exact_neighbors() {
        let t = build_grid(100);
        let q = Point::new([4.6, 4.6]);
        let res = t.knn(&q, 5, KnnMetric::Euclidean);
        assert_eq!(res.neighbors.len(), 5);
        for w in res.neighbors.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        // Exact nearest is grid point (5,5) with id 55.
        assert_eq!(res.neighbors[0].id, 55);
        // Compare against brute force distances.
        let mut brute: Vec<(f64, DataId)> = (0..100u64)
            .map(|i| {
                let p = Point::new([(i % 10) as f64, (i / 10) as f64]);
                (
                    ((p.coord(0) - 4.6).powi(2) + (p.coord(1) - 4.6).powi(2)).sqrt(),
                    i,
                )
            })
            .collect();
        brute.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (n, (d, _)) in res.neighbors.iter().zip(brute.iter()) {
            assert!((n.distance - d).abs() < 1e-12);
        }
    }

    #[test]
    fn knn_chebyshev_metric() {
        let t = build_grid(100);
        let res = t.knn(&Point::new([0.0, 0.0]), 4, KnnMetric::Chebyshev);
        // Chebyshev distance 0 for (0,0); distance 1 for (1,0),(0,1),(1,1).
        assert_eq!(res.neighbors[0].id, 0);
        assert_eq!(res.neighbors[0].distance, 0.0);
        for n in &res.neighbors[1..] {
            assert_eq!(n.distance, 1.0);
        }
    }

    #[test]
    fn knn_with_k_larger_than_tree() {
        let t = build_grid(7);
        let res = t.knn(&Point::new([0.0, 0.0]), 100, KnnMetric::Euclidean);
        assert_eq!(res.neighbors.len(), 7);
    }

    #[test]
    fn knn_zero_k() {
        let t = build_grid(10);
        let res = t.knn(&Point::new([0.0, 0.0]), 0, KnnMetric::Euclidean);
        assert!(res.neighbors.is_empty());
    }

    #[test]
    fn knn_visits_fewer_nodes_than_full_traversal() {
        let t = build_grid(100);
        let res = t.knn(&Point::new([9.0, 9.0]), 1, KnnMetric::Euclidean);
        assert!(res.stats.node_accesses() < t.node_count() as u64);
        assert_eq!(res.neighbors[0].id, 99);
    }
}
