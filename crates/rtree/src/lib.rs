//! # tw-rtree — an N-dimensional R-tree built for TW-Sim-Search
//!
//! A from-scratch R-tree (Guttman 1984) with the extensions the ICDE 2001
//! reproduction needs:
//!
//! * **const-generic dimensionality** — the paper's index is 4-dimensional
//!   (one axis per component of the warping-invariant feature vector), but
//!   tests and ablations use other dimensions;
//! * **three split algorithms** (linear, quadratic, R*-topological) so the
//!   benchmark harness can ablate the choice;
//! * **STR bulk loading** for initial index construction (§4.3.1 of the
//!   paper recommends bulk loading for large databases);
//! * **node-access accounting** on every query, which the storage cost model
//!   converts into the disk-bound elapsed times the paper reports;
//! * **page-based persistence** (one node per fixed-size page, 1 KB by
//!   default as in §5.1) with explicit little-endian encoding;
//! * an **invariant validator** used by the property-test suite.
//!
//! The crate is `#![forbid(unsafe_code)]`: every query and persistence path
//! is safe Rust, checked by the workspace's `tw-analyze` pass.
//!
//! ## Example
//!
//! ```
//! use tw_rtree::{Point, RTree, RTreeConfig, SplitAlgorithm};
//!
//! // The paper's configuration: 4-D feature vectors, 1 KB pages.
//! let config = RTreeConfig::for_page_size::<4>(1024, SplitAlgorithm::Quadratic);
//! let mut tree: RTree<4> = RTree::new(config);
//! tree.insert_point(Point::new([1.0, 2.0, 3.0, 0.5]), 42);
//!
//! // Square range query with tolerance 0.25 around a query feature vector.
//! let hits = tree.range_centered(&Point::new([1.1, 2.1, 2.9, 0.4]), 0.25);
//! assert_eq!(hits.ids, vec![42]);
//! ```

#![forbid(unsafe_code)]

mod bulk;
mod convert;
mod geometry;
mod node;
mod page;
mod persist;
mod query;
mod split;
mod stats;
mod summary;
mod tree;
mod validation;

pub use geometry::{Point, Rect};
pub use node::{DataId, Entry, NodeId, Payload};
pub use page::{PageLayout, BOUND_BYTES, NODE_HEADER_BYTES, PAYLOAD_BYTES};
pub use persist::{read_tree_file, write_tree_file, DecodeError, PersistError};
pub use query::{KnnMetric, KnnResult, Nearest, Neighbor, QueryStats, RangeResult};
pub use split::SplitAlgorithm;
pub use stats::TreeQuality;
pub use summary::NodeSummary;
pub use tree::{RTree, RTreeConfig};
pub use validation::Violation;
