//! # tw-core — index-based similarity search supporting time warping
//!
//! A faithful, production-quality reproduction of:
//!
//! > Sang-Wook Kim, Sanghyun Park, Wesley W. Chu.
//! > *An Index-Based Approach for Similarity Search Supporting Time Warping
//! > in Large Sequence Databases.* ICDE 2001.
//!
//! ## What the library provides
//!
//! * the **time-warping distance** family ([`distance`]): the paper's L∞
//!   recurrence (Definition 2), the classic additive recurrences
//!   (Definition 1), early-abandoning decision procedures, warping-path
//!   recovery, and Sakoe–Chiba banded variants;
//! * the warping-invariant **4-tuple feature vector**
//!   ([`FeatureVector`]): `(First, Last, Greatest, Smallest)`;
//! * **lower bounds** ([`bound`]): the paper's `D_tw-lb` (LB_Kim),
//!   Yi et al.'s scan bound (LB_Yi), Keogh's envelope bound (LB_Keogh) and
//!   Lemire's LB_Improved, composed into one per-query [`BoundCascade`];
//! * the four **search engines** of the paper's evaluation
//!   ([`search`]): [`NaiveScan`], [`LbScan`], [`StFilterSearch`] and the
//!   contribution, [`TwSimSearch`] — plus the approximate [`FastMapSearch`]
//!   (measured for false dismissals), kNN queries and the §6
//!   subsequence-matching extension ([`SubsequenceIndex`]). The five range
//!   engines implement one object-safe trait, [`SearchEngine`],
//!   parameterized by [`EngineOpts`] (distance kind, verification threads,
//!   Sakoe–Chiba band, budget, cascade); each is a candidate source in
//!   front of one governed fetch → cascade → parallel verify pipeline;
//! * instrumentation ([`SearchStats`]) reporting candidate ratios, DTW
//!   cells, index node accesses and storage I/O, priced by the disk model in
//!   `tw-storage` to regenerate the paper's elapsed-time figures.
//!
//! ## Guarantees
//!
//! Every exact engine returns *identical* result sets (no false dismissal,
//! no false alarm) — Theorem 1 (`D_tw >= D_tw-lb`), Theorem 2 (`D_tw-lb` is
//! a metric) and Corollary 1 are enforced by the property-test suite, not
//! just proved on paper.
//!
//! ## Quickstart
//!
//! ```
//! use tw_core::distance::DtwKind;
//! use tw_core::search::{EngineOpts, NaiveScan, SearchEngine, TwSimSearch};
//! use tw_storage::SequenceStore;
//!
//! // A tiny sequence database.
//! let mut store = SequenceStore::in_memory();
//! store.append(&[20.0, 21.0, 21.0, 20.0, 23.0]).unwrap();
//! store.append(&[20.0, 20.0, 21.0, 20.0, 23.0, 23.0]).unwrap();
//! store.append(&[5.0, 6.0, 7.0]).unwrap();
//!
//! // Build the paper's 4-D feature index and query it.
//! let engine = TwSimSearch::build(&store).unwrap();
//! let query = [20.0, 21.0, 20.0, 23.0];
//! let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
//! let result = engine.range_search(&store, &query, 0.5, &opts).unwrap();
//! assert_eq!(result.ids(), vec![0, 1]);
//!
//! // Exactly what the sequential scan finds — but without scanning.
//! let naive = NaiveScan.range_search(&store, &query, 0.5, &opts).unwrap();
//! assert_eq!(result.ids(), naive.ids());
//! assert!(result.stats.io.sequential_pages_scanned == 0);
//! ```

#![forbid(unsafe_code)]

pub mod alignment;
pub mod bound;
pub mod database;
pub mod distance;
pub mod error;
pub mod feature;
pub mod govern;
pub mod ingest;
pub mod search;
pub mod sequence;
pub mod stats;
pub mod transform;

pub use alignment::Alignment;
pub use bound::{
    lb_improved, BoundCascade, BoundTier, Candidate, CascadeDecision, CascadeSpec, ImprovedBound,
    KeoghBound, KimBound, LowerBound, PreparedQuery, QueryEnvelope, YiBound,
};
pub use database::TimeWarpDatabase;
pub use distance::{
    dtw, dtw_banded, dtw_banded_governed, dtw_with_path, dtw_within, dtw_within_governed, DtwKind,
    DtwOutcome, DtwResult,
};
pub use error::TwError;
pub use feature::FeatureVector;
pub use govern::{
    termination_of, Admission, AdmissionGate, AdmissionPermit, BudgetKind, CancelCause,
    CancelToken, Clock, ManualClock, QueryBudget, SystemClock, Termination,
};
pub use ingest::{
    CheckpointReport, ConcurrentIngest, IngestHandle, IngestRecovery, SharedConcurrentIngest,
    Snapshot,
};
pub use search::{
    false_dismissals, CorpusSharder, EngineOpts, FastMapSearch, KnnMatch, KnnOutcome, LbScan,
    Match, NaiveScan, SearchEngine, SearchOutcome, SearchResult, SearchStats, ShardHandle,
    ShardedKnnOutcome, ShardedOutcome, ShardedSearch, StFilterSearch, SubsequenceIndex,
    SubsequenceMatch, SubsequenceOutcome, TwSimSearch, VerifyJob, VerifyMode, WindowSpec,
};
pub use sequence::Sequence;
pub use stats::{Phase, PhaseTimes, PipelineCounters, QueryStats};
pub use transform::{
    differences, exponential_moving_average, min_max_normalize, moving_average, paa, scale, shift,
    z_normalize,
};
