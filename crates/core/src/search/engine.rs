//! The unified query API: one object-safe trait over every search engine.
//!
//! The paper evaluates four methods (plus FastMap) that all answer the same
//! ε-range question. The [`SearchEngine`] trait is their one entry point:
//! callers build an [`EngineOpts`], pick an engine — statically or as
//! `Box<dyn SearchEngine<P>>` — and get a [`SearchOutcome`] whose stats are
//! comparable across engines, because every engine is a candidate source in
//! front of the same fetch → cascade → verify pipeline.
//!
//! ```
//! use tw_core::distance::DtwKind;
//! use tw_core::search::{EngineOpts, NaiveScan, SearchEngine, TwSimSearch};
//! use tw_storage::{MemPager, SequenceStore};
//!
//! let mut store = SequenceStore::in_memory();
//! store.append(&[20.0, 21.0, 20.0, 23.0]).unwrap();
//! store.append(&[5.0, 6.0, 7.0]).unwrap();
//!
//! let engines: Vec<Box<dyn SearchEngine<MemPager>>> = vec![
//!     Box::new(NaiveScan),
//!     Box::new(TwSimSearch::build(&store).unwrap()),
//! ];
//! let opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(2);
//! for engine in &engines {
//!     let out = engine
//!         .range_search(&store, &[20.0, 21.0, 20.0, 23.0], 0.5, &opts)
//!         .unwrap();
//!     assert_eq!(out.ids(), vec![0], "{}", engine.name());
//! }
//! ```

use std::sync::Arc;

use tw_storage::{Pager, SeqId, SequenceStore};

use crate::bound::{BoundCascade, CascadeSpec};
use crate::distance::DtwKind;
use crate::error::TwError;
use crate::govern::{CancelToken, QueryBudget, Termination};
use crate::search::{Match, SearchResult, SearchStats, VerifyMode};
use crate::stats::QueryStats;

/// Per-query options shared by every engine, built fluently.
///
/// Every field parameterizes the shared pipeline, so every engine honours
/// all of them. The one exception is [`crate::search::FastMapSearch`],
/// whose distance kind is fixed when its embedding is fitted — it ignores
/// `kind` and documents so.
#[derive(Debug, Clone)]
pub struct EngineOpts {
    /// The time-warping recurrence (default: the paper's L∞,
    /// [`DtwKind::MaxAbs`]).
    pub kind: DtwKind,
    /// The most worker threads one range query may use for verification
    /// and shard fan-out (default 1, sequential). A ceiling, not an
    /// instruction: a query splits only as far as its estimated DP work
    /// pays for, one worker per 2¹⁷ cells (≈ 49 µs of thread spawn + join
    /// at the lane kernel's ≈ 2.4 Gcells/s), so a selective query runs on
    /// the calling thread whatever this says. Answers and counters are the
    /// same at every value. kNN does not consult it: a best-first stream
    /// verifies one candidate at a time against a threshold the previous
    /// one may have tightened.
    pub threads: usize,
    /// How candidates are verified: exact early-abandoning DTW or a
    /// Sakoe–Chiba band (default [`VerifyMode::Exact`]).
    pub verify: VerifyMode,
    /// Optional resource budget (deadline, DTW cells, candidate bytes, pager
    /// reads) the query runs under. `None` — the default — means unlimited:
    /// engines behave byte-identically to an unbudgeted build.
    pub budget: Option<QueryBudget>,
    /// Optional tiered lower-bound cascade applied in the shared
    /// verification pipeline before any DTW runs. `None` — the default —
    /// keeps each engine's historical pruning behaviour; `Some` routes
    /// every candidate through the spec's [`crate::bound::BoundTier`]s
    /// (counted per tier in [`QueryStats`]) first.
    pub cascade: Option<CascadeSpec>,
    /// A pre-armed cancellation token shared with other sub-searches of the
    /// same logical query. When set, [`Self::arm_budget`] hands out clones
    /// of *this* token instead of arming `budget`, so every participant —
    /// the shards of a fan-out, a snapshot's base and tail, a resilient
    /// engine's fallback scan — charges one shared ledger and observes one
    /// first-cause-wins trip.
    pub shared_token: Option<CancelToken>,
    /// A cascade already compiled for one concrete query. When the query
    /// handed to [`Self::arm_cascade`] is bit-identical to the prepared one
    /// (same values, same distance kind) the compiled cascade is reused,
    /// skipping the per-call feature/range/envelope work — the batch path
    /// for a query set evaluated across many engines, ε values or shards.
    /// Any mismatch falls back to compiling `cascade` afresh, so reuse can
    /// never change results.
    pub prepared_cascade: Option<Arc<BoundCascade>>,
}

impl EngineOpts {
    /// The paper's defaults: L∞ recurrence, sequential exact verification.
    pub fn new() -> Self {
        Self {
            kind: DtwKind::MaxAbs,
            threads: 1,
            verify: VerifyMode::Exact,
            budget: None,
            cascade: None,
            shared_token: None,
            prepared_cascade: None,
        }
    }

    /// Selects the time-warping recurrence.
    pub fn kind(mut self, kind: DtwKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the thread ceiling (must be at least 1; see the `threads` field).
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one verify worker");
        self.threads = threads;
        self
    }

    /// Selects the verification mode.
    pub fn verify(mut self, verify: VerifyMode) -> Self {
        self.verify = verify;
        self
    }

    /// Runs the query under `budget`: past any of its limits the engine stops
    /// early and returns partial (still verified-exact) results with the
    /// matching [`Termination`].
    pub fn budget(mut self, budget: QueryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Routes candidate pruning through the given lower-bound cascade (see
    /// [`CascadeSpec`] for tiers, band ratio, early abandon and candidate
    /// envelopes).
    pub fn cascade(mut self, spec: CascadeSpec) -> Self {
        self.cascade = Some(spec);
        self
    }

    /// Shares a pre-armed token with this query: [`Self::arm_budget`] will
    /// clone it instead of arming `budget`. The fan-out coordinator arms the
    /// budget exactly once and installs the result on every shard's options,
    /// so shard sub-queries spend one shared ledger.
    pub fn shared_token(mut self, token: CancelToken) -> Self {
        self.shared_token = Some(token);
        self
    }

    /// Installs an already-compiled cascade for reuse by
    /// [`Self::arm_cascade`] (see the field docs for the matching rules).
    pub fn prepared_cascade(mut self, cascade: Arc<BoundCascade>) -> Self {
        self.prepared_cascade = Some(cascade);
        self
    }

    /// Compiles the cascade spec — if any — against one concrete query,
    /// reusing `prepared_cascade` when it was compiled for exactly this
    /// query. The range pipeline calls this once per query and hands the
    /// result to [`crate::search::VerifyJob::with_cascade`].
    pub fn arm_cascade(&self, query: &[f64]) -> Option<Arc<BoundCascade>> {
        if let Some(prepared) = &self.prepared_cascade {
            let pq = prepared.query();
            let same_values = pq.values().len() == query.len()
                && pq
                    .values()
                    .iter()
                    .zip(query)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if same_values && pq.kind() == self.kind {
                return Some(Arc::clone(prepared));
            }
        }
        self.cascade
            .as_ref()
            .map(|spec| Arc::new(BoundCascade::prepare(spec, query, self.kind, self.verify)))
    }

    /// Compiles the budget — if any — into a live [`CancelToken`] for this
    /// query; a `shared_token` takes precedence, so a fan-out's sub-queries
    /// all observe the coordinator's single armed ledger. Unbudgeted options
    /// yield the unlimited token, whose every check is a single `Option`
    /// test.
    pub fn arm_budget(&self) -> CancelToken {
        if let Some(token) = &self.shared_token {
            return token.clone();
        }
        match &self.budget {
            Some(budget) => budget.arm(),
            None => CancelToken::unlimited(),
        }
    }
}

impl Default for EngineOpts {
    fn default() -> Self {
        Self::new()
    }
}

/// How the engine that answered a query was operating.
///
/// Degradation is not failure: a [`crate::search::ResilientSearch`] that
/// cannot trust its index answers through the scan path instead, which is
/// still exact (the LB_Yi filter plus full verification preserves the
/// paper's no-false-dismissal guarantee) — just slower. The health field is
/// how that tradeoff is surfaced instead of being swallowed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum EngineHealth {
    /// The engine ran its primary plan.
    #[default]
    Healthy,
    /// The primary plan was unavailable; an exact fallback answered.
    Degraded {
        /// Name of the engine that actually answered (e.g. "lb-scan").
        fallback: &'static str,
        /// Why the primary plan was abandoned.
        reason: String,
    },
}

impl EngineHealth {
    /// Whether a fallback answered instead of the primary plan.
    pub fn is_degraded(&self) -> bool {
        matches!(self, EngineHealth::Degraded { .. })
    }
}

impl std::fmt::Display for EngineHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineHealth::Healthy => write!(f, "healthy"),
            EngineHealth::Degraded { fallback, reason } => {
                write!(f, "degraded to {fallback}: {reason}")
            }
        }
    }
}

/// Everything one ε-range query produced.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Matches sorted by ascending sequence id.
    pub matches: Vec<Match>,
    /// The engine's work accounting.
    pub stats: SearchStats,
    /// Whether the primary plan answered or an exact fallback did.
    pub health: EngineHealth,
    /// Per-phase observability breakdown (candidates, prunes, verify /
    /// abandon split, I/O, timers) — see [`crate::stats`] for the counter
    /// semantics and the accounting invariant.
    pub query_stats: QueryStats,
    /// How the query ended: ran to completion, or was cut short by a
    /// deadline / resource budget / admission control. Partial results are
    /// still verified-exact — never a false positive — but may miss matches
    /// the completed query would have found.
    pub termination: Termination,
}

impl SearchOutcome {
    /// The matched ids, ascending.
    pub fn ids(&self) -> Vec<SeqId> {
        self.matches.iter().map(|m| m.id).collect()
    }

    /// Drops the health, ledger and termination, yielding the legacy result
    /// type.
    pub fn into_result(self) -> SearchResult {
        SearchResult {
            matches: self.matches,
            stats: self.stats,
        }
    }
}

impl From<SearchResult> for SearchOutcome {
    fn from(result: SearchResult) -> Self {
        Self {
            matches: result.matches,
            stats: result.stats,
            health: EngineHealth::Healthy,
            query_stats: QueryStats::default(),
            termination: Termination::Complete,
        }
    }
}

/// An ε-range search engine over stores paged by `P`.
///
/// Object-safe: heterogeneous engine sets run as
/// `Vec<Box<dyn SearchEngine<P>>>` (how the CLI, the experiments binary and
/// the cross-engine agreement tests dispatch). All implementations answer
/// exactly (no false dismissals) except [`crate::search::FastMapSearch`],
/// which is approximate by construction and says so in its docs.
pub trait SearchEngine<P: Pager>: Send + Sync {
    /// Stable, human-readable engine name (used in reports and labels).
    fn name(&self) -> &str;

    /// Finds every stored sequence within `epsilon` of `query` under the
    /// options' distance kind, verifying candidates through the shared
    /// pipeline ([`crate::search::VerifyJob`]).
    fn range_search(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_builder_defaults_and_overrides() {
        let d = EngineOpts::default();
        assert_eq!(d.kind, DtwKind::MaxAbs);
        assert_eq!(d.threads, 1);
        assert_eq!(d.verify, VerifyMode::Exact);

        let o = EngineOpts::new()
            .kind(DtwKind::SumAbs)
            .threads(4)
            .verify(VerifyMode::Banded(3));
        assert_eq!(o.kind, DtwKind::SumAbs);
        assert_eq!(o.threads, 4);
        assert_eq!(o.verify, VerifyMode::Banded(3));
    }

    #[test]
    #[should_panic(expected = "at least one verify worker")]
    fn zero_threads_rejected() {
        let _ = EngineOpts::new().threads(0);
    }

    #[test]
    fn outcome_roundtrips_to_result() {
        let outcome = SearchOutcome {
            matches: vec![Match {
                id: 3,
                distance: 0.25,
            }],
            stats: SearchStats {
                db_size: 10,
                ..Default::default()
            },
            health: EngineHealth::Healthy,
            query_stats: QueryStats::default(),
            termination: Termination::Complete,
        };
        assert_eq!(outcome.ids(), vec![3]);
        let result = outcome.clone().into_result();
        assert_eq!(result.ids(), vec![3]);
        let back: SearchOutcome = result.into();
        assert_eq!(back.stats.db_size, 10);
        assert!(!back.health.is_degraded());
    }

    #[test]
    fn health_default_and_display() {
        assert_eq!(EngineHealth::default(), EngineHealth::Healthy);
        let degraded = EngineHealth::Degraded {
            fallback: "lb-scan",
            reason: "index checksum mismatch".into(),
        };
        assert!(degraded.is_degraded());
        let text = degraded.to_string();
        assert!(text.contains("lb-scan") && text.contains("checksum"));
    }
}
