//! Graceful degradation: TW-Sim-Search when the index is trustworthy,
//! LB-Scan when it is not.
//!
//! The index is an accelerator, not the source of truth — every sequence the
//! paper's Algorithm 1 can return is also found by the LB-Scan path (both
//! filter with a lower bound that satisfies Corollary 1 and verify with the
//! exact distance). So when the index file is missing, corrupt, stale, or the
//! store throws a mid-query error on a candidate read, the right move is not
//! to fail the query but to answer through the sequential path and *say so*:
//! the [`SearchOutcome::health`] field carries
//! [`EngineHealth::Degraded`] with the fallback engine's name and the reason.
//!
//! Errors that would equally fail the scan path (empty query, invalid
//! tolerance) are propagated, not masked.
//!
//! Overload is handled the same way as damage — answer honestly rather than
//! fall over: an optional [`AdmissionGate`] in front of the engine bounds
//! concurrent queries and the waiting line, and a query arriving past both
//! bounds is *shed*, returning an empty outcome marked
//! [`Termination::Shed`] instead of stacking up unboundedly.
//!
//! A query runs in two calls, [`ResilientSearch::probe`] (admission plus
//! the index filter) and [`ResilientSearch::refine`] (fetch, cascade and
//! verify, or the fallback), so the shard fan-out can size the work from
//! the probe before it spends a thread on it. `range_search` is the two
//! back to back. A fallback after a failed index path runs under the
//! probe's token: the query's budget covers both paths, not each.

use std::path::Path;
use std::sync::Arc;

use tw_storage::{Pager, SequenceStore};

use crate::error::TwError;
use crate::govern::{Admission, AdmissionGate, AdmissionPermit, Termination};
use crate::search::pipeline::Filtered;
use crate::search::{EngineHealth, EngineOpts, LbScan, SearchEngine, SearchOutcome, TwSimSearch};

/// A query admitted (or shed) by a [`ResilientSearch`] and, on the index
/// path, already filtered. An admission permit inside is held until
/// [`ResilientSearch::refine`] returns.
// The large variant is the common one (every indexed query, once per
// shard); boxing it would add an allocation there to shrink the rare shed
// and offline probes.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Probe<'s, P: Pager> {
    /// The admission gate shed the query.
    Shed,
    /// The index is offline: the refine step is an LB-Scan of the store.
    Offline(Option<AdmissionPermit>),
    /// The index proposed these candidates.
    Filtered(Option<AdmissionPermit>, Filtered<'s, P>),
}

impl<P: Pager> Probe<'_, P> {
    /// Sequences the refine step will consider: the index's proposals,
    /// the whole store (`store_len`) when the index is offline, none when
    /// shed.
    pub(crate) fn proposed(&self, store_len: usize) -> usize {
        match self {
            Probe::Shed => 0,
            Probe::Offline(_) => store_len,
            Probe::Filtered(_, filtered) => filtered.proposed(),
        }
    }
}

/// An engine that prefers the index and survives without it.
#[derive(Debug, Clone)]
pub struct ResilientSearch {
    primary: Option<TwSimSearch>,
    /// Why `primary` is absent (set when the index failed to load).
    offline_reason: Option<String>,
    /// Admission-control front door; `None` admits everything immediately.
    gate: Option<Arc<AdmissionGate>>,
}

impl ResilientSearch {
    /// Wraps a healthy index-based engine.
    pub fn new(engine: TwSimSearch) -> Self {
        Self {
            primary: Some(engine),
            offline_reason: None,
            gate: None,
        }
    }

    /// Loads the index from `path`, degrading instead of failing.
    ///
    /// Decode errors, checksum mismatches, structural violations and a
    /// cardinality that contradicts `expected_len` (see
    /// [`TwSimSearch::load_file`]) all produce an engine that answers every
    /// query through LB-Scan and reports why.
    pub fn from_index_file<Q: AsRef<Path>>(path: Q, expected_len: Option<usize>) -> Self {
        match TwSimSearch::load_file(path, expected_len) {
            Ok(engine) => Self::new(engine),
            Err(e) => Self {
                primary: None,
                offline_reason: Some(e.to_string()),
                gate: None,
            },
        }
    }

    /// Puts an admission gate in front of every query: at most
    /// `max_concurrent` run at once, at most `max_queued` wait for a slot,
    /// and anything beyond that is shed with [`Termination::Shed`]. Clones
    /// share the gate.
    pub fn with_admission(mut self, gate: Arc<AdmissionGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// The admission gate, when one is installed.
    pub fn admission_gate(&self) -> Option<&Arc<AdmissionGate>> {
        self.gate.as_ref()
    }

    /// Whether the index is unavailable and every query will fall back.
    pub fn is_index_offline(&self) -> bool {
        self.primary.is_none()
    }

    /// Why the index is offline, if it is.
    pub fn offline_reason(&self) -> Option<&str> {
        self.offline_reason.as_deref()
    }

    /// The wrapped index engine, when it loaded.
    pub fn primary(&self) -> Option<&TwSimSearch> {
        self.primary.as_ref()
    }

    /// Whether `err` is the kind of failure the scan path can route around:
    /// damage to stored state, not a malformed query.
    fn recoverable(err: &TwError) -> bool {
        matches!(
            err,
            TwError::Storage(_)
                | TwError::UnknownSequence(_)
                | TwError::Index(_)
                | TwError::CorruptIndex(_)
        )
    }

    /// The first half of a query: admission control (a shed query never
    /// touches the store), then — when the index is online — the query's
    /// validation and the R-tree filter.
    pub(crate) fn probe<'s, P: Pager>(
        &self,
        store: &'s SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<Probe<'s, P>, TwError> {
        let permit = match &self.gate {
            Some(gate) => match gate.admit() {
                Admission::Granted(permit) => Some(permit),
                Admission::Shed => return Ok(Probe::Shed),
            },
            None => None,
        };
        Ok(match &self.primary {
            Some(primary) => Probe::Filtered(permit, primary.propose(store, query, epsilon, opts)?),
            None => Probe::Offline(permit),
        })
    }

    /// The second half of a query: refines a [`Probe`] taken with the same
    /// `query`, `epsilon` and `opts`. An offline index, or a recoverable
    /// failure on the index path, answers through LB-Scan and says so.
    pub(crate) fn refine<P: Pager>(
        &self,
        store: &SequenceStore<P>,
        probe: Probe<'_, P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        match probe {
            Probe::Shed => Ok(SearchOutcome {
                termination: Termination::Shed,
                ..SearchOutcome::default()
            }),
            Probe::Offline(_permit) => {
                let reason = self
                    .offline_reason
                    .clone()
                    .unwrap_or_else(|| "index offline".to_string());
                Self::fall_back(store, query, epsilon, opts, reason)
            }
            Probe::Filtered(_permit, filtered) => {
                let token = filtered.token().clone();
                match filtered.refine(query, epsilon, opts) {
                    Ok(outcome) => Ok(outcome),
                    Err(err) if Self::recoverable(&err) => {
                        let reason = format!("index path failed: {err}");
                        let opts = opts.clone().shared_token(token);
                        // If the store itself is unreadable the scan fails
                        // too; the original error explains more than the
                        // scan's would.
                        Self::fall_back(store, query, epsilon, &opts, reason).map_err(|_| err)
                    }
                    Err(err) => Err(err),
                }
            }
        }
    }

    fn fall_back<P: Pager>(
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
        reason: String,
    ) -> Result<SearchOutcome, TwError> {
        let mut outcome = LbScan.range_search(store, query, epsilon, opts)?;
        outcome.health = EngineHealth::Degraded {
            fallback: "lb-scan",
            reason,
        };
        Ok(outcome)
    }
}

impl<P: Pager> SearchEngine<P> for ResilientSearch {
    fn name(&self) -> &str {
        "resilient-search"
    }

    fn range_search(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        let probe = self.probe(store, query, epsilon, opts)?;
        self.refine(store, probe, query, epsilon, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DtwKind;
    use crate::govern::QueryBudget;
    use tw_storage::{FaultConfig, FaultKind, FaultPager, MemPager, SequenceStore};

    fn store_with(data: &[Vec<f64>]) -> SequenceStore<MemPager> {
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
    fn healthy_engine_answers_through_the_index() {
        let store = store_with(&db());
        let engine = ResilientSearch::new(TwSimSearch::build(&store).unwrap());
        assert!(!engine.is_index_offline());
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let out = engine
            .range_search(&store, &[20.0, 21.0, 20.0, 23.0], 0.6, &opts)
            .unwrap();
        assert_eq!(out.ids(), vec![0, 1, 3]);
        assert!(!out.health.is_degraded());
        // The index path leaves its fingerprint: node accesses, no scan.
        assert!(out.stats.index_node_accesses > 0);
        assert_eq!(out.stats.io.sequential_pages_scanned, 0);
    }

    #[test]
    fn missing_index_file_degrades_with_exact_answers() {
        let store = store_with(&db());
        let engine = ResilientSearch::from_index_file("/nonexistent/path.rtree", None);
        assert!(engine.is_index_offline());
        assert!(engine.offline_reason().is_some());
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let out = engine
            .range_search(&store, &[20.0, 21.0, 20.0, 23.0], 0.6, &opts)
            .unwrap();
        // Exactly the qualifying set, through the scan path.
        assert_eq!(out.ids(), vec![0, 1, 3]);
        assert!(out.health.is_degraded());
        assert!(out.stats.io.sequential_pages_scanned > 0);
    }

    #[test]
    fn stale_index_cardinality_is_rejected_and_routed_around() {
        let dir = std::env::temp_dir().join(format!("tw-resilient-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let idx = dir.join("stale.rtree");

        // Index three sequences, then grow the store to four: the saved
        // index silently misses the new sequence.
        let store = store_with(&db());
        let small = store_with(&db()[..3]);
        TwSimSearch::build(&small).unwrap().save_file(&idx).unwrap();

        let strict = ResilientSearch::from_index_file(&idx, Some(store.len()));
        assert!(strict.is_index_offline());
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let out = strict
            .range_search(&store, &[20.0, 21.0, 20.0, 23.0], 0.6, &opts)
            .unwrap();
        // Sequence 3 qualifies and is missing from the stale index; the
        // fallback still finds it — no false dismissal.
        assert_eq!(out.ids(), vec![0, 1, 3]);
        assert!(out.health.is_degraded());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_index_file_degrades() {
        let dir = std::env::temp_dir().join(format!("tw-resilient-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let idx = dir.join("corrupt.rtree");

        let store = store_with(&db());
        TwSimSearch::build(&store).unwrap().save_file(&idx).unwrap();
        // Flip one bit in the middle of the file.
        let mut raw = std::fs::read(&idx).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        std::fs::write(&idx, raw).unwrap();

        let engine = ResilientSearch::from_index_file(&idx, Some(store.len()));
        assert!(engine.is_index_offline());
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let out = engine
            .range_search(&store, &[20.0, 21.0, 20.0, 23.0], 0.6, &opts)
            .unwrap();
        assert_eq!(out.ids(), vec![0, 1, 3]);
        assert!(out.health.is_degraded());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_stats_flow_through_both_paths() {
        let store = store_with(&db());
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let query = [20.0, 21.0, 20.0, 23.0];

        let healthy = ResilientSearch::new(TwSimSearch::build(&store).unwrap());
        let out = healthy.range_search(&store, &query, 0.6, &opts).unwrap();
        assert!(
            out.query_stats.accounting_balanced(),
            "{:?}",
            out.query_stats
        );
        assert!(out.query_stats.index_node_accesses() > 0);

        let degraded = ResilientSearch::from_index_file("/nonexistent/path.rtree", None);
        let out = degraded.range_search(&store, &query, 0.6, &opts).unwrap();
        assert!(out.health.is_degraded());
        assert!(
            out.query_stats.accounting_balanced(),
            "{:?}",
            out.query_stats
        );
        // The fallback is the LB-filtered scan: every row entered the
        // pipeline and the distant ones were pruned by Yi's bound.
        assert_eq!(out.query_stats.candidates, 4);
        assert_eq!(out.query_stats.index_node_accesses(), 0);
    }

    /// Runs one query whose index path fails on its first pager read:
    /// 24 sequences on a fault injector behind a one-page pool, so every
    /// fetch is a read. Returns the outcome and the pool misses it cost.
    fn fail_index_path_once(budget: Option<QueryBudget>) -> (SearchOutcome, u64) {
        let (pager, handle) = FaultPager::new(MemPager::new(256), FaultConfig::quiet(3));
        let mut store = SequenceStore::create(pager, 1).unwrap();
        for i in 0..24u32 {
            let base = f64::from(i % 6);
            store
                .append(&[base, base + 0.5, base + 0.2, base + 0.9])
                .unwrap();
        }
        store.flush().unwrap();
        let engine = ResilientSearch::new(TwSimSearch::build(&store).unwrap());
        handle.force_read(FaultKind::Transient);
        store.reset_buffer_stats();
        let mut opts = EngineOpts::new();
        if let Some(budget) = budget {
            opts = opts.budget(budget);
        }
        let out = engine
            .range_search(&store, &[2.0, 2.5, 2.2, 2.9], 1.0, &opts)
            .unwrap();
        assert!(out.health.is_degraded(), "{:?}", out.health);
        (out, store.buffer_stats().misses)
    }

    #[test]
    fn the_fallback_spends_the_index_paths_budget() {
        let (free, misses) = fail_index_path_once(None);
        assert!(free.termination.is_complete());
        // The scan alone misses fewer pages than the whole query did; the
        // failed index read is what tips the query over the cap.
        let cap = QueryBudget::new().max_pager_reads(misses - 1);
        let (out, _) = fail_index_path_once(Some(cap));
        assert!(!out.termination.is_complete(), "{:?}", out.query_stats);
        assert!(
            out.query_stats.accounting_balanced(),
            "{:?}",
            out.query_stats
        );
        assert!(out.matches.iter().all(|m| free.matches.contains(m)));
    }

    #[test]
    fn query_validation_errors_are_not_masked() {
        let store = store_with(&db());
        let engine = ResilientSearch::from_index_file("/nonexistent/path.rtree", None);
        let opts = EngineOpts::new();
        assert!(matches!(
            engine.range_search(&store, &[1.0], -1.0, &opts),
            Err(TwError::InvalidTolerance(_))
        ));
    }
}
