//! The shared candidate-verification pipeline.
//!
//! Every exact engine is a *filter* followed by the same final step: compute
//! the true time-warping distance of each surviving candidate and keep those
//! within tolerance. This module centralizes that step so all engines share
//! one implementation of lower-bound cascading, early abandoning, banded
//! verification, and multi-threaded fan-out — the paper's methods differ
//! only in their filters.
//!
//! When a [`BoundCascade`] is attached (via [`VerifyJob::with_cascade`]),
//! each candidate is first run through the tiered lower bounds; candidates a
//! tier prunes are counted per tier ([`crate::stats::QueryStats`]) and never
//! reach the DP. The cascade may also override the verify mode (when its
//! spec carries a band ratio) and the early-abandon switch.
//!
//! Exact-mode survivors are verified through the lane kernel
//! ([`dtw_decide_lanes`]): [`LANES`] equal-length candidates per DP sweep,
//! leftovers one by one, thread chunks cut on batch boundaries.
//!
//! Threads are spent only where the DP pays for them: `threads` is a
//! ceiling, and [`workers_for`] turns the job's estimated cell count
//! (Σ|cᵢ|·|Q|) into the number of chunks actually run. A job below
//! [`MIN_CELLS_PER_WORKER`] cells per extra worker stays on the calling
//! thread.
//!
//! Determinism: candidates are verified independently (pruning, early
//! abandoning and the cell ledger are per-candidate, so `dtw_cells` does
//! not depend on thread count, order or batch composition) and the merged
//! match list is sorted by sequence id, so the outcome is identical for
//! every thread count.

use tw_storage::SeqId;

use crate::bound::{BoundCascade, BoundTier, CascadeDecision};
use crate::distance::{dtw_banded_governed, dtw_decide_lanes, DtwKind, DtwOutcome, LANES};
use crate::govern::CancelToken;
use crate::search::{Match, VerifyMode};
use crate::stats::{Phase, PipelineCounters};

/// The DP cells one extra worker thread must bring before it is worth
/// starting.
///
/// A scoped spawn + join costs ≈ 49 µs: the per-op gap between the 7-shard
/// `selective-warm` range query at `threads` 2 (0.081 ms) and 1
/// (0.033 ms) on a 2-core x86-64 VM, a fan-out whose DP work is a few
/// hundred cells. In those 49 µs the lane kernel sweeps ≈ 2.4 Gcells/s ×
/// 49 µs ≈ 118 k cells, rounded up here to 2¹⁷. Below that a worker costs
/// more than the work it takes off the calling thread. This is the one
/// gate on every range-query split; it is a derived constant, not a knob.
pub(crate) const MIN_CELLS_PER_WORKER: u64 = 1 << 17;

/// How many threads `cells` of estimated DP work pays for:
/// `cells / MIN_CELLS_PER_WORKER`, at least 1 and never above `ceiling`
/// (the caller's `EngineOpts::threads`).
pub(crate) fn workers_for(cells: u64, ceiling: usize) -> usize {
    usize::try_from(cells / MIN_CELLS_PER_WORKER)
        .unwrap_or(usize::MAX)
        .clamp(1, ceiling.max(1))
}

/// One verification request: the query-side parameters every chunk worker
/// needs, plus the optional per-query [`BoundCascade`].
///
/// The range pipeline (`search/pipeline.rs`) builds the job from the
/// query's [`crate::search::EngineOpts`] and calls [`VerifyJob::run`].
pub struct VerifyJob<'a> {
    query: &'a [f64],
    epsilon: f64,
    kind: DtwKind,
    verify: VerifyMode,
    threads: usize,
    cascade: Option<&'a BoundCascade>,
}

impl<'a> VerifyJob<'a> {
    /// A cascade-less job (the pre-cascade behaviour).
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn new(
        query: &'a [f64],
        epsilon: f64,
        kind: DtwKind,
        verify: VerifyMode,
        threads: usize,
    ) -> Self {
        assert!(threads >= 1, "need at least one verify worker");
        VerifyJob {
            query,
            epsilon,
            kind,
            verify,
            threads,
            cascade: None,
        }
    }

    /// Attaches a prepared cascade. The cascade's effective verify mode
    /// replaces the job's (they agree unless the spec carried a band
    /// ratio), so pruning band and verification band never diverge.
    pub fn with_cascade(mut self, cascade: Option<&'a BoundCascade>) -> Self {
        if let Some(c) = cascade {
            self.verify = c.verify_mode();
        }
        self.cascade = cascade;
        self
    }

    /// The verify mode candidates will actually be checked under.
    pub fn verify_mode(&self) -> VerifyMode {
        self.verify
    }

    /// Verifies pre-read candidate sequences against the query, fanning the
    /// DTW work out over as many of the job's `threads` as its estimated
    /// cell count pays for (one worker per 2¹⁷ estimated cells).
    ///
    /// Returns the qualifying matches sorted by ascending [`SeqId`]. The
    /// shared [`PipelineCounters`] receive the work: per-tier prunes,
    /// `verified` / `abandoned` / `skipped_unverified` per candidate,
    /// `dtw_cells`, and the wall-clock time of the whole call under
    /// [`Phase::Verify`]. Counting is per-candidate, so the counters are
    /// thread-count invariant.
    ///
    /// Workers receive only the candidate slices, never the store, so the
    /// pipeline works with any pager and charges no I/O of its own:
    /// candidates arrive already materialized by the pipeline's fetch or
    /// the engine's scan.
    ///
    /// Each worker checks `token` before starting a candidate and charges DP
    /// cells as it computes; once the token trips, every remaining candidate
    /// is counted as `skipped_unverified` instead of being verified. A
    /// candidate whose DTW was cut short mid-computation is also skipped —
    /// never treated as a verdict — so every returned match is still exact.
    pub fn run(
        &self,
        candidates: &[(SeqId, Vec<f64>)],
        counters: &PipelineCounters,
        token: &CancelToken,
    ) -> Vec<Match> {
        counters.time(Phase::Verify, || {
            let chunk = self.chunk_len(candidates);
            let mut matches = if candidates.len() <= chunk {
                self.verify_chunk(candidates, counters, token)
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = candidates
                        .chunks(chunk)
                        .map(|part| scope.spawn(move || self.verify_chunk(part, counters, token)))
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                        .collect()
                })
            };
            matches.sort_by_key(|m| m.id);
            matches
        })
    }

    /// Candidates per worker chunk. The job's upper-bound cell estimate,
    /// Σ|cᵢ|·|Q| before any pruning or abandoning, sets the worker count;
    /// chunks are whole lane batches, so splitting the work never turns a
    /// full batch into leftovers. One chunk covering every candidate means
    /// the job runs on the calling thread.
    fn chunk_len(&self, candidates: &[(SeqId, Vec<f64>)]) -> usize {
        let cells = candidates
            .iter()
            .map(|(_, values)| values.len() as u64)
            .sum::<u64>()
            .saturating_mul(self.query.len() as u64);
        candidates
            .len()
            .div_ceil(workers_for(cells, self.threads))
            .next_multiple_of(LANES)
    }

    /// Sequentially verifies one slice of candidates, publishing per-chunk
    /// totals into the shared counters (one `fetch_add` per counter per
    /// chunk, not per candidate, to keep contention negligible).
    fn verify_chunk(
        &self,
        candidates: &[(SeqId, Vec<f64>)],
        counters: &PipelineCounters,
        token: &CancelToken,
    ) -> Vec<Match> {
        let mut matches = Vec::new();
        let mut cells = 0u64;
        let mut verified = 0u64;
        let mut abandoned = 0u64;
        let mut skipped = 0u64;
        let mut pruned = [0u64; BoundTier::ALL.len()];
        // Exact-mode survivors wait here and go through the lane kernel
        // together, after the cascade has seen every candidate; banded
        // ones are decided on the spot. Both are ledgered below.
        let mut exact_ids: Vec<SeqId> = Vec::new();
        let mut exact: Vec<&[f64]> = Vec::new();
        let mut decided: Vec<(SeqId, DtwOutcome)> = Vec::new();
        for (i, (id, values)) in candidates.iter().enumerate() {
            if token.cancelled() {
                skipped += (candidates.len() - i) as u64;
                break;
            }
            if let Some(cascade) = self.cascade {
                if let CascadeDecision::Pruned { tier } = cascade.check(*id, values, self.epsilon) {
                    if let Some((_, n)) = BoundTier::ALL
                        .iter()
                        .zip(pruned.iter_mut())
                        .find(|(&t, _)| t == tier)
                    {
                        *n += 1;
                    }
                    continue;
                }
            }
            match self.verify {
                VerifyMode::Exact => {
                    exact_ids.push(*id);
                    exact.push(values);
                }
                VerifyMode::Banded(w) => {
                    let (r, cancelled) =
                        dtw_banded_governed(values, self.query, self.kind, w, token);
                    let outcome = DtwOutcome {
                        within: (!cancelled && r.distance <= self.epsilon).then_some(r.distance),
                        cells: r.cells,
                        early_abandoned: false,
                        cancelled,
                    };
                    decided.push((*id, outcome));
                }
            }
        }
        let abandon = self.cascade.is_none_or(BoundCascade::early_abandon);
        let outcomes =
            dtw_decide_lanes(&exact, self.query, self.kind, self.epsilon, abandon, token);
        decided.extend(exact_ids.into_iter().zip(outcomes));
        for (id, outcome) in decided {
            cells += outcome.cells;
            if outcome.cancelled {
                // Cut short (or never started): cells may have been spent,
                // the verdict never arrived. Ledger the candidate as
                // skipped, not as an invocation.
                skipped += 1;
                continue;
            }
            if outcome.early_abandoned {
                abandoned += 1;
            } else {
                verified += 1;
            }
            if let Some(distance) = outcome.within {
                matches.push(Match { id, distance });
            }
        }
        for (&tier, &n) in BoundTier::ALL.iter().zip(&pruned) {
            if n > 0 {
                counters.add_pruned(tier, n);
            }
        }
        counters.add_verified(verified);
        counters.add_abandoned(abandoned);
        counters.add_skipped_unverified(skipped);
        counters.add_dtw_cells(cells);
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::CascadeSpec;
    use crate::distance::dtw;

    fn candidates() -> Vec<(SeqId, Vec<f64>)> {
        (0..23)
            .map(|i| {
                let base = (i % 7) as f64;
                (i as SeqId, vec![base, base + 0.3, base + 0.8])
            })
            .collect()
    }

    /// 131 candidates over three lengths (shorter than, equal to and longer
    /// than the 5-point query), none a multiple of the lane width: every
    /// chunking leaves full batches, leftovers and length switches.
    fn mixed_candidates() -> Vec<(SeqId, Vec<f64>)> {
        (0..131u64)
            .map(|i| {
                let len = [3usize, 5, 9][(i % 3) as usize];
                let base = (i % 7) as f64;
                let values = (0..len)
                    .map(|j| base + 0.2 * ((i + j as u64) % 4) as f64)
                    .collect();
                (i, values)
            })
            .collect()
    }

    const MIXED_QUERY: [f64; 5] = [3.0, 3.3, 3.9, 3.4, 3.1];

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let cands = mixed_candidates();
        for kind in [DtwKind::MaxAbs, DtwKind::SumAbs, DtwKind::SumSquared] {
            let run =
                |threads| {
                    let counters = PipelineCounters::new();
                    let m = VerifyJob::new(&MIXED_QUERY, 0.9, kind, VerifyMode::Exact, threads)
                        .run(&cands, &counters, &CancelToken::unlimited());
                    (m, counters.snapshot())
                };
            let (base_matches, base_counters) = run(1);
            assert!(!base_matches.is_empty() && base_matches.len() < cands.len());
            assert!(base_counters.abandoned > 0 && base_counters.verified > 0);
            // The per-lane ledger equals the one-pair-at-a-time ledger.
            let alone: u64 = cands
                .iter()
                .map(|(_, v)| crate::distance::dtw_within(v, &MIXED_QUERY, kind, 0.9).cells)
                .sum();
            assert_eq!(base_counters.dtw_cells, alone, "{kind:?}");
            for threads in [2usize, 3, 4, 16] {
                let (m, counters) = run(threads);
                assert_eq!(m, base_matches, "{kind:?} threads={threads}");
                assert!(
                    counters.counters_eq(&base_counters),
                    "{kind:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn cell_budget_tripping_mid_batch_leaves_an_exact_balanced_subset() {
        let cands = mixed_candidates();
        let full_counters = PipelineCounters::new();
        let full = VerifyJob::new(&MIXED_QUERY, 0.9, DtwKind::MaxAbs, VerifyMode::Exact, 1).run(
            &cands,
            &full_counters,
            &CancelToken::unlimited(),
        );
        let full_cells = full_counters.snapshot().dtw_cells;
        for threads in [1usize, 4] {
            // From the first sweep's first column to most of the way
            // through (abandoning columns are ledgered but not charged).
            for max_cells in [1u64, 40, 200, 400] {
                let token =
                    CancelToken::builder(std::sync::Arc::new(crate::govern::SystemClock::new()))
                        .max_cells(max_cells)
                        .build();
                let counters = PipelineCounters::new();
                counters.add_candidates(cands.len() as u64);
                let partial = VerifyJob::new(
                    &MIXED_QUERY,
                    0.9,
                    DtwKind::MaxAbs,
                    VerifyMode::Exact,
                    threads,
                )
                .run(&cands, &counters, &token);
                let what = format!("threads={threads} max_cells={max_cells}");
                assert!(token.cancelled(), "{what}");
                assert!(partial.iter().all(|m| full.contains(m)), "{what}");
                assert!(partial.len() < full.len(), "{what}");
                let snap = counters.snapshot();
                assert!(snap.accounting_balanced(), "{what}: {snap:?}");
                assert!(snap.skipped_unverified > 0, "{what}");
                assert!(snap.dtw_cells <= full_cells, "{what}");
            }
        }
    }

    /// Each benchmark workload's range op, per shard and per op, as
    /// `(what, proposals, |Q|, workers at a ceiling of 2)`: the estimate
    /// the gate sees is `proposals × |Q|²`.
    const WORKLOAD_SHAPES: [(&str, u64, u64, usize); 6] = [
        // selective-warm: ≈ 1.7 candidates per op at |Q| = 64 (≈ 7 k).
        ("selective-warm op", 2, 64, 1),
        // ingest-query: the base range, ≈ 26 candidates at |Q| = 64.
        ("ingest-query op", 26, 64, 1),
        // verify-heavy: |Q| = 128, ≈ 47 proposals per shard of 4.
        ("verify-heavy shard", 47, 128, 2),
        ("verify-heavy op", 190, 128, 2),
        // paged-cold: |Q| = 32, ≈ 350 proposals per shard of 8.
        ("paged-cold shard", 350, 32, 2),
        ("paged-cold op", 2_830, 32, 2),
    ];

    #[test]
    fn workers_for_pins_each_workload_regime() {
        for (what, proposals, q, expect) in WORKLOAD_SHAPES {
            let cells = proposals * q * q;
            assert_eq!(workers_for(cells, 2), expect, "{what}: {cells} cells");
            assert_eq!(workers_for(cells, 1), 1, "{what}");
        }
        // The gate itself: one worker up to twice the threshold.
        assert_eq!(workers_for(2 * MIN_CELLS_PER_WORKER - 1, 8), 1);
        assert_eq!(workers_for(2 * MIN_CELLS_PER_WORKER, 8), 2);
        for ceiling in 1..=8usize {
            for cells in [0, 1, MIN_CELLS_PER_WORKER, 1 << 20, 1 << 30, u64::MAX] {
                let w = workers_for(cells, ceiling);
                assert!(
                    (1..=ceiling).contains(&w),
                    "cells={cells} ceiling={ceiling}"
                );
            }
        }
        assert_eq!(workers_for(u64::MAX, 0), 1, "a zero ceiling still runs");
    }

    /// 96 candidates of 64 points against a 64-point query: 393 k
    /// estimated cells, enough for three workers.
    fn gate_crossing_candidates() -> (Vec<(SeqId, Vec<f64>)>, Vec<f64>) {
        let cands = (0..96u64)
            .map(|i| {
                let values = (0..64u64)
                    .map(|j| ((i * 7 + j) % 13) as f64 * 0.1 + (i % 5) as f64)
                    .collect();
                (i, values)
            })
            .collect();
        let query = (0..64u64).map(|j| (j % 13) as f64 * 0.1 + 2.0).collect();
        (cands, query)
    }

    #[test]
    fn chunks_follow_the_estimated_cells_not_the_thread_count() {
        let job = |threads| {
            VerifyJob::new(
                &MIXED_QUERY,
                0.9,
                DtwKind::MaxAbs,
                VerifyMode::Exact,
                threads,
            )
        };
        // A few thousand cells stay in one chunk at any thread count.
        let small = mixed_candidates();
        for threads in [1usize, 2, 4, 16] {
            assert!(
                job(threads).chunk_len(&small) >= small.len(),
                "threads={threads}"
            );
        }
        // Past the gate, the split is the cheaper of the ceiling and what
        // the cells pay for, in whole lane batches.
        let (big, query) = gate_crossing_candidates();
        let job =
            |threads| VerifyJob::new(&query, 0.9, DtwKind::MaxAbs, VerifyMode::Exact, threads);
        assert_eq!(job(1).chunk_len(&big), 96);
        assert_eq!(job(2).chunk_len(&big), 48);
        assert_eq!(job(16).chunk_len(&big), 32);
        assert_eq!(job(16).chunk_len(&[]), 0);
    }

    #[test]
    fn gate_crossing_job_is_thread_count_invariant() {
        let (cands, query) = gate_crossing_candidates();
        let run =
            |threads| {
                let counters = PipelineCounters::new();
                let m = VerifyJob::new(&query, 2.0, DtwKind::MaxAbs, VerifyMode::Exact, threads)
                    .run(&cands, &counters, &CancelToken::unlimited());
                (m, counters.snapshot())
            };
        let (base_m, base_c) = run(1);
        assert!(!base_m.is_empty() && base_m.len() < cands.len());
        for threads in [2usize, 4] {
            let (m, c) = run(threads);
            assert_eq!(m, base_m, "threads={threads}");
            assert!(c.counters_eq(&base_c), "threads={threads}");
        }
    }

    #[test]
    fn counters_partition_verified_and_abandoned() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let counters = PipelineCounters::new();
        let m = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 3).run(
            &cands,
            &counters,
            &CancelToken::unlimited(),
        );
        let snap = counters.snapshot();
        // Every candidate either completed or abandoned.
        assert_eq!(snap.verified + snap.abandoned, cands.len() as u64);
        // Matches only come from completed verifications.
        assert!((m.len() as u64) <= snap.verified);
        assert!(snap.dtw_cells > 0);
        // Verify-phase time was attributed.
        assert!(snap.phases.verify > std::time::Duration::ZERO);
    }

    #[test]
    fn cascade_prunes_before_dtw_and_counts_per_tier() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let plain_counters = PipelineCounters::new();
        let plain = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 2).run(
            &cands,
            &plain_counters,
            &CancelToken::unlimited(),
        );
        let cascade = BoundCascade::prepare(
            &CascadeSpec::standard(),
            &query,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        let counters = PipelineCounters::new();
        let m = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 2)
            .with_cascade(Some(&cascade))
            .run(&cands, &counters, &CancelToken::unlimited());
        // Same matches, strictly less DP work: this candidate set is mostly
        // far from the query, so the bounds must prune.
        assert_eq!(m, plain);
        let snap = counters.snapshot();
        assert!(snap.dtw_cells < plain_counters.snapshot().dtw_cells);
        assert!(snap.pruned_total() > 0);
        counters.add_candidates(cands.len() as u64);
        assert!(counters.snapshot().accounting_balanced());
    }

    #[test]
    fn cascade_counters_are_thread_count_invariant() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let cascade = BoundCascade::prepare(
            &CascadeSpec::standard(),
            &query,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        let base = PipelineCounters::new();
        let base_m = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 1)
            .with_cascade(Some(&cascade))
            .run(&cands, &base, &CancelToken::unlimited());
        for threads in [2usize, 4, 16] {
            let counters = PipelineCounters::new();
            let m = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, threads)
                .with_cascade(Some(&cascade))
                .run(&cands, &counters, &CancelToken::unlimited());
            assert_eq!(m, base_m, "threads={threads}");
            assert!(counters.snapshot().counters_eq(&base.snapshot()));
        }
    }

    #[test]
    fn cascade_band_ratio_overrides_the_job_mode() {
        let query = [3.0, 3.3, 3.9];
        let cascade = BoundCascade::prepare(
            &CascadeSpec::standard().band_ratio(0.5),
            &query,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        let job = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 1)
            .with_cascade(Some(&cascade));
        assert_eq!(job.verify_mode(), VerifyMode::Banded(2));
    }

    #[test]
    fn early_abandon_off_forces_complete_dps() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let cascade = BoundCascade::prepare(
            &CascadeSpec::none().early_abandon(false),
            &query,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        let counters = PipelineCounters::new();
        let _ = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 2)
            .with_cascade(Some(&cascade))
            .run(&cands, &counters, &CancelToken::unlimited());
        let snap = counters.snapshot();
        assert_eq!(snap.abandoned, 0);
        assert_eq!(snap.verified, cands.len() as u64);
        // Full DPs everywhere: 23 candidates × 3×3 cells.
        assert_eq!(snap.dtw_cells, 23 * 9);
    }

    #[test]
    fn banded_mode_never_abandons() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let counters = PipelineCounters::new();
        let _ = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Banded(1), 2).run(
            &cands,
            &counters,
            &CancelToken::unlimited(),
        );
        let snap = counters.snapshot();
        assert_eq!(snap.abandoned, 0);
        assert_eq!(snap.verified, cands.len() as u64);
    }

    #[test]
    fn matches_sorted_even_from_unsorted_candidates() {
        let mut cands = candidates();
        cands.reverse();
        let query = [3.0, 3.3, 3.9];
        let m = VerifyJob::new(&query, 5.0, DtwKind::MaxAbs, VerifyMode::Exact, 3).run(
            &cands,
            &PipelineCounters::new(),
            &CancelToken::unlimited(),
        );
        assert!(m.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn distances_are_exact() {
        let cands = candidates();
        let query = [2.0, 2.5, 2.9];
        let m = VerifyJob::new(&query, 1.0, DtwKind::SumAbs, VerifyMode::Exact, 4).run(
            &cands,
            &PipelineCounters::new(),
            &CancelToken::unlimited(),
        );
        for matched in &m {
            let expect = dtw(&cands[matched.id as usize].1, &query, DtwKind::SumAbs).distance;
            assert!((matched.distance - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn banded_mode_is_a_subset_of_exact() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let exact = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 2).run(
            &cands,
            &PipelineCounters::new(),
            &CancelToken::unlimited(),
        );
        let banded = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Banded(1), 2).run(
            &cands,
            &PipelineCounters::new(),
            &CancelToken::unlimited(),
        );
        let exact_ids: Vec<_> = exact.iter().map(|m| m.id).collect();
        for m in &banded {
            assert!(exact_ids.contains(&m.id));
        }
    }

    #[test]
    fn empty_candidates_are_fine() {
        let counters = PipelineCounters::new();
        let m = VerifyJob::new(&[1.0], 1.0, DtwKind::MaxAbs, VerifyMode::Exact, 4).run(
            &[],
            &counters,
            &CancelToken::unlimited(),
        );
        assert!(m.is_empty());
        let snap = counters.snapshot();
        assert_eq!((snap.verified, snap.abandoned, snap.dtw_cells), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one verify worker")]
    fn zero_threads_rejected() {
        let _ = VerifyJob::new(&[1.0], 1.0, DtwKind::MaxAbs, VerifyMode::Exact, 0).run(
            &[],
            &PipelineCounters::new(),
            &CancelToken::unlimited(),
        );
    }
}
