//! Per-query observability: the one work ledger and the views derived
//! from it.
//!
//! The paper's experiments (Figures 2–5) compare methods by how many
//! candidates survive each stage and how much DTW work the survivors cost.
//! This module makes that breakdown first-class: every engine threads a
//! [`PipelineCounters`] through its filter → fetch → verify pipeline and
//! publishes an immutable [`QueryStats`] snapshot on the `SearchOutcome`.
//! `QueryStats` is the only place a counter is written; the paper-facing
//! [`SearchStats`] is a view, built by [`SearchStats::from_ledger`] alone.
//!
//! Counter semantics (the *accounting invariant*, enforced by
//! `tests/stats_accounting.rs`):
//!
//! ```text
//! candidates == pruned_lb_kim + pruned_lb_yi + pruned_lb_keogh
//!               + pruned_lb_improved + pruned_embedding
//!               + verified + abandoned + skipped_unverified
//! ```
//!
//! * `candidates` — sequences the filter stage produced into the pipeline
//!   (all rows for scan engines, the index result set for index engines);
//! * `pruned_lb_kim` / `pruned_lb_yi` / `pruned_lb_keogh` /
//!   `pruned_lb_improved` — candidates dismissed by the corresponding
//!   [`crate::bound::BoundTier`] without a DTW computation;
//! * `pruned_embedding` — candidates dismissed by FastMap's Euclidean-ball
//!   check in the embedded space (a heuristic filter, not a lower bound);
//! * `verified` — exact DTW computations that ran to completion;
//! * `abandoned` — DTW computations cut short by early abandoning in
//!   [`dtw_within`](crate::distance::dtw_within);
//! * `dtw_cells` (a cost, not an equation term) — kept per candidate: the
//!   columns of its own DP table computed while it was undecided, so the
//!   count does not depend on which candidates shared a lane batch;
//! * `skipped_unverified` — candidates never decided because a query budget
//!   or deadline cancelled the pipeline first (see [`crate::govern`]); the
//!   rows were neither pruned nor DTW'd, so under a budget the ledger still
//!   balances and every returned match remains verified-exact.
//!
//! **Two candidate notions.** `candidates` counts everything the filter
//! stage produced, including rows a scan's `D_lb` check or FastMap's ball
//! check dismissed. The paper's count (Figure 2's numerator) is the cost
//! counter `refine_candidates`: the proposals that reached the refine
//! step. Naive-Scan proposes every row; Figure 2 plots its match count
//! instead, a rule of the experiments runner, not of the engine.
//!
//! An invocation is a DP that reached a verdict, or a FastMap pivot
//! projection: `dtw_invocations == verified + abandoned + pivot_dtw` for
//! every engine. A DP a budget cut short is `skipped_unverified`; its
//! cells still land in `dtw_cells`.
//!
//! Counters are atomics so the shared verification pipeline can update them
//! from scoped worker threads; all counting is independent of thread count.
//! Timers use [`Instant`], a monotonic clock, and are the only
//! non-deterministic part of a snapshot — comparison helpers therefore
//! ignore them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tw_storage::{HardwareModel, IoProfile};

// The machine-checked counter manifest (tw-analyze `stats-ledger` rule).
// Every u64/AtomicU64 field of the scoped structs must appear in exactly
// one term below; equation terms must be enforced by accounting_balanced/
// pruned_total and every equation+cost term aggregated by merge(). Adding
// a counter without balancing the ledger fails `analyze`, not a stress
// test three PRs later.
//
// tw-ledger(scope): QueryStats, PipelineCounters
// tw-ledger(equation): candidates = pruned_lb_kim + pruned_lb_yi + pruned_lb_keogh + pruned_lb_improved + pruned_embedding + verified + abandoned + skipped_unverified
// tw-ledger(cost): dtw_cells, pivot_dtw, pager_reads, checksum_retries, index_internal_accesses, index_leaf_accesses, refine_candidates, filter_ops
// tw-ledger(gauge): wal_appends, snapshot_epoch, admission_shed, admission_queue_depth
// tw-ledger(timing): filter_nanos, fetch_nanos, verify_nanos

/// The three pipeline stages a query's wall-clock time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Candidate generation: index traversal or scan-side lower-bounding.
    Filter,
    /// Materializing candidate sequences from storage.
    Fetch,
    /// Exact (or banded) DTW verification of the survivors.
    Verify,
}

/// Wall-clock time attributed to each [`Phase`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Time in the candidate-generation stage.
    pub filter: Duration,
    /// Time materializing candidates from storage.
    pub fetch: Duration,
    /// Time in DTW verification.
    pub verify: Duration,
}

impl PhaseTimes {
    /// Total attributed wall-clock time across all phases.
    pub fn total(&self) -> Duration {
        self.filter + self.fetch + self.verify
    }
}

/// Immutable snapshot of one query's pipeline counters.
///
/// Produced by [`PipelineCounters::snapshot`]; everything except
/// [`phases`](Self::phases) is deterministic for a fixed input and thread
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sequences produced into the pipeline by the filter stage.
    pub candidates: u64,
    /// Candidates dismissed by the Kim `D_tw-lb` lower bound.
    pub pruned_lb_kim: u64,
    /// Candidates dismissed by Yi's `D_lb` lower bound.
    pub pruned_lb_yi: u64,
    /// Candidates dismissed by Keogh's envelope lower bound.
    pub pruned_lb_keogh: u64,
    /// Candidates dismissed by Lemire's LB_Improved lower bound.
    pub pruned_lb_improved: u64,
    /// Candidates dismissed by FastMap's embedded-space distance check.
    pub pruned_embedding: u64,
    /// Exact DTW verifications that ran to completion.
    pub verified: u64,
    /// DTW verifications cut short by early abandoning.
    pub abandoned: u64,
    /// Candidates left undecided when a budget/deadline cancelled the query.
    pub skipped_unverified: u64,
    /// DP cells ledgered (verification plus any pivot DTWs): per candidate,
    /// whole columns of its own table while it was still undecided. The
    /// lane kernel verifies several candidates per sweep; what it computes
    /// in a lane that has already decided is not counted, so the total is
    /// the one-candidate-at-a-time total whatever the batching or threads.
    pub dtw_cells: u64,
    /// DTW computations spent on FastMap pivot projections (not part of
    /// the verify accounting; their cells are included in `dtw_cells`).
    pub pivot_dtw: u64,
    /// Pages read from the pager (random and sequential) during the query.
    pub pager_reads: u64,
    /// Page reads retried after a checksum failure.
    pub checksum_retries: u64,
    /// R-tree internal (non-leaf) node visits.
    pub index_internal_accesses: u64,
    /// R-tree leaf node visits.
    pub index_leaf_accesses: u64,
    /// Proposals that reached the refine step (fetch, cascade, verify):
    /// the paper's candidate count, Figure 2's numerator. A cost, outside
    /// the equation — see the module docs for how it differs from
    /// `candidates`.
    pub refine_candidates: u64,
    /// Element-level filter work priced by the CPU model: Yi's `D_lb`
    /// element operations in LB-Scan's pass, the suffix tree's DP cells in
    /// ST-Filter's traversal.
    pub filter_ops: u64,
    /// WAL appends acknowledged by the ingest layer when the query's
    /// snapshot was pinned. A gauge (like `pager_reads`), **outside** the
    /// accounting ledger; zero for queries against a plain store.
    pub wal_appends: u64,
    /// Epoch of the pinned snapshot the query ran against. A gauge, outside
    /// the accounting ledger; zero for queries against a plain store.
    pub snapshot_epoch: u64,
    /// Queries shed by the serving [`AdmissionGate`](crate::AdmissionGate)
    /// since it was created, observed when this query's stats were stamped.
    /// A monotone gauge (like `wal_appends`): merging takes the most recent
    /// observation, so an aggregate reports the gate's true total instead of
    /// double-counting the cumulative value. Zero for ungated queries.
    pub admission_shed: u64,
    /// Depth of the admission queue when this query's stats were stamped.
    /// A gauge; merging keeps the deepest observation (peak queueing).
    pub admission_queue_depth: u64,
    /// Wall-clock time per phase (monotonic clock; non-deterministic).
    pub phases: PhaseTimes,
}

impl QueryStats {
    /// Candidates dismissed by any filter after candidate generation.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_lb_kim
            + self.pruned_lb_yi
            + self.pruned_lb_keogh
            + self.pruned_lb_improved
            + self.pruned_embedding
    }

    /// Total R-tree node accesses (internal + leaf).
    pub fn index_node_accesses(&self) -> u64 {
        self.index_internal_accesses + self.index_leaf_accesses
    }

    /// Whether the accounting invariant holds:
    /// `candidates == pruned + verified + abandoned + skipped_unverified`.
    pub fn accounting_balanced(&self) -> bool {
        self.candidates
            == self.pruned_total() + self.verified + self.abandoned + self.skipped_unverified
    }

    /// Equality over the deterministic counters only, ignoring
    /// [`phases`](Self::phases) — the comparison to use when asserting
    /// thread-count invariance.
    pub fn counters_eq(&self, other: &QueryStats) -> bool {
        let a = Self {
            phases: PhaseTimes::default(),
            ..*self
        };
        let b = Self {
            phases: PhaseTimes::default(),
            ..*other
        };
        a == b
    }

    /// Sums another snapshot into this one (counters add, durations add).
    /// Used to aggregate a workload of queries into one record.
    pub fn merge(&mut self, other: &QueryStats) {
        self.candidates += other.candidates;
        self.pruned_lb_kim += other.pruned_lb_kim;
        self.pruned_lb_yi += other.pruned_lb_yi;
        self.pruned_lb_keogh += other.pruned_lb_keogh;
        self.pruned_lb_improved += other.pruned_lb_improved;
        self.pruned_embedding += other.pruned_embedding;
        self.verified += other.verified;
        self.abandoned += other.abandoned;
        self.skipped_unverified += other.skipped_unverified;
        self.dtw_cells += other.dtw_cells;
        self.pivot_dtw += other.pivot_dtw;
        self.pager_reads += other.pager_reads;
        self.checksum_retries += other.checksum_retries;
        self.index_internal_accesses += other.index_internal_accesses;
        self.index_leaf_accesses += other.index_leaf_accesses;
        self.refine_candidates += other.refine_candidates;
        self.filter_ops += other.filter_ops;
        // Gauges, not tallies: the merged record reflects the most advanced
        // ingest state any constituent query observed.
        self.wal_appends = self.wal_appends.max(other.wal_appends);
        self.snapshot_epoch = self.snapshot_epoch.max(other.snapshot_epoch);
        self.admission_shed = self.admission_shed.max(other.admission_shed);
        self.admission_queue_depth = self.admission_queue_depth.max(other.admission_queue_depth);
        self.phases.filter += other.phases.filter;
        self.phases.fetch += other.phases.fetch;
        self.phases.verify += other.phases.verify;
    }
}

/// Live, thread-safe counters threaded through one query's pipeline.
///
/// Engines create one per query, pass it to the shared verification
/// pipeline (whose scoped workers update it concurrently), and call
/// [`snapshot`](Self::snapshot) at the end to publish a [`QueryStats`].
#[derive(Debug, Default)]
pub struct PipelineCounters {
    candidates: AtomicU64,
    pruned_lb_kim: AtomicU64,
    pruned_lb_yi: AtomicU64,
    pruned_lb_keogh: AtomicU64,
    pruned_lb_improved: AtomicU64,
    pruned_embedding: AtomicU64,
    verified: AtomicU64,
    abandoned: AtomicU64,
    skipped_unverified: AtomicU64,
    dtw_cells: AtomicU64,
    pivot_dtw: AtomicU64,
    pager_reads: AtomicU64,
    checksum_retries: AtomicU64,
    index_internal_accesses: AtomicU64,
    index_leaf_accesses: AtomicU64,
    refine_candidates: AtomicU64,
    filter_ops: AtomicU64,
    filter_nanos: AtomicU64,
    fetch_nanos: AtomicU64,
    verify_nanos: AtomicU64,
}

/// Saturating `u128 → u64` for nanosecond totals (584 years of query time
/// would overflow; clamp instead of wrapping).
fn nanos_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The sanctioned monotonic timestamp source for engine observability.
/// Library code takes timestamps through here (or through the storage
/// `Clock` abstraction) rather than calling `Instant::now()` directly —
/// enforced by the tw-analyze `raw-time` rule. Observability timestamps are
/// deliberately *not* routed through a query's mockable clock: elapsed-time
/// reporting must reflect real time even in simulated-clock tests.
pub(crate) fn wall_now() -> Instant {
    Instant::now() // tw-allow(raw-time): the sanctioned observability clock source
}

impl PipelineCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` candidates produced by the filter stage.
    pub fn add_candidates(&self, n: u64) {
        self.candidates.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` candidates pruned by the given cascade tier.
    pub fn add_pruned(&self, tier: crate::bound::BoundTier, n: u64) {
        use crate::bound::BoundTier;
        let slot = match tier {
            BoundTier::Kim => &self.pruned_lb_kim,
            BoundTier::Yi => &self.pruned_lb_yi,
            BoundTier::Keogh => &self.pruned_lb_keogh,
            BoundTier::Improved => &self.pruned_lb_improved,
        };
        slot.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` candidates pruned by the FastMap embedding check.
    pub fn add_pruned_embedding(&self, n: u64) {
        self.pruned_embedding.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a DTW verification that ran to completion.
    pub fn add_verified(&self, n: u64) {
        self.verified.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a DTW verification cut short by early abandoning.
    pub fn add_abandoned(&self, n: u64) {
        self.abandoned.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` candidates left undecided by a cancelled query.
    pub fn add_skipped_unverified(&self, n: u64) {
        self.skipped_unverified.fetch_add(n, Ordering::Relaxed);
    }

    /// Records DP cells evaluated.
    pub fn add_dtw_cells(&self, n: u64) {
        self.dtw_cells.fetch_add(n, Ordering::Relaxed);
    }

    /// Records FastMap pivot-projection DTW computations.
    pub fn add_pivot_dtw(&self, n: u64) {
        self.pivot_dtw.fetch_add(n, Ordering::Relaxed);
    }

    /// Records pages read from the pager.
    pub fn add_pager_reads(&self, n: u64) {
        self.pager_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records checksum-failure read retries.
    pub fn add_checksum_retries(&self, n: u64) {
        self.checksum_retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Records R-tree internal-node visits.
    pub fn add_index_internal(&self, n: u64) {
        self.index_internal_accesses.fetch_add(n, Ordering::Relaxed);
    }

    /// Records R-tree leaf-node visits.
    pub fn add_index_leaf(&self, n: u64) {
        self.index_leaf_accesses.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` proposals handed to the refine step.
    pub fn add_refine_candidates(&self, n: u64) {
        self.refine_candidates.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` element-level filter operations.
    pub fn add_filter_ops(&self, n: u64) {
        self.filter_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds wall-clock time to a phase.
    pub fn add_phase(&self, phase: Phase, elapsed: Duration) {
        let slot = match phase {
            Phase::Filter => &self.filter_nanos,
            Phase::Fetch => &self.fetch_nanos,
            Phase::Verify => &self.verify_nanos,
        };
        slot.fetch_add(nanos_u64(elapsed), Ordering::Relaxed);
    }

    /// Runs `f`, attributing its wall-clock time to `phase`.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = wall_now();
        let out = f();
        self.add_phase(phase, start.elapsed());
        out
    }

    /// Publishes the current counter values as an immutable snapshot.
    pub fn snapshot(&self) -> QueryStats {
        QueryStats {
            candidates: self.candidates.load(Ordering::Relaxed),
            pruned_lb_kim: self.pruned_lb_kim.load(Ordering::Relaxed),
            pruned_lb_yi: self.pruned_lb_yi.load(Ordering::Relaxed),
            pruned_lb_keogh: self.pruned_lb_keogh.load(Ordering::Relaxed),
            pruned_lb_improved: self.pruned_lb_improved.load(Ordering::Relaxed),
            pruned_embedding: self.pruned_embedding.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            skipped_unverified: self.skipped_unverified.load(Ordering::Relaxed),
            dtw_cells: self.dtw_cells.load(Ordering::Relaxed),
            pivot_dtw: self.pivot_dtw.load(Ordering::Relaxed),
            pager_reads: self.pager_reads.load(Ordering::Relaxed),
            checksum_retries: self.checksum_retries.load(Ordering::Relaxed),
            index_internal_accesses: self.index_internal_accesses.load(Ordering::Relaxed),
            index_leaf_accesses: self.index_leaf_accesses.load(Ordering::Relaxed),
            refine_candidates: self.refine_candidates.load(Ordering::Relaxed),
            filter_ops: self.filter_ops.load(Ordering::Relaxed),
            // Snapshot-layer gauges: stamped by `Snapshot::search_with`, not
            // threaded through the pipeline.
            wal_appends: 0,
            snapshot_epoch: 0,
            // Admission gauges: stamped by `AdmissionGate::stamp`, not
            // threaded through the pipeline.
            admission_shed: 0,
            admission_queue_depth: 0,
            phases: PhaseTimes {
                filter: Duration::from_nanos(self.filter_nanos.load(Ordering::Relaxed)),
                fetch: Duration::from_nanos(self.fetch_nanos.load(Ordering::Relaxed)),
                verify: Duration::from_nanos(self.verify_nanos.load(Ordering::Relaxed)),
            },
        }
    }
}

/// The paper's work accounting for one query (or a summed batch), derived
/// from the [`QueryStats`] ledger: the currency of Figures 2–5.
///
/// A view, not a second ledger: [`Self::from_ledger`] is the only code
/// that builds one, so every field restates a ledger value (or one of the
/// three quantities that live outside the counters: the I/O profile, the
/// database size and the measured time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Database size at query time (denominator of the candidate ratio).
    pub db_size: usize,
    /// Proposals that reached the refine step (`refine_candidates`, the
    /// numerator of Figure 2's candidate ratio).
    pub candidates: usize,
    /// DTW computations that reached a verdict (`verified + abandoned`)
    /// plus FastMap's pivot projections (`pivot_dtw`).
    pub dtw_invocations: u64,
    /// DP cells computed (`dtw_cells`).
    pub dtw_cells: u64,
    /// Element-level filter work (`filter_ops`), priced by the CPU model.
    pub filter_ops: u64,
    /// Index structure node accesses (internal + leaf), priced as random
    /// page reads by the cost model.
    pub index_node_accesses: u64,
    /// Sequence-store traffic (candidate reads, sequential scans).
    pub io: IoProfile,
    /// Measured CPU/wall time of the query.
    pub cpu_time: Duration,
}

impl SearchStats {
    /// The view of `ledger`, with the store traffic, database size and
    /// measured time that live outside the counters.
    pub fn from_ledger(
        ledger: &QueryStats,
        io: IoProfile,
        db_size: usize,
        cpu_time: Duration,
    ) -> Self {
        Self {
            db_size,
            candidates: usize::try_from(ledger.refine_candidates).unwrap_or(usize::MAX),
            dtw_invocations: ledger.verified + ledger.abandoned + ledger.pivot_dtw,
            dtw_cells: ledger.dtw_cells,
            filter_ops: ledger.filter_ops,
            index_node_accesses: ledger.index_node_accesses(),
            io,
            cpu_time,
        }
    }

    /// `candidates / database size` (Figure 2's Y-axis). Zero for an empty
    /// database.
    pub fn candidate_ratio(&self) -> f64 {
        if self.db_size == 0 {
            0.0
        } else {
            self.candidates as f64 / self.db_size as f64
        }
    }

    /// The fully modeled elapsed time on the paper's hardware (Figures 3–5's
    /// Y-axis): the disk model prices store traffic and index node accesses,
    /// the CPU model prices DP cells and filter operations. Deterministic —
    /// it does not depend on the measuring machine.
    pub fn modeled_elapsed(&self, hw: &HardwareModel) -> Duration {
        hw.disk
            .elapsed(&self.io)
            .saturating_add(hw.disk.random_reads(self.index_node_accesses))
            .saturating_add(hw.cpu.dtw_time(self.dtw_cells))
            .saturating_add(hw.cpu.filter_time(self.filter_ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counter_updates() {
        let c = PipelineCounters::new();
        c.add_candidates(10);
        c.add_pruned(crate::bound::BoundTier::Yi, 4);
        c.add_verified(5);
        c.add_abandoned(1);
        c.add_dtw_cells(123);
        c.add_pager_reads(7);
        let s = c.snapshot();
        assert_eq!(s.candidates, 10);
        assert_eq!(s.pruned_total(), 4);
        assert_eq!(s.verified, 5);
        assert_eq!(s.abandoned, 1);
        assert_eq!(s.dtw_cells, 123);
        assert_eq!(s.pager_reads, 7);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn per_tier_prunes_feed_the_ledger() {
        use crate::bound::BoundTier;
        let c = PipelineCounters::new();
        c.add_candidates(10);
        c.add_pruned(BoundTier::Kim, 1);
        c.add_pruned(BoundTier::Yi, 2);
        c.add_pruned(BoundTier::Keogh, 3);
        c.add_pruned(BoundTier::Improved, 4);
        let s = c.snapshot();
        assert_eq!(s.pruned_lb_kim, 1);
        assert_eq!(s.pruned_lb_yi, 2);
        assert_eq!(s.pruned_lb_keogh, 3);
        assert_eq!(s.pruned_lb_improved, 4);
        assert_eq!(s.pruned_total(), 10);
        assert!(s.accounting_balanced());
        let mut merged = s;
        merged.merge(&s);
        assert_eq!(merged.pruned_lb_keogh, 6);
        assert_eq!(merged.pruned_lb_improved, 8);
        assert!(merged.accounting_balanced());
    }

    #[test]
    fn unbalanced_accounting_is_detected() {
        let c = PipelineCounters::new();
        c.add_candidates(3);
        c.add_verified(1);
        assert!(!c.snapshot().accounting_balanced());
    }

    #[test]
    fn time_attributes_to_the_right_phase() {
        let c = PipelineCounters::new();
        let v = c.time(Phase::Verify, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        let s = c.snapshot();
        assert!(s.phases.verify >= Duration::from_millis(1));
        assert_eq!(s.phases.filter, Duration::ZERO);
        assert_eq!(s.phases.fetch, Duration::ZERO);
        assert!(s.phases.total() >= s.phases.verify);
    }

    #[test]
    fn counters_eq_ignores_phase_times() {
        let a = PipelineCounters::new();
        let b = PipelineCounters::new();
        a.add_candidates(2);
        b.add_candidates(2);
        a.add_phase(Phase::Filter, Duration::from_millis(5));
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_ne!(sa, sb);
        assert!(sa.counters_eq(&sb));
        b.add_verified(1);
        assert!(!sa.counters_eq(&b.snapshot()));
    }

    #[test]
    fn merge_sums_counters_and_durations() {
        let a = PipelineCounters::new();
        a.add_candidates(2);
        a.add_verified(2);
        a.add_phase(Phase::Fetch, Duration::from_millis(1));
        let b = PipelineCounters::new();
        b.add_candidates(3);
        b.add_pruned(crate::bound::BoundTier::Kim, 1);
        b.add_verified(2);
        b.add_index_internal(4);
        b.add_index_leaf(6);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.candidates, 5);
        assert_eq!(merged.pruned_lb_kim, 1);
        assert_eq!(merged.verified, 4);
        assert_eq!(merged.index_node_accesses(), 10);
        assert_eq!(merged.phases.fetch, Duration::from_millis(1));
        // Merging balanced snapshots stays balanced... but only when the
        // parts were balanced: a (2 == 2) and b (3 == 1 + 2) both are.
        assert!(merged.accounting_balanced());
    }

    #[test]
    fn shared_updates_from_scoped_threads_are_summed() {
        let c = PipelineCounters::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        c.add_dtw_cells(1);
                        c.add_verified(1);
                    }
                });
            }
        });
        let s = c.snapshot();
        assert_eq!(s.dtw_cells, 400);
        assert_eq!(s.verified, 400);
    }

    #[test]
    fn saturating_nanos_conversion() {
        assert_eq!(nanos_u64(Duration::from_secs(u64::MAX)), u64::MAX);
        assert_eq!(nanos_u64(Duration::from_nanos(5)), 5);
    }
}
