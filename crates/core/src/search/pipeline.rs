//! The one range pipeline: every ε-range engine is a candidate source in
//! front of the same governed fetch → cascade → verify path.
//!
//! The paper's Algorithm 1 is four steps: extract the feature, filter,
//! fetch, verify. Only the filter differs between the methods, so only the
//! filter lives in the engines. Each one *proposes*:
//!
//! * Naive-Scan — every row of one sequential pass;
//! * LB-Scan — the rows of that pass within Yi's `D_lb` bound;
//! * TW-Sim-Search — the R-tree's ids around `Feature(Q)`;
//! * ST-Filter — the suffix tree's ids;
//! * FastMap — the embedding's ids inside the ε-ball, verified under the
//!   distance kind the embedding was fitted with.
//!
//! Everything else happens once, here. A [`Scope`] is one query's
//! governance over one store. Opening it validates ε and the query, takes
//! the query's token, installs that token as the store's pager governor,
//! clears the store's I/O profile and marks its checksum retries.
//! [`Scope::refine`] fetches id proposals (polling the token before each
//! read, charging the bytes, ledgering what it never read as
//! `skipped_unverified`), then arms the cascade and runs the shared
//! [`VerifyJob`]. [`Scope::finish`] closes the ledger: pager reads,
//! checksum retries, I/O profile, wall time and termination.
//!
//! **One query, one token.** A query arms its budget once. Wrappers that
//! run more than one step for a single query pass the same token to each
//! step through [`EngineOpts::shared_token`]: the shard fan-out, the
//! snapshot's base and in-memory tail, and the resilient engine's
//! fallback scan after a failed index path. Every step then charges one
//! ledger and sees the same first-cause trip.
//!
//! The window engines (`SubsequenceIndex`, ST-Filter's subsequence search)
//! and each kNN source open and finish the same [`Scope`] around their own
//! verify loops.

use std::time::Instant;

use tw_storage::{GovernorGuard, Pager, SeqId, SequenceStore};

use crate::error::{validate_query, validate_tolerance, TwError};
use crate::govern::{termination_of, CancelToken};
use crate::search::{EngineHealth, EngineOpts, Match, SearchOutcome, SearchStats, VerifyJob};
use crate::stats::{wall_now, Phase, PipelineCounters};

/// What a candidate source hands to the refine step.
pub(crate) enum Proposals {
    /// Ids the refine step still has to read (the index sources).
    Ids(Vec<SeqId>),
    /// Rows a scan has already read.
    Rows(Vec<(SeqId, Vec<f64>)>),
}

impl Proposals {
    fn len(&self) -> usize {
        match self {
            Proposals::Ids(ids) => ids.len(),
            Proposals::Rows(rows) => rows.len(),
        }
    }
}

/// One query's governed scope over one store: its token, its ledger and
/// the legacy aggregates the source and the refine step fill in.
pub(crate) struct Scope<'s, P: Pager> {
    store: &'s SequenceStore<P>,
    pub(crate) token: CancelToken,
    pub(crate) counters: PipelineCounters,
    pub(crate) stats: SearchStats,
    started: Instant,
    retries_before: u64,
    _governed: GovernorGuard<'s, P>,
}

impl<'s, P: Pager> Scope<'s, P> {
    /// Validates `epsilon` and `query`, then opens the scope under the
    /// options' token (the shared one when a wrapper installed it).
    pub(crate) fn open(
        store: &'s SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<Self, TwError> {
        validate_tolerance(epsilon)?;
        validate_query(query)?;
        Ok(Self::with_token(store, opts.arm_budget()))
    }

    /// Opens the scope under an already-armed `token`, for a caller that
    /// validated its own inputs.
    pub(crate) fn with_token(store: &'s SequenceStore<P>, token: CancelToken) -> Self {
        let started = wall_now();
        let _governed = store.govern_scope(&token);
        store.take_io();
        Self {
            store,
            retries_before: store.checksum_retries(),
            stats: SearchStats {
                db_size: store.len(),
                ..Default::default()
            },
            counters: PipelineCounters::new(),
            token,
            started,
            _governed,
        }
    }

    /// Ledgers one R-tree walk: internal and leaf visits, and their sum as
    /// the legacy node-access count.
    pub(crate) fn add_index(&mut self, walk: &tw_rtree::QueryStats) {
        self.counters.add_index_internal(walk.internal_accesses);
        self.counters.add_index_leaf(walk.leaf_accesses);
        self.stats.index_node_accesses += walk.node_accesses();
    }

    /// Steps 3–4 of Algorithm 1 over a source's proposals: every proposal
    /// is a candidate; ids are fetched, then the cascade (if armed) and the
    /// exact verification run. Returns the matches, ascending by id.
    pub(crate) fn refine(
        &mut self,
        proposals: Proposals,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<Vec<Match>, TwError> {
        let proposed = proposals.len();
        self.counters.add_candidates(proposed as u64);
        self.stats.candidates += proposed;
        let rows = match proposals {
            Proposals::Rows(rows) => rows,
            Proposals::Ids(ids) => self.counters.time(Phase::Fetch, || self.fetch(ids))?,
        };
        self.counters
            .add_skipped_unverified((proposed - rows.len()) as u64);
        let (matches, verified) = verify(&rows, query, epsilon, opts, &self.counters, &self.token);
        self.stats.accumulate(&verified);
        Ok(matches)
    }

    /// The one fetch loop. A tripped token stops it; the caller ledgers
    /// the unread proposals as skipped.
    fn fetch(&self, ids: Vec<SeqId>) -> Result<Vec<(SeqId, Vec<f64>)>, TwError> {
        let mut rows = Vec::with_capacity(ids.len());
        for id in ids {
            if self.token.cancelled() {
                break;
            }
            let values = self.store.get(id)?;
            let _ = self
                .token
                .charge_candidate_bytes(std::mem::size_of_val(values.as_slice()) as u64);
            rows.push((id, values));
        }
        Ok(rows)
    }

    /// Closes the ledger — pager reads, checksum retries, the I/O profile,
    /// wall time, termination — and wraps it around `matches`.
    pub(crate) fn finish(mut self, matches: Vec<Match>) -> SearchOutcome {
        self.stats.io = self.store.take_io();
        self.counters.add_pager_reads(self.stats.io.total_pages());
        self.counters
            .add_checksum_retries(self.store.checksum_retries() - self.retries_before);
        self.stats.cpu_time = self.started.elapsed();
        SearchOutcome {
            matches,
            stats: self.stats,
            health: EngineHealth::Healthy,
            query_stats: self.counters.snapshot(),
            termination: termination_of(&self.token),
        }
    }
}

/// A source's proposals inside their open scope, waiting for the refine
/// step — what the resilient engine's probe holds and the shard work gate
/// sizes before it spends a thread.
pub(crate) struct Filtered<'s, P: Pager> {
    scope: Scope<'s, P>,
    proposals: Proposals,
}

impl<'s, P: Pager> Filtered<'s, P> {
    pub(crate) fn new(scope: Scope<'s, P>, proposals: Proposals) -> Self {
        Self { scope, proposals }
    }

    /// How many sequences the source proposed.
    pub(crate) fn proposed(&self) -> usize {
        self.proposals.len()
    }

    /// The query's token, for a step that must run under the same one.
    pub(crate) fn token(&self) -> &CancelToken {
        &self.scope.token
    }

    /// Refines the proposals and closes the scope. `query`, `epsilon` and
    /// `opts` must be the ones the source ran with.
    pub(crate) fn refine(
        self,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        let Filtered {
            mut scope,
            proposals,
        } = self;
        let matches = scope.refine(proposals, query, epsilon, opts)?;
        Ok(scope.finish(matches))
    }
}

/// The verify half of the refine step, for rows already in memory: arms
/// the options' cascade, then runs the shared [`VerifyJob`]. Candidates
/// are the caller's to ledger.
pub(crate) fn verify(
    rows: &[(SeqId, Vec<f64>)],
    query: &[f64],
    epsilon: f64,
    opts: &EngineOpts,
    counters: &PipelineCounters,
    token: &CancelToken,
) -> (Vec<Match>, SearchStats) {
    let cascade = opts.arm_cascade(query);
    VerifyJob::new(query, epsilon, opts.kind, opts.verify, opts.threads)
        .with_cascade(cascade.as_deref())
        .run(rows, counters, token)
}
