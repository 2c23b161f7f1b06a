//! WAL-backed concurrent ingest with snapshot-isolated reads.
//!
//! [`ConcurrentIngest`] lets one writer append sequences while any number of
//! readers run exact queries — without readers ever blocking the writer or
//! observing a half-applied append. The moving parts:
//!
//! * **Durability** — every append is staged into the write-ahead log and
//!   acknowledged only after [`tw_storage::Wal::commit`] returns (data
//!   synced, committed extent published, header synced). A crash after the
//!   acknowledgement can never lose the append: recovery replays the WAL
//!   into the base store.
//! * **Visibility** — acknowledged appends live in an in-memory *tail*
//!   (`Arc`-shared, immutable) until a checkpoint folds them into the paged
//!   [`SequenceStore`] and the TW-Sim-Search index. Every mutation bumps an
//!   **epoch**; a [`Snapshot`] pins `(epoch, base_len, tail, index)` under
//!   one brief mutex hold and answers queries against exactly that state
//!   forever after. Reclamation is epoch-by-`Arc`: a tail entry or index
//!   version is freed when the last snapshot pinning it drops — readers
//!   never take a lock the writer contends on.
//! * **Checkpoint** — the writer folds the tail into the base store
//!   (`append` + `flush`), refreshes the index *incrementally* (clone +
//!   per-sequence insert, never a bulk rebuild; the R-tree maintains its
//!   subtree summaries as it goes), persists the index sidecar atomically,
//!   publishes the new `base_len`, and only then truncates the WAL. Every
//!   crash window in that protocol re-converges on recovery:
//!
//!   | crash after …                 | recovery path                        |
//!   |-------------------------------|--------------------------------------|
//!   | WAL commit, before fold       | replay re-applies the appends        |
//!   | partial fold (torn store tail)| store trims, replay re-appends       |
//!   | fold + flush, before truncate | replay skips (idempotent: id < len)  |
//!   | truncate                      | nothing to do                        |
//!
//! Queries through a snapshot honour the same [`EngineOpts`] budgets,
//! cascades and verification modes as plain-store queries, and their
//! [`crate::stats::QueryStats`] accounting invariant still balances; the
//! `wal_appends` / `snapshot_epoch` gauges record which ingest state the
//! query observed.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use tw_storage::{
    create_sequence_file_shared, create_wal_file, open_or_create_wal_file,
    open_sequence_file_shared, DynWal, MemPager, Pager, RecoveryReport, SeqId, SequenceStore,
    StoreError, SyncPager, Wal, WalRecord, WalRecoveryReport, DEFAULT_PAGE_SIZE,
};

use crate::error::{validate_query, TwError};
use crate::feature::FeatureVector;
use crate::govern::termination_of;
use crate::search::pipeline::verify;
use crate::search::{EngineOpts, SearchEngine, SearchOutcome, TwSimSearch};
use crate::sequence::Sequence;
use crate::stats::PipelineCounters;

/// Buffer-pool pages the file-backed constructors give the base store.
const POOL_PAGES: usize = 256;

/// The shared, epoch-versioned view state. All operations under this lock
/// are memory-only (clones of `Arc`s and counter bumps) — no pager I/O ever
/// happens while it is held, so readers pinning snapshots cannot stall
/// behind the disk.
struct MetaState {
    /// Sequences folded into the base store and the index: ids `0..base_len`.
    base_len: u64,
    /// Version counter: bumped by every acknowledged append and checkpoint.
    epoch: u64,
    /// Acknowledged-but-unfolded sequences; entry `i` is id `base_len + i`.
    tail: Vec<Arc<Vec<f64>>>,
    /// The current index version, covering exactly `0..base_len`.
    index: Arc<TwSimSearch>,
}

/// A sequence database that accepts appends concurrently with reads.
///
/// One writer (claimed via [`ConcurrentIngest::writer`]) appends through the
/// WAL; any number of readers pin [`Snapshot`]s and query them. See the
/// module docs for the full protocol.
pub struct ConcurrentIngest<P: Pager> {
    base: RwLock<SequenceStore<P>>,
    meta: Mutex<MetaState>,
    wal: Mutex<DynWal>,
    /// Appends acknowledged by this process (gauge for `QueryStats`).
    wal_appends: AtomicU64,
    writer_claimed: AtomicBool,
    index_path: Option<PathBuf>,
}

/// `ConcurrentIngest` over the thread-shareable file pager stack.
pub type SharedConcurrentIngest = ConcurrentIngest<SyncPager>;

/// What one [`IngestHandle::checkpoint`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Tail sequences folded into the base store and index.
    pub folded: usize,
    /// The epoch after the checkpoint published.
    pub epoch: u64,
}

/// What recovery found and did when reopening an ingest directory.
#[derive(Debug, Clone, Default)]
pub struct IngestRecovery {
    /// The base store's own torn-tail recovery outcome.
    pub store: RecoveryReport,
    /// The WAL's committed-extent recovery outcome.
    pub wal: WalRecoveryReport,
    /// Acknowledged appends the WAL re-applied to the base store.
    pub replayed: usize,
    /// Acknowledged appends already present in the store (idempotent skips —
    /// the crash hit between fold and WAL truncation).
    pub already_folded: usize,
    /// Whether the index sidecar was unusable and rebuilt from the store.
    pub index_rebuilt: bool,
    /// Why the sidecar was rejected, when it was.
    pub index_note: Option<String>,
}

impl IngestRecovery {
    /// True when no *acknowledged* data needed recovering: the store was
    /// intact, nothing had to be replayed, and the index sidecar validated.
    /// Discarded unacknowledged WAL tail bytes (a writer killed mid-append,
    /// or pages left allocated past a truncate) do not count — by
    /// definition no caller was ever promised them.
    pub fn is_clean(&self) -> bool {
        self.store.is_clean() && self.replayed == 0 && !self.index_rebuilt
    }
}

impl std::fmt::Display for IngestRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "store: {}; wal: {}; replayed {} append(s), {} already folded; index {}",
            self.store,
            self.wal,
            self.replayed,
            self.already_folded,
            if self.index_rebuilt {
                "rebuilt"
            } else {
                "loaded"
            }
        )
    }
}

impl ConcurrentIngest<MemPager> {
    /// An empty in-memory ingest (memory-backed store *and* WAL) with the
    /// paper's configuration. The WAL still runs the full commit protocol,
    /// so tests exercise the same code paths as file-backed ingests.
    pub fn in_memory() -> Self {
        let wal_pager: Box<dyn Pager> = Box::new(MemPager::new(DEFAULT_PAGE_SIZE));
        #[allow(clippy::expect_used)]
        // tw-allow(expect): a fresh MemPager cannot fail I/O
        let wal = Wal::create(wal_pager).expect("in-memory WAL creation cannot fail");
        Self::assemble(SequenceStore::in_memory(), wal, 0, Vec::new(), None, None)
    }
}

impl ConcurrentIngest<SyncPager> {
    /// Creates a fresh file-backed ingest: `db_path` (paged store),
    /// `wal_path` (write-ahead log) and `index_path` (TWR2 sidecar written
    /// at each checkpoint). All three use the checksummed v2 pager stack.
    pub fn create_file<Q, R, S>(db_path: Q, wal_path: R, index_path: S) -> Result<Self, TwError>
    where
        Q: AsRef<Path>,
        R: AsRef<Path>,
        S: AsRef<Path>,
    {
        let store = create_sequence_file_shared(db_path, DEFAULT_PAGE_SIZE, POOL_PAGES)?;
        let wal = create_wal_file(wal_path, DEFAULT_PAGE_SIZE)?;
        Ok(Self::assemble(
            store,
            wal,
            0,
            Vec::new(),
            None,
            Some(index_path.as_ref().to_path_buf()),
        ))
    }

    /// Reopens a file-backed ingest, running the full crash-recovery
    /// protocol:
    ///
    /// 1. the store recovers its own torn tail;
    /// 2. the WAL replays its committed extent — every acknowledged append
    ///    missing from the store is re-applied in id order; an append the
    ///    store can no longer anchor (an id *gap*) is typed corruption, not
    ///    silent loss;
    /// 3. the index sidecar is loaded with full validation against the
    ///    recovered store; a missing, undecodable or contradicting sidecar
    ///    degrades to an exact rebuild from the store (reported, never a
    ///    panic);
    /// 4. state is folded: store flushed, sidecar rewritten, WAL truncated.
    pub fn open_file<Q, R, S>(
        db_path: Q,
        wal_path: R,
        index_path: S,
    ) -> Result<(Self, IngestRecovery), TwError>
    where
        Q: AsRef<Path>,
        R: AsRef<Path>,
        S: AsRef<Path>,
    {
        let (mut store, store_report) =
            open_sequence_file_shared(db_path, DEFAULT_PAGE_SIZE, POOL_PAGES)?;
        let (mut wal, records, wal_report) = open_or_create_wal_file(wal_path, DEFAULT_PAGE_SIZE)?;

        let mut replayed = 0usize;
        let mut already_folded = 0usize;
        for record in &records {
            let WalRecord::AppendSequence { id, values } = record else {
                // Feature/index/checkpoint records are derived state; the
                // rebuild-or-validate step below re-derives them.
                continue;
            };
            let next = store.len() as u64;
            if *id < next {
                already_folded += 1;
            } else if *id == next {
                store.append(values)?;
                replayed += 1;
            } else {
                // The WAL acknowledges an append the store cannot anchor:
                // records between the store extent and this id were
                // acknowledged, folded, truncated from the WAL, and then
                // lost to storage damage. That is data loss — say so.
                return Err(TwError::Storage(StoreError::Corrupt(
                    "WAL replay gap: acknowledged append beyond the recovered store extent",
                )));
            }
        }
        if replayed > 0 {
            store.flush()?;
        }

        let index_path = index_path.as_ref().to_path_buf();
        let expected = store.len();
        let (index, index_rebuilt, index_note) =
            match TwSimSearch::load_file(&index_path, Some(expected)) {
                Ok(index) => (index, false, None),
                Err(e @ (TwError::Index(_) | TwError::CorruptIndex(_))) => {
                    (TwSimSearch::build(&store)?, true, Some(e.to_string()))
                }
                Err(e) => return Err(e),
            };
        if index_rebuilt || replayed > 0 {
            index.save_file(&index_path)?;
        }
        // Everything above is durable; the replayed extent can go.
        wal.truncate()?;

        let report = IngestRecovery {
            store: store_report,
            wal: wal_report,
            replayed,
            already_folded,
            index_rebuilt,
            index_note,
        };
        let base_len = store.len() as u64;
        Ok((
            Self::assemble(
                store,
                wal,
                base_len,
                Vec::new(),
                Some(index),
                Some(index_path),
            ),
            report,
        ))
    }

    /// [`ConcurrentIngest::open_file`] when the store exists,
    /// [`ConcurrentIngest::create_file`] otherwise.
    pub fn open_or_create_file<Q, R, S>(
        db_path: Q,
        wal_path: R,
        index_path: S,
    ) -> Result<(Self, IngestRecovery), TwError>
    where
        Q: AsRef<Path>,
        R: AsRef<Path>,
        S: AsRef<Path>,
    {
        if db_path.as_ref().exists() {
            Self::open_file(db_path, wal_path, index_path)
        } else {
            Ok((
                Self::create_file(db_path, wal_path, index_path)?,
                IngestRecovery::default(),
            ))
        }
    }
}

impl<P: Pager> ConcurrentIngest<P> {
    fn assemble(
        store: SequenceStore<P>,
        wal: DynWal,
        base_len: u64,
        tail: Vec<Arc<Vec<f64>>>,
        index: Option<TwSimSearch>,
        index_path: Option<PathBuf>,
    ) -> Self {
        let index = index.unwrap_or_else(|| TwSimSearch::empty(TwSimSearch::paper_config()));
        Self {
            base: RwLock::new(store),
            meta: Mutex::new(MetaState {
                base_len,
                // Seed the version counter at the corpus size so epochs stay
                // monotone with data across process restarts.
                epoch: base_len,
                tail,
                index: Arc::new(index),
            }),
            wal: Mutex::new(wal),
            wal_appends: AtomicU64::new(0),
            writer_claimed: AtomicBool::new(false),
            index_path,
        }
    }

    /// Claims the single writer. Errors with [`TwError::WriterBusy`] while
    /// another handle is alive; dropping the handle releases the claim.
    pub fn writer(&self) -> Result<IngestHandle<'_, P>, TwError> {
        if self
            .writer_claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            Ok(IngestHandle { owner: self })
        } else {
            Err(TwError::WriterBusy)
        }
    }

    /// Pins a consistent read view of the current state. O(tail length)
    /// `Arc` clones under one brief lock; no I/O.
    pub fn snapshot(&self) -> Snapshot<'_, P> {
        let meta = self.meta.lock();
        Snapshot {
            owner: self,
            epoch: meta.epoch,
            base_len: meta.base_len,
            tail: meta.tail.clone(),
            index: Arc::clone(&meta.index),
            wal_appends: self.wal_appends.load(Ordering::Acquire),
        }
    }

    /// Total acknowledged sequences (folded + tail) right now.
    pub fn len(&self) -> usize {
        let meta = self.meta.lock();
        meta.base_len as usize + meta.tail.len()
    }

    /// Whether no sequence has ever been acknowledged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.meta.lock().epoch
    }

    /// Appends acknowledged by this process so far.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Acquire)
    }

    /// Records currently committed in the WAL (not yet truncated by a
    /// checkpoint). Diagnostics for `verify-store`.
    pub fn wal_committed_records(&self) -> u64 {
        self.wal.lock().committed_records()
    }

    /// Bytes currently committed in the WAL (not yet truncated by a
    /// checkpoint). Diagnostics and the benchmark's WAL-volume probe.
    pub fn wal_committed_bytes(&self) -> u64 {
        self.wal.lock().committed_bytes()
    }
}

/// The single-writer side of a [`ConcurrentIngest`]. Obtained via
/// [`ConcurrentIngest::writer`]; dropping it releases the claim.
pub struct IngestHandle<'a, P: Pager> {
    owner: &'a ConcurrentIngest<P>,
}

impl<P: Pager> IngestHandle<'_, P> {
    /// Appends a sequence: validated, WAL-committed (the acknowledgement
    /// point — a crash after this call returns can never lose the append),
    /// then published to the in-memory tail under a new epoch.
    pub fn append(&mut self, values: &[f64]) -> Result<SeqId, TwError> {
        let seq = Sequence::new(values.to_vec())?;
        self.append_sequence(&seq)
    }

    /// [`IngestHandle::append`] for an already-validated sequence.
    pub fn append_sequence(&mut self, seq: &Sequence) -> Result<SeqId, TwError> {
        let id = {
            let meta = self.owner.meta.lock();
            meta.base_len + meta.tail.len() as u64
        };
        let feature = FeatureVector::from_values(seq.values());
        {
            let mut wal = self.owner.wal.lock();
            wal.append(&WalRecord::AppendSequence {
                id,
                values: seq.values().to_vec(),
            })?;
            wal.append(&WalRecord::FeatureUpdate {
                id,
                feature: [
                    feature.first,
                    feature.last,
                    feature.greatest,
                    feature.smallest,
                ],
            })?;
            // The acknowledgement point: both records durable, extent
            // published, header synced.
            wal.commit()?;
        }
        self.owner.wal_appends.fetch_add(1, Ordering::AcqRel);
        {
            let mut meta = self.owner.meta.lock();
            meta.tail.push(Arc::new(seq.values().to_vec()));
            meta.epoch += 1;
        }
        Ok(id)
    }

    /// Folds the acknowledged tail into the base store and the index, then
    /// truncates the WAL. Readers holding snapshots are unaffected: they
    /// keep their pinned tail `Arc`s and index version. See the module docs
    /// for the crash matrix of this protocol.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, TwError> {
        let (base_len, tail, index, epoch) = {
            let meta = self.owner.meta.lock();
            (
                meta.base_len,
                meta.tail.clone(),
                Arc::clone(&meta.index),
                meta.epoch,
            )
        };
        if tail.is_empty() {
            return Ok(CheckpointReport { folded: 0, epoch });
        }

        // 1. Log the intended index mutations and the checkpoint marker in
        //    one commit. On a crash anywhere below, these sit in front of
        //    the still-present AppendSequence records and replay re-derives
        //    everything they describe.
        {
            let mut wal = self.owner.wal.lock();
            for (i, values) in tail.iter().enumerate() {
                let feature = FeatureVector::from_values(values);
                wal.append(&WalRecord::RtreeInsert {
                    id: base_len + i as u64,
                    point: [
                        feature.first,
                        feature.last,
                        feature.greatest,
                        feature.smallest,
                    ],
                })?;
            }
            wal.append(&WalRecord::Checkpoint { epoch })?;
            wal.commit()?;
        }

        // 2. Fold into the base store. The write lock pauses new queries;
        //    in-flight snapshots already hold their tail pins.
        {
            let mut base = self.owner.base.write();
            for values in &tail {
                base.append(values)?;
            }
            base.flush()?;
        }

        // 3. Refresh the index incrementally — clone-on-write so readers
        //    keep their pinned version; the R-tree maintains its subtree
        //    summaries per insert instead of rebuilding.
        let mut next_index = (*index).clone();
        for (i, values) in tail.iter().enumerate() {
            next_index.insert(values, base_len + i as u64)?;
        }
        if let Some(path) = &self.owner.index_path {
            next_index.save_file(path)?;
        }

        // 4. Publish, then truncate the now-redundant WAL extent.
        let folded = tail.len();
        let epoch_after = {
            let mut meta = self.owner.meta.lock();
            meta.base_len = base_len + folded as u64;
            meta.tail.drain(..folded);
            meta.index = Arc::new(next_index);
            meta.epoch += 1;
            meta.epoch
        };
        {
            let mut wal = self.owner.wal.lock();
            wal.truncate()?;
        }
        Ok(CheckpointReport {
            folded,
            epoch: epoch_after,
        })
    }
}

impl<P: Pager> Drop for IngestHandle<'_, P> {
    fn drop(&mut self) {
        self.owner.writer_claimed.store(false, Ordering::Release);
    }
}

/// A pinned, immutable view of a [`ConcurrentIngest`] at one epoch.
///
/// Queries through a snapshot see exactly the sequences acknowledged before
/// it was pinned — never more, never a partial append — regardless of how
/// many appends or checkpoints happen concurrently.
pub struct Snapshot<'a, P: Pager> {
    owner: &'a ConcurrentIngest<P>,
    epoch: u64,
    base_len: u64,
    tail: Vec<Arc<Vec<f64>>>,
    index: Arc<TwSimSearch>,
    wal_appends: u64,
}

impl<P: Pager> Snapshot<'_, P> {
    /// The epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sequences visible to this snapshot (ids `0..len`).
    pub fn len(&self) -> usize {
        self.base_len as usize + self.tail.len()
    }

    /// Whether the snapshot sees no sequences.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// WAL appends acknowledged when this snapshot was pinned.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends
    }

    /// The pinned index version (covers ids `0..base_len`; tail sequences
    /// are verified from memory by [`Snapshot::search`]).
    pub fn index(&self) -> &TwSimSearch {
        &self.index
    }

    /// Reads one visible sequence.
    pub fn get(&self, id: SeqId) -> Result<Vec<f64>, TwError> {
        if id < self.base_len {
            Ok(self.owner.base.read().get(id)?)
        } else if let Some(values) = self.tail.get((id - self.base_len) as usize) {
            Ok(values.as_ref().clone())
        } else {
            Err(TwError::UnknownSequence(id))
        }
    }

    /// Range query through the pinned TW-Sim-Search index version.
    pub fn search(
        &self,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        self.search_with(self.index.as_ref(), query, epsilon, opts)
    }

    /// Range query through any engine, pinned to this snapshot.
    ///
    /// Contract: `engine` must answer over ids `0..base_len` of the base
    /// store (the pinned [`Snapshot::index`] and the scan engines all do).
    /// Matches the engine reports beyond `base_len` — sequences folded by a
    /// checkpoint *after* this snapshot was pinned — are filtered out, and
    /// the pinned tail is verified from memory through the shared exact
    /// pipeline, honouring the options' cascade, verify mode and thread
    /// count. The query arms its budget once: the base and the tail charge
    /// the same token, so a cap covers the whole query. The result is
    /// exactly what the engine would have returned had the whole corpus
    /// been frozen at this epoch.
    pub fn search_with<E>(
        &self,
        engine: &E,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError>
    where
        E: SearchEngine<P> + ?Sized,
    {
        validate_query(query)?;
        let token = opts.arm_budget();
        let opts = &opts.clone().shared_token(token.clone());
        let mut outcome = {
            let base = self.owner.base.read();
            engine.range_search(&base, query, epsilon, opts)?
        };
        // Sequences folded after this snapshot pinned are invisible to it.
        outcome.matches.retain(|m| m.id < self.base_len);

        if !self.tail.is_empty() {
            let rows: Vec<(SeqId, Vec<f64>)> = self
                .tail
                .iter()
                .enumerate()
                .map(|(i, values)| (self.base_len + i as u64, values.as_ref().clone()))
                .collect();
            let counters = PipelineCounters::new();
            counters.add_candidates(rows.len() as u64);
            let (tail_matches, tail_stats) = verify(&rows, query, epsilon, opts, &counters, &token);
            outcome.stats.candidates += rows.len();
            outcome.stats.accumulate(&tail_stats);
            outcome.matches.extend(tail_matches);
            outcome.query_stats.merge(&counters.snapshot());
            // Worst termination wins: a budget that tripped verifying the
            // tail makes the whole answer partial.
            if outcome.termination.is_complete() {
                outcome.termination = termination_of(&token);
            }
        }
        outcome.matches.sort_by_key(|m| m.id);
        outcome.stats.db_size = self.len();
        outcome.query_stats.wal_appends = self.wal_appends;
        outcome.query_stats.snapshot_epoch = self.epoch;
        Ok(outcome)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips on purpose.
mod tests {
    use super::*;
    use crate::distance::{dtw, DtwKind};
    use crate::govern::QueryBudget;
    use crate::search::NaiveScan;

    fn corpus() -> Vec<Vec<f64>> {
        vec![
            vec![20.0, 21.0, 21.0, 20.0, 23.0],
            vec![20.0, 20.0, 21.0, 20.0, 23.0, 23.0],
            vec![5.0, 6.0, 7.0],
            vec![19.5, 21.5, 20.5, 23.5],
            vec![20.1, 21.2, 19.9, 22.8],
            vec![40.0, 41.0, 42.0],
        ]
    }

    /// Ground truth: exact DTW over the first `n` corpus sequences.
    fn expected_ids(corpus: &[Vec<f64>], n: usize, query: &[f64], epsilon: f64) -> Vec<u64> {
        corpus[..n]
            .iter()
            .enumerate()
            .filter(|(_, s)| dtw(s, query, DtwKind::MaxAbs).distance <= epsilon)
            .map(|(i, _)| i as u64)
            .collect()
    }

    const QUERY: [f64; 4] = [20.0, 21.0, 20.0, 23.0];

    #[test]
    fn snapshots_pin_their_epoch() {
        let ingest = ConcurrentIngest::in_memory();
        let mut writer = ingest.writer().unwrap();
        let data = corpus();
        writer.append(&data[0]).unwrap();
        writer.append(&data[1]).unwrap();

        let early = ingest.snapshot();
        assert_eq!(early.len(), 2);
        writer.append(&data[2]).unwrap();
        let late = ingest.snapshot();

        assert_eq!(early.len(), 2, "pinned view must not grow");
        assert_eq!(late.len(), 3);
        assert!(late.epoch() > early.epoch());
        // The early snapshot cannot read the later append…
        assert!(matches!(early.get(2), Err(TwError::UnknownSequence(2))));
        // …but the late one can, from the in-memory tail.
        assert_eq!(late.get(2).unwrap(), data[2]);
    }

    #[test]
    fn snapshot_search_is_exact_at_every_epoch() {
        let ingest = ConcurrentIngest::in_memory();
        let mut writer = ingest.writer().unwrap();
        let data = corpus();
        let opts = EngineOpts::new();
        let mut snapshots = Vec::new();
        for values in &data {
            writer.append(values).unwrap();
            snapshots.push(ingest.snapshot());
        }
        for (i, snap) in snapshots.iter().enumerate() {
            let n = i + 1;
            let want = expected_ids(&data, n, &QUERY, 0.6);
            let got = snap.search(&QUERY, 0.6, &opts).unwrap();
            assert_eq!(got.ids(), want, "epoch {}", snap.epoch());
            // The scan engine through the same snapshot agrees.
            let scan = snap.search_with(&NaiveScan, &QUERY, 0.6, &opts).unwrap();
            assert_eq!(scan.ids(), want, "naive-scan at epoch {}", snap.epoch());
            assert!(got.query_stats.accounting_balanced());
            assert_eq!(got.query_stats.snapshot_epoch, snap.epoch());
            assert_eq!(got.query_stats.wal_appends, n as u64);
        }
    }

    #[test]
    fn checkpoint_folds_without_disturbing_pinned_readers() {
        let ingest = ConcurrentIngest::in_memory();
        let mut writer = ingest.writer().unwrap();
        let data = corpus();
        let opts = EngineOpts::new();
        for values in &data[..4] {
            writer.append(values).unwrap();
        }
        let pinned = ingest.snapshot();
        // Each acknowledged append is two WAL records: the sequence and its
        // feature.
        assert_eq!(ingest.wal_committed_records(), 2 * 4);

        let report = writer.checkpoint().unwrap();
        assert_eq!(report.folded, 4);
        assert_eq!(ingest.wal_committed_records(), 0, "WAL truncated");

        writer.append(&data[4]).unwrap();
        writer.append(&data[5]).unwrap();

        // The pre-checkpoint snapshot still answers over its 4 sequences
        // (the engine now sees 6 in the base store; the overshoot must be
        // filtered).
        let got = pinned.search_with(&NaiveScan, &QUERY, 0.6, &opts).unwrap();
        assert_eq!(got.ids(), expected_ids(&data, 4, &QUERY, 0.6));
        assert_eq!(got.stats.db_size, 4);

        // A fresh snapshot sees everything: 4 folded + 2 tail.
        let fresh = ingest.snapshot();
        let all = fresh.search(&QUERY, 0.6, &opts).unwrap();
        assert_eq!(all.ids(), expected_ids(&data, 6, &QUERY, 0.6));
        for (id, values) in data.iter().enumerate() {
            assert_eq!(fresh.get(id as u64).unwrap(), *values, "id {id}");
        }
    }

    #[test]
    fn repeated_checkpoints_converge() {
        let ingest = ConcurrentIngest::in_memory();
        let mut writer = ingest.writer().unwrap();
        let data = corpus();
        for (i, values) in data.iter().enumerate() {
            writer.append(values).unwrap();
            if i % 2 == 1 {
                writer.checkpoint().unwrap();
            }
        }
        // Empty-tail checkpoint is a no-op.
        let report = writer.checkpoint().unwrap();
        assert_eq!(report.folded, 0);
        let snap = ingest.snapshot();
        let got = snap.search(&QUERY, 0.6, &EngineOpts::new()).unwrap();
        assert_eq!(got.ids(), expected_ids(&data, data.len(), &QUERY, 0.6));
    }

    #[test]
    fn single_writer_is_enforced() {
        let ingest = ConcurrentIngest::in_memory();
        let writer = ingest.writer().unwrap();
        assert!(matches!(ingest.writer(), Err(TwError::WriterBusy)));
        drop(writer);
        assert!(ingest.writer().is_ok(), "drop releases the claim");
    }

    #[test]
    fn invalid_appends_are_rejected_without_acknowledgement() {
        let ingest = ConcurrentIngest::in_memory();
        let mut writer = ingest.writer().unwrap();
        assert!(writer.append(&[]).is_err());
        assert!(writer.append(&[1.0, f64::NAN]).is_err());
        assert_eq!(ingest.len(), 0);
        assert_eq!(ingest.wal_appends(), 0);
    }

    #[test]
    fn budgets_govern_tail_verification() {
        let ingest = ConcurrentIngest::in_memory();
        let mut writer = ingest.writer().unwrap();
        for values in corpus() {
            writer.append(&values).unwrap();
        }
        let snap = ingest.snapshot();
        let opts = EngineOpts::new().budget(QueryBudget::new().max_cells(1));
        let out = snap.search(&QUERY, 0.6, &opts).unwrap();
        assert!(
            !out.termination.is_complete(),
            "a one-cell budget cannot verify six tail sequences"
        );
        assert!(out.query_stats.accounting_balanced());
    }

    #[test]
    fn one_budget_spans_the_base_and_the_tail() {
        let ingest = ConcurrentIngest::in_memory();
        let mut writer = ingest.writer().unwrap();
        let data = corpus();
        for values in &data[..3] {
            writer.append(values).unwrap();
        }
        writer.checkpoint().unwrap();
        for values in &data[3..] {
            writer.append(values).unwrap();
        }
        let snap = ingest.snapshot();
        let free = snap.search_with(&NaiveScan, &QUERY, 0.6, &EngineOpts::new());
        let free = free.unwrap();
        let base = NaiveScan
            .range_search(&ingest.base.read(), &QUERY, 0.6, &EngineOpts::new())
            .unwrap();
        let base_cells = base.stats.dtw_cells;
        let tail_cells = free.stats.dtw_cells - base_cells;
        // Either half alone fits the cap; the query as a whole does not.
        let cap = base_cells.max(tail_cells) + 1;
        assert!(cap < base_cells + tail_cells, "{base_cells} + {tail_cells}");
        let opts = EngineOpts::new().budget(QueryBudget::new().max_cells(cap));
        let out = snap.search_with(&NaiveScan, &QUERY, 0.6, &opts).unwrap();
        assert!(!out.termination.is_complete(), "{out:?}");
        assert!(
            out.query_stats.accounting_balanced(),
            "{:?}",
            out.query_stats
        );
        assert!(out.matches.iter().all(|m| free.matches.contains(m)));
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("twingest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    struct Paths {
        db: PathBuf,
        wal: PathBuf,
        index: PathBuf,
    }

    fn paths(dir: &Path) -> Paths {
        Paths {
            db: dir.join("seq.tws"),
            wal: dir.join("seq.twl"),
            index: dir.join("seq.twr"),
        }
    }

    #[test]
    fn crash_before_checkpoint_replays_every_acknowledged_append() {
        let dir = tmpdir("replay");
        let p = paths(&dir);
        let data = corpus();
        {
            let ingest = ConcurrentIngest::create_file(&p.db, &p.wal, &p.index).unwrap();
            let mut writer = ingest.writer().unwrap();
            for values in &data {
                writer.append(values).unwrap();
            }
            // Simulated crash: drop without checkpoint. Every append was
            // acknowledged, so none may be lost.
        }
        let (ingest, recovery) = ConcurrentIngest::open_file(&p.db, &p.wal, &p.index).unwrap();
        assert_eq!(recovery.replayed, data.len());
        assert_eq!(recovery.already_folded, 0);
        assert_eq!(ingest.len(), data.len());
        let snap = ingest.snapshot();
        let got = snap.search(&QUERY, 0.6, &EngineOpts::new()).unwrap();
        assert_eq!(got.ids(), expected_ids(&data, data.len(), &QUERY, 0.6));
        // The fold was durable: a second open is clean.
        drop(snap);
        drop(ingest);
        let (_, second) = ConcurrentIngest::open_file(&p.db, &p.wal, &p.index).unwrap();
        assert!(second.is_clean(), "{second}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_after_checkpoint_recovers_clean_and_appends_resume() {
        let dir = tmpdir("resume");
        let p = paths(&dir);
        let data = corpus();
        {
            let ingest = ConcurrentIngest::create_file(&p.db, &p.wal, &p.index).unwrap();
            let mut writer = ingest.writer().unwrap();
            for values in &data[..4] {
                writer.append(values).unwrap();
            }
            writer.checkpoint().unwrap();
            for values in &data[4..] {
                writer.append(values).unwrap();
            }
        }
        let (ingest, recovery) = ConcurrentIngest::open_file(&p.db, &p.wal, &p.index).unwrap();
        assert_eq!(recovery.replayed, 2, "only the post-checkpoint appends");
        assert_eq!(ingest.len(), data.len());
        let snap = ingest.snapshot();
        let got = snap.search(&QUERY, 0.6, &EngineOpts::new()).unwrap();
        assert_eq!(got.ids(), expected_ids(&data, data.len(), &QUERY, 0.6));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_index_sidecar_degrades_to_rebuild_never_panics() {
        let dir = tmpdir("sidecar");
        let p = paths(&dir);
        let data = corpus();
        {
            let ingest = ConcurrentIngest::create_file(&p.db, &p.wal, &p.index).unwrap();
            let mut writer = ingest.writer().unwrap();
            for values in &data {
                writer.append(values).unwrap();
            }
            writer.checkpoint().unwrap();
        }
        std::fs::write(&p.index, b"not a serialized r-tree at all").unwrap();
        let (ingest, recovery) = ConcurrentIngest::open_file(&p.db, &p.wal, &p.index).unwrap();
        assert!(recovery.index_rebuilt);
        assert!(recovery.index_note.is_some());
        let snap = ingest.snapshot();
        let got = snap.search(&QUERY, 0.6, &EngineOpts::new()).unwrap();
        assert_eq!(got.ids(), expected_ids(&data, data.len(), &QUERY, 0.6));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_index_sidecar_is_rebuilt_on_open() {
        let dir = tmpdir("noindex");
        let p = paths(&dir);
        let data = corpus();
        {
            let ingest = ConcurrentIngest::create_file(&p.db, &p.wal, &p.index).unwrap();
            let mut writer = ingest.writer().unwrap();
            writer.append(&data[0]).unwrap();
            writer.checkpoint().unwrap();
        }
        std::fs::remove_file(&p.index).unwrap();
        let (ingest, recovery) = ConcurrentIngest::open_file(&p.db, &p.wal, &p.index).unwrap();
        assert!(recovery.index_rebuilt);
        assert_eq!(ingest.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_readers_and_writer_agree_with_replay() {
        // Writer appends while reader threads snapshot and query; every
        // outcome must be exact for the epoch the reader pinned.
        let data: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let b = f64::from(i % 7) * 3.0;
                vec![b, b + 1.0, b + 0.5, b + 2.5]
            })
            .collect();
        let ingest = ConcurrentIngest::in_memory();
        let opts = EngineOpts::new().threads(2);
        std::thread::scope(|scope| {
            let ingest = &ingest;
            let data = &data;
            let opts = &opts;
            let writer_handle = scope.spawn(move || {
                let mut writer = ingest.writer().unwrap();
                for (i, values) in data.iter().enumerate() {
                    writer.append(values).unwrap();
                    if i % 13 == 12 {
                        writer.checkpoint().unwrap();
                    }
                }
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..25 {
                        let snap = ingest.snapshot();
                        let n = snap.len();
                        let got = snap.search(&QUERY, 2.0, opts).unwrap();
                        let want = expected_ids(data, n, &QUERY, 2.0);
                        assert_eq!(got.ids(), want, "snapshot of {n} sequences");
                        assert!(got.query_stats.accounting_balanced());
                    }
                });
            }
            writer_handle.join().unwrap();
        });
    }
}
