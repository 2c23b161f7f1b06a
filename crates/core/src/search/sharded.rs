//! Sharded corpus search: fan a query out across per-shard engines and
//! merge one exact answer.
//!
//! A corpus beyond what one store file (and one R-tree build) handles
//! comfortably is split into fixed-capacity shards (`tw_storage::shard`),
//! each with its own segment file, STR-bulk-loaded index and envelope
//! sidecar. [`ShardedSearch`] owns one [`ShardHandle`] per shard. kNN is
//! one global best-first search with every shard as a source (see
//! `search/knn.rs`); range queries run against every shard and the
//! per-shard [`SearchOutcome`]s merge:
//!
//! * **matches** — shard-local ids are remapped by the shard's base id;
//!   shards own contiguous ascending id ranges, so concatenating per-shard
//!   results in shard order *is* the globally id-sorted result, identical
//!   to the unsharded engine's (verification is exact on both sides);
//! * **stats** — `QueryStats` ledgers merge counter-by-counter, so the
//!   fan-out total balances exactly when every shard's ledger balances
//!   (the accounting invariant is linear in the counters);
//! * **termination** — every shard charges one shared [`CancelToken`]
//!   (installed via `EngineOpts::shared_token`), whose first-cause-wins
//!   trip *is* the merge rule: a deadline or budget spans the whole
//!   fan-out, not each shard separately. Shards queried after the trip
//!   run their filter but skip fetching, ledgering their proposals as
//!   `skipped_unverified` — so a partial answer is still a typed,
//!   per-shard-exact subset, never a short-read of any shard's matches;
//! * **health** — a shard whose index is damaged degrades *alone*
//!   (its [`ResilientSearch`] answers through LB-Scan); the merged health
//!   names the degraded shards while the rest keep using their indexes.
//!
//! Threads are spent only where the DP pays for them. The fan-out probes
//! shards in order on the calling thread — admission and R-tree filter —
//! adding up an upper-bound DP estimate of `proposed × |Q|²` cells (a
//! shard whose index is offline proposes its whole store). While that
//! estimate pays for a single worker only ([`workers_for`], 2¹⁷ cells per
//! worker: ≈ 49 µs of spawn + join at the lane kernel's ≈ 2.4 Gcells/s),
//! every shard is probed and then refined inline in shard order. At the
//! first shard that crosses the gate probing stops and the chunked
//! fan-out over `EngineOpts::threads` workers takes over, reusing the
//! probed ids, so no tree is walked twice. Either way each shard fetches
//! sequentially and verification is per-candidate, so answers and
//! counters are the same for every thread count.
//!
//! [`CorpusSharder`] is the matching ingest side: it folds appended
//! sequences into shard files and commits the corpus by writing the CRC'd
//! manifest last (atomically), so a crash mid-fold leaves a corpus that
//! simply re-ingests — never a manifest naming half-written shards.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tw_storage::{
    create_shard_segment, manifest_path, open_shard_segment, rtree_path, segment_path,
    sidecar_path, EnvelopeSidecar, IoProfile, MemPager, Pager, RecoveryReport, SegmentPager, SeqId,
    SequenceStore, ShardManifest,
};

use crate::error::{validate_query, validate_tolerance, TwError};
use crate::govern::{termination_of, CancelToken};
use crate::search::knn::{knn_best_first, KnnSource};
use crate::search::resilient::Probe;
use crate::search::verify::workers_for;
use crate::search::{
    EngineHealth, EngineOpts, ResilientSearch, SearchEngine, SearchOutcome, SearchStats,
    ShardedKnnOutcome, TwSimSearch,
};
use crate::stats::wall_now;

/// One shard: its slice of the id space, its open segment store, its
/// (resilient) per-shard engine and its optional envelope sidecar.
pub struct ShardHandle<S: Pager> {
    base_id: u64,
    store: SequenceStore<S>,
    engine: ResilientSearch,
    sidecar: Option<Arc<EnvelopeSidecar>>,
}

impl<S: Pager> ShardHandle<S> {
    /// First global id stored in this shard.
    pub fn base_id(&self) -> u64 {
        self.base_id
    }

    /// The shard's open segment store.
    pub fn store(&self) -> &SequenceStore<S> {
        &self.store
    }

    /// The shard's engine (degraded to LB-Scan when its index is damaged).
    pub fn engine(&self) -> &ResilientSearch {
        &self.engine
    }

    /// The shard's envelope sidecar, when one loaded.
    pub fn sidecar(&self) -> Option<&Arc<EnvelopeSidecar>> {
        self.sidecar.as_ref()
    }
}

/// A merged fan-out answer beside the per-shard outcomes it merged
/// (shard-local ids already remapped to global ids).
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The corpus-level answer: globally id-sorted matches, summed
    /// ledgers, first-cause termination.
    pub merged: SearchOutcome,
    /// Each shard's own outcome, in shard order.
    pub per_shard: Vec<SearchOutcome>,
}

/// The fan-out engine over a sharded corpus.
///
/// Owns its shards' stores, so the `store` argument of the
/// [`SearchEngine`] trait is ignored — the trait impl exists so a sharded
/// corpus drops into every harness (bench matrix, agreement tests, CLI)
/// that dispatches `Box<dyn SearchEngine<P>>`.
pub struct ShardedSearch<S: Pager> {
    shards: Vec<ShardHandle<S>>,
    manifest: ShardManifest,
}

impl ShardedSearch<SegmentPager> {
    /// Opens a sharded corpus directory: loads the manifest, opens every
    /// segment (recovering ragged tails), loads every per-shard index
    /// resiliently (a damaged index degrades that shard, not the corpus)
    /// and every sidecar opportunistically (a damaged sidecar just costs
    /// its pruning). Returns the per-shard recovery reports beside the
    /// engine.
    pub fn open_dir(dir: &Path, pool_pages: usize) -> Result<(Self, Vec<RecoveryReport>), TwError> {
        let manifest = ShardManifest::load_file(&manifest_path(dir))?;
        let page_size = usize::try_from(manifest.page_size())
            .map_err(|_| TwError::CorruptIndex("shard page size exceeds address space".into()))?;
        let mut shards = Vec::with_capacity(manifest.shard_count());
        let mut reports = Vec::with_capacity(manifest.shard_count());
        for (i, entry) in manifest.shards().iter().enumerate() {
            let (store, report) = open_shard_segment(segment_path(dir, i), page_size, pool_pages)?;
            let expected = usize::try_from(entry.len)
                .map_err(|_| TwError::CorruptIndex("shard length exceeds address space".into()))?;
            let engine = ResilientSearch::from_index_file(rtree_path(dir, i), Some(expected));
            let sidecar = EnvelopeSidecar::load_file(&sidecar_path(dir, i))
                .ok()
                .map(Arc::new);
            shards.push(ShardHandle {
                base_id: entry.base_id,
                store,
                engine,
                sidecar,
            });
            reports.push(report);
        }
        Ok((ShardedSearch { shards, manifest }, reports))
    }
}

impl ShardedSearch<MemPager> {
    /// Shards `data` into in-memory stores of at most `shard_capacity`
    /// sequences each, building a per-shard index and sidecar — the
    /// test-suite path for checking shard-equivalence without touching
    /// disk. Global id `i` is `data[i]`, exactly as appending to one
    /// unsharded store would assign.
    pub fn build_in_memory(
        data: &[Vec<f64>],
        shard_capacity: usize,
        band: Option<usize>,
    ) -> Result<Self, TwError> {
        assert!(shard_capacity >= 1, "shards hold at least one sequence");
        let mut manifest = ShardManifest::new(tw_storage::DEFAULT_PAGE_SIZE);
        let mut shards = Vec::new();
        for chunk in data.chunks(shard_capacity) {
            let mut store = SequenceStore::in_memory();
            for values in chunk {
                store.append(values)?;
            }
            let engine = ResilientSearch::new(TwSimSearch::build(&store)?);
            let sidecar = Arc::new(EnvelopeSidecar::build(&store, band)?);
            let base_id = manifest.push_shard(chunk.len() as u64);
            shards.push(ShardHandle {
                base_id,
                store,
                engine,
                sidecar: Some(sidecar),
            });
        }
        Ok(ShardedSearch { shards, manifest })
    }
}

impl<S: Pager + Send> ShardedSearch<S> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total sequences across every shard.
    pub fn total_sequences(&self) -> u64 {
        self.manifest.total_sequences()
    }

    /// The shard map this corpus was opened with.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The shard handles, in id order.
    pub fn shards(&self) -> &[ShardHandle<S>] {
        &self.shards
    }

    /// Reads one sequence by *global* id, through the owning shard.
    pub fn get(&self, id: SeqId) -> Result<Vec<f64>, TwError> {
        let (idx, local) = self
            .manifest
            .locate(id)
            .ok_or(TwError::UnknownSequence(id))?;
        let shard = self.shards.get(idx).ok_or(TwError::UnknownSequence(id))?;
        Ok(shard.store.get(local)?)
    }

    /// Sum of the shards' buffer-pool miss counters since their pools were
    /// last reset — the out-of-core witness `query --stats` prints.
    pub fn pool_misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.store.buffer_stats().misses)
            .sum()
    }

    /// Resets every shard's buffer-pool counters.
    pub fn reset_pool_stats(&self) {
        for s in &self.shards {
            s.store.reset_buffer_stats();
        }
    }

    /// Per-shard options: every shard charges the fan-out's one token, and
    /// a cascade's candidate envelopes are the *shard's own* sidecar — a
    /// caller-supplied sidecar is keyed by global ids, which would be
    /// unsound against shard-local ids.
    fn shard_opts(shard: &ShardHandle<S>, opts: &EngineOpts, token: &CancelToken) -> EngineOpts {
        let mut o = opts.clone();
        o.shared_token = Some(token.clone());
        o.budget = None;
        o.prepared_cascade = None;
        if let Some(spec) = &mut o.cascade {
            spec.envelopes = shard.sidecar.clone();
        }
        o
    }

    /// Probes shards in shard order until the estimated DP work crosses
    /// the work gate: returns the probes taken (every shard's when it never
    /// crosses) and the number of workers the refine step runs on — 1
    /// below the gate, `threads` (at most one per shard) past it. Shard
    /// engines carry no admission gate (a corpus is admitted once, in front
    /// of the fan-out), so holding several probes at once never waits on a
    /// permit.
    fn probe_shards(
        &self,
        query: &[f64],
        epsilon: f64,
        shard_opts: &[EngineOpts],
        threads: usize,
    ) -> Result<(Vec<Probe<'_, S>>, usize), TwError> {
        let ceiling = threads.min(self.shards.len());
        let cells_per_proposal = (query.len() as u64).saturating_pow(2);
        let mut cells = 0u64;
        let mut probes = Vec::with_capacity(self.shards.len());
        for (shard, opts) in self.shards.iter().zip(shard_opts) {
            let probe = shard.engine.probe(&shard.store, query, epsilon, opts)?;
            let proposed = probe.proposed(shard.store.len()) as u64;
            cells = cells.saturating_add(proposed.saturating_mul(cells_per_proposal));
            probes.push(probe);
            if workers_for(cells, ceiling) > 1 {
                return Ok((probes, ceiling));
            }
        }
        Ok((probes, 1))
    }

    /// Runs `job` over `items` (one per shard, in shard order) — all on the
    /// calling thread when `workers <= 1`, otherwise in `workers` chunks:
    /// the first on the calling thread, the rest on scoped worker threads —
    /// returning results in item order either way.
    fn fan_out<I: Send, T: Send>(
        items: Vec<I>,
        workers: usize,
        job: impl Fn(I) -> T + Sync,
    ) -> Vec<T> {
        if workers <= 1 {
            return items.into_iter().map(job).collect();
        }
        let size = items.len().div_ceil(workers);
        let mut items = items.into_iter();
        let first: Vec<I> = items.by_ref().take(size).collect();
        let job = &job;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            loop {
                let part: Vec<I> = items.by_ref().take(size).collect();
                if part.is_empty() {
                    break;
                }
                handles.push(scope.spawn(move || part.into_iter().map(job).collect::<Vec<T>>()));
            }
            let mut results: Vec<T> = first.into_iter().map(job).collect();
            for h in handles {
                results.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            results
        })
    }

    /// The fan-out range query: every shard answers (exactly, possibly
    /// degraded, possibly cut short by the shared budget) and the
    /// outcomes merge into one corpus-level [`SearchOutcome`]. Below the
    /// work gate (see the module docs) the whole query runs on the calling
    /// thread.
    pub fn range_search_sharded(
        &self,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<ShardedOutcome, TwError> {
        validate_query(query)?;
        validate_tolerance(epsilon)?;
        let started = wall_now();
        let token = opts.arm_budget();
        let shard_opts: Vec<EngineOpts> = self
            .shards
            .iter()
            .map(|shard| Self::shard_opts(shard, opts, &token))
            .collect();
        let (probes, workers) = self.probe_shards(query, epsilon, &shard_opts, opts.threads)?;
        // Shards past the last probe are probed by their worker. Each
        // refine polls the shared token before every fetch, so a shard
        // refined after a trip fetches nothing.
        let mut probes = probes.into_iter();
        let jobs: Vec<_> = self
            .shards
            .iter()
            .zip(&shard_opts)
            .map(|(shard, opts)| (shard, opts, probes.next()))
            .collect();
        let results = Self::fan_out(jobs, workers, |(shard, opts, probe)| {
            let probe = match probe {
                Some(probe) => probe,
                None => shard.engine.probe(&shard.store, query, epsilon, opts)?,
            };
            shard
                .engine
                .refine(&shard.store, probe, query, epsilon, opts)
        });

        let mut merged = SearchOutcome::default();
        let mut io = IoProfile::default();
        let mut per_shard = Vec::with_capacity(results.len());
        let mut degraded: Vec<String> = Vec::new();
        for ((i, result), shard) in results.into_iter().enumerate().zip(&self.shards) {
            let mut out = result?;
            for m in &mut out.matches {
                m.id += shard.base_id;
            }
            merged.matches.extend(out.matches.iter().copied());
            merged.query_stats.merge(&out.query_stats);
            io.add(&out.stats.io);
            if let EngineHealth::Degraded { reason, .. } = &out.health {
                degraded.push(format!("shard {i}: {reason}"));
            }
            per_shard.push(out);
        }
        // The merged view reports the fan-out's wall time, not the sum of
        // the shards' times.
        let db_size = usize::try_from(self.total_sequences()).unwrap_or(usize::MAX);
        merged.stats =
            SearchStats::from_ledger(&merged.query_stats, io, db_size, started.elapsed());
        if !degraded.is_empty() {
            merged.health = EngineHealth::Degraded {
                fallback: "lb-scan",
                reason: degraded.join("; "),
            };
        }
        merged.termination = termination_of(&token);
        Ok(ShardedOutcome { merged, per_shard })
    }

    /// The corpus-level kNN query: one global best-first search with every
    /// shard as a source (`search/knn.rs`), on the calling thread
    /// (`opts.threads` is not consulted). A shard whose index is offline is
    /// a source without lower bounds — all of its sequences are verified.
    pub fn knn_sharded(
        &self,
        query: &[f64],
        k: usize,
        opts: &EngineOpts,
    ) -> Result<ShardedKnnOutcome, TwError> {
        let sources: Vec<KnnSource<'_, S>> = self
            .shards
            .iter()
            .map(|shard| KnnSource {
                tree: shard.engine.primary().map(TwSimSearch::tree),
                store: &shard.store,
                base_id: shard.base_id,
            })
            .collect();
        knn_best_first(&sources, query, k, opts.kind, &opts.arm_budget())
    }
}

impl<P: Pager, S: Pager + Send> SearchEngine<P> for ShardedSearch<S> {
    fn name(&self) -> &str {
        "sharded-search"
    }

    /// Answers from the engine's *own* shards; the `store` argument is
    /// ignored (a sharded corpus carries its stores with it).
    fn range_search(
        &self,
        _store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        self.range_search_sharded(query, epsilon, opts)
            .map(|o| o.merged)
    }
}

/// Fold-by-fold corpus ingest: appends stream into the current segment;
/// when it reaches capacity the shard is *folded* — segment flushed,
/// R-tree STR-bulk-loaded and saved, sidecar built and saved — and the
/// next segment opens. [`CorpusSharder::finish`] folds the remainder and
/// atomically commits the manifest, the corpus's single commit point.
pub struct CorpusSharder {
    dir: PathBuf,
    page_size: usize,
    pool_pages: usize,
    shard_capacity: usize,
    band: Option<usize>,
    sidecars: bool,
    manifest: ShardManifest,
    current: Option<SequenceStore<SegmentPager>>,
    fold_hook: Option<Box<dyn FnMut(usize) + Send>>,
}

impl CorpusSharder {
    /// Starts an ingest into `dir` (created if absent) with shards of at
    /// most `shard_capacity` sequences.
    pub fn create(dir: &Path, shard_capacity: usize) -> Result<Self, TwError> {
        assert!(shard_capacity >= 1, "shards hold at least one sequence");
        std::fs::create_dir_all(dir).map_err(tw_storage::ShardError::Io)?;
        Ok(CorpusSharder {
            dir: dir.to_path_buf(),
            page_size: tw_storage::DEFAULT_PAGE_SIZE,
            pool_pages: 64,
            shard_capacity,
            band: None,
            sidecars: true,
            manifest: ShardManifest::new(tw_storage::DEFAULT_PAGE_SIZE),
            current: None,
            fold_hook: None,
        })
    }

    /// Physical page size for the segment files (default
    /// [`tw_storage::DEFAULT_PAGE_SIZE`]).
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self.manifest = ShardManifest::new(page_size);
        self
    }

    /// Buffer-pool frames per open segment during ingest (default 64).
    pub fn pool_pages(mut self, pool_pages: usize) -> Self {
        assert!(pool_pages >= 1, "need at least one pool frame");
        self.pool_pages = pool_pages;
        self
    }

    /// Band half-width for the per-shard sidecars (`None` — the default —
    /// builds full-width envelopes, sound under exact verification).
    pub fn sidecar_band(mut self, band: Option<usize>) -> Self {
        self.band = band;
        self
    }

    /// Toggles sidecar construction (on by default). At very large scale
    /// the sidecar's memory/disk cost can exceed its pruning value.
    pub fn sidecars(mut self, on: bool) -> Self {
        self.sidecars = on;
        self
    }

    /// Installs a hook called *mid-fold* — after shard `index`'s segment
    /// and R-tree are durable but before its sidecar and before any
    /// manifest write. The crash tests abort inside it to prove the
    /// manifest-last commit protocol.
    pub fn fold_hook(mut self, hook: impl FnMut(usize) + Send + 'static) -> Self {
        self.fold_hook = Some(Box::new(hook));
        self
    }

    /// Shards folded (fully written) so far.
    pub fn folded_shards(&self) -> usize {
        self.manifest.shard_count()
    }

    /// Appends one sequence, returning its *global* id. Folds the current
    /// shard first when it is full.
    pub fn append(&mut self, values: &[f64]) -> Result<u64, TwError> {
        let current_len = self.current.as_ref().map(|s| s.len()).unwrap_or(0);
        if current_len >= self.shard_capacity {
            self.fold_current()?;
        }
        let store = match &mut self.current {
            Some(store) => store,
            None => {
                let path = segment_path(&self.dir, self.manifest.shard_count());
                self.current
                    .insert(create_shard_segment(path, self.page_size, self.pool_pages)?)
            }
        };
        let local = store.append(values)?;
        Ok(self.manifest.total_sequences() + local)
    }

    fn fold_current(&mut self) -> Result<(), TwError> {
        let Some(store) = self.current.take() else {
            return Ok(());
        };
        let index = self.manifest.shard_count();
        let len = store.len() as u64;
        store.flush()?;
        let engine = TwSimSearch::build(&store)?;
        engine.save_file(rtree_path(&self.dir, index))?;
        if let Some(hook) = &mut self.fold_hook {
            hook(index);
        }
        if self.sidecars {
            let sidecar = EnvelopeSidecar::build(&store, self.band)?;
            sidecar.save_file(&sidecar_path(&self.dir, index))?;
        }
        drop(store);
        self.manifest.push_shard(len);
        Ok(())
    }

    /// Folds the open segment and atomically commits the manifest.
    pub fn finish(mut self) -> Result<ShardManifest, TwError> {
        self.fold_current()?;
        self.manifest.save_file(&manifest_path(&self.dir))?;
        Ok(self.manifest)
    }
}

impl std::fmt::Debug for CorpusSharder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusSharder")
            .field("dir", &self.dir)
            .field("shard_capacity", &self.shard_capacity)
            .field("folded_shards", &self.folded_shards())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float identities on purpose.
mod tests {
    use super::*;
    use crate::bound::CascadeSpec;
    use crate::distance::DtwKind;
    use crate::govern::{QueryBudget, Termination};
    use crate::search::NaiveScan;

    fn walk(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut v = 0.0f64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                v += ((state % 2_000) as f64 - 1_000.0) / 1_000.0;
                v
            })
            .collect()
    }

    fn corpus(n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| walk(i as u64 + 1, len)).collect()
    }

    fn unsharded(data: &[Vec<f64>]) -> (SequenceStore<MemPager>, TwSimSearch) {
        let mut store = SequenceStore::in_memory();
        for s in data {
            store.append(s).unwrap();
        }
        let engine = TwSimSearch::build(&store).unwrap();
        (store, engine)
    }

    #[test]
    fn sharded_range_agrees_with_unsharded() {
        let data = corpus(40, 16);
        let (store, flat) = unsharded(&data);
        let query = walk(99, 16);
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        for cap in [40, 13, 7, 1] {
            let sharded = ShardedSearch::build_in_memory(&data, cap, None).unwrap();
            for eps in [0.5, 2.0, 8.0] {
                let expect = flat.range_search(&store, &query, eps, &opts).unwrap();
                let got = sharded.range_search_sharded(&query, eps, &opts).unwrap();
                assert_eq!(got.merged.ids(), expect.ids(), "cap={cap} eps={eps}");
                for (g, e) in got.merged.matches.iter().zip(&expect.matches) {
                    assert_eq!(g.distance, e.distance);
                }
                assert_eq!(got.merged.termination, Termination::Complete);
            }
        }
    }

    #[test]
    fn merged_ledger_is_the_sum_of_shards_and_balances() {
        let data = corpus(30, 12);
        let sharded = ShardedSearch::build_in_memory(&data, 7, None).unwrap();
        let query = walk(7, 12);
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let out = sharded.range_search_sharded(&query, 3.0, &opts).unwrap();
        assert!(
            out.merged.query_stats.accounting_balanced(),
            "{:?}",
            out.merged.query_stats
        );
        let mut summed = crate::stats::QueryStats::default();
        for shard in &out.per_shard {
            assert!(shard.query_stats.accounting_balanced());
            summed.merge(&shard.query_stats);
        }
        assert!(summed.counters_eq(&out.merged.query_stats));
        assert_eq!(out.merged.stats.db_size, 30);
    }

    #[test]
    fn sharded_matches_are_globally_id_sorted() {
        let data = corpus(25, 10);
        let sharded = ShardedSearch::build_in_memory(&data, 4, None).unwrap();
        let out = sharded
            .range_search_sharded(&walk(3, 10), 10.0, &EngineOpts::new())
            .unwrap();
        let ids = out.merged.ids();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert!(!ids.is_empty());
    }

    #[test]
    fn sharded_knn_agrees_with_unsharded() {
        let data = corpus(35, 14);
        let (store, flat) = unsharded(&data);
        let query = walk(55, 14);
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        for cap in [35, 9, 3] {
            let sharded = ShardedSearch::build_in_memory(&data, cap, None).unwrap();
            for k in [1usize, 5, 12] {
                let expect = flat.knn_governed(&store, &query, k, &opts).unwrap();
                let got = sharded.knn_sharded(&query, k, &opts).unwrap();
                assert_eq!(got.merged.matches.len(), expect.matches.len());
                for (g, e) in got.merged.matches.iter().zip(&expect.matches) {
                    assert_eq!(g.id, e.id, "cap={cap} k={k}");
                    assert_eq!(g.distance, e.distance);
                }
            }
        }
    }

    #[test]
    fn fan_out_parallelism_does_not_change_results() {
        let data = corpus(40, 12);
        let sharded = ShardedSearch::build_in_memory(&data, 6, None).unwrap();
        let query = walk(21, 12);
        let base = sharded
            .range_search_sharded(&query, 4.0, &EngineOpts::new())
            .unwrap();
        for threads in [2usize, 4, 8] {
            let opts = EngineOpts::new().threads(threads);
            let got = sharded.range_search_sharded(&query, 4.0, &opts).unwrap();
            assert_eq!(got.merged.ids(), base.merged.ids(), "threads={threads}");
            assert!(got.merged.query_stats.counters_eq(&base.merged.query_stats));
        }
    }

    /// Probes `sharded` the way `range_search_sharded` does.
    fn probe<'s, S: Pager + Send>(
        sharded: &'s ShardedSearch<S>,
        query: &[f64],
        eps: f64,
        threads: usize,
    ) -> (Vec<Probe<'s, S>>, usize) {
        let token = CancelToken::unlimited();
        let opts = EngineOpts::new();
        let shard_opts: Vec<EngineOpts> = sharded
            .shards
            .iter()
            .map(|shard| ShardedSearch::shard_opts(shard, &opts, &token))
            .collect();
        sharded
            .probe_shards(query, eps, &shard_opts, threads)
            .unwrap()
    }

    #[test]
    fn selective_queries_stay_on_the_calling_thread() {
        // 40 × 12-point sequences: at most 5.8 k estimated cells.
        let data = corpus(40, 12);
        let sharded = ShardedSearch::build_in_memory(&data, 6, None).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let (probes, workers) = probe(&sharded, &walk(21, 12), 1e3, threads);
            assert_eq!(workers, 1, "threads={threads}");
            assert_eq!(probes.len(), sharded.shard_count());
        }
    }

    #[test]
    fn probing_stops_at_the_first_shard_that_crosses_the_gate() {
        // 4 shards × 128 × 32 points: every sequence proposed is 128 × 32²
        // = 2¹⁷ estimated cells per shard, so the second shard crosses.
        let data = corpus(512, 32);
        let sharded = ShardedSearch::build_in_memory(&data, 128, None).unwrap();
        let query = walk(77, 32);
        let (probes, workers) = probe(&sharded, &query, 1e3, 4);
        assert_eq!((probes.len(), workers), (2, 4));
        let (probes, workers) = probe(&sharded, &query, 1e3, 2);
        assert_eq!((probes.len(), workers), (2, 2));
        // `threads == 1` is a ceiling of one: never a split.
        let (probes, workers) = probe(&sharded, &query, 1e3, 1);
        assert_eq!((probes.len(), workers), (4, 1));
        // Both regimes give the same answer and the same counters.
        let base = sharded
            .range_search_sharded(&query, 1e3, &EngineOpts::new())
            .unwrap();
        assert_eq!(base.merged.ids().len(), 512);
        for threads in [2usize, 4] {
            let opts = EngineOpts::new().threads(threads);
            let got = sharded.range_search_sharded(&query, 1e3, &opts).unwrap();
            assert_eq!(got.merged.matches, base.merged.matches, "threads={threads}");
            assert!(got.merged.query_stats.counters_eq(&base.merged.query_stats));
        }
    }

    #[test]
    fn an_offline_index_is_priced_as_a_full_scan_and_degrades_alone() {
        // 2 shards × 256 × 32 points. With shard 0's index offline, its
        // LB-Scan of 256 sequences alone is 2 × 2¹⁷ estimated cells.
        let data = corpus(512, 32);
        let (store, flat) = unsharded(&data);
        let mut sharded = ShardedSearch::build_in_memory(&data, 256, None).unwrap();
        sharded.shards[0].engine = ResilientSearch::from_index_file("/nonexistent.rtree", None);
        let query = walk(78, 32);
        let (probes, workers) = probe(&sharded, &query, 0.0, 2);
        assert_eq!((probes.len(), workers), (1, 2));
        for eps in [0.0, 2.0] {
            let expect = flat
                .range_search(&store, &query, eps, &EngineOpts::new())
                .unwrap();
            for threads in [1usize, 2, 4] {
                let opts = EngineOpts::new().threads(threads);
                let got = sharded.range_search_sharded(&query, eps, &opts).unwrap();
                assert_eq!(
                    got.merged.ids(),
                    expect.ids(),
                    "eps={eps} threads={threads}"
                );
                assert!(got.per_shard[0].health.is_degraded());
                assert!(!got.per_shard[1].health.is_degraded());
                assert!(got.merged.health.to_string().contains("shard 0"));
                assert!(got.merged.query_stats.accounting_balanced());
            }
        }
    }

    #[test]
    fn shards_probed_before_a_trip_ledger_their_proposals_as_skipped() {
        // Inline regime: all six shards are filtered before any refines, and
        // a one-cell budget trips in shard 0's first DP. Every later shard's
        // proposals — counted by its filter — are skipped, none fetched.
        let data = corpus(60, 16);
        let sharded = ShardedSearch::build_in_memory(&data, 10, None).unwrap();
        let opts = EngineOpts::new()
            .threads(2)
            .budget(QueryBudget::new().max_cells(1));
        let out = sharded
            .range_search_sharded(&walk(5, 16), 1e3, &opts)
            .unwrap();
        assert_eq!(
            out.merged.termination,
            Termination::BudgetExhausted {
                which: crate::govern::BudgetKind::DtwCells
            }
        );
        assert!(out.merged.query_stats.accounting_balanced());
        for (i, shard) in out.per_shard.iter().enumerate().skip(1) {
            let qs = &shard.query_stats;
            assert_eq!(qs.candidates, 10, "shard {i}");
            assert_eq!(qs.skipped_unverified, qs.candidates, "shard {i}");
            assert!(qs.index_node_accesses() > 0, "shard {i}");
            assert_eq!(qs.pager_reads + qs.verified + qs.abandoned, 0, "shard {i}");
        }
    }

    #[test]
    fn cascade_runs_per_shard_with_local_sidecars() {
        let data = corpus(30, 12);
        let (store, flat) = unsharded(&data);
        let query = walk(11, 12);
        let opts = EngineOpts::new().cascade(CascadeSpec::standard());
        let sharded = ShardedSearch::build_in_memory(&data, 8, None).unwrap();
        let expect = flat.range_search(&store, &query, 2.0, &opts).unwrap();
        let got = sharded.range_search_sharded(&query, 2.0, &opts).unwrap();
        assert_eq!(got.merged.ids(), expect.ids());
        assert!(got.merged.query_stats.accounting_balanced());
    }

    #[test]
    fn exhausted_budget_yields_partial_but_exact_subset() {
        let data = corpus(60, 16);
        let sharded = ShardedSearch::build_in_memory(&data, 10, None).unwrap();
        let query = walk(5, 16);
        let full = sharded
            .range_search_sharded(&query, 20.0, &EngineOpts::new())
            .unwrap();
        // A one-cell budget trips during the first verification.
        let opts = EngineOpts::new().budget(QueryBudget::new().max_cells(1));
        let out = sharded.range_search_sharded(&query, 20.0, &opts).unwrap();
        assert_ne!(out.merged.termination, Termination::Complete);
        assert!(out.merged.query_stats.accounting_balanced());
        assert!(out.merged.query_stats.skipped_unverified > 0);
        // Subset of the full answer, and every reported distance exact.
        let full_ids: std::collections::HashSet<u64> = full.merged.ids().into_iter().collect();
        for m in &out.merged.matches {
            assert!(full_ids.contains(&m.id));
        }
    }

    #[test]
    fn global_get_routes_through_the_owning_shard() {
        let data = corpus(23, 9);
        let sharded = ShardedSearch::build_in_memory(&data, 5, None).unwrap();
        for (i, expected) in data.iter().enumerate() {
            assert_eq!(&sharded.get(i as u64).unwrap(), expected);
        }
        assert!(matches!(sharded.get(23), Err(TwError::UnknownSequence(23))));
    }

    #[test]
    fn trait_object_dispatch_ignores_the_passed_store() {
        let data = corpus(20, 10);
        let sharded = ShardedSearch::build_in_memory(&data, 6, None).unwrap();
        let dummy: SequenceStore<MemPager> = SequenceStore::in_memory();
        let engines: Vec<Box<dyn SearchEngine<MemPager>>> =
            vec![Box::new(sharded), Box::new(NaiveScan)];
        let out = engines[0]
            .range_search(&dummy, &walk(2, 10), 6.0, &EngineOpts::new())
            .unwrap();
        assert_eq!(out.stats.db_size, 20);
        assert_eq!(engines[0].name(), "sharded-search");
    }

    #[test]
    fn corpus_sharder_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("tw-sharder-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let data = corpus(27, 12);
        let mut sharder = CorpusSharder::create(&dir, 10).unwrap();
        for (i, s) in data.iter().enumerate() {
            assert_eq!(sharder.append(s).unwrap(), i as u64);
        }
        let manifest = sharder.finish().unwrap();
        assert_eq!(manifest.shard_count(), 3);
        assert_eq!(manifest.total_sequences(), 27);

        let (sharded, reports) = ShardedSearch::open_dir(&dir, 16).unwrap();
        assert!(reports.iter().all(|r| r.is_clean()));
        assert_eq!(sharded.shard_count(), 3);
        // Agreement with the unsharded engine over the same data.
        let (store, flat) = unsharded(&data);
        let query = walk(44, 12);
        let opts = EngineOpts::new();
        let expect = flat.range_search(&store, &query, 5.0, &opts).unwrap();
        let got = sharded.range_search_sharded(&query, 5.0, &opts).unwrap();
        assert_eq!(got.merged.ids(), expect.ids());
        assert!(!got.merged.health.is_degraded());
        // Sidecars loaded for every shard.
        assert!(sharded.shards().iter().all(|s| s.sidecar().is_some()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corpus_sharder_refuses_nan_as_invalid_input() {
        let dir = std::env::temp_dir().join(format!("tw-sharder-nan-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sharder = CorpusSharder::create(&dir, 4).unwrap();
        sharder.append(&[1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(
            sharder.append(&[1.0, f64::NAN]),
            Err(TwError::InvalidElement { index: 1, .. })
        ));
        // The refused append took no id and the corpus still commits.
        assert_eq!(sharder.append(&[4.0, 5.0]).unwrap(), 1);
        assert_eq!(sharder.finish().unwrap().total_sequences(), 2);
        let (sharded, reports) = ShardedSearch::open_dir(&dir, 8).unwrap();
        assert!(reports.iter().all(|r| r.is_clean()));
        assert_eq!(sharded.shard_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("tw-shard-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        assert!(matches!(
            ShardedSearch::open_dir(&dir, 8),
            Err(TwError::Shard(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_damaged_shard_degrades_alone() {
        let dir = std::env::temp_dir().join(format!("tw-shard-degrade-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let data = corpus(24, 10);
        let mut sharder = CorpusSharder::create(&dir, 8).unwrap();
        for s in &data {
            sharder.append(s).unwrap();
        }
        sharder.finish().unwrap();
        // Corrupt shard 1's R-tree.
        let idx = rtree_path(&dir, 1);
        let mut raw = std::fs::read(&idx).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&idx, raw).unwrap();

        let (sharded, _) = ShardedSearch::open_dir(&dir, 16).unwrap();
        assert!(sharded.shards()[1].engine().is_index_offline());
        assert!(!sharded.shards()[0].engine().is_index_offline());
        let (store, flat) = unsharded(&data);
        let query = walk(9, 10);
        let opts = EngineOpts::new();
        let expect = flat.range_search(&store, &query, 6.0, &opts).unwrap();
        let got = sharded.range_search_sharded(&query, 6.0, &opts).unwrap();
        // Still the exact answer, with the degradation named.
        assert_eq!(got.merged.ids(), expect.ids());
        assert!(got.merged.health.is_degraded());
        assert!(got.merged.health.to_string().contains("shard 1"));
        // kNN: the index-less shard is a source without lower bounds — all
        // eight of its sequences are verified, none through an index — and
        // the neighbours are the healthy corpus's.
        let knn = sharded.knn_sharded(&query, 5, &opts).unwrap();
        let expect = flat.knn_governed(&store, &query, 5, &opts).unwrap();
        assert_eq!(knn.merged.matches, expect.matches);
        let scanned = &knn.per_shard[1].query_stats;
        assert_eq!(scanned.candidates, 8);
        assert_eq!(scanned.index_node_accesses(), 0);
        assert!(knn.merged.query_stats.accounting_balanced());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_hook_fires_mid_fold() {
        let dir = std::env::temp_dir().join(format!("tw-shard-hook-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = std::sync::Arc::clone(&seen);
        let mut sharder = CorpusSharder::create(&dir, 5)
            .unwrap()
            .fold_hook(move |i| seen2.lock().unwrap().push(i));
        for s in corpus(12, 8) {
            sharder.append(&s).unwrap();
        }
        sharder.finish().unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
