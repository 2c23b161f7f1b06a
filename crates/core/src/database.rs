//! A batteries-included facade: sequence store + feature index, kept in sync.
//!
//! [`TimeWarpDatabase`] is the entry point a downstream application uses when
//! it doesn't want to wire the store and engines together manually: appends
//! update the R-tree incrementally, queries run Algorithm 1, and the whole
//! state round-trips through two files (the paged store and the serialized
//! index).

use std::path::Path;

use tw_storage::{FilePager, MemPager, Pager, SeqId, SequenceStore, StoreError};

use crate::distance::DtwKind;
use crate::error::TwError;
use crate::search::{EngineOpts, KnnOutcome, NaiveScan, SearchEngine, SearchResult, TwSimSearch};
use crate::sequence::Sequence;

/// A sequence database with its TW-Sim-Search index always in sync.
pub struct TimeWarpDatabase<P: Pager> {
    store: SequenceStore<P>,
    engine: TwSimSearch,
    kind: DtwKind,
}

impl TimeWarpDatabase<MemPager> {
    /// An empty in-memory database with the paper's configuration
    /// (1 KB pages, 4-D quadratic-split R-tree, L∞ recurrence).
    pub fn in_memory() -> Self {
        Self {
            store: SequenceStore::in_memory(),
            engine: TwSimSearch::empty(TwSimSearch::paper_config()),
            kind: DtwKind::MaxAbs,
        }
    }
}

impl TimeWarpDatabase<FilePager> {
    /// Creates a new on-disk database at `path`.
    pub fn create<Q: AsRef<Path>>(path: Q) -> Result<Self, TwError> {
        let pager = FilePager::create(path, 1024).map_err(StoreError::Pager)?;
        let store = SequenceStore::create(pager, 256)?;
        Ok(Self {
            store,
            engine: TwSimSearch::empty(TwSimSearch::paper_config()),
            kind: DtwKind::MaxAbs,
        })
    }

    /// Opens an existing on-disk database, rebuilding the index from the
    /// stored sequences (bulk-loaded).
    pub fn open<Q: AsRef<Path>>(path: Q) -> Result<Self, TwError> {
        let pager = FilePager::open(path, 1024).map_err(StoreError::Pager)?;
        let store = SequenceStore::open(pager, 256)?;
        let engine = TwSimSearch::build(&store)?;
        Ok(Self {
            store,
            engine,
            kind: DtwKind::MaxAbs,
        })
    }

    /// Flushes the store and writes the serialized index next to it
    /// (checksummed format, temp file + fsync + atomic rename: a crash
    /// mid-save leaves the previous index intact).
    pub fn save_index<Q: AsRef<Path>>(&self, index_path: Q) -> Result<(), TwError> {
        self.store.flush()?;
        self.engine.save_file(index_path)
    }

    /// Opens an on-disk database with a previously saved index instead of
    /// rebuilding it.
    ///
    /// The index is decoded with checksum verification, structurally
    /// validated and checked against the store's cardinality; a failure on
    /// any of those surfaces as [`TwError::Index`] or
    /// [`TwError::CorruptIndex`] rather than an engine that silently drops
    /// answers. Callers that prefer degradation over failure can use
    /// [`crate::search::ResilientSearch::from_index_file`] instead.
    pub fn open_with_index<Q: AsRef<Path>, R: AsRef<Path>>(
        db_path: Q,
        index_path: R,
    ) -> Result<Self, TwError> {
        let pager = FilePager::open(db_path, 1024).map_err(StoreError::Pager)?;
        let store = SequenceStore::open(pager, 256)?;
        let engine = TwSimSearch::load_file(index_path, Some(store.len()))?;
        Ok(Self {
            store,
            engine,
            kind: DtwKind::MaxAbs,
        })
    }
}

impl<P: Pager> TimeWarpDatabase<P> {
    /// Selects the time-warping recurrence used by queries (default: the
    /// paper's L∞, [`DtwKind::MaxAbs`]).
    pub fn with_kind(mut self, kind: DtwKind) -> Self {
        self.kind = kind;
        self
    }

    /// Number of stored sequences.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The underlying store (scans, raw access, I/O accounting).
    pub fn store(&self) -> &SequenceStore<P> {
        &self.store
    }

    /// The underlying engine (index diagnostics).
    pub fn engine(&self) -> &TwSimSearch {
        &self.engine
    }

    /// Appends a validated sequence, indexing it immediately.
    pub fn insert(&mut self, sequence: &Sequence) -> Result<SeqId, TwError> {
        let id = self.store.append(sequence.values())?;
        self.engine.insert(sequence.values(), id)?;
        Ok(id)
    }

    /// Appends raw values (validated on the way in).
    pub fn insert_values(&mut self, values: &[f64]) -> Result<SeqId, TwError> {
        let seq = Sequence::new(values.to_vec())?;
        self.insert(&seq)
    }

    /// Reads a stored sequence back.
    pub fn get(&self, id: SeqId) -> Result<Vec<f64>, TwError> {
        Ok(self.store.get(id)?)
    }

    /// Range query: all sequences within `epsilon` of `query` under the
    /// configured recurrence (Algorithm 1).
    pub fn similar(&self, query: &[f64], epsilon: f64) -> Result<SearchResult, TwError> {
        let opts = EngineOpts::new().kind(self.kind);
        Ok(self
            .engine
            .range_search(&self.store, query, epsilon, &opts)?
            .into_result())
    }

    /// kNN query: the `k` nearest sequences under the configured recurrence.
    pub fn nearest(&self, query: &[f64], k: usize) -> Result<KnnOutcome, TwError> {
        let opts = EngineOpts::new().kind(self.kind);
        self.engine.knn_governed(&self.store, query, k, &opts)
    }

    /// Exhaustive-scan cross-check (diagnostics; the result always equals
    /// [`TimeWarpDatabase::similar`]).
    pub fn similar_by_scan(&self, query: &[f64], epsilon: f64) -> Result<SearchResult, TwError> {
        let opts = EngineOpts::new().kind(self.kind);
        Ok(NaiveScan
            .range_search(&self.store, query, epsilon, &opts)?
            .into_result())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;

    fn populate<P: Pager>(db: &mut TimeWarpDatabase<P>) {
        for values in [
            vec![20.0, 21.0, 21.0, 20.0, 23.0],
            vec![20.0, 20.0, 21.0, 20.0, 23.0, 23.0],
            vec![5.0, 6.0, 7.0],
            vec![19.5, 21.5, 20.5, 23.5],
        ] {
            db.insert_values(&values).expect("insert");
        }
    }

    #[test]
    fn in_memory_insert_and_query() {
        let mut db = TimeWarpDatabase::in_memory();
        populate(&mut db);
        assert_eq!(db.len(), 4);
        let res = db.similar(&[20.0, 21.0, 20.0, 23.0], 0.6).expect("query");
        assert_eq!(res.ids(), vec![0, 1, 3]);
        let scan = db
            .similar_by_scan(&[20.0, 21.0, 20.0, 23.0], 0.6)
            .expect("scan");
        assert_eq!(res.ids(), scan.ids());
    }

    #[test]
    fn nearest_returns_sorted_neighbors() {
        let mut db = TimeWarpDatabase::in_memory();
        populate(&mut db);
        let nn = db
            .nearest(&[20.0, 21.0, 20.0, 23.0], 2)
            .expect("knn")
            .matches;
        assert_eq!(nn.len(), 2);
        assert!(nn[0].distance <= nn[1].distance);
        assert_eq!(nn[0].distance, 0.0);
    }

    #[test]
    fn rejects_invalid_sequences() {
        let mut db = TimeWarpDatabase::in_memory();
        assert!(db.insert_values(&[]).is_err());
        assert!(db.insert_values(&[1.0, f64::NAN]).is_err());
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn configured_kind_is_used() {
        let mut db = TimeWarpDatabase::in_memory().with_kind(DtwKind::SumAbs);
        populate(&mut db);
        // Under SumAbs the 0.6 tolerance is much stricter relative to the
        // data; only the exact warps survive.
        let res = db.similar(&[20.0, 21.0, 20.0, 23.0], 0.6).expect("query");
        assert_eq!(res.ids(), vec![0, 1]);
    }

    #[test]
    fn on_disk_roundtrip_with_saved_index() {
        let dir = std::env::temp_dir().join(format!("twdb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let db_path = dir.join("db.tws");
        let idx_path = dir.join("db.rtree");
        {
            let mut db = TimeWarpDatabase::create(&db_path).expect("create");
            populate(&mut db);
            db.save_index(&idx_path).expect("save");
        }
        {
            // Reopen with the saved index (no rebuild).
            let db = TimeWarpDatabase::open_with_index(&db_path, &idx_path).expect("open");
            assert_eq!(db.len(), 4);
            let res = db.similar(&[20.0, 21.0, 20.0, 23.0], 0.6).expect("query");
            assert_eq!(res.ids(), vec![0, 1, 3]);
        }
        {
            // Or reopen rebuilding the index from the store.
            let db = TimeWarpDatabase::open(&db_path).expect("open rebuild");
            let res = db.similar(&[20.0, 21.0, 20.0, 23.0], 0.6).expect("query");
            assert_eq!(res.ids(), vec![0, 1, 3]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_roundtrips_values() {
        let mut db = TimeWarpDatabase::in_memory();
        let id = db.insert_values(&[1.5, 2.5]).expect("insert");
        assert_eq!(db.get(id).expect("get"), vec![1.5, 2.5]);
        assert!(db.get(99).is_err());
    }
}
