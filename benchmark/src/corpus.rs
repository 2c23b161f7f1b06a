//! Building and opening what a workload runs against, inside one scratch
//! directory that is removed however the run ends.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tw_core::search::{CorpusSharder, ShardedSearch, TwSimSearch};
use tw_storage::{create_sequence_file, segment_path, DEFAULT_PAGE_SIZE};

use crate::exec::Sharded;
use crate::workload::{for_each_corpus_sequence, Spec};

/// Everything a run writes lives in one `.bench_scratch-*` directory in the
/// working directory (the checkout the command runs from).
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(format!(
            ".bench_scratch-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("creating scratch dir {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Bytes of every regular file under the scratch directory.
    pub fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|entry| match entry.metadata() {
                    Ok(meta) if meta.is_dir() => walk(&entry.path()),
                    Ok(meta) => meta.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// How many times a measured run's set-up builds its files; `setup_s` uses
/// the median.
pub const BUILD_REPEATS: usize = 3;

/// Runs `build` `repeats` times into `target` (emptied before each) and
/// returns the build times in seconds; the last build stays on disk.
pub fn timed_builds(
    target: &Path,
    repeats: usize,
    mut build: impl FnMut(&Path) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let _ = std::fs::remove_dir_all(target);
        std::fs::create_dir_all(target)
            .map_err(|e| format!("creating {}: {e}", target.display()))?;
        let started = Instant::now();
        build(target)?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// Generates the seeded corpus and folds it into shard files (segment +
/// STR-bulk-loaded R-tree per shard, manifest last). Sidecars are off, as in
/// the repo's own large-corpus and load-test harnesses: at this scale they
/// double set-up and no default query path reads them.
pub fn build_sharded(spec: &Spec, seed: u64, dir: &Path) -> Result<(), String> {
    let mut sharder = CorpusSharder::create(dir, spec.shard_capacity())
        .map_err(|e| format!("creating sharder: {e}"))?
        .sidecars(false);
    for_each_corpus_sequence(spec, seed, |_, walk| {
        sharder
            .append(walk)
            .map(|_| ())
            .map_err(|e| format!("sharding the corpus: {e}"))
    })?;
    let manifest = sharder
        .finish()
        .map_err(|e| format!("committing the manifest: {e}"))?;
    if manifest.total_sequences() != spec.sequences as u64 {
        return Err(format!(
            "manifest names {} sequence(s), built {}",
            manifest.total_sequences(),
            spec.sequences
        ));
    }
    Ok(())
}

/// Opens the sharded corpus. With `spec.pool_pages == None` every pool is
/// sized to its whole segment and filled by one sequential scan.
pub fn open_sharded(spec: &Spec, dir: &Path) -> Result<Sharded, String> {
    let pool_pages = match spec.pool_pages {
        Some(pages) => pages,
        None => {
            let largest = (0..spec.shards)
                .filter_map(|i| std::fs::metadata(segment_path(dir, i)).ok())
                .map(|m| m.len())
                .max()
                .unwrap_or(0);
            usize::try_from(largest).unwrap_or(usize::MAX) / DEFAULT_PAGE_SIZE + 2
        }
    };
    let (sharded, reports) =
        ShardedSearch::open_dir(dir, pool_pages).map_err(|e| format!("opening the corpus: {e}"))?;
    if reports.iter().any(|r| !r.is_clean()) {
        return Err("freshly committed corpus needed recovery".to_string());
    }
    if sharded
        .shards()
        .iter()
        .any(|s| s.engine().is_index_offline())
    {
        return Err("a freshly written shard index failed to load".to_string());
    }
    if spec.pool_pages.is_none() {
        for shard in sharded.shards() {
            shard
                .store()
                .scan_visit(|_, _| {})
                .map_err(|e| format!("pre-warming a pool: {e}"))?;
            shard.store().take_io();
        }
    }
    sharded.reset_pool_stats();
    Ok(sharded)
}

pub const INGEST_DB: &str = "ingest.tws";
pub const INGEST_WAL: &str = "ingest.twl";
pub const INGEST_INDEX: &str = "ingest.twr";

/// Writes the ingest workload's base: a flat store holding the seeded
/// corpus and its bulk-loaded index file, as `twsearch generate` + `index`
/// would leave them. `ConcurrentIngest::open_file` picks both up.
pub fn build_ingest_base(spec: &Spec, seed: u64, dir: &Path) -> Result<(), String> {
    let mut store = create_sequence_file(dir.join(INGEST_DB), DEFAULT_PAGE_SIZE, 256)
        .map_err(|e| format!("creating the base store: {e}"))?;
    for_each_corpus_sequence(spec, seed, |_, walk| {
        store
            .append(walk)
            .map(|_| ())
            .map_err(|e| format!("filling the base store: {e}"))
    })?;
    store
        .flush()
        .map_err(|e| format!("flushing the base store: {e}"))?;
    TwSimSearch::build(&store)
        .and_then(|index| index.save_file(dir.join(INGEST_INDEX)))
        .map_err(|e| format!("building the base index: {e}"))
}
