//! The five named workloads and the seeded inputs they run on.
//!
//! Every workload measures the same three operation classes — range query,
//! kNN query and WAL-backed append — because every end-to-end metric is
//! reported on every workload. The *shape* (corpus size, sequence length,
//! pool size, transport, op mix) decides which class dominates the run and
//! which layer carries the cost; see `README.md` for the reasoning.

use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

/// Default seed: the paper's publication date (ICDE, 2 April 2001).
pub const DEFAULT_SEED: u64 = 20010402;

/// Corpus sequences are generated this many at a time so the generator's
/// buffers never approach the size of the corpus they describe.
const BATCH: usize = 10_000;

/// Queries perturb corpus sequences; about this many evenly spaced ones are
/// kept as bases (all of them in a small corpus), so the pool never repeats
/// a few shapes.
const QUERY_BASES: usize = 4_096;

/// `--smoke` divides every size and op count by this.
pub const SMOKE_DIVISOR: usize = 50;

/// How read operations reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// `ShardedSearch` called in-process by one caller.
    InProcess,
    /// Through a `tw_net::Server` on loopback by one closed-loop client.
    Served,
    /// A file-backed `ConcurrentIngest`: one snapshot reader beside the
    /// writer, then kNN over the reopened flat store.
    Ingest,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub access: Access,
    /// Sequences built during set-up (the corpus, or the ingest's base store).
    pub sequences: usize,
    pub seq_len: usize,
    pub shards: usize,
    /// Buffer-pool pages per shard; `None` sizes each pool to hold its whole
    /// segment and pre-warms it.
    pub pool_pages: Option<usize>,
    pub epsilon: f64,
    pub knn_k: usize,
    /// Read ops repeat the pattern `range × this, kNN × 1`.
    pub range_per_knn: usize,
    /// Distinct queries; the op list cycles through them.
    pub query_pool: usize,
    /// Leading read ops whose answers and `QueryStats` counts are folded into
    /// the exact (seed-determined) part of the result. They always run, even
    /// past the time budget.
    pub counted_ops: usize,
    /// Appends in the write phase: this many per second of `--seconds` for
    /// the ingest workload (fixed for a given run length, so byte counts
    /// repeat exactly), a flat count for the others.
    pub appends: AppendCount,
    pub checkpoint_every: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum AppendCount {
    Flat(usize),
    PerSecond(usize),
}

impl Spec {
    pub fn appends_for(&self, seconds: f64) -> usize {
        match self.appends {
            AppendCount::Flat(n) => n,
            AppendCount::PerSecond(rate) => ((rate as f64 * seconds).round() as usize).max(1),
        }
    }

    /// The same workload at 1/50 scale: identical code path, CI-sized.
    pub fn smoke(mut self) -> Self {
        let shrink = |n: usize, floor: usize| (n / SMOKE_DIVISOR).max(floor);
        self.sequences = shrink(self.sequences, 200);
        self.query_pool = shrink(self.query_pool, 32);
        self.counted_ops = shrink(self.counted_ops, 8);
        self.checkpoint_every = shrink(self.checkpoint_every, 10);
        self.appends = match self.appends {
            AppendCount::Flat(n) => AppendCount::Flat(shrink(n, 30)),
            AppendCount::PerSecond(rate) => AppendCount::PerSecond(rate),
        };
        self
    }

    pub fn is_knn(&self, op: usize) -> bool {
        op % (self.range_per_knn + 1) == self.range_per_knn
    }

    pub fn shard_capacity(&self) -> usize {
        self.sequences.div_ceil(self.shards).max(1)
    }
}

const SELECTIVE_WHY: &str = "Range ops are per-query fixed cost (rtree walk, fan-out/merge, \
token arming) with ~2 candidates; kNN ops use the same index best-first, so a range gain that \
costs kNN shows.";

pub fn all() -> Vec<Spec> {
    let selective = Spec {
        name: "selective-warm",
        why: SELECTIVE_WHY,
        access: Access::InProcess,
        sequences: 100_000,
        seq_len: 64,
        shards: 7,
        pool_pages: None,
        epsilon: 0.04,
        knn_k: 10,
        range_per_knn: 3,
        query_pool: 16_384,
        counted_ops: 1_600,
        appends: AppendCount::Flat(15_000),
        checkpoint_every: 1_000,
    };
    vec![
        selective.clone(),
        Spec {
            name: "verify-heavy",
            why: "128-point sequences, ~200 candidates per range query and most of them full DPs: \
distance kernels are most of the time, index and pager are noise. Where a kernel change must show.",
            sequences: 6_000,
            seq_len: 128,
            shards: 4,
            epsilon: 0.5,
            range_per_knn: 1,
            query_pool: 4_096,
            counted_ops: 300,
            ..selective.clone()
        },
        Spec {
            name: "paged-cold",
            why: "The only corpus larger than the program's own cache (32 pool pages per shard \
against ~10k data pages): pool miss, retry, checksum and file read are about half the busy time.",
            sequences: 300_000,
            seq_len: 32,
            shards: 8,
            pool_pages: Some(32),
            epsilon: 0.2,
            range_per_knn: 1,
            query_pool: 2_048,
            counted_ops: 200,
            ..selective.clone()
        },
        Spec {
            name: "serve-selective",
            why: "selective-warm's corpus and op list through a tw_net server on loopback with \
one closed-loop client: codec, thread-per-connection and the admission gate are the difference.",
            access: Access::Served,
            ..selective
        },
        Spec {
            name: "ingest-query",
            why: "Writes beside reads: one writer appends through the WAL with checkpoints \
while one reader runs snapshot range queries, so a read gain that taxes writes shows.",
            access: Access::Ingest,
            sequences: 50_000,
            seq_len: 64,
            shards: 1,
            pool_pages: None,
            epsilon: 0.1,
            knn_k: 10,
            range_per_knn: 0,
            query_pool: 4_096,
            counted_ops: 200,
            appends: AppendCount::PerSecond(2_000),
            checkpoint_every: 1_000,
        },
    ]
}

pub fn find(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// Seed of corpus batch `batch` — every consumer (builder, oracle) derives
/// the same batches from the run seed alone.
fn batch_seed(seed: u64, stream: u64, batch: usize) -> u64 {
    seed ^ stream ^ (batch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

const CORPUS_STREAM: u64 = 0x434F_5250;
const APPEND_STREAM: u64 = 0x4150_5044;
const QUERY_STREAM: u64 = 0x5155_4552;

/// Visits `count` seeded random walks of `seq_len` points in id order,
/// one [`BATCH`] at a time.
fn for_each_walk(
    seed: u64,
    stream: u64,
    count: usize,
    seq_len: usize,
    mut visit: impl FnMut(usize, &[f64]) -> Result<(), String>,
) -> Result<(), String> {
    let mut done = 0;
    let mut batch = 0;
    while done < count {
        let n = BATCH.min(count - done);
        let walks = generate_random_walks(
            &RandomWalkConfig::paper(n, seq_len),
            batch_seed(seed, stream, batch),
        );
        for (i, walk) in walks.iter().enumerate() {
            visit(done + i, walk)?;
        }
        done += n;
        batch += 1;
    }
    Ok(())
}

/// The sequences built during set-up, in id order.
pub fn for_each_corpus_sequence(
    spec: &Spec,
    seed: u64,
    visit: impl FnMut(usize, &[f64]) -> Result<(), String>,
) -> Result<(), String> {
    for_each_walk(seed, CORPUS_STREAM, spec.sequences, spec.seq_len, visit)
}

/// The sequences the write phase appends, in append order.
pub fn append_sequences(spec: &Spec, seed: u64, count: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(count);
    for_each_walk(seed, APPEND_STREAM, count, spec.seq_len, |_, walk| {
        out.push(walk.to_vec());
        Ok(())
    })
    .expect("collecting never fails");
    out
}

/// The query pool: `tw_workload::generate_queries` perturbations of evenly
/// spaced corpus sequences, so matches fall in every shard.
pub fn queries(spec: &Spec, seed: u64) -> Vec<Vec<f64>> {
    let stride = (spec.sequences / QUERY_BASES).max(1);
    let mut bases = Vec::with_capacity(spec.sequences / stride + 1);
    for_each_corpus_sequence(spec, seed, |id, walk| {
        if id % stride == 0 {
            bases.push(walk.to_vec());
        }
        Ok(())
    })
    .expect("collecting never fails");
    generate_queries(&bases, spec.query_pool, seed ^ QUERY_STREAM)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        let specs = all();
        assert_eq!(specs.len(), 5);
        for spec in &specs {
            assert_eq!(find(spec.name).unwrap().name, spec.name);
            assert!(spec.why.len() <= 200, "{}: why too long", spec.name);
            assert!(!spec.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn op_pattern_interleaves_range_and_knn() {
        let spec = find("selective-warm").unwrap();
        let kinds: Vec<bool> = (0..8).map(|i| spec.is_knn(i)).collect();
        assert_eq!(
            kinds,
            [false, false, false, true, false, false, false, true]
        );
        // range_per_knn == 0 means every read op is a kNN.
        assert!(find("ingest-query").unwrap().is_knn(0));
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let spec = find("selective-warm").unwrap().smoke();
        assert_eq!(queries(&spec, 7), queries(&spec, 7));
        assert_ne!(queries(&spec, 7), queries(&spec, 8));
        assert_eq!(queries(&spec, 7).len(), spec.query_pool);
        let mut seen = 0;
        for_each_corpus_sequence(&spec, 7, |id, walk| {
            assert_eq!(id, seen);
            assert_eq!(walk.len(), spec.seq_len);
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, spec.sequences);
    }
}
