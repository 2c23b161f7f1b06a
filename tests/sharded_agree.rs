//! Shard-equivalence: a sharded corpus must answer **byte-identically** to
//! the unsharded engine over the same data — same ids, same distances (to
//! the bit), same ordering — whatever the shard count, verification thread
//! count, or cascade arm. Sharding is a physical layout decision; it is
//! never allowed to become a semantic one.
//!
//! The property runs over seeded random-walk corpora at shard counts 1, 2,
//! 4 and 8 (including counts that don't divide the corpus evenly), verify
//! threads 1, 2 and 4, with the tiered cascade off and on, for both range
//! and kNN queries. For kNN the *work* must agree too (same candidates,
//! same DPs, same cells), and exact ties at the k-th distance are cut by
//! global id on every layout.

use proptest::prelude::*;
use tw_core::distance::{dtw, DtwKind};
use tw_core::govern::Termination;
use tw_core::search::{CorpusSharder, EngineOpts, SearchEngine, ShardedSearch, TwSimSearch};
use tw_core::CascadeSpec;
use tw_storage::{MemPager, SequenceStore};
use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const VERIFY_THREADS: [usize; 3] = [1, 2, 4];

fn store_with(data: &[Vec<f64>]) -> SequenceStore<MemPager> {
    let mut store = SequenceStore::in_memory();
    for s in data {
        store.append(s).expect("append");
    }
    store
}

/// Range + kNN agreement across every (shard count, threads, cascade) cell.
fn assert_sharded_agrees(data: &[Vec<f64>], queries: &[Vec<f64>], epsilons: &[f64], ks: &[usize]) {
    let store = store_with(data);
    let flat = TwSimSearch::build(&store).expect("build unsharded index");
    for shard_count in SHARD_COUNTS {
        let capacity = data.len().div_ceil(shard_count).max(1);
        let sharded =
            ShardedSearch::build_in_memory(data, capacity, None).expect("build sharded corpus");
        for threads in VERIFY_THREADS {
            for cascade in [false, true] {
                let mut opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(threads);
                if cascade {
                    opts = opts.cascade(CascadeSpec::standard());
                }
                let tag = format!(
                    "shards={shard_count} cap={capacity} threads={threads} cascade={cascade}"
                );
                for &eps in epsilons {
                    for (qi, q) in queries.iter().enumerate() {
                        let expect = flat
                            .range_search(&store, q, eps, &opts)
                            .expect("unsharded range");
                        let got = sharded
                            .range_search_sharded(q, eps, &opts)
                            .expect("sharded range");
                        assert_eq!(
                            got.merged.ids(),
                            expect.ids(),
                            "{tag} eps={eps} query={qi}: id drift"
                        );
                        for (g, e) in got.merged.matches.iter().zip(&expect.matches) {
                            assert_eq!(
                                g.distance.to_bits(),
                                e.distance.to_bits(),
                                "{tag} eps={eps} query={qi} id={}: distance drift",
                                g.id
                            );
                        }
                        assert_eq!(got.merged.termination, Termination::Complete, "{tag}");
                        assert!(
                            got.merged.query_stats.accounting_balanced(),
                            "{tag}: {:?}",
                            got.merged.query_stats
                        );
                    }
                }
                for &k in ks {
                    for (qi, q) in queries.iter().enumerate() {
                        let expect = flat
                            .knn_governed(&store, q, k, &opts)
                            .expect("unsharded knn");
                        let got = sharded.knn_sharded(q, k, &opts).expect("sharded knn");
                        assert_eq!(
                            got.merged.matches.len(),
                            expect.matches.len(),
                            "{tag} k={k} query={qi}: neighbour count drift"
                        );
                        for (g, e) in got.merged.matches.iter().zip(&expect.matches) {
                            assert_eq!(g.id, e.id, "{tag} k={k} query={qi}: id drift");
                            assert_eq!(
                                g.distance.to_bits(),
                                e.distance.to_bits(),
                                "{tag} k={k} query={qi} id={}: distance drift",
                                g.id
                            );
                        }
                        // kNN work is a pure function of the data: the same
                        // sequences get a DP against the same thresholds
                        // whatever the shard layout or thread count.
                        let work = |qs: &tw_core::QueryStats| {
                            (qs.candidates, qs.verified, qs.abandoned, qs.dtw_cells)
                        };
                        assert_eq!(
                            work(&got.merged.query_stats),
                            work(&expect.query_stats),
                            "{tag} k={k} query={qi}: work drift"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_answers_are_byte_identical_to_unsharded(
        seed in 0u64..1_000,
        n in 9usize..40,
        len in 8usize..24,
    ) {
        let data = generate_random_walks(&RandomWalkConfig::paper(n, len), seed);
        let queries = generate_queries(&data, 2, seed ^ 0xABCD);
        assert_sharded_agrees(&data, &queries, &[0.2, 1.0, 5.0], &[1, 3]);
    }
}

#[test]
fn sharded_agreement_holds_on_the_paper_workload() {
    // One deterministic, slightly larger cell on top of the property — the
    // paper's random-walk family with queries drawn from the corpus.
    let data = generate_random_walks(&RandomWalkConfig::paper(64, 32), 20010402);
    let queries = generate_queries(&data, 3, 42);
    assert_sharded_agrees(&data, &queries, &[0.1, 0.3, 2.0], &[1, 5, 10]);
}

#[test]
fn sharded_agreement_holds_past_the_work_gate() {
    // The cells above stay under the fan-out's work gate (2¹⁷ estimated
    // DP cells per worker), so they only reach the inline path. Here ε
    // proposes most of 512 × 32-point walks: ≥ 256 proposals × 32² cells
    // crosses the gate, and the chunked fan-out and split verification
    // run at threads 2 and 4.
    let data = generate_random_walks(&RandomWalkConfig::paper(512, 32), 20010402);
    let queries = generate_queries(&data, 2, 43);
    let eps = 4.0;
    let store = store_with(&data);
    let flat = TwSimSearch::build(&store).expect("build unsharded index");
    for q in &queries {
        let out = flat
            .range_search(&store, q, eps, &EngineOpts::new())
            .expect("unsharded range");
        assert!(
            out.query_stats.candidates >= 256,
            "only {} proposals: the gate is not crossed",
            out.query_stats.candidates
        );
    }
    assert_sharded_agrees(&data, &queries, &[eps], &[3]);
}

#[test]
fn duplicates_across_the_k_boundary_are_cut_by_id_everywhere() {
    // Twelve distinct walks, each stored four times at ids i, i+12, i+24,
    // i+36 — so the copies land in different shards and every k that is not
    // a multiple of four cuts through a group of exactly tied neighbours.
    let base = generate_random_walks(&RandomWalkConfig::paper(12, 20), 4242);
    let data: Vec<Vec<f64>> = (0..48).map(|i| base[i % 12].clone()).collect();
    let store = store_with(&data);
    let flat = TwSimSearch::build(&store).expect("build flat");
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    for q in &generate_queries(&base, 3, 4243) {
        let mut brute: Vec<(f64, u64)> = (0..)
            .zip(&data)
            .map(|(id, s)| (dtw(s, q, DtwKind::MaxAbs).distance, id))
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for k in [1usize, 2, 3, 5, 6, 9] {
            let expect = &brute[..k];
            assert_eq!(expect[k - 1].0, brute[k].0, "k={k} does not cut a tie");
            let pairs = |m: &[tw_core::KnnMatch]| -> Vec<(f64, u64)> {
                m.iter().map(|m| (m.distance, m.id)).collect()
            };
            let got = flat.knn_governed(&store, q, k, &opts).expect("flat knn");
            assert_eq!(pairs(&got.matches), expect, "flat k={k}");
            for shard_count in SHARD_COUNTS {
                let sharded =
                    ShardedSearch::build_in_memory(&data, 48 / shard_count, None).expect("build");
                let got = sharded.knn_sharded(q, k, &opts).expect("sharded knn");
                assert_eq!(
                    pairs(&got.merged.matches),
                    expect,
                    "shards={shard_count} k={k}"
                );
            }
        }
    }
}

#[test]
fn uneven_tail_shard_is_still_exact() {
    // 25 sequences at capacity 8 leaves a one-sequence tail shard; the
    // global ids must still line up exactly.
    let data = generate_random_walks(&RandomWalkConfig::paper(25, 16), 7);
    let sharded = ShardedSearch::build_in_memory(&data, 8, None).expect("build");
    assert_eq!(sharded.shard_count(), 4);
    let store = store_with(&data);
    let flat = TwSimSearch::build(&store).expect("build flat");
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    let queries = generate_queries(&data, 2, 8);
    for q in &queries {
        let expect = flat.range_search(&store, q, 4.0, &opts).expect("flat");
        let got = sharded
            .range_search_sharded(q, 4.0, &opts)
            .expect("sharded");
        assert_eq!(got.merged.ids(), expect.ids());
    }
}

#[test]
fn out_of_core_corpus_reads_past_its_pools_and_stays_exact() {
    // 400 sequences in 4 on-disk shards, reopened through 2-frame pools:
    // the shards' pages outnumber the resident frames, so one query pass
    // must miss the pools more often than there are frames, and the
    // answers must still be the in-memory corpus's to the bit.
    const POOL_PAGES: usize = 2;
    let data = generate_random_walks(&RandomWalkConfig::paper(400, 32), 20010402);
    let dir = std::env::temp_dir().join(format!("tw-out-of-core-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut sharder = CorpusSharder::create(&dir, 100)
        .expect("create sharder")
        .sidecars(false);
    for s in &data {
        sharder.append(s).expect("append");
    }
    sharder.finish().expect("commit manifest");
    let (sharded, reports) = ShardedSearch::open_dir(&dir, POOL_PAGES).expect("open corpus");
    assert!(reports.iter().all(|r| r.is_clean()));
    assert_eq!(sharded.shard_count(), 4);
    sharded.reset_pool_stats();

    let store = store_with(&data);
    let flat = TwSimSearch::build(&store).expect("build flat");
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(2);
    for q in &generate_queries(&data, 2, 20010403) {
        let expect = flat.range_search(&store, q, 0.5, &opts).expect("flat");
        assert!(!expect.matches.is_empty());
        let got = sharded
            .range_search_sharded(q, 0.5, &opts)
            .expect("sharded");
        assert_eq!(got.merged.ids(), expect.ids());
        for (g, e) in got.merged.matches.iter().zip(&expect.matches) {
            assert_eq!(g.distance.to_bits(), e.distance.to_bits(), "id {}", g.id);
        }
        assert!(got.merged.query_stats.accounting_balanced());
    }
    let resident = (sharded.shard_count() * POOL_PAGES) as u64;
    assert!(
        sharded.pool_misses() > resident,
        "{} pool miss(es) against {resident} resident frame(s): not out of core",
        sharded.pool_misses()
    );
    drop(sharded);
    std::fs::remove_dir_all(&dir).ok();
}
