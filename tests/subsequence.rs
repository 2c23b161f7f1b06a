//! Integration tests of the §6 subsequence-matching extension: the windowed
//! feature index finds every qualifying window the exhaustive enumeration
//! finds, across workloads, and the ST-Filter subsequence path agrees.

use proptest::prelude::*;

use tw_core::distance::{dtw, DtwKind};
use tw_core::search::{EngineOpts, StFilterSearch, SubsequenceIndex, WindowSpec};
use tw_storage::{MemPager, SequenceStore};
use tw_suffix::{CategoryMethod, StFilter};
use tw_workload::{generate_random_walks, RandomWalkConfig};

fn max_abs() -> EngineOpts {
    EngineOpts::new().kind(DtwKind::MaxAbs)
}

fn store_with(data: &[Vec<f64>]) -> SequenceStore<MemPager> {
    let mut store = SequenceStore::in_memory();
    for s in data {
        store.append(s).expect("append");
    }
    store
}

/// Exhaustive window search over the same window universe the index covers.
fn brute_force_windows(
    data: &[Vec<f64>],
    spec: &WindowSpec,
    query: &[f64],
    epsilon: f64,
) -> Vec<(u64, usize, usize)> {
    let mut out = Vec::new();
    for (id, s) in data.iter().enumerate() {
        for &len in &spec.lengths() {
            if len > s.len() {
                continue;
            }
            let mut offset = 0;
            while offset + len <= s.len() {
                if dtw(&s[offset..offset + len], query, DtwKind::MaxAbs).distance <= epsilon {
                    out.push((id as u64, offset, len));
                }
                offset += spec.offset_stride;
            }
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn window_index_matches_brute_force_on_random_walks() {
    let data = generate_random_walks(&RandomWalkConfig::paper(15, 60), 7);
    let store = store_with(&data);
    let spec = WindowSpec::new(8, 32, 2, 2).expect("spec");
    let index = SubsequenceIndex::build(&store, spec).expect("build");
    // Queries: windows cut from the data, slightly shifted.
    for (qi, base) in data.iter().take(4).enumerate() {
        let query: Vec<f64> = base[10..26].iter().map(|v| v + 0.01).collect();
        for eps in [0.02, 0.05, 0.2] {
            let found = index
                .search_governed(&store, &query, eps, &max_abs())
                .expect("search")
                .matches;
            let mut got: Vec<(u64, usize, usize)> =
                found.iter().map(|m| (m.id, m.offset, m.len)).collect();
            got.sort_unstable();
            let expect = brute_force_windows(&data, &spec, &query, eps);
            assert_eq!(got, expect, "query {qi} eps {eps}");
        }
    }
}

#[test]
fn st_filter_subsequence_candidates_cover_truth() {
    // The suffix-tree subsequence filter must produce a candidate window for
    // every true sub-match (its original use case from Park et al.).
    let data = generate_random_walks(&RandomWalkConfig::paper(10, 40), 9);
    let filter = StFilter::build(&data, 40, CategoryMethod::EqualWidth);
    for base in data.iter().take(3) {
        let query = base[5..17].to_vec();
        let eps = 0.05;
        let res = filter.subsequence_candidates(&query, eps);
        for (id, s) in data.iter().enumerate() {
            for start in 0..s.len() {
                for end in (start + 1)..=s.len() {
                    if dtw(&s[start..end], &query, DtwKind::MaxAbs).distance <= eps {
                        assert!(
                            res.windows.iter().any(|&(sid, off, len)| sid == id
                                && off == start
                                && len <= end - start),
                            "window ({id},{start},{end}) dismissed"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn st_filter_and_window_index_agree_on_shared_universe() {
    // Both engines answer "which windows warp onto Q within eps"; on the
    // window universe the R-tree index covers (all offsets, dense lengths),
    // every window the index finds must also be found by the suffix-tree
    // engine, and both verify with the same exact distance.
    let data = generate_random_walks(&RandomWalkConfig::paper(8, 30), 13);
    let store = store_with(&data);
    let spec = WindowSpec::new(4, 10, 1, 1).expect("spec");
    let index = SubsequenceIndex::build(&store, spec).expect("build window index");
    let st =
        StFilterSearch::build_with_categories(&store, 40, tw_suffix::CategoryMethod::EqualWidth)
            .expect("build st-filter");

    for base in data.iter().take(3) {
        let query = base[8..15].to_vec();
        for eps in [0.03, 0.08] {
            let via_index = index
                .search_governed(&store, &query, eps, &max_abs())
                .expect("window index search")
                .matches;
            let via_st = st
                .subsequence_search_governed(&store, &query, eps, &max_abs())
                .expect("st subsequence search")
                .matches;
            for m in &via_index {
                assert!(
                    via_st
                        .iter()
                        .any(|n| n.id == m.id && n.offset == m.offset && n.len == m.len),
                    "window ({}, {}, {}) found by index but not by st-filter",
                    m.id,
                    m.offset,
                    m.len
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// No false dismissal of the window index on arbitrary data.
    #[test]
    fn window_index_no_false_dismissal(
        data in prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, 6..30), 1..8),
        eps in 0.0f64..3.0,
    ) {
        let store = store_with(&data);
        let spec = WindowSpec::new(3, 9, 1, 1).expect("spec");
        let index = SubsequenceIndex::build(&store, spec).expect("build");
        let query: Vec<f64> = data[0].iter().take(5).copied().collect();
        let found = index
            .search_governed(&store, &query, eps, &max_abs())
            .expect("search")
            .matches;
        let mut got: Vec<(u64, usize, usize)> =
            found.iter().map(|m| (m.id, m.offset, m.len)).collect();
        got.sort_unstable();
        let expect = brute_force_windows(&data, &spec, &query, eps);
        prop_assert_eq!(got, expect);
    }
}
