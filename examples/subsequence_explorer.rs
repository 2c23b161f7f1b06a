//! Subsequence explorer: the §6 extension in action. Index sliding windows
//! of a long recording and find every place a short query motif occurs,
//! under time warping.
//!
//! Run with: `cargo run --release -p tw-examples --example subsequence_explorer`

use tw_core::distance::DtwKind;
use tw_core::search::{EngineOpts, SubsequenceIndex, SubsequenceOutcome, WindowSpec};
use tw_storage::SequenceStore;
use tw_workload::{cbf, CbfClass};

fn main() {
    // Three long recordings, each a concatenation of Cylinder-Bell-Funnel
    // events over a quiet baseline.
    let mut store = SequenceStore::in_memory();
    let classes = [CbfClass::Cylinder, CbfClass::Bell, CbfClass::Funnel];
    for rec in 0..3u64 {
        let mut recording = Vec::new();
        for event in 0..6 {
            let class = classes[(rec as usize + event) % 3];
            recording.extend(cbf(class, 128, 0.15, rec * 100 + event as u64));
        }
        store.append(&recording).expect("append recording");
    }
    println!(
        "Indexed {} recordings of {} samples each.",
        store.len(),
        store.sequence_len(0).unwrap()
    );

    // Window index: lengths 32..128 on a geometric ladder, stride 8.
    let spec = WindowSpec::new(32, 128, 2, 8).expect("window spec");
    let index = SubsequenceIndex::build(&store, spec).expect("build window index");
    println!(
        "Window index: {} windows over lengths {:?}.",
        index.window_count(),
        index.spec().lengths()
    );

    // The query motif: a clean bell event.
    let motif = cbf(CbfClass::Bell, 96, 0.0, 7);
    let epsilon = 1.2;
    let SubsequenceOutcome { matches, stats, .. } = index
        .search_governed(
            &store,
            &motif,
            epsilon,
            &EngineOpts::new().kind(DtwKind::MaxAbs),
        )
        .expect("motif query");

    // Collapse overlapping hits: keep the best-scoring window per
    // non-overlapping region of each recording.
    let mut best: Vec<&tw_core::SubsequenceMatch> = Vec::new();
    let mut sorted: Vec<&tw_core::SubsequenceMatch> = matches.iter().collect();
    sorted.sort_by(|a, b| a.distance.partial_cmp(&b.distance).expect("finite"));
    for m in sorted {
        let overlaps = best
            .iter()
            .any(|b| b.id == m.id && m.offset < b.offset + b.len && b.offset < m.offset + m.len);
        if !overlaps {
            best.push(m);
        }
    }
    best.sort_by_key(|m| (m.id, m.offset));

    println!(
        "\nBell-like regions within tolerance {epsilon} ({} raw window hits, \
         {} distinct regions):",
        matches.len(),
        best.len()
    );
    for m in &best {
        println!(
            "  recording {}  samples {:>4}..{:<4}  distance {:.3}",
            m.id,
            m.offset,
            m.offset + m.len,
            m.distance
        );
    }
    println!(
        "\nWork: {} candidate windows verified out of {} indexed; {} index \
         nodes touched.",
        stats.dtw_invocations,
        index.window_count(),
        stats.index_node_accesses
    );
}
