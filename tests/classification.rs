//! Semantic end-to-end test: 1-NN classification under the time-warping
//! distance on the Cylinder–Bell–Funnel benchmark.
//!
//! DTW's claim to fame is that 1-NN-DTW classifies CBF nearly perfectly
//! because warping absorbs the event-onset variation that breaks Euclidean
//! matching. Running the classifier through the full store + index + kNN
//! stack checks that the whole system computes the right distances, not just
//! self-consistent ones.

use tw_core::distance::DtwKind;
use tw_core::search::{EngineOpts, TwSimSearch};
use tw_storage::{MemPager, SequenceStore};
use tw_workload::{cbf, cbf_dataset, CbfClass};

fn store_with(data: &[Vec<f64>]) -> SequenceStore<MemPager> {
    let mut store = SequenceStore::in_memory();
    for s in data {
        store.append(s).expect("append");
    }
    store
}

#[test]
fn one_nn_dtw_classifies_cbf() {
    // Training set: 90 labelled sequences, mixed lengths would be ideal but
    // CBF is defined per-length; vary noise instead.
    let train = cbf_dataset(90, 96, 0.35, 11);
    let data: Vec<Vec<f64>> = train.iter().map(|(_, s)| s.clone()).collect();
    let labels: Vec<CbfClass> = train.iter().map(|(c, _)| *c).collect();
    let store = store_with(&data);
    let engine = TwSimSearch::build(&store).expect("build index");

    // Test set: 45 fresh sequences from disjoint seeds.
    let classes = [CbfClass::Cylinder, CbfClass::Bell, CbfClass::Funnel];
    let mut correct = 0usize;
    let total = 45usize;
    for i in 0..total {
        let truth = classes[i % 3];
        let query = cbf(truth, 96, 0.35, 10_000 + i as u64);
        let neighbors = engine
            .knn_governed(&store, &query, 1, &EngineOpts::new().kind(DtwKind::MaxAbs))
            .expect("knn")
            .matches;
        let predicted = labels[neighbors[0].id as usize];
        if predicted == truth {
            correct += 1;
        }
    }
    let accuracy = correct as f64 / total as f64;
    assert!(
        accuracy >= 0.85,
        "1-NN DTW accuracy {accuracy:.2} below expectation ({correct}/{total})"
    );
}

#[test]
fn dtw_beats_euclidean_on_cbf_with_onset_shift() {
    // The motivating comparison: same-class sequences with shifted event
    // onsets are close under DTW but far under pointwise L-inf.
    let a = cbf(CbfClass::Bell, 128, 0.0, 1); // one onset
    let b = cbf(CbfClass::Bell, 128, 0.0, 2); // another onset
    let c = cbf(CbfClass::Funnel, 128, 0.0, 1); // same onset as a, other class

    let dtw_same = tw_core::dtw(&a, &b, DtwKind::MaxAbs).distance;
    let dtw_diff = tw_core::dtw(&a, &c, DtwKind::MaxAbs).distance;
    assert!(
        dtw_same < dtw_diff,
        "DTW: same-class {dtw_same} should beat cross-class {dtw_diff}"
    );

    // Pointwise comparison confuses the classes when onsets shift.
    let linf_same = tw_core::distance::linf(&a, &b);
    assert!(
        dtw_same < linf_same * 0.6,
        "warping should absorb most of the onset shift: dtw {dtw_same} vs linf {linf_same}"
    );
}

#[test]
fn knn_majority_vote_is_robust() {
    // 3-NN majority vote should not be worse than chance even with heavy
    // noise, and the neighbours themselves should be mostly same-class.
    let train = cbf_dataset(60, 80, 0.5, 77);
    let data: Vec<Vec<f64>> = train.iter().map(|(_, s)| s.clone()).collect();
    let labels: Vec<CbfClass> = train.iter().map(|(c, _)| *c).collect();
    let store = store_with(&data);
    let engine = TwSimSearch::build(&store).expect("build index");

    let mut same_class_neighbors = 0usize;
    let mut total_neighbors = 0usize;
    for i in 0..15 {
        let truth = [CbfClass::Cylinder, CbfClass::Bell, CbfClass::Funnel][i % 3];
        let query = cbf(truth, 80, 0.5, 5_000 + i as u64);
        let neighbors = engine
            .knn_governed(&store, &query, 3, &EngineOpts::new().kind(DtwKind::MaxAbs))
            .expect("knn")
            .matches;
        for n in &neighbors {
            total_neighbors += 1;
            if labels[n.id as usize] == truth {
                same_class_neighbors += 1;
            }
        }
    }
    let purity = same_class_neighbors as f64 / total_neighbors as f64;
    assert!(
        purity > 0.5,
        "neighbour purity {purity:.2} should beat the 1/3 class prior"
    );
}
