//! Stock screening: "find stocks whose recent price pattern resembles this
//! one, even if the moves play out on different time scales" — the paper's
//! motivating application (S&P 500 data, §5.1).
//!
//! Builds a 545-series stock database, picks a reference stock, and uses
//! both the tolerance search and the kNN extension to shortlist lookalikes.
//!
//! Run with: `cargo run --release -p tw-examples --example stock_screening`

use tw_core::distance::DtwKind;
use tw_core::search::{EngineOpts, SearchEngine, TwSimSearch};
use tw_storage::{HardwareModel, SequenceStore};
use tw_workload::{generate_stocks, normalize_to_unit_range, StockConfig};

fn main() {
    // The paper's data-set shape: 545 series, average length 231 trading
    // days (a synthetic stand-in for the no-longer-available S&P feed).
    let mut data = generate_stocks(&StockConfig::sp500(), 42);
    normalize_to_unit_range(&mut data, 1.0, 10.0);

    let mut store = SequenceStore::in_memory();
    for s in &data {
        store.append(s).expect("append series");
    }
    let engine = TwSimSearch::build(&store).expect("build index");
    println!(
        "Screening universe: {} series, avg length {:.0}, stored on {} pages of 1 KB.",
        store.len(),
        data.iter().map(|s| s.len() as f64).sum::<f64>() / data.len() as f64,
        store.data_pages()
    );

    // Reference pattern: stock #17's full history, as a query.
    let reference_id = 17u64;
    let query = store.get(reference_id).expect("reference series");
    println!(
        "\nReference: series {reference_id} (len {}, range {:.2}..{:.2})",
        query.len(),
        query.iter().cloned().fold(f64::INFINITY, f64::min),
        query.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );

    // Tolerance screen: every series whose warped trajectory stays within
    // 0.15 normalized price units of the reference at every aligned point.
    let epsilon = 0.15;
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    let result = engine
        .range_search(&store, &query, epsilon, &opts)
        .expect("screen");
    println!(
        "\nWithin tolerance {epsilon}: {} series",
        result.matches.len()
    );
    for m in result.matches.iter().take(10) {
        let status = if m.id == reference_id {
            " (the reference itself)"
        } else {
            ""
        };
        println!("  series {:>3}  distance {:.4}{status}", m.id, m.distance);
    }

    // kNN screen: the 5 closest series regardless of tolerance.
    let knn = engine.knn_governed(&store, &query, 5, &opts).expect("knn");
    println!("\nTop-5 nearest series under time warping:");
    for n in &knn.matches {
        println!("  series {:>3}  distance {:.4}", n.id, n.distance);
    }

    let hw = HardwareModel::icde2001();
    println!(
        "\nCost: tolerance screen verified {}/{} series ({} index nodes, modeled {:?}); \
         kNN verified {} candidates.",
        result.stats.candidates,
        result.stats.db_size,
        result.stats.index_node_accesses,
        result.stats.modeled_elapsed(&hw),
        knn.stats.dtw_invocations,
    );
}
