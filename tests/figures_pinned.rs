//! The figures' numbers pinned value for value at miniature scale.
//!
//! `figures_shape.rs` checks the paper's sentences (who beats whom); this
//! file checks that the numbers behind them do not move at all. Figure 2's
//! candidate ratio and Figure 3's modeled elapsed time are pinned per
//! method and tolerance on a two-query batch over the stock data, plus the
//! category ablation's ratio / elapsed columns and the subsequence demo's
//! candidate column as the experiments binary writes them. A change to how
//! the work ledger is counted or priced shows up here as a moved value.

use tw_bench::experiments::{
    ablation_categories, stock_dataset, subsequence_demo, ExperimentConfig,
};
use tw_bench::runner::{build_store, run_batch, Engines, Method};
use tw_core::distance::DtwKind;
use tw_storage::HardwareModel;
use tw_workload::generate_queries;

const SEED: u64 = 3;

/// A two-query configuration whose CSVs go to a private temporary
/// directory, removed when the guard drops.
struct TempConfig(ExperimentConfig);

impl TempConfig {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("tw-figures-pinned-{tag}-{}", std::process::id()));
        TempConfig(ExperimentConfig {
            queries: 2,
            seed: SEED,
            full: false,
            results_dir: dir,
        })
    }
}

impl Drop for TempConfig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0.results_dir);
    }
}

/// Figures 2 and 3 on one batch: per tolerance and method, the mean
/// candidate ratio (as `f64` bits) and the mean modeled elapsed time (ns).
#[test]
fn fig2_fig3_batch_is_pinned() {
    #[rustfmt::skip]
    const PINNED: &[(f64, &str, f64, u64)] = &[
        (0.1, "naive-scan", 0.0, 279426295),
        (0.1, "lb-scan", 0.0027522935779816515, 261322070),
        (0.1, "st-filter", 0.0, 71841656896),
        (0.1, "tw-sim-search", 0.0, 43848634),
        (0.3, "naive-scan", 0.0045871559633027525, 807861795),
        (0.3, "lb-scan", 0.02110091743119266, 306535370),
        (0.3, "st-filter", 0.005504587155963303, 243670371772),
        (0.3, "tw-sim-search", 0.005504587155963303, 123665415),
    ];

    let data = stock_dataset(SEED);
    let store = build_store(&data);
    let engines = Engines::build(&store, &Method::ALL);
    let queries = generate_queries(&data, 2, SEED + 1);
    let hw = HardwareModel::icde2001();
    let mut got = Vec::new();
    for eps in [0.1, 0.3] {
        let outcome = run_batch(
            &store,
            &engines,
            &queries,
            eps,
            DtwKind::MaxAbs,
            &Method::ALL,
        );
        for batch in &outcome.per_method {
            let elapsed = u64::try_from(batch.mean_modeled_elapsed(&hw).as_nanos())
                .expect("elapsed fits in u64 ns");
            got.push((
                eps,
                batch.method.label(),
                batch.mean_candidate_ratio(),
                elapsed,
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(eps, m, r, ns)| format!("        ({eps:?}, {m:?}, {r:?}, {ns}),\n"))
        .collect();
    assert!(
        got.len() == PINNED.len()
            && got.iter().zip(PINNED).all(|(g, p)| {
                g.0.to_bits() == p.0.to_bits()
                    && g.1 == p.1
                    && g.2.to_bits() == p.2.to_bits()
                    && g.3 == p.3
            }),
        "figure values moved; the current table is:\n{table}"
    );
}

/// The category ablation's `candidate_ratio` and `elapsed_s` columns.
#[test]
fn ablation_categories_is_pinned() {
    const RATIO: &[&str] = &["0.92%", "0.28%", "0.09%", "0.09%"];
    const ELAPSED: &[&str] = &["158.227", "179.494", "146.306", "128.949"];

    let config = TempConfig::new("categories");
    let table = ablation_categories(&config.0);
    assert_eq!(
        (table.column("candidate_ratio"), table.column("elapsed_s")),
        (RATIO.to_vec(), ELAPSED.to_vec())
    );
}

/// The subsequence demo's `candidates` column (windows proposed by the
/// window index, summed over the batch).
#[test]
fn subsequence_demo_candidates_are_pinned() {
    const CANDIDATES: &[&str] = &["8", "42", "240"];

    let config = TempConfig::new("subsequence");
    let table = subsequence_demo(&config.0);
    assert_eq!(table.column("candidates"), CANDIDATES);
}
