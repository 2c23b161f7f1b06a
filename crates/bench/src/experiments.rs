//! One function per paper figure / ablation (DESIGN.md's experiment index).
//!
//! Every function prints the same series the paper's figure plots (one row
//! per x-value per method) and writes a CSV into the results directory.
//! Paper-vs-measured notes live in EXPERIMENTS.md.

use std::path::PathBuf;
use std::time::Duration;

use tw_core::distance::DtwKind;
use tw_core::search::{
    false_dismissals, EngineOpts, FastMapSearch, NaiveScan, SearchEngine, SubsequenceIndex,
    VerifyMode, WindowSpec,
};
use tw_core::TwSimSearch;
use tw_rtree::{RTreeConfig, SplitAlgorithm};
use tw_storage::HardwareModel;
use tw_suffix::CategoryMethod;
use tw_workload::{
    generate_queries, generate_random_walks, generate_stocks, normalize_to_unit_range,
    RandomWalkConfig, StockConfig,
};

use crate::runner::{build_store, run_batch, Engines, Method, MethodBatch};
use crate::table::{fmt_pct, fmt_secs, Table};

/// The workspace's `results/` directory, resolved from this crate's
/// manifest so it lands in the same place no matter which directory a test
/// or binary runs from. Generated CSVs and logs belong here (and only the
/// README is tracked — see `.gitignore`).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Queries per data point. The paper uses 100; the default is smaller so
    /// the whole suite runs in minutes on one core (`--paper-queries`
    /// restores 100).
    pub queries: usize,
    /// Master seed for data and query generation.
    pub seed: u64,
    /// Run the paper's full parameter grid (hours of runtime) instead of the
    /// scaled-down default grid.
    pub full: bool,
    /// Where CSV outputs are written.
    pub results_dir: PathBuf,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            queries: 20,
            seed: 20010402, // ICDE 2001 started April 2; any constant works
            full: false,
            results_dir: results_dir(),
        }
    }
}

impl ExperimentConfig {
    fn save(&self, table: &Table, file: &str) {
        let path = self.results_dir.join(file);
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// The stock data set of Experiments 1–2: 545 series, average length 231,
/// normalized into the synthetic generator's [1, 10] value range so the
/// tolerance axis is comparable across figures (DESIGN.md §3).
pub fn stock_dataset(seed: u64) -> Vec<Vec<f64>> {
    let mut data = generate_stocks(&StockConfig::sp500(), seed);
    normalize_to_unit_range(&mut data, 1.0, 10.0);
    data
}

/// The tolerance sweep of Figures 2–3. Chosen so the selectivity spans the
/// paper's reported range (≈0.2% to ≈1.7% of the database in the final
/// result, i.e. roughly 1 to 10 matching sequences out of 545).
pub const STOCK_TOLERANCES: [f64; 5] = [0.05, 0.1, 0.2, 0.3, 0.4];

/// Experiment 1 / Figure 2: candidate ratio vs tolerance on stock data.
pub fn fig2(config: &ExperimentConfig) -> Table {
    let data = stock_dataset(config.seed);
    let store = build_store(&data);
    let engines = Engines::build(&store, &Method::ALL);
    let queries = generate_queries(&data, config.queries, config.seed + 1);

    let mut table = Table::new(
        "Figure 2: candidate ratio vs tolerance (stock data, whole matching)",
        &["epsilon", "method", "candidate_ratio", "mean_matches"],
    );
    for &eps in &STOCK_TOLERANCES {
        let outcome = run_batch(
            &store,
            &engines,
            &queries,
            eps,
            DtwKind::MaxAbs,
            &Method::ALL,
        );
        for batch in &outcome.per_method {
            table.push_row(vec![
                format!("{eps}"),
                batch.method.label().to_string(),
                fmt_pct(batch.mean_candidate_ratio()),
                format!("{:.2}", batch.mean_matches()),
            ]);
        }
    }
    config.save(&table, "fig2.csv");
    table
}

/// Experiment 2 / Figure 3: elapsed time vs tolerance on stock data.
pub fn fig3(config: &ExperimentConfig) -> Table {
    let data = stock_dataset(config.seed);
    let store = build_store(&data);
    let engines = Engines::build(&store, &Method::ALL);
    let queries = generate_queries(&data, config.queries, config.seed + 1);
    let hw = HardwareModel::icde2001();

    let mut table = Table::new(
        "Figure 3: elapsed time vs tolerance (stock data, modeled 2001 disk)",
        &[
            "epsilon",
            "method",
            "elapsed_s",
            "cpu_s",
            "speedup_vs_best_scan",
        ],
    );
    for &eps in &STOCK_TOLERANCES {
        let outcome = run_batch(
            &store,
            &engines,
            &queries,
            eps,
            DtwKind::MaxAbs,
            &Method::ALL,
        );
        let best_scan = outcome
            .per_method
            .iter()
            .filter(|b| b.method != Method::TwSimSearch)
            .map(|b| b.mean_modeled_elapsed(&hw))
            .min()
            .unwrap_or(Duration::ZERO);
        for batch in &outcome.per_method {
            let elapsed = batch.mean_modeled_elapsed(&hw);
            let speedup = if batch.method == Method::TwSimSearch && !elapsed.is_zero() {
                format!("{:.1}x", best_scan.as_secs_f64() / elapsed.as_secs_f64())
            } else {
                "-".to_string()
            };
            table.push_row(vec![
                format!("{eps}"),
                batch.method.label().to_string(),
                fmt_secs(elapsed),
                fmt_secs(batch.mean_cpu()),
                speedup,
            ]);
        }
    }
    config.save(&table, "fig3.csv");
    table
}

/// Experiment 3 / Figure 4: elapsed time vs number of sequences
/// (random-walk data, length 1000, ε = 0.1).
pub fn fig4(config: &ExperimentConfig) -> Table {
    let counts: Vec<usize> = if config.full {
        vec![1_000, 3_162, 10_000, 31_623, 100_000]
    } else {
        vec![1_000, 3_162, 10_000]
    };
    // The suffix tree holds ~2 nodes per element; cap ST-Filter where the
    // tree stays within memory and log the cap (no silent truncation).
    let st_max_elems = if config.full { 10_000_000 } else { 3_200_000 };
    sweep_scale(
        config,
        "Figure 4: elapsed time vs number of sequences (len=1000, eps=0.1)",
        "fig4.csv",
        counts.into_iter().map(|n| (n, 1_000)).collect(),
        st_max_elems,
        "num_sequences",
    )
}

/// Experiment 4 / Figure 5: elapsed time vs sequence length
/// (random-walk data, 10,000 sequences, ε = 0.1).
pub fn fig5(config: &ExperimentConfig) -> Table {
    let lens: Vec<usize> = if config.full {
        vec![100, 316, 1_000, 3_162, 5_000]
    } else {
        vec![100, 316, 1_000]
    };
    let n = if config.full { 10_000 } else { 3_000 };
    let st_max_elems = if config.full { 10_000_000 } else { 3_200_000 };
    sweep_scale(
        config,
        &format!("Figure 5: elapsed time vs sequence length (N={n}, eps=0.1)"),
        "fig5.csv",
        lens.into_iter().map(|len| (n, len)).collect(),
        st_max_elems,
        "sequence_length",
    )
}

/// Shared implementation of the two scale sweeps (Figures 4 and 5).
fn sweep_scale(
    config: &ExperimentConfig,
    title: &str,
    csv: &str,
    grid: Vec<(usize, usize)>,
    st_max_elems: usize,
    x_label: &str,
) -> Table {
    let hw = HardwareModel::icde2001();
    let epsilon = 0.1;
    let mut table = Table::new(
        title,
        &[
            x_label,
            "method",
            "elapsed_s",
            "cpu_s",
            "candidate_ratio",
            "speedup_vs_best_scan",
        ],
    );
    for (n, len) in grid {
        let data = generate_random_walks(&RandomWalkConfig::paper(n, len), config.seed + n as u64);
        let store = build_store(&data);
        // ST-Filter's suffix tree holds ~2 nodes per element; skip it beyond
        // the memory budget and say so.
        let st_feasible = n * len <= st_max_elems;
        let methods: Vec<Method> = if st_feasible {
            Method::ALL.to_vec()
        } else {
            eprintln!(
                "note: skipping st-filter at {n} x {len} (suffix tree would \
                 exceed the memory budget; see DESIGN.md)"
            );
            vec![Method::NaiveScan, Method::LbScan, Method::TwSimSearch]
        };
        let engines = Engines::build(&store, &methods);
        let queries = generate_queries(&data, config.queries.min(5), config.seed + 7);
        let x = if x_label == "num_sequences" { n } else { len };
        let outcome = run_batch(
            &store,
            &engines,
            &queries,
            epsilon,
            DtwKind::MaxAbs,
            &methods,
        );
        let best_scan = outcome
            .per_method
            .iter()
            .filter(|b| b.method != Method::TwSimSearch)
            .map(|b| b.mean_modeled_elapsed(&hw))
            .min()
            .unwrap_or(Duration::ZERO);
        for batch in &outcome.per_method {
            let elapsed = batch.mean_modeled_elapsed(&hw);
            let speedup = if batch.method == Method::TwSimSearch && !elapsed.is_zero() {
                format!("{:.1}x", best_scan.as_secs_f64() / elapsed.as_secs_f64())
            } else {
                "-".to_string()
            };
            table.push_row(vec![
                format!("{x}"),
                batch.method.label().to_string(),
                fmt_secs(elapsed),
                fmt_secs(batch.mean_cpu()),
                fmt_pct(batch.mean_candidate_ratio()),
                speedup,
            ]);
        }
    }
    config.save(&table, csv);
    table
}

/// §5.1 footnote ablation: L1 vs L∞ base distance across all four methods.
pub fn ablation_base_distance(config: &ExperimentConfig) -> Table {
    let data = stock_dataset(config.seed);
    let store = build_store(&data);
    let engines = Engines::build(&store, &Method::ALL);
    // Additive tolerances barely prune the suffix-tree traversal (its DP is
    // a max-aggregation bound), so ST-Filter approaches a full-tree walk per
    // query; a small batch keeps the ablation's runtime sane.
    let queries = generate_queries(&data, config.queries.min(5), config.seed + 1);
    let hw = HardwareModel::icde2001();

    let mut table = Table::new(
        "Ablation: base distance L-inf (Definition 2) vs L1 (Definition 1)",
        &[
            "kind",
            "epsilon",
            "method",
            "elapsed_s",
            "cpu_s",
            "dtw_cells",
        ],
    );
    // An L1 tolerance comparable in selectivity to the L∞ ones: the additive
    // distance scales with the warped length, so the grid is coarser.
    let cases = [
        (DtwKind::MaxAbs, vec![0.1, 0.3]),
        (DtwKind::SumAbs, vec![1.0, 3.0]),
    ];
    for (kind, epsilons) in cases {
        for eps in epsilons {
            let outcome = run_batch(&store, &engines, &queries, eps, kind, &Method::ALL);
            for batch in &outcome.per_method {
                table.push_row(vec![
                    kind.name().to_string(),
                    format!("{eps}"),
                    batch.method.label().to_string(),
                    fmt_secs(batch.mean_modeled_elapsed(&hw)),
                    fmt_secs(batch.mean_cpu()),
                    format!(
                        "{}",
                        batch.query_stats.dtw_cells / batch.queries.max(1) as u64
                    ),
                ]);
            }
        }
    }
    config.save(&table, "ablation_base.csv");
    table
}

/// §3.3 ablation: the FastMap method's false-dismissal rate (the reason the
/// paper excludes it from its charts).
pub fn ablation_fastmap(config: &ExperimentConfig) -> Table {
    let data = stock_dataset(config.seed);
    let store = build_store(&data);
    let queries = generate_queries(&data, config.queries, config.seed + 1);

    let mut table = Table::new(
        "Ablation: FastMap method recall (false dismissals) vs k and epsilon",
        &[
            "k",
            "epsilon",
            "recall",
            "false_dismissals",
            "true_matches",
            "candidate_ratio",
        ],
    );
    for k in 1..=4usize {
        let engine =
            FastMapSearch::build(&store, k, DtwKind::MaxAbs, config.seed).expect("fit FastMap");
        for &eps in &[0.1, 0.2, 0.5] {
            let mut dismissed = 0usize;
            let mut truth = 0usize;
            let mut candidates = 0usize;
            let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
            for q in &queries {
                let exact = NaiveScan
                    .range_search(&store, q, eps, &opts)
                    .expect("naive")
                    .into_result();
                let approx = engine
                    .range_search(&store, q, eps, &opts)
                    .expect("fastmap")
                    .into_result();
                dismissed += false_dismissals(&exact, &approx).len();
                truth += exact.matches.len();
                candidates += approx.stats.candidates;
            }
            let recall = if truth == 0 {
                1.0
            } else {
                1.0 - dismissed as f64 / truth as f64
            };
            table.push_row(vec![
                format!("{k}"),
                format!("{eps}"),
                format!("{recall:.3}"),
                format!("{dismissed}"),
                format!("{truth}"),
                fmt_pct(candidates as f64 / (data.len() * queries.len()) as f64),
            ]);
        }
    }
    config.save(&table, "ablation_fastmap.csv");
    table
}

/// R-tree ablation: split strategy and page size vs node accesses and tree
/// quality. Trees are built **incrementally** (bulk loading produces the
/// same STR packing regardless of split strategy, so it would hide the
/// effect being ablated); a bulk-loaded row is included as the packing
/// reference.
pub fn ablation_rtree(config: &ExperimentConfig) -> Table {
    let data = generate_random_walks(&RandomWalkConfig::paper(10_000, 100), config.seed);
    let store = build_store(&data);
    let queries = generate_queries(&data, config.queries, config.seed + 1);

    let mut table = Table::new(
        "Ablation: R-tree split strategy and page size (N=10k random walks, incremental build)",
        &[
            "build",
            "page_size",
            "nodes",
            "height",
            "leaf_util",
            "sibling_overlap",
            "mean_node_accesses",
            "cpu_ms_per_query",
        ],
    );
    let mut measure = |label: String, page_size: usize, engine: &TwSimSearch| {
        let quality = engine.tree().quality();
        let mut accesses = 0u64;
        let mut cpu = Duration::ZERO;
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        for q in &queries {
            let r = engine.range_search(&store, q, 0.1, &opts).expect("query");
            accesses += r.stats.index_node_accesses;
            cpu += r.stats.cpu_time;
        }
        table.push_row(vec![
            label,
            format!("{page_size}"),
            format!("{}", engine.tree().node_count()),
            format!("{}", engine.tree().height()),
            format!("{:.2}", quality.leaf_utilization),
            format!("{:.3}", quality.sibling_overlap),
            format!("{:.1}", accesses as f64 / queries.len() as f64),
            format!("{:.2}", cpu.as_secs_f64() * 1000.0 / queries.len() as f64),
        ]);
    };
    let rows = store.scan().expect("scan");
    for split in [
        SplitAlgorithm::Linear,
        SplitAlgorithm::Quadratic,
        SplitAlgorithm::RStar,
    ] {
        for page_size in [512usize, 1024, 4096] {
            let rtree_config = RTreeConfig::for_page_size::<4>(page_size, split);
            let mut engine = TwSimSearch::empty(rtree_config);
            for (id, values) in &rows {
                engine.insert(values, *id).expect("insert");
            }
            measure(format!("{split:?}"), page_size, &engine);
        }
    }
    // Reference: STR bulk loading at the paper's page size.
    let bulk = TwSimSearch::build_with_config(
        &store,
        RTreeConfig::for_page_size::<4>(1024, SplitAlgorithm::Quadratic),
    )
    .expect("bulk build");
    measure("BulkSTR".into(), 1024, &bulk);
    config.save(&table, "ablation_rtree.csv");
    table
}

/// §3.4 ablation: ST-Filter's category-count trade-off.
pub fn ablation_categories(config: &ExperimentConfig) -> Table {
    let data = stock_dataset(config.seed);
    let store = build_store(&data);
    let queries = generate_queries(&data, config.queries.min(10), config.seed + 1);
    let hw = HardwareModel::icde2001();

    let mut table = Table::new(
        "Ablation: ST-Filter category count (stock data, eps=0.2)",
        &["categories", "tree_nodes", "candidate_ratio", "elapsed_s"],
    );
    for categories in [10usize, 50, 100, 200] {
        let engine = tw_core::search::StFilterSearch::build_with_categories(
            &store,
            categories,
            CategoryMethod::EqualWidth,
        )
        .expect("build ST-Filter");
        let mut batch = MethodBatch::new(Method::StFilter);
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        for q in &queries {
            batch.add(&engine.range_search(&store, q, 0.2, &opts).expect("query"));
        }
        table.push_row(vec![
            format!("{categories}"),
            format!("{}", engine.tree_nodes()),
            fmt_pct(batch.mean_candidate_ratio()),
            fmt_secs(batch.mean_modeled_elapsed(&hw)),
        ]);
    }
    config.save(&table, "ablation_categories.csv");
    table
}

/// Banded-verification ablation: exact vs Sakoe–Chiba-banded candidate
/// verification (DP cells saved vs matches dropped relative to the
/// unconstrained answer).
pub fn ablation_band(config: &ExperimentConfig) -> Table {
    let data = stock_dataset(config.seed);
    let store = build_store(&data);
    let engine = TwSimSearch::build(&store).expect("build index");
    let queries = generate_queries(&data, config.queries, config.seed + 1);
    let epsilon = 0.2;

    let mut table = Table::new(
        "Ablation: banded candidate verification (stock data, eps=0.2)",
        &[
            "band",
            "matches",
            "dropped_vs_exact",
            "dtw_cells",
            "cells_saved",
        ],
    );
    // Exact baseline.
    let mut exact_matches = 0usize;
    let mut exact_cells = 0u64;
    for q in &queries {
        let r = engine
            .range_search(&store, q, epsilon, &EngineOpts::new().kind(DtwKind::MaxAbs))
            .expect("exact query");
        exact_matches += r.matches.len();
        exact_cells += r.stats.dtw_cells;
    }
    table.push_row(vec![
        "exact".into(),
        format!("{exact_matches}"),
        "0".into(),
        format!("{exact_cells}"),
        "-".into(),
    ]);
    for w in [5usize, 20, 80] {
        let mut matches = 0usize;
        let mut cells = 0u64;
        let opts = EngineOpts::new()
            .kind(DtwKind::MaxAbs)
            .verify(VerifyMode::Banded(w));
        for q in &queries {
            let r = engine
                .range_search(&store, q, epsilon, &opts)
                .expect("banded query");
            matches += r.matches.len();
            cells += r.stats.dtw_cells;
        }
        table.push_row(vec![
            format!("w={w}"),
            format!("{matches}"),
            format!("{}", exact_matches - matches),
            format!("{cells}"),
            fmt_pct(1.0 - cells as f64 / exact_cells.max(1) as f64),
        ]);
    }
    config.save(&table, "ablation_band.csv");
    table
}

/// §6 extension: subsequence matching through the windowed feature index.
pub fn subsequence_demo(config: &ExperimentConfig) -> Table {
    let data = generate_random_walks(&RandomWalkConfig::paper(200, 256), config.seed);
    let store = build_store(&data);
    let spec = WindowSpec::new(16, 64, 2, 4).expect("window spec");
    let index = SubsequenceIndex::build(&store, spec).expect("build window index");

    let mut table = Table::new(
        "Subsequence matching (windowed features, random-walk data)",
        &[
            "epsilon",
            "windows_indexed",
            "candidates",
            "matches",
            "cpu_ms",
        ],
    );
    // Queries: perturbed windows cut from the data itself.
    let raw_queries: Vec<Vec<f64>> = data
        .iter()
        .take(config.queries.min(10))
        .map(|s| s[40..72].to_vec())
        .collect();
    for &eps in &[0.05, 0.1, 0.2] {
        let mut candidates = 0usize;
        let mut matches = 0usize;
        let mut cpu = Duration::ZERO;
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        for q in &raw_queries {
            let out = index
                .search_governed(&store, q, eps, &opts)
                .expect("window query");
            candidates += out.stats.candidates;
            matches += out.matches.len();
            cpu += out.stats.cpu_time;
        }
        table.push_row(vec![
            format!("{eps}"),
            format!("{}", index.window_count()),
            format!("{candidates}"),
            format!("{matches}"),
            format!(
                "{:.2}",
                cpu.as_secs_f64() * 1000.0 / raw_queries.len() as f64
            ),
        ]);
    }
    config.save(&table, "subsequence.csv");
    table
}
