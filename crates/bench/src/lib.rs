//! # tw-bench — the experiment harness reproducing the paper's figures
//!
//! Shared machinery for the `experiments` binary:
//! data-set construction, per-method query batches, aggregated metrics, and
//! table/CSV output. Every figure of the paper maps to one function here
//! (see DESIGN.md's per-experiment index).

pub mod experiments;
pub mod runner;
pub mod table;

pub use experiments::{
    ablation_band, ablation_base_distance, ablation_categories, ablation_fastmap, ablation_rtree,
    fig2, fig3, fig4, fig5, results_dir, subsequence_demo, ExperimentConfig,
};
pub use runner::{build_store, run_batch, BatchOutcome, Method, MethodBatch};
pub use table::Table;
