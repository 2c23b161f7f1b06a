//! One smoke-scale run per workload, measured and traced: the same code
//! path as the full benchmark at 1/50 size, asserting that no operation
//! failed and every answer checked out.

use tw_benchmark::exec::engine_threads;
use tw_benchmark::run::{self, RunConfig, END_TO_END};
use tw_benchmark::trace::{self, PER_LAYER};
use tw_benchmark::workload;

fn smoke_config(name: &str) -> RunConfig {
    RunConfig {
        spec: workload::find(name).expect("a named workload").smoke(),
        seed: workload::DEFAULT_SEED,
        seconds: 0.1,
        smoke: true,
        threads: engine_threads(),
    }
}

fn measured(name: &str) {
    let outcome = run::run(&smoke_config(name)).expect("the run completes");
    assert_eq!(
        outcome.failures.count, 0,
        "{name}: {:?}",
        outcome.failures.first
    );
    assert!(outcome.attempted > 0);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, declared, "{name}: end-to-end metric set");
    for m in &outcome.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{name}: {} = {}",
            m.name,
            m.value
        );
    }
    // Same seed, same answers.
    let again = run::run(&smoke_config(name)).expect("the run completes");
    assert_eq!(outcome.exact, again.exact, "{name}: exact values repeat");
}

fn traced(name: &str) {
    let outcome = trace::run(&smoke_config(name), None).expect("the traced run completes");
    assert_eq!(
        outcome.failures.count, 0,
        "{name}: {:?}",
        outcome.failures.first
    );
    assert_eq!(outcome.metrics.len(), PER_LAYER.len());
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
    }
}

#[test]
fn selective_warm() {
    measured("selective-warm");
    traced("selective-warm");
}

#[test]
fn verify_heavy() {
    measured("verify-heavy");
    traced("verify-heavy");
}

#[test]
fn paged_cold() {
    measured("paged-cold");
    traced("paged-cold");
}

#[test]
fn serve_selective() {
    measured("serve-selective");
    traced("serve-selective");
}

#[test]
fn ingest_query() {
    measured("ingest-query");
    traced("ingest-query");
}
