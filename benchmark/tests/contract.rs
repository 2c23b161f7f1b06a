//! `BENCHMARK.json` at the repository root must describe exactly what the
//! code measures: the workloads, every end-to-end metric with its unit and
//! bound, every per-layer metric with its unit.

use tw_benchmark::json::{self, Json};
use tw_benchmark::run::END_TO_END;
use tw_benchmark::trace::PER_LAYER;
use tw_benchmark::workload;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_default()
}

#[test]
fn workloads_match() {
    let doc = contract();
    let listed: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("a workloads list")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let specs = workload::all();
    let coded: Vec<(&str, &str)> = specs.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(listed, coded);
}

#[test]
fn end_to_end_metrics_match() {
    let doc = contract();
    let listed: Vec<(&str, &str, &str, f64)> = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("an end_to_end list")
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    assert_eq!(listed, END_TO_END.to_vec());
    let setup_bound = END_TO_END
        .iter()
        .find(|m| m.0 == "setup_s")
        .expect("setup_s")
        .3;
    // The contract: at most 0.25, and set-up time gets the largest bound.
    assert!(END_TO_END.iter().all(|m| m.3 <= setup_bound && m.3 <= 0.25));
}

#[test]
fn per_layer_metrics_match() {
    let doc = contract();
    let listed: Vec<(&str, &str, &str)> = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("a per_layer list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    assert_eq!(listed, PER_LAYER.to_vec());
}

#[test]
fn command_builds_this_package_from_inside_its_own_directory() {
    let doc = contract();
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .expect("a command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
}
