//! Printing a run: every metric by name with its unit, the run's
//! environment, the full result document, and the contract's last line.

use std::path::Path;
use std::process::Command;

use crate::exec::nproc;
use crate::json::Json;
use crate::run::{Outcome, RunConfig};

/// The commit of the checkout the command runs from, read from `.git`
/// directly (the benchmark reads nothing outside its checkout); `unknown`
/// where the checkout is not a repository.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|hash| hash.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

pub fn environment(cfg: &RunConfig, traced: bool) -> Json {
    Json::obj(vec![
        ("workload", Json::str(cfg.spec.name)),
        ("mode", Json::str(if traced { "trace" } else { "run" })),
        ("seed", Json::uint(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("engine_threads", Json::uint(cfg.threads as u64)),
        ("nproc", Json::uint(nproc() as u64)),
        ("commit", Json::str(commit())),
        ("rustc", Json::str(rustc_version())),
    ])
}

fn metrics_json(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// The whole result: what `--out` writes and `compare` reads.
pub fn document(environment: &Json, outcome: &Outcome) -> Json {
    Json::obj(vec![
        ("environment", environment.clone()),
        ("metrics", metrics_json(outcome)),
        (
            "exact",
            Json::Obj(
                outcome
                    .exact
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::uint(*v)))
                    .collect(),
            ),
        ),
        ("attempted", Json::uint(outcome.attempted)),
        ("failed", Json::uint(outcome.failures.count)),
        (
            "failed_share",
            Json::Num(outcome.failures.count as f64 / outcome.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(outcome.failures.first.iter().map(Json::str).collect()),
        ),
        ("info", Json::Obj(outcome.info.clone())),
    ])
}

/// Human-readable lines, then the contract's last line:
/// exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn print(environment: &Json, outcome: &Outcome) {
    println!("# {}", environment.compact());
    for (key, value) in &outcome.info {
        println!("# {key}: {}", value.compact());
    }
    for (key, value) in &outcome.exact {
        println!("{key:<36} {value:>16}  (exact)");
    }
    for m in &outcome.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in &outcome.failures.first {
        println!("FAILED: {failure}");
    }
    let failed = outcome.failures.count;
    println!(
        "failed_share                         {:>16.6}  ({failed} of {})",
        failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    let line = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::uint(outcome.attempted.max(1))),
        ("failed", Json::uint(failed)),
        ("metrics", metrics_json(outcome)),
    ]);
    println!("{}", line.compact());
}

/// Appends this run to the result file at `path` (`{"runs": [...]}`),
/// creating it when absent, so one file can hold a whole set of runs.
pub fn write_document(path: &Path, environment: &Json, outcome: &Outcome) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => crate::json::parse(&text)?
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("existing file has no \"runs\" array")?
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.push(document(environment, outcome));
    let file = Json::obj(vec![("runs", Json::Arr(runs))]);
    std::fs::write(path, file.pretty()).map_err(|e| e.to_string())
}
