//! `compare A.json B.json`: two result files side by side, judged against
//! the bounds `BENCHMARK.json` fixes.
//!
//! Per workload and end-to-end metric it prints both medians, the relative
//! difference and the bound, and flags a difference outside the bound in
//! either direction (labelled `worse` or `better`). Values a seed determines
//! — `answers_crc32`, the `QueryStats`-derived counts, `bytes_per_user_byte`
//! — must be identical, and no run may have failed operations. Per-layer
//! metrics from traced runs are printed for reading, never judged.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::stats::median;

/// End-to-end metrics that are a pure function of the seed and run length.
const EXACT_METRICS: [&str; 1] = ["bytes_per_user_byte"];

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_bounds(doc: &Json, path: &str) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or(format!("{path}: malformed end_to_end entry"))
}

/// One result file, grouped: `(workload, mode)` → that workload's runs.
struct ResultFile {
    groups: BTreeMap<(String, String), Vec<Json>>,
    /// Workloads in first-appearance order.
    order: Vec<String>,
}

fn group_runs(doc: &Json, path: &str) -> Result<ResultFile, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no \"runs\" array"))?;
    let mut file = ResultFile {
        groups: BTreeMap::new(),
        order: Vec::new(),
    };
    for run in runs {
        let env = run.get("environment");
        let field = |key: &str| {
            env.and_then(|e| e.get(key))
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{path}: a run lacks environment.{key}"))
        };
        let (workload, mode) = (field("workload")?, field("mode")?);
        if !file.order.contains(&workload) {
            file.order.push(workload.clone());
        }
        file.groups
            .entry((workload, mode))
            .or_default()
            .push(run.clone());
    }
    Ok(file)
}

fn metric_median(runs: &[Json], name: &str) -> Option<f64> {
    let mut values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect();
    (!values.is_empty()).then(|| median(&mut values))
}

fn metric_names(runs: &[Json]) -> Vec<String> {
    runs.first()
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
        .map(|pairs| pairs.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

/// The `exact` map of a group, or an error when its runs disagree among
/// themselves (same seed, same commit, so they must not).
fn exact_of(runs: &[Json], what: &str) -> Result<Vec<(String, f64)>, String> {
    let maps: Vec<Vec<(String, f64)>> = runs
        .iter()
        .map(|r| {
            r.get("exact")
                .and_then(Json::as_obj)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();
    match maps.split_first() {
        None => Ok(Vec::new()),
        Some((first, rest)) if rest.iter().all(|m| m == first) => Ok(first.clone()),
        Some(_) => Err(format!(
            "{what}: exact values differ between runs of one file"
        )),
    }
}

fn relative(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs().max(f64::MIN_POSITIVE)
    }
}

pub fn main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => match it.next() {
                Some(path) => bounds_path = path.clone(),
                None => {
                    eprintln!("--bounds needs a value");
                    return 2;
                }
            },
            path => files.push(path.to_string()),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        eprintln!(
            "compare takes exactly two result files\n{}",
            crate::cli::USAGE
        );
        return 2;
    };
    let judged = (|| {
        let bounds = parse_bounds(&read_json(&bounds_path)?, &bounds_path)?;
        let a = group_runs(&read_json(a_path)?, a_path)?;
        let b = group_runs(&read_json(b_path)?, b_path)?;
        compare(&bounds, (a_path, &a), (b_path, &b))
    })();
    match judged {
        Ok(problems) => {
            for problem in &problems {
                println!("DIFFERS: {problem}");
            }
            println!(
                "{} difference(s) outside the bounds of {bounds_path}",
                problems.len()
            );
            i32::from(!problems.is_empty())
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// Prints the comparison and returns one line per difference outside the
/// bounds (empty when the two files agree).
fn compare(
    bounds: &[Bound],
    (a_path, a): (&str, &ResultFile),
    (b_path, b): (&str, &ResultFile),
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();

    for workload in &a.order {
        let key = (workload.clone(), "run".to_string());
        if let (Some(runs_a), Some(runs_b)) = (a.groups.get(&key), b.groups.get(&key)) {
            println!(
                "== {workload}: end to end, median of {} run(s) vs {} ==",
                runs_a.len(),
                runs_b.len()
            );
            println!(
                "{:<24} {:>14} {:>14} {:>9} {:>7}",
                "metric", "A", "B", "diff", "bound"
            );
            for bound in bounds {
                let (Some(ma), Some(mb)) = (
                    metric_median(runs_a, &bound.name),
                    metric_median(runs_b, &bound.name),
                ) else {
                    problems.push(format!("{workload}: {} missing from a file", bound.name));
                    continue;
                };
                let diff = relative(ma, mb);
                let exact = EXACT_METRICS.contains(&bound.name.as_str());
                let limit = if exact { 0.0 } else { bound.bound };
                let verdict = if diff.abs() <= limit {
                    ""
                } else if (diff > 0.0) == bound.lower_is_better {
                    "  worse"
                } else {
                    "  better"
                };
                let label = if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", bound.bound * 100.0)
                };
                println!(
                    "{:<24} {ma:>14.6} {mb:>14.6} {:>+8.2}% {label:>6}{verdict}",
                    bound.name,
                    diff * 100.0,
                );
                if !verdict.is_empty() {
                    problems.push(format!(
                        "{workload}: {} {ma} -> {mb} ({:+.2}%,{verdict}; bound {label})",
                        bound.name,
                        diff * 100.0,
                    ));
                }
            }
            let exact_a = exact_of(runs_a, &format!("{a_path}: {workload}"))?;
            let exact_b = exact_of(runs_b, &format!("{b_path}: {workload}"))?;
            for (name, va) in &exact_a {
                match exact_b.iter().find(|(n, _)| n == name) {
                    Some((_, vb)) if vb == va => println!("{name:<24} {va:>14} {vb:>14}     exact"),
                    Some((_, vb)) => {
                        println!("{name:<24} {va:>14} {vb:>14}     exact  differs");
                        problems.push(format!("{workload}: exact {name} {va} != {vb}"));
                    }
                    None => problems.push(format!("{workload}: exact {name} missing from B")),
                }
            }
            for (path, runs) in [(a_path, runs_a), (b_path, runs_b)] {
                let failed: f64 = runs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum();
                if failed > 0.0 {
                    problems.push(format!(
                        "{workload}: {failed} failed operation(s) in {path}"
                    ));
                }
            }
        }

        let key = (workload.clone(), "trace".to_string());
        if let (Some(runs_a), Some(runs_b)) = (a.groups.get(&key), b.groups.get(&key)) {
            println!("== {workload}: per layer (not judged) ==");
            for name in metric_names(runs_a) {
                if let (Some(ma), Some(mb)) =
                    (metric_median(runs_a, &name), metric_median(runs_b, &name))
                {
                    println!(
                        "{name:<36} {ma:>16.6} {mb:>16.6} {:>+8.2}%",
                        relative(ma, mb) * 100.0
                    );
                }
            }
        }
    }
    for workload in &b.order {
        if !a.order.contains(workload) {
            problems.push(format!("{workload}: only in {b_path}"));
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Vec<Bound> {
        let doc = json::parse(
            r#"{"end_to_end": [
                {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "bytes_per_user_byte", "unit": "ratio", "better": "lower", "bound": 0.01}
            ]}"#,
        )
        .unwrap();
        parse_bounds(&doc, "test").unwrap()
    }

    fn file(runs: &[(f64, f64, f64, u64, u64)]) -> ResultFile {
        let runs = runs
            .iter()
            .map(|&(p50, qps, bytes, crc, failed)| {
                let m = |v: f64| Json::obj(vec![("value", Json::Num(v))]);
                Json::obj(vec![
                    (
                        "environment",
                        Json::obj(vec![
                            ("workload", Json::str("selective-warm")),
                            ("mode", Json::str("run")),
                        ]),
                    ),
                    (
                        "metrics",
                        Json::obj(vec![
                            ("query_p50_ms", m(p50)),
                            ("queries_per_s", m(qps)),
                            ("bytes_per_user_byte", m(bytes)),
                        ]),
                    ),
                    ("exact", Json::obj(vec![("answers_crc32", Json::uint(crc))])),
                    ("failed", Json::uint(failed)),
                ])
            })
            .collect();
        group_runs(&Json::obj(vec![("runs", Json::Arr(runs))]), "test").unwrap()
    }

    fn problems(a: &ResultFile, b: &ResultFile) -> Vec<String> {
        compare(&bounds(), ("A", a), ("B", b)).unwrap()
    }

    #[test]
    fn medians_within_the_bound_agree() {
        let a = file(&[
            (1.00, 100.0, 1.2, 7, 0),
            (1.04, 98.0, 1.2, 7, 0),
            (0.96, 102.0, 1.2, 7, 0),
        ]);
        let b = file(&[(1.08, 95.0, 1.2, 7, 0)]);
        assert_eq!(problems(&a, &b), Vec::<String>::new());
    }

    #[test]
    fn a_timing_outside_its_bound_is_flagged_in_either_direction() {
        let a = file(&[(1.0, 100.0, 1.2, 7, 0)]);
        let slower = file(&[(1.2, 100.0, 1.2, 7, 0)]);
        let found = problems(&a, &slower);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("query_p50_ms") && found[0].contains("worse"));
        let found = problems(&slower, &a);
        assert!(found[0].contains("better"));
        // Higher-is-better metrics flip the label.
        let fewer = file(&[(1.0, 80.0, 1.2, 7, 0)]);
        assert!(problems(&a, &fewer)[0].contains("worse"));
    }

    #[test]
    fn exact_values_and_failures_are_never_tolerated() {
        let a = file(&[(1.0, 100.0, 1.2, 7, 0)]);
        assert!(problems(&a, &file(&[(1.0, 100.0, 1.2, 8, 0)]))[0].contains("answers_crc32"));
        assert!(
            problems(&a, &file(&[(1.0, 100.0, 1.2001, 7, 0)]))[0].contains("bytes_per_user_byte")
        );
        assert!(problems(&a, &file(&[(1.0, 100.0, 1.2, 7, 3)]))[0].contains("failed"));
        // Runs of one file that disagree on an exact value are an error.
        let mixed = file(&[(1.0, 100.0, 1.2, 7, 0), (1.0, 100.0, 1.2, 9, 0)]);
        assert!(compare(&bounds(), ("A", &a), ("B", &mixed)).is_err());
    }
}
