//! Command line: `[run|trace] --workload NAME …` and `compare A B`.

use std::path::PathBuf;

use crate::exec::engine_threads;
use crate::run::RunConfig;
use crate::workload::{self, DEFAULT_SEED};
use crate::{compare, report, run, trace};

pub const USAGE: &str = "\
usage:
  tw-benchmark [run] --workload NAME [--seed N] [--seconds S] [--smoke] [--out FILE]
  tw-benchmark trace --workload NAME [--seed N] [--smoke] [--out FILE] [--spans FILE]
  tw-benchmark compare A.json B.json [--bounds BENCHMARK.json]

`--trace 1` is the same as the `trace` subcommand, `--trace 0` the same as `run`.
--out FILE appends the run to FILE ({\"runs\": [...]}), creating it when absent, so
one file can hold a whole set of runs for `compare`.";

/// Measured seconds per run when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 18.0;
const SMOKE_SECONDS: f64 = 0.25;

struct Args {
    traced: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        traced: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        smoke: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    let mut first = true;
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "run" if first => {}
            "trace" if first => parsed.traced = true,
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                parsed.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let seconds: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--spans" => parsed.spans = Some(PathBuf::from(value("--spans")?)),
            other => return Err(format!("unknown argument {other}")),
        }
        first = false;
    }
    Ok(parsed)
}

/// Runs the command line and returns the process exit code: 0 when every
/// operation succeeded and every answer checked out, 1 when any did not (or
/// `compare` found a difference), 2 for a usage error.
pub fn main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return if args.is_empty() { 2 } else { 0 };
        }
        _ => {}
    }
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a build with debug assertions; build with --release");
        return 2;
    }
    let parsed = match parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let Some(name) = parsed.workload else {
        eprintln!("--workload is required\n{USAGE}");
        return 2;
    };
    let Some(spec) = workload::find(&name) else {
        let names: Vec<&str> = workload::all().iter().map(|s| s.name).collect();
        eprintln!("unknown workload {name}; one of {}", names.join(", "));
        return 2;
    };
    let cfg = RunConfig {
        spec: if parsed.smoke { spec.smoke() } else { spec },
        seed: parsed.seed,
        seconds: parsed.seconds.unwrap_or(if parsed.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        smoke: parsed.smoke,
        threads: engine_threads(),
    };

    let result = if parsed.traced {
        trace::run(&cfg, parsed.spans.as_deref())
    } else {
        run::run(&cfg)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{name}: {e}");
            return 1;
        }
    };
    let environment = report::environment(&cfg, parsed.traced);
    if let Some(path) = &parsed.out {
        if let Err(e) = report::write_document(path, &environment, &outcome) {
            eprintln!("writing {}: {e}", path.display());
            return 1;
        }
    }
    report::print(&environment, &outcome);
    i32::from(outcome.failures.count > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_flags_and_the_subcommand_words_mean_the_same() {
        let driver = parse(&args(
            "--workload paged-cold --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert!(driver.traced);
        assert_eq!(driver.workload.as_deref(), Some("paged-cold"));
        assert_eq!(driver.seed, 7);
        assert_eq!(driver.seconds, Some(12.0));
        let word = parse(&args("trace --workload paged-cold")).unwrap();
        assert!(word.traced);
        assert_eq!(word.seed, DEFAULT_SEED);
        assert!(
            !parse(&args("run --workload paged-cold --trace 0"))
                .unwrap()
                .traced
        );
    }

    #[test]
    fn malformed_arguments_are_refused() {
        for bad in [
            "--workload",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--trace 2",
            "--workload a trace",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
