//! Workspace tooling CLI — the tw-analyze static-analysis pass.
//!
//! ```text
//! cargo run -p xtask -- analyze                 # check against the ratchet
//! cargo run -p xtask -- analyze --fix-baseline  # rewrite analyze-baseline.toml
//! cargo run -p xtask -- analyze --list          # print every finding
//! cargo run -p xtask -- analyze --format=sarif  # SARIF 2.1.0 on stdout
//! cargo run -p xtask -- analyze --format=github # workflow-command annotations
//! cargo run -p xtask -- analyze --timings       # per-pass wall times
//! cargo run -p xtask -- rules                   # rule catalog
//! ```
//!
//! Exit codes: 0 clean (vs. baseline), 1 new violations or a stale
//! baseline, 2 usage/IO error. With `--format=sarif` the report goes to
//! stdout and the human summary to stderr, so redirection stays clean.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use xtask::rules::{family_of, RULES};
use xtask::{baseline, baseline::Baseline, walk};

const BASELINE_FILE: &str = "analyze-baseline.toml";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Sarif,
    Github,
}

struct Opts {
    command: String,
    fix_baseline: bool,
    list: bool,
    timings: bool,
    format: Format,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tw-analyze <analyze|rules> [--fix-baseline] [--list] [--timings] \
         [--format=text|sarif|github] [--root DIR] [--baseline FILE]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Opts, ExitCode> {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        command: String::new(),
        fix_baseline: false,
        list: false,
        timings: false,
        format: Format::Text,
        root: None,
        baseline: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fix-baseline" => opts.fix_baseline = true,
            "--list" => opts.list = true,
            "--timings" => opts.timings = true,
            "--root" => opts.root = Some(PathBuf::from(args.next().ok_or_else(usage)?)),
            "--baseline" => opts.baseline = Some(PathBuf::from(args.next().ok_or_else(usage)?)),
            "--format" => opts.format = parse_format(&args.next().ok_or_else(usage)?)?,
            other if other.starts_with("--format=") => {
                opts.format = parse_format(&other["--format=".len()..])?;
            }
            cmd if opts.command.is_empty() && !cmd.starts_with('-') => {
                opts.command = cmd.to_string();
            }
            _ => return Err(usage()),
        }
    }
    if opts.command.is_empty() {
        opts.command = "analyze".to_string();
    }
    Ok(opts)
}

fn parse_format(name: &str) -> Result<Format, ExitCode> {
    match name {
        "text" => Ok(Format::Text),
        "sarif" => Ok(Format::Sarif),
        "github" => Ok(Format::Github),
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    match opts.command.as_str() {
        "rules" => {
            println!("{:<16} {:<17} description", "rule", "family");
            for (name, family, desc) in RULES {
                println!("{name:<16} {family:<17} {desc}");
            }
            ExitCode::SUCCESS
        }
        "analyze" => analyze(&opts),
        _ => usage(),
    }
}

fn analyze(opts: &Opts) -> ExitCode {
    let root = match walk::find_root(opts.root.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tw-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match xtask::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tw-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join(BASELINE_FILE));

    if opts.fix_baseline {
        if let Err(e) = report.as_baseline().save(&baseline_path) {
            eprintln!("tw-analyze: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} entries, {} active violations across {} files)",
            baseline_path.display(),
            report.counts.len(),
            report.active().count(),
            report.files_analyzed,
        );
        return ExitCode::SUCCESS;
    }

    let base = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("tw-analyze: reading {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };

    // A baseline naming files or rules that no longer exist misstates the
    // debt; fail until it is pruned.
    let stale = base.stale_entries(&root);
    if !stale.is_empty() {
        eprintln!(
            "tw-analyze: stale baseline entries in {}:",
            baseline_path.display()
        );
        for (file, rule, why) in &stale {
            eprintln!("  {file} [{rule}]: {why}");
        }
        eprintln!("run with --fix-baseline to prune them.");
        return ExitCode::FAILURE;
    }

    let cmp = baseline::compare(&report.counts, &base);

    if opts.format == Format::Sarif {
        let sarif = xtask::sarif::to_sarif(&report, Some(&cmp));
        match sarif.to_pretty() {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("tw-analyze: sarif: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if opts.format == Format::Github {
        emit_github_annotations(&report, &cmp);
    }

    if opts.list && opts.format == Format::Text {
        for v in &report.violations {
            match &v.suppressed {
                Some(reason) => println!(
                    "{}:{}: [{}] suppressed: {} (tw-allow: {reason})",
                    v.file, v.line, v.rule, v.message
                ),
                None => println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message),
            }
        }
    }

    // Per-family summary of active violations (stderr under the machine
    // formats so stdout stays parseable).
    let mut by_family: BTreeMap<&str, u64> = BTreeMap::new();
    for v in report.active() {
        *by_family.entry(family_of(v.rule)).or_insert(0) += 1;
    }
    let human = |line: String| {
        if opts.format == Format::Text {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    };
    human(format!(
        "tw-analyze: {} files, {} active violations ({} suppressed by tw-allow)",
        report.files_analyzed,
        report.active().count(),
        report.suppressed_count(),
    ));
    for (family, n) in &by_family {
        human(format!("  {family:<17} {n}"));
    }
    if opts.timings || opts.format == Format::Text {
        for (pass, took) in &report.timings {
            human(format!("  pass {pass:<17} {:>8.2?}", took));
        }
    }

    if !cmp.improvements.is_empty() {
        human("ratchet can tighten (run with --fix-baseline to lock in):".into());
        for (file, rule, now, base) in &cmp.improvements {
            human(format!("  {file} [{rule}] {base} -> {now}"));
        }
    }

    if cmp.is_regression() {
        eprintln!("tw-analyze: NEW violations over the committed baseline:");
        for (file, rule, now, base) in &cmp.regressions {
            eprintln!("  {file} [{rule}] baseline {base}, now {now}:");
            for v in report
                .active()
                .filter(|v| v.file == *file && v.rule == *rule)
            {
                eprintln!("    {}:{}: {}", v.file, v.line, v.message);
            }
        }
        eprintln!(
            "fix the new violations, add `// tw-allow(rule): reason` with justification,\n\
             or (for intentional debt) rerun with --fix-baseline and commit the result."
        );
        return ExitCode::FAILURE;
    }
    let baselined: u64 = base.entries.values().sum();
    human(format!("clean vs. baseline ({baselined} grandfathered)"));
    ExitCode::SUCCESS
}

/// GitHub Actions workflow commands: one annotation per active finding,
/// `error` for ratchet regressions, `warning` for grandfathered debt.
fn emit_github_annotations(report: &xtask::Report, cmp: &baseline::Comparison) {
    use std::collections::BTreeSet;
    let regressed: BTreeSet<(&str, &str)> = cmp
        .regressions
        .iter()
        .map(|(file, rule, _, _)| (file.as_str(), rule.as_str()))
        .collect();
    for v in report.active() {
        let kind = if regressed.contains(&(v.file.as_str(), v.rule)) {
            "error"
        } else {
            "warning"
        };
        println!(
            "::{kind} file={},line={},title=tw-analyze {}::{}",
            v.file, v.line, v.rule, v.message
        );
    }
}
