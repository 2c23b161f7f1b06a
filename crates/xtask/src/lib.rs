//! # xtask — `tw-analyze`, the workspace's static-analysis pass
//!
//! A dependency-free (std-only, works `--offline`) analyzer that enforces
//! the project lints clippy cannot express, in two layers:
//!
//! * the **lexical** pass ([`rules`]) checks token windows per file —
//!   panic-freedom in library code, NaN-total float comparisons on the DTW
//!   paths, on-disk-format cast and endianness hygiene,
//!   `source()`-preserving error construction, clock discipline;
//! * the **symbolic** pass ([`model`] + [`symbolic`]) builds a brace-aware
//!   item model of every file and checks cross-statement, cross-file
//!   invariants — the global lock-acquisition graph (`lock-order`,
//!   `lock-blocking`), governor coverage of budget-charging loops
//!   (`cancel-coverage`), and the §10 accounting manifest (`stats-ledger`).
//!
//! See DESIGN.md "Static analysis & lint policy" for the rule catalog and
//! `// tw-allow(rule): reason` suppression etiquette.
//!
//! Run it as `cargo run -p xtask -- analyze`; CI (`scripts/check.sh`) runs
//! it between clippy and the tests and fails on any violation not covered
//! by the committed `analyze-baseline.toml` ratchet.

pub mod baseline;
pub mod json;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod sarif;
pub mod symbolic;
pub mod walk;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use baseline::{Baseline, Comparison};
use rules::{FileClass, Violation};

/// One in-memory source scheduled for analysis (fixture tests build these
/// directly; [`run`] reads them from disk).
#[derive(Debug, Clone)]
pub struct Source {
    /// Path label used in reports and as the baseline key.
    pub rel: String,
    pub text: String,
    pub class: FileClass,
}

/// Everything one analysis run produced.
#[derive(Debug)]
pub struct Report {
    pub root: PathBuf,
    /// All findings, including suppressed ones (reports distinguish them).
    pub violations: Vec<Violation>,
    /// Active (non-suppressed) counts per `(file, rule)` — the ratchet input.
    pub counts: BTreeMap<(String, String), u64>,
    pub files_analyzed: usize,
    /// Wall time per analyzer pass, in execution order.
    pub timings: Vec<(&'static str, Duration)>,
}

impl Report {
    pub fn active(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.suppressed.is_none())
    }

    pub fn suppressed_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.suppressed.is_some())
            .count()
    }

    /// Checks the run against a baseline file.
    pub fn compare(&self, baseline_path: &Path) -> io::Result<Comparison> {
        let base = Baseline::load(baseline_path)?;
        Ok(baseline::compare(&self.counts, &base))
    }

    /// The baseline that would make this run pass exactly.
    pub fn as_baseline(&self) -> Baseline {
        Baseline {
            entries: self.counts.clone(),
        }
    }
}

/// Analyzes every library-crate source file under `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    let files = walk::collect(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        sources.push(Source {
            rel: file.rel.clone(),
            text: std::fs::read_to_string(&file.abs)?,
            class: file.class,
        });
    }
    Ok(run_sources(root, &sources))
}

/// Runs both analyzer layers over a set of sources. This is the whole
/// pipeline behind `analyze`; fixture and mutation tests call it with
/// synthetic or edited sources to exercise the symbolic rules end to end.
pub fn run_sources(root: &Path, sources: &[Source]) -> Report {
    let mut timings = Vec::new();

    // Pass 1: lex once per file, run the lexical rules.
    let t = Instant::now();
    let lexed: Vec<lexer::Lexed> = sources.iter().map(|s| lexer::lex(&s.text)).collect();
    let mut raw: Vec<Vec<(u32, &'static str, String)>> = lexed
        .iter()
        .zip(sources)
        .map(|(lx, s)| rules::scan_lexical(lx, s.class))
        .collect();
    timings.push(("lex+lexical", t.elapsed()));

    // Pass 2: build the symbolic item model on the same token streams.
    let t = Instant::now();
    let models: Vec<model::FileModel> = lexed
        .iter()
        .zip(sources)
        .map(|(lx, s)| model::build(&s.rel, lx, s.class))
        .collect();
    timings.push(("model", t.elapsed()));

    // Pass 3: the cross-file rule families.
    let (findings, sym_timings) = symbolic::analyze(&models);
    timings.extend(sym_timings);
    let by_rel: BTreeMap<&str, usize> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| (s.rel.as_str(), i))
        .collect();
    for f in findings {
        if let Some(&i) = by_rel.get(f.file.as_str()) {
            raw[i].push((f.line, f.rule, f.message));
        }
    }

    // Suppression runs last so a tw-allow covers lexical and symbolic
    // findings alike.
    let mut violations = Vec::new();
    for (i, s) in sources.iter().enumerate() {
        violations.extend(rules::apply_allows(
            &s.rel,
            std::mem::take(&mut raw[i]),
            &lexed[i],
        ));
    }
    let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
    for v in violations.iter().filter(|v| v.suppressed.is_none()) {
        *counts
            .entry((v.file.clone(), v.rule.to_string()))
            .or_insert(0) += 1;
    }
    Report {
        root: root.to_path_buf(),
        violations,
        counts,
        files_analyzed: sources.len(),
        timings,
    }
}
