//! Runs the analyzer on this very workspace and pins the policy down:
//!
//! * the committed `analyze-baseline.toml` is *exact* — no regressions, and
//!   no stale entries a `--fix-baseline` run would remove;
//! * the grandfathered debt contains **zero** float-safety and **zero**
//!   format-stability entries (those families are fully burned down);
//! * the core library is panic-macro- and unwrap-free outside `tw-allow`d
//!   lines;
//! * a freshly introduced `.unwrap()` in `crates/core/src/` is reported as a
//!   regression against the committed baseline, which is exactly what makes
//!   `scripts/check.sh` fail.

use std::path::PathBuf;

use xtask::baseline::{self, Baseline};
use xtask::rules::{analyze_source, family_of, FileClass};
use xtask::{walk, Report};

const BASELINE_FILE: &str = "analyze-baseline.toml";

fn workspace() -> (Report, PathBuf) {
    let root = walk::find_root(None).expect("workspace root");
    let report = xtask::run(&root).expect("workspace analysis");
    (report, root)
}

#[test]
fn committed_baseline_is_exact() {
    let (report, root) = workspace();
    let path = root.join(BASELINE_FILE);
    assert!(path.is_file(), "missing committed {BASELINE_FILE}");
    let cmp = report.compare(&path).expect("readable baseline");
    assert!(
        cmp.regressions.is_empty(),
        "workspace has violations over the committed baseline: {:?}",
        cmp.regressions
    );
    assert!(
        cmp.improvements.is_empty(),
        "committed baseline is stale (debt shrank); rerun \
         `cargo run -p xtask -- analyze --fix-baseline`: {:?}",
        cmp.improvements
    );
}

#[test]
fn no_float_safety_or_format_stability_debt() {
    let (report, root) = workspace();
    let base = Baseline::load(&root.join(BASELINE_FILE)).expect("readable baseline");
    for family in ["float-safety", "format-stability"] {
        let baselined: Vec<_> = base
            .entries
            .keys()
            .filter(|(_, rule)| family_of(rule) == family)
            .collect();
        assert!(
            baselined.is_empty(),
            "{family} debt in baseline: {baselined:?}"
        );
        let active: Vec<_> = report
            .active()
            .filter(|v| family_of(v.rule) == family)
            .map(|v| format!("{}:{} [{}]", v.file, v.line, v.rule))
            .collect();
        assert!(active.is_empty(), "active {family} violations: {active:?}");
    }
}

#[test]
fn core_library_is_unwrap_and_panic_free() {
    let (report, _) = workspace();
    let offenders: Vec<_> = report
        .active()
        .filter(|v| matches!(v.rule, "unwrap" | "expect" | "panic"))
        .map(|v| format!("{}:{} [{}]", v.file, v.line, v.rule))
        .collect();
    assert!(
        offenders.is_empty(),
        "library code aborts instead of propagating errors: {offenders:?}"
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let (report, _) = workspace();
    for v in &report.violations {
        if let Some(reason) = &v.suppressed {
            assert!(
                !reason.trim().is_empty(),
                "{}:{} [{}] suppressed without a reason",
                v.file,
                v.line,
                v.rule
            );
        }
    }
}

#[test]
fn fresh_unwrap_in_core_is_a_ratchet_regression() {
    let (report, root) = workspace();
    let rel = "crates/core/src/sequence.rs";
    let mut source = std::fs::read_to_string(root.join(rel)).expect("core source");
    source.push_str("\nfn injected(v: Option<u32>) -> u32 { v.unwrap() }\n");

    // Re-analyze just the edited file and splice its counts into the
    // workspace totals, exactly as a real run over the edited tree would.
    let mut counts = report.counts.clone();
    counts.retain(|(file, _), _| file != rel);
    for v in analyze_source(rel, &source, FileClass::library()) {
        if v.suppressed.is_none() {
            *counts
                .entry((v.file.clone(), v.rule.to_string()))
                .or_insert(0) += 1;
        }
    }

    let base = Baseline::load(&root.join(BASELINE_FILE)).expect("readable baseline");
    let cmp = baseline::compare(&counts, &base);
    assert!(
        cmp.regressions
            .iter()
            .any(|(file, rule, _, _)| file == rel && rule == "unwrap"),
        "injected unwrap not caught: {:?}",
        cmp.regressions
    );
}

// ---------------------------------------------------------------------------
// symbolic pass: policy + seeded mutations against the real tree
// ---------------------------------------------------------------------------

/// Re-runs the full pipeline over the workspace with one file's text edited.
fn run_edited(rel: &str, edit: impl FnOnce(&str) -> String) -> xtask::Report {
    let root = walk::find_root(None).expect("workspace root");
    let files = walk::collect(&root).expect("workspace walk");
    let mut sources: Vec<xtask::Source> = files
        .iter()
        .map(|f| xtask::Source {
            rel: f.rel.clone(),
            text: std::fs::read_to_string(&f.abs).expect("readable source"),
            class: f.class,
        })
        .collect();
    let src = sources
        .iter_mut()
        .find(|s| s.rel == rel)
        .unwrap_or_else(|| panic!("{rel} not in the analyzed set"));
    src.text = edit(&src.text);
    xtask::run_sources(&root, &sources)
}

#[test]
fn symbolic_families_are_clean_with_zero_baseline_debt() {
    let (report, root) = workspace();
    let families = [
        "lock-order",
        "lock-blocking",
        "cancel-coverage",
        "stats-ledger",
    ];
    let active: Vec<_> = report
        .active()
        .filter(|v| families.contains(&v.rule))
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(active.is_empty(), "active symbolic violations: {active:?}");
    // The ratchet holds these families at zero — no grandfathered debt.
    let base = Baseline::load(&root.join(BASELINE_FILE)).expect("readable baseline");
    let baselined: Vec<_> = base
        .entries
        .keys()
        .filter(|(_, rule)| families.contains(&rule.as_str()))
        .collect();
    assert!(
        baselined.is_empty(),
        "symbolic debt in baseline: {baselined:?}"
    );
}

#[test]
fn ledger_manifest_is_pinned_in_stats() {
    // `stats-ledger` is inert without a manifest; pin the real one so it
    // cannot be silently deleted to quiet the rule.
    let root = walk::find_root(None).expect("workspace root");
    let stats =
        std::fs::read_to_string(root.join("crates/core/src/stats.rs")).expect("core stats source");
    for directive in ["tw-ledger(scope)", "tw-ledger(equation)", "tw-ledger(cost)"] {
        assert!(
            stats.contains(directive),
            "crates/core/src/stats.rs lost its `// {directive}: …` manifest line"
        );
    }
}

#[test]
fn committed_baseline_has_no_stale_entries() {
    let root = walk::find_root(None).expect("workspace root");
    let base = Baseline::load(&root.join(BASELINE_FILE)).expect("readable baseline");
    let stale = base.stale_entries(&root);
    assert!(
        stale.is_empty(),
        "baseline names files/rules that no longer exist \
         (run `cargo run -p xtask -- analyze --fix-baseline`): {stale:?}"
    );
}

#[test]
fn dropped_governor_poll_in_dtw_kernel_is_caught() {
    // Seeded mutation: discard the kernel's per-column should-cancel flag.
    // The charging loop in `lane_kernel` is then ungoverned and the analyzer
    // must say so.
    let rel = "crates/core/src/distance/dtw.rs";
    let report = run_edited(rel, |text| {
        assert!(
            text.contains("if token.charge_cells("),
            "kernel poll shape moved; update this mutation"
        );
        text.replace("if token.charge_cells(", "let _ = token.charge_cells(")
    });
    assert!(
        report
            .active()
            .any(|v| v.rule == "cancel-coverage" && v.file == rel),
        "dropped governor poll in {rel} not caught"
    );
}

#[test]
fn reversed_lock_pair_in_ingest_is_caught() {
    // Seeded mutation: acquire `meta` and `wal` in both orders. The global
    // acquisition graph gains a cycle and lock-order must report it.
    let rel = "crates/core/src/ingest.rs";
    let report = run_edited(rel, |text| {
        format!(
            "{text}\nimpl MutationProbe {{\n    \
             fn forward(&self) {{ let meta = self.meta.lock(); self.wal.lock(); }}\n    \
             fn reversed(&self) {{ let wal = self.wal.lock(); self.meta.lock(); }}\n}}\n"
        )
    });
    let hit = report
        .active()
        .find(|v| v.rule == "lock-order")
        .unwrap_or_else(|| panic!("reversed lock pair in {rel} not caught"));
    assert!(hit.message.contains("cycle"), "{}", hit.message);
}
