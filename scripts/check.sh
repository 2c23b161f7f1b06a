#!/usr/bin/env bash
# The repo's CI gate: formatting, lints (warnings are errors), full tests.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The project's own lints — the lexical families (panic-freedom,
# float-safety, format-stability, error-hygiene) plus the symbolic ones
# (lock-order, cancel-coverage, stats-ledger) — with the
# analyze-baseline.toml ratchet: fails on any violation the committed
# baseline does not grandfather. After intentional changes, regenerate with
# `cargo run -p xtask -- analyze --fix-baseline`. The SARIF report is the
# machine-readable artifact CI uploads; the text run prints per-pass wall
# times so a slow analyzer layer is visible in the log.
echo "==> tw-analyze (project lints + ratchet)"
mkdir -p target
cargo run -q -p xtask --offline -- analyze --format=sarif --timings \
  > target/tw-analyze.sarif
cargo run -q -p xtask --offline -- analyze

echo "==> cargo test -q"
cargo test -q --workspace --offline

# The layered benchmark (benchmark/, its own workspace) carries an
# independent max-abs DTW oracle that shares no code with tw_core: its tests
# and a smoke run of all five workloads check the verification kernel's ids
# and distances bit for bit (a run exits 1 on any wrong answer). Timings at
# smoke scale mean nothing and are not compared.
echo "==> layered benchmark: tests + smoke run of every workload (oracle-checked)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in selective-warm verify-heavy paged-cold serve-selective ingest-query; do
  cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --smoke > /dev/null
done

# The fault-schedule matrix runs fixed seeds (the schedules are deterministic
# SplitMix64 streams), so this pass is reproducible bit-for-bit. It is part of
# the workspace test run above; running it again by name makes a regression
# show up under its own heading in CI logs.
echo "==> fault injection (fixed seeds)"
cargo test -q -p tw-integration --offline --test fault_injection

# Seeded writer/reader interleavings at 1/2/4 reader threads: every snapshot
# query is checked exact against a direct-DTW replay of that epoch's corpus.
# Also part of the workspace run; named here for its own CI heading.
echo "==> snapshot-consistency stress (seeded interleavings)"
cargo test -q -p tw-integration --offline --test snapshot_stress

# Includes the concurrent WAL-backed section: the writer is killed (abort
# hook and real SIGKILL) while reader threads query pinned snapshots, and
# recovery must replay every acknowledged append.
echo "==> crash recovery"
"$(dirname "$0")/crashtest.sh"

echo "All checks passed."
