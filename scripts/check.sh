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

# One smoke cell of the seeded bench matrix: asserts the query-stats
# accounting invariant and exact-engine agreement on every query, then
# re-validates the emitted BENCH_search.json against the pinned schema
# (DESIGN.md §10). Written to a scratch file so CI never dirties the
# committed full-matrix BENCH_search.json at the repo root.
echo "==> bench smoke + schema validation"
BENCH_SMOKE_OUT="$(mktemp -t BENCH_search.XXXXXX.json)"
trap 'rm -f "$BENCH_SMOKE_OUT"' EXIT
cargo run -q -p xtask --offline -- bench --smoke --out "$BENCH_SMOKE_OUT"
cargo run -q -p xtask --offline -- validate-bench "$BENCH_SMOKE_OUT"

# The sharded out-of-core arm at smoke scale: same code path as the
# million-sequence `bench --large` tier (CorpusSharder ingest, fan-out
# query through per-shard buffer pools), shrunk so CI proves the I/O model
# — the schema validator pins pool_misses > resident frames — in seconds.
echo "==> bench large (smoke scale) + schema validation"
BENCH_LARGE_OUT="$(mktemp -t BENCH_large.XXXXXX.json)"
trap 'rm -f "$BENCH_SMOKE_OUT" "$BENCH_LARGE_OUT"' EXIT
cargo run -q -p xtask --offline -- bench --large --smoke --out "$BENCH_LARGE_OUT"
cargo run -q -p xtask --offline -- validate-bench "$BENCH_LARGE_OUT"

# The network-service load gate: 8 concurrent clients over a seeded sharded
# corpus against the in-process tw-net server (DESIGN.md §15). Asserts zero
# protocol errors and that both accounting ledgers — the server's frame
# ledger and the aggregate QueryStats — balance exactly; the JSON report
# (latency percentiles, shed rate, partial-result rate) is uploaded as a CI
# artifact.
echo "==> net loadtest (smoke)"
cargo run -q -p xtask --offline -- loadtest --smoke --out target/loadtest.json

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
