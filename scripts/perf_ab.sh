#!/usr/bin/env bash
# The perf gate: two commits, one benchmark, no committed snapshot.
#
#   scripts/perf_ab.sh [BASE_REF] [ledger flags, e.g. --seed 7 --seconds 5]
#
# Checks BASE_REF (default HEAD) out into a git worktree under the
# ignored target/perf_ab/ (not .bench_build/, which the benchmark driver
# owns), runs BENCHMARK.json's command — all four workloads, untraced
# then traced — there and in this tree with the same flags, and exits
# with `ledger --compare base.json head.json`: 1 if a row reads `worse`,
# 2 if a run failed. Both builds and both documents stay under
# target/perf_ab/ for a rerun; the worktree is removed on exit. The
# default 15 s per run takes about 4 minutes a side. For a claimed gain
# this is one pair of the ten docs/BENCHMARKS.md asks for.
set -euo pipefail
cd "$(dirname "$0")/.."
base_ref=${1:-HEAD}
shift || true
ab=$PWD/target/perf_ab
ledger=(cargo run --release --quiet --manifest-path ledger/Cargo.toml --bin ledger --)

mkdir -p "$ab"
git worktree remove --force "$ab/base" 2>/dev/null || true
git worktree add --quiet --detach "$ab/base" "$base_ref"
trap 'git worktree remove --force "$ab/base"' EXIT

(cd "$ab/base" && CARGO_TARGET_DIR=$ab/base-target "${ledger[@]}" "$@" --out "$ab/base.json" >/dev/null) || exit 2
CARGO_TARGET_DIR=$ab/head-target "${ledger[@]}" "$@" --out "$ab/head.json" >/dev/null || exit 2
CARGO_TARGET_DIR=$ab/head-target "${ledger[@]}" --compare "$ab/base.json" "$ab/head.json"
