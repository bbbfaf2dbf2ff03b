#!/usr/bin/env bash
# Prints, per crate, the size of its non-test source: for every
# src/**/*.rs, the lines before the first top-level `#[cfg(test)]` (the
# test module; an indented one gates a statement, not the rest of the
# file) that are neither blank nor comment-only (`//`, `///`, `//!`). This is the
# number CHANGES.md's "net line delta" policy quotes, so a refactor's
# claim can be re-measured on any commit: run it on both and subtract.
# Run from anywhere; prints only, never fails on a count.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count DIR — code lines under DIR/**/*.rs, per the rule above
  find "$1" -name '*.rs' -print0 | sort -z | while IFS= read -r -d '' f; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ } END { print n + 0 }' "$f"
  done | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
  [ -d "$dir" ] || continue
  n=$(count "$dir")
  printf '%-20s %6d\n' "$dir" "$n"
  total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
