#!/usr/bin/env bash
# The perf gate: two commits, one benchmark, no committed snapshot.
#
#   scripts/perf_ab.sh [BASE_REF] [ledger flags, e.g. --seed 7 --seconds 5]
#   scripts/perf_ab.sh BASE_REF --pairs N --workload W [--seed S] [ledger flags]
#
# Exports BASE_REF (default HEAD) with `git archive` into the ignored
# target/perf_ab/base/ (not .bench_build/, which the benchmark driver
# owns) and builds BENCHMARK.json's command there and in this tree, into
# target/perf_ab/{base,head}-target.
#
# All workloads (the first form) runs each of the four workloads,
# untraced then traced, on both sides with the same flags and exits with
# `ledger --compare base.json head.json`: 1 if a row reads `worse`, 2 if
# a run failed. The default 15 s per run takes about 4 minutes a side,
# and yields one pair of the ten docs/BENCHMARKS.md asks for a claim.
#
# Pairs (the second form) runs N pairs of `ledger --workload W --trace
# 0`, pair i on seed S+i (S defaults to 1000), the base first in odd
# pairs and this tree first in even ones. It prints every end-to-end
# metric's ratio this tree / base per pair, then per metric what the
# acceptance rule of docs/BENCHMARKS.md reads: the median ratio, the
# pairs in which this tree was lower and higher (ties in neither), and
# the base runs' own interquartile spread as a share of their median,
# which a median move must exceed to tell from host noise. It exits 2
# if a run failed. Each run's result line stays in target/perf_ab/pairs/.
set -euo pipefail
cd "$(dirname "$0")/.."
base_ref=${1:-HEAD}
shift || true
ab=$PWD/target/perf_ab
manifest=(--release --quiet --manifest-path ledger/Cargo.toml --bin ledger)

pairs=0 workload="" seed="" flags=()
while (($#)); do
    case $1 in
        --pairs) pairs=$2; shift 2 ;;
        --workload) workload=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        *) flags+=("$1"); shift ;;
    esac
done

# Extract a new base only when the ref moved. `tar -m` stamps the files
# with the extraction time: with the commit's own time, cargo would take
# the previous base's build in base-target for fresh.
rev=$(git rev-parse --verify "$base_ref^{commit}")
if [[ $(cat "$ab/base.rev" 2>/dev/null) != "$rev" ]]; then
    rm -rf "$ab/base" "$ab/base.rev"
    mkdir -p "$ab/base"
    git archive "$rev" | tar -x -m -C "$ab/base"
    echo "$rev" >"$ab/base.rev"
fi

if ((pairs == 0)); then
    [[ -z $seed ]] || flags+=(--seed "$seed")
    [[ -z $workload ]] || { echo "--workload needs --pairs N" >&2; exit 2; }
    ledger=(cargo run "${manifest[@]}" --)
    (cd "$ab/base" && CARGO_TARGET_DIR=$ab/base-target "${ledger[@]}" "${flags[@]}" --out "$ab/base.json" >/dev/null) || exit 2
    CARGO_TARGET_DIR=$ab/head-target "${ledger[@]}" "${flags[@]}" --out "$ab/head.json" >/dev/null || exit 2
    exec env CARGO_TARGET_DIR="$ab/head-target" "${ledger[@]}" --compare "$ab/base.json" "$ab/head.json"
fi

[[ -n $workload ]] || { echo "--pairs needs --workload W" >&2; exit 2; }
(cd "$ab/base" && CARGO_TARGET_DIR=$ab/base-target cargo build "${manifest[@]}") || exit 2
CARGO_TARGET_DIR=$ab/head-target cargo build "${manifest[@]}" || exit 2
seed=${seed:-1000}
rm -rf "$ab/pairs"
mkdir -p "$ab/pairs"

# One run of `side` on seed $2, its result line into $3.
run() {
    local dir=$PWD
    [[ $1 == base ]] && dir=$ab/base
    (cd "$dir" && "$ab/$1-target/release/ledger" --workload "$workload" --seed "$2" --trace 0 \
        "${flags[@]}" | tail -n 1 >"$3")
    grep -q '"correct":true' "$3" && grep -q '"failed":0,' "$3"
}

# `name value` per metric of a result line.
metrics() {
    grep -o '"[a-z0-9_]*":{"value":[^,}]*' "$1" | sed -E 's/"([a-z0-9_]*)":\{"value":/\1 /'
}

# `name ratio` per metric of pair $1: this tree / base.
ratios() {
    awk 'NR == FNR { base[$1] = $2; next } base[$1] > 0 { printf "%s %.4f\n", $1, $2 / base[$1] }' \
        <(metrics "$ab/pairs/base-$1.json") <(metrics "$ab/pairs/head-$1.json")
}

for ((i = 1; i <= pairs; i++)); do
    s=$((seed + i - 1))
    sides=(base head)
    ((i % 2)) || sides=(head base)
    for side in "${sides[@]}"; do
        run "$side" "$s" "$ab/pairs/$side-$i.json" || { echo "pair $i: the $side run failed" >&2; exit 2; }
    done
    ratios "$i" >>"$ab/pairs/ratios.txt"
    echo "pair $i (seed $s, ${sides[0]} first):" $(ratios "$i")
done
for ((i = 1; i <= pairs; i++)); do metrics "$ab/pairs/base-$i.json"; done |
    sort -k1,1 -k2,2g >"$ab/pairs/base.txt"
sort -k1,1 -k2,2g "$ab/pairs/ratios.txt" | awk '
    # The p-quantile of x[m, 1..n] (sorted), interpolated between ranks.
    function q(x, m, n, p,   h, l) {
        h = 1 + (n - 1) * p; l = int(h)
        return l < n ? x[m, l] + (h - l) * (x[m, l + 1] - x[m, l]) : x[m, n]
    }
    NR == FNR { base[$1, ++nb[$1]] = $2; next }
    !($1 in nr) { names[++k] = $1 }
    { r[$1, ++nr[$1]] = $2; lower[$1] += $2 < 1; higher[$1] += $2 > 1 }
    END {
        for (j = 1; j <= k; j++) {
            m = names[j]; med = q(base, m, nb[m], 0.5)
            iqr = med > 0 ? (q(base, m, nb[m], 0.75) - q(base, m, nb[m], 0.25)) / med : 0
            printf "median %-12s %.3f over %d pairs; lower in %d, higher in %d; base IQR %.1f%% of its median\n",
                m, q(r, m, nr[m], 0.5), nr[m], lower[m], higher[m], 100 * iqr
        }
    }' "$ab/pairs/base.txt" -
