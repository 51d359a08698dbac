#!/bin/sh
# Paired timing gate: a parent revision against the working tree.
#
#   bench/paired_gate.sh PARENT_REV
#
# Extracts PARENT_REV into a temporary directory (git archive, so the
# repository's own metadata is not touched) and runs PAIRS pairs
# of the flex-topk perfbench workload: in each pair one run on the parent
# and one on the working tree, with the same seed, the side that goes
# first swapping every pair.  The result object of each run (the last line
# perfbench prints) is appended to BENCH_paired_parent.jsonl or
# BENCH_paired_change.jsonl at the repository root, and
# `validate --compare` on the two files gives the verdict: the exit status
# is non-zero when a run is wrong or failed, or when an end-to-end metric's
# median got worse than its bound in BENCHMARK.json.
set -u

PAIRS=10
RUN_SECONDS=8
WORKLOAD=flex-topk

if [ $# -ne 1 ]; then
  echo "usage: bench/paired_gate.sh PARENT_REV" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel) || exit 2
cd "$root" || exit 2
parent=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "paired_gate: $1 is not a commit" >&2
  exit 2
}
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/parent" && git archive "$parent" | tar -x -C "$tmp/parent" || exit 2
: >BENCH_paired_parent.jsonl
: >BENCH_paired_change.jsonl

# run SIDE DIR SEED: one perfbench run; a run that prints no result object
# is recorded as a failed one
run() {
  (cd "$2" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$3" \
    --seconds "$RUN_SECONDS" --trace 0 2>"$tmp/err") >"$tmp/out"
  line=$(tail -n 1 "$tmp/out")
  case $line in
  "{"*) ;;
  *)
    echo "paired_gate: the $1 run with seed $3 printed no result:" >&2
    tail -n 5 "$tmp/err" >&2
    line='{"correct":false,"attempted":0,"failed":1,"metrics":{}}'
    ;;
  esac
  echo "$line" >>"BENCH_paired_$1.jsonl"
  echo "paired_gate: seed $3 $1: $line" >&2
}

for seed in $(seq 1 "$PAIRS"); do
  if [ $((seed % 2)) -eq 1 ]; then
    run parent "$tmp/parent" "$seed"
    run change "$root" "$seed"
  else
    run change "$root" "$seed"
    run parent "$tmp/parent" "$seed"
  fi
done

dune build ./bench/validate.exe || exit 2
./_build/default/bench/validate.exe --compare BENCH_paired_parent.jsonl BENCH_paired_change.jsonl
