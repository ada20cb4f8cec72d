#!/usr/bin/env bash
# A/A check: runs the suite twice on the same commit and holds every
# end-to-end metric x workload to the bound BENCHMARK.json fixes for it.
# Prints the table; exits nonzero on a pair out of bound. Extra
# arguments (e.g. --seed 7, --seconds 9) go to both runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=benchmark/out
mkdir -p "$out"
rm -f "$out/aa-1.jsonl" "$out/aa-2.jsonl"
for i in 1 2; do
    echo "aa: run $i of 2" >&2
    benchmark/run.sh --trace 0 --json-out "$out/aa-$i.jsonl" "$@" >"$out/aa-$i.log"
done
exec benchmark/run.sh --compare "$out/aa-1.jsonl" "$out/aa-2.jsonl"
