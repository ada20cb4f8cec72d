#!/usr/bin/env bash
# Builds the benchmark (release, offline, its own workspace) and runs it
# from the repository root:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds N] [--trace [0|1]]
#                    [--quick] [--record] [--json-out PATH] [--plant-wrong]
#   benchmark/run.sh --compare FIRST.jsonl SECOND.jsonl
#
# Without --workload it runs all five. The last line of standard output
# is the result object of the (last) workload; the exit code is nonzero
# when an output was wrong. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

args=()
for a in "$@"; do
    if [[ $a == --record ]]; then
        # One history row per commit: name the commit the row is for.
        commit=$(git rev-parse --short=12 HEAD)
        [[ -z $(git status --porcelain --untracked-files=no) ]] || commit+="-dirty"
        args+=(--record "$commit")
    else
        args+=("$a")
    fi
done
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/cbtree-benchmark" "${args[@]}"
