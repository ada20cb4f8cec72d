#!/usr/bin/env bash
# CI gate for the cbtree workspace. Everything runs offline: the
# workspace has zero external dependencies, in the build graph or in
# dev-dependencies.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Run artifacts go here (ignored); the committed ones under results/
# are never rewritten.
out=results/ci
mkdir -p "$out"
tracked_state() { git diff HEAD | cksum; }
tracked_before=$(tracked_state)

# Whether two busy threads get two cores right now. Guards that compare
# a two-thread number with a one-thread one, or bound nanosecond prices,
# mean nothing while the host runs both threads on one core (this VM
# does, for tens of seconds at a time): they call this first and print
# the reason it echoes instead of a verdict.
AA_MAX_GAP=0.25
host_gives_two_cores() {
    [[ $(nproc) -ge 2 ]] || { echo "nproc is $(nproc)"; return 1; }
    spin() { local i=0; while ((i < 400000)); do ((i += 1)); done; }
    local t0 t1 t2
    spin & spin & wait # an idle second core takes a while to come up
    t0=$(date +%s%N); spin & spin & wait
    t1=$(date +%s%N); spin; spin
    t2=$(date +%s%N)
    awk -v parallel=$((t1 - t0)) -v serial=$((t2 - t1)) -v max="$AA_MAX_GAP" 'BEGIN {
        gap = parallel / (serial / 2) - 1
        printf "two parallel spin loops took %.0f%% longer than one (limit %.0f%%)\n", 100 * gap, 100 * max
        exit !(gap <= max)
    }'
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings): no broken or ambiguous intra-doc link"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> unsafe tally: code lines that open an unsafe block, fn, impl or trait"
# The one counting rule DESIGN and ROADMAP quote. A change that adds a
# site raises the constant and says why. 32 since the node walk reads
# under latches that report to no statistics (it was an optimistic read);
# 33 since lock statistics time holds with the time-stamp counter (the
# `rdtsc` read behind `cbtree_sync::Stamp`); 32 again since the planted
# OLC reader in cbtree-check became a mutant patch of the real descent;
# 33 since `cbtree_sync::prefetch` requests a node's cache lines before
# its latch (the `_mm_prefetch` hint needs an unsafe block); 22 since
# the read API serves `u64` values, which deleted the `OlcValue` trait,
# its impls and the latched OLC get and range start.
UNSAFE_MAX=22
unsafe_total=0
for crate in crates/*/; do
    n=$(grep -rhE 'unsafe (\{|fn|impl|trait)' "${crate}src" | grep -cvE '^\s*//' || true)
    ((n > 0)) && printf '    %-12s %d\n' "$(basename "$crate")" "$n"
    unsafe_total=$((unsafe_total + n))
done
echo "    total        $unsafe_total (max $UNSAFE_MAX)"
((unsafe_total <= UNSAFE_MAX))

# The non-test lines (each file up to its first #[cfg(test)]) of the
# files named on stdin, as FILE:LINE:TEXT.
non_test_lines() {
    sort | while read -r f; do
        awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$f"
    done
}

# Prints the counted lines ($2) and their total; fails above $1.
tally() {
    local total
    total=$(grep -c . <<<"$2" || true)
    [[ -n $2 ]] && echo "$2" | sed 's/^/    /'
    echo "    total        $total (max $1)"
    ((total <= $1))
}

echo "==> one protocol table: no protocol variant matched or compared outside it"
# A protocol's latching is decided in one place, Protocol::policy() in
# crates/btree-model/src/protocol.rs; the tree, the simulator and the
# model read its columns. A counted line is non-test source (each file up
# to its first #[cfg(test)], outside tests/) under crates/*/src, src and
# examples that names a Protocol:: or Algorithm:: variant in a match arm
# (a line ending the pattern with =>, or a | pattern line) or in a ==/!=
# test. 29 lines (27 of them ending in =>, == or !=) before the table
# moved into protocol.rs.
PROTOCOL_MATCH_MAX=0
variant='(Protocol|Algorithm)::[A-Z][A-Z_]*[a-z][A-Za-z]*'
protocol_matches=$(
    find crates/*/src src examples -name '*.rs' -not -path '*/tests/*' \
        -not -path crates/btree-model/src/protocol.rs | non_test_lines |
        grep -E "$variant.*=>|:[0-9]+:\s*\|\s*$variant|[=!]=\s*$variant|$variant\s*[=!]=" |
        grep -vE ':[0-9]+:\s*//' || true
)
tally "$PROTOCOL_MATCH_MAX" "$protocol_matches"

echo "==> one node search: no binary search over node keys outside node.rs"
# A node's keys are searched by one branch-free scan, Node::child_index
# or Node::find in crates/btree/src/node.rs, so a node beyond the cache
# costs one memory round trip, not one dependent miss per probe. A
# counted line is a non-test line under crates/btree/src outside node.rs
# that calls binary_search or partition_point. 5 such lines in
# descent.rs before the scan.
NODE_SEARCH_MAX=0
node_searches=$(
    find crates/btree/src -name '*.rs' -not -path crates/btree/src/node.rs | non_test_lines |
        grep -E 'binary_search|partition_point' | grep -vE ':[0-9]+:\s*//' || true
)
tally "$NODE_SEARCH_MAX" "$node_searches"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> examples: each one runs to completion"
# btree_stress (~17 s) stays out: the stress sweeps below cover it.
cargo build --release --examples
for example in quickstart algorithm_comparison capacity_planning recovery_analysis \
    per_level_diagnostics; do
    target/release/examples/"$example" > /dev/null
done

echo "==> paper figures: all 21 committed CSVs reproduce byte for byte"
# The simulator is seeded and single-threaded, so the tolerance is zero
# (about a minute on one core). A change that moves a simulated point
# must regenerate results/ and say which points moved in EXPERIMENTS.md;
# sim-matrix.csv prints every simulated protocol's statistics to the bit.
# The wall time is printed, not bounded: it is the simulator's cost on
# this host, to read against its parent's (EXPERIMENTS.md "One B-tree").
figs_start=$(date +%s%N)
target/release/experiments --out "$out/figs" all > /dev/null 2>&1
awk -v ns=$(($(date +%s%N) - figs_start)) \
    'BEGIN { printf "    experiments all: %.1f s wall\n", ns / 1e9 }'
for csv in results/*.csv; do
    cmp "$csv" "$out/figs/${csv##*/}"
done

echo "==> scaling guard: two threads on one b-link tree beat 1.3x one thread"
# Insert = delete on a tree too big for the cache, untraced (no
# --trace-buf), so the runs pay only the switched-off emit checks.
# It catches tree-wide state every operation writes (an arena reference
# count, an unstriped counter): two threads then run no faster than one
# (0.9-1.0x). Measured ratios: EXPERIMENTS.md "Slots sized by capacity".
if reason=$(host_gives_two_cores); then
    for t in 1 2; do
        target/release/live --algo blink --threads "$t" --mix 0,0.5,0.5 \
            --capacity 16 --items 500000 --keyspace 1000000 \
            --warmup-ms 100 --measure-ms 600 \
            --json "$out/run-scale-$t.jsonl" > /dev/null
    done
    throughput() { grep -o '"throughput":[0-9.eE+-]*' "$1" | head -n 1 | cut -d: -f2; }
    awk -v one="$(throughput "$out/run-scale-1.jsonl")" \
        -v two="$(throughput "$out/run-scale-2.jsonl")" 'BEGIN {
            printf "    1 thread %.0f ops/s, 2 threads %.0f ops/s: %.2fx\n", one, two, two / one
            exit !(two >= 1.3 * one)
        }'
else
    echo "    skipped: $reason"
fi

echo "==> cargo test"
cargo test --workspace -q

echo "==> wall-clock lock demand: open vs closed loop leaf hold per op within 3x, alone"
# The suite compares exact latch counts per op; this hold-time version
# reads 1.7-2.7x alone and past 3x beside other tests, so it runs here,
# by itself, and only when the host gives two cores.
if reason=$(host_gives_two_cores); then
    cargo test -p cbtree-serve --test service -q -- --ignored --exact \
        open_and_closed_loop_agree_on_per_op_leaf_hold_time
else
    echo "    skipped: $reason"
fi

echo "==> correctness pillar: quick stress sweep (4 protocols x 16 seeds)"
cargo run --release -p cbtree-check --bin stress -- --quick

echo "==> correctness pillar: batched-execution sweep (sorted batches of 4)"
cargo run --release -p cbtree-check --bin stress -- --quick --batch 4 --seeds 8

echo "==> correctness pillar: every planted bug in crates/check/mutants/ is convicted"
# Each patch plants one bug in the real sources and names the check that
# must fail; the stress mutants' seeds lie inside the quick sweep's 1-16,
# which the steps above run on the sound tree.
scripts/mutants.sh

echo "==> observability pillar: traced live runs + cbtree-trace smoke"
for proto in coupling blink olc; do
    target/release/live --algo "$proto" --threads 4 --items 20000 \
        --capacity 16 --warmup-ms 50 --measure-ms 120 \
        --json "$out/run-$proto.jsonl" --trace-buf 1048576 > /dev/null
done
target/release/cbtree-trace "$out/run-coupling.jsonl" "$out/run-blink.jsonl" \
    "$out/run-olc.jsonl" --json "$out/trace-compare.jsonl"

echo "==> open-loop service layer: smoke sweep (2 shards x 3 lambda points) + overlay"
target/release/serve --shards 2 --generators 1 --service-floor-us 300 \
    --queue-cap 256 --sweep 500,1000,2000 --items 10000 \
    --warmup-ms 100 --measure-ms 300 --assert-low-shed \
    --json "$out/serve-smoke.jsonl" > /dev/null
target/release/analyze --serve "$out/serve-smoke.jsonl"

echo "==> batched service layer: smoke sweep (2 shards x 2 workers x 2 batch sizes) + overlay"
for bm in 1 8; do
    target/release/serve --shards 2 --workers 2 --batch-max "$bm" \
        --generators 1 --service-floor-us 300 --queue-cap 256 \
        --sweep 1000,2000,4000 --items 10000 \
        --warmup-ms 100 --measure-ms 300 --assert-low-shed \
        --json "$out/serve-batch-b$bm.jsonl" > /dev/null
    target/release/analyze --serve "$out/serve-batch-b$bm.jsonl"
done

echo "==> continuous metrics: sampled seq-key sweep + SLO burn + timeline spike guard"
# Zero warmup on purpose: the overload point must ramp its backlog from
# an empty queue inside the measured window, so the sampler catches the
# p99 doubling window-over-window while the rightmost-leaf splits run —
# the SMO-correlated spikes `--expect-spike` asserts on.
target/release/serve --shards 2 --generators 1 --key-dist seq --mix 0,1,0 \
    --service-floor-us 100 --queue-cap 2048 --batch-max 1 \
    --sweep 2000,15000 --slo-p99-us 1000 --sample-interval-ms 50 \
    --warmup-ms 0 --measure-ms 1200 \
    --json "$out/serve-timeseries.jsonl" > /dev/null
target/release/cbtree-trace timeline --expect-spike "$out/serve-timeseries.jsonl"

echo "==> benchmark/ package: builds against the workspace API and runs (quick)"
# benchmark/ is its own workspace root, so `cargo test --workspace`
# cannot see an API break against it; this step can. Its memory figure
# is deterministic (the quick mode keeps the full prefill), so the slot
# layout is held to it: a tree-churn key measures 86.4 B with a cap-16
# slot of 448 B (lock statistics kept per level, not per slot); 202 B
# when every slot carried a 712 B LockStats.
CHURN_BYTES_PER_KEY_MAX=110
bash benchmark/run.sh --quick > "$out/bench-quick.txt"
awk -v max="$CHURN_BYTES_PER_KEY_MAX" '
    /^== / { workload = $2 }
    workload == "tree-churn" && $1 == "bytes_per_key" { bpk = $2 }
    END {
        verdict = bpk > 0 && bpk <= max ? "ok" : "FAIL"
        printf "    tree-churn bytes_per_key %.1f B (max %d B): %s\n", bpk, max, verdict
        exit verdict == "FAIL"
    }' "$out/bench-quick.txt"

echo "==> measurement overhead: the metrics session and exact lock statistics"
# Priced by the benchmark's own per-layer metrics on the build the step
# above made, run twice; a price is the lower of its two runs (the host
# only ever adds time).
SESSION_RECORD_MAX_NS=20 # obs.session_record_ns measures 6.0-8.8 ns
# Exact minus 1-in-64 sampled lock statistics on a tree-churn get: one
# stamp (a time-stamp-counter read) per latch step plus one, and the
# hold bookkeeping. Since holds are timed with the time-stamp counter
# instead of Instant::now(), the lower of two runs reads 57-233 ns on a
# two-core host (15 pairs; single runs 57-316 ns; 169-453 ns lower of
# two with Instant, EXPERIMENTS.md "Exact statistics on the time-stamp
# counter"); the bound is that maximum plus a third.
STATS_EXACT_DELTA_MAX_NS=311
if reason=$(host_gives_two_cores); then
    for i in 1 2; do
        "${CARGO_TARGET_DIR:-benchmark/target}/release/cbtree-benchmark" \
            --workload tree-churn --trace 1 --quick > "$out/prices-$i.txt"
    done
    awk -v session_max="$SESSION_RECORD_MAX_NS" -v delta_max="$STATS_EXACT_DELTA_MAX_NS" '
        function min(a, b) { return a < b ? a : b }
        FNR == 1 { run++ }
        $1 ~ /^(sync|obs)\./ { price[run, $1] = $2 }
        END {
            m = "obs.session_record_ns"
            ns = min(price[1, m], price[2, m])
            verdict = ns > 0 && ns <= session_max ? "ok" : "FAIL"
            printf "    %-22s %.1f ns (max %d ns): %s\n", m, ns, session_max, verdict
            failed = verdict == "FAIL"
            m = "sync.stats_exact_delta_ns"
            ns = min(price[1, m], price[2, m])
            verdict = (1, m) in price && (2, m) in price && ns <= delta_max ? "ok" : "FAIL"
            printf "    %-22s %.0f ns (max %d ns): %s\n", m, ns, delta_max, verdict
            exit failed || verdict == "FAIL"
        }' "$out"/prices-{1,2}.txt
else
    echo "    skipped: $reason"
fi

echo "==> no step rewrote a tracked file"
# A CI checkout starts clean, so there the tree must also end clean; a
# development tree only has to end as it started.
[[ $(tracked_state) == "$tracked_before" ]] &&
    [[ -z ${CI:-} || -z $(git status --porcelain --untracked-files=no) ]] || {
    git status --short --untracked-files=no
    exit 1
}

echo "==> ok"
