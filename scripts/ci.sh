#!/usr/bin/env bash
# CI gate for the cbtree workspace. Everything runs offline: the
# workspace has zero external dependencies, in the build graph or in
# dev-dependencies.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> scaling guard: two threads on one b-link tree beat 1.3x one thread"
# Insert = delete on a tree too big for the cache, straight after the
# plain release build (a later step rebuilds `live` with tracing on).
# Before the handles borrowed the arena and the counters were striped,
# two threads were *slower* than one here (0.9-1.0x); since, 1.6-1.8x.
if [[ $(nproc) -lt 2 ]]; then
    echo "    skipped: needs two cores"
else
    for t in 1 2; do
        target/release/live --algo blink --threads "$t" --mix 0,0.5,0.5 \
            --capacity 16 --items 500000 --keyspace 1000000 \
            --warmup-ms 100 --measure-ms 600 \
            --json "results/run-scale-$t.jsonl" > /dev/null
    done
    throughput() { grep -o '"throughput":[0-9.eE+-]*' "$1" | head -n 1 | cut -d: -f2; }
    awk -v one="$(throughput results/run-scale-1.jsonl)" \
        -v two="$(throughput results/run-scale-2.jsonl)" 'BEGIN {
            printf "    1 thread %.0f ops/s, 2 threads %.0f ops/s: %.2fx\n", one, two, two / one
            exit !(two >= 1.3 * one)
        }'
fi

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test (inject feature: schedule perturbation compiled in)"
cargo test --workspace --features inject -q

echo "==> reclamation pillar: differential + conviction suites (inject feature)"
cargo test -p cbtree-btree --features inject --test differential -q
# cbtree-check's deps enable inject unconditionally, so no feature flag
# here (cargo rejects -p PKG --features F when PKG itself lacks F).
cargo test -p cbtree-check --test e2e -q

echo "==> cargo test (trace feature: event tracing compiled in)"
cargo test --workspace --features trace -q

echo "==> correctness pillar: quick stress sweep (4 protocols x 16 seeds)"
cargo run --release -p cbtree-check --bin stress -- --quick

echo "==> correctness pillar: batched-execution sweep (sorted batches of 4)"
cargo run --release -p cbtree-check --bin stress -- --quick --batch 4 --seeds 8

echo "==> correctness pillar: injected-bug demo (checker must convict)"
cargo run --release -p cbtree-check --bin stress -- --demo-bug

echo "==> observability pillar: traced live runs + cbtree-trace smoke"
cargo build --release --features trace -p cbtree-harness --bin live \
    -p cbtree-bench --bin cbtree-trace --bin lockbench
for proto in coupling blink olc; do
    target/release/live --algo "$proto" --threads 4 --items 20000 \
        --capacity 16 --warmup-ms 50 --measure-ms 120 \
        --json "results/run-$proto.jsonl" --trace-buf 1048576 > /dev/null
done
target/release/cbtree-trace results/run-coupling.jsonl results/run-blink.jsonl \
    results/run-olc.jsonl --json results/trace-compare.jsonl

echo "==> open-loop service layer: smoke sweep (2 shards x 3 lambda points) + overlay"
target/release/serve --shards 2 --generators 1 --service-floor-us 300 \
    --queue-cap 256 --sweep 500,1000,2000 --items 10000 \
    --warmup-ms 100 --measure-ms 300 --assert-low-shed \
    --json results/serve-smoke.jsonl > /dev/null
target/release/analyze --serve results/serve-smoke.jsonl

echo "==> batched service layer: smoke sweep (2 shards x 2 workers x 2 batch sizes) + overlay"
for bm in 1 8; do
    target/release/serve --shards 2 --workers 2 --batch-max "$bm" \
        --generators 1 --service-floor-us 300 --queue-cap 256 \
        --sweep 1000,2000,4000 --items 10000 \
        --warmup-ms 100 --measure-ms 300 --assert-low-shed \
        --json "results/serve-batch-b$bm.jsonl" > /dev/null
    target/release/analyze --serve "results/serve-batch-b$bm.jsonl"
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
    --json results/serve-timeseries.jsonl > /dev/null
target/release/cbtree-trace timeline --expect-spike results/serve-timeseries.jsonl

echo "==> lock microbenchmark (smoke, trace-off overhead guard vs BENCH_lock.json)"
target/release/lockbench --smoke --assert-overhead 2 --out BENCH_lock_smoke.json

echo "==> benchmark/ package: builds against the workspace API and runs (quick)"
# benchmark/ is its own workspace root, so `cargo test --workspace`
# cannot see an API break against it; this step can.
bash benchmark/run.sh --quick > /dev/null

echo "==> ok"
