#!/bin/sh
# Tier-1 gate, fully offline: release build, workspace tests, in-tree
# static analysis (xtk-lint), clippy.  Run from the repo root.  Fails
# fast on the first broken step.
set -eu

cd "$(dirname "$0")"

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo build perfbench (its own workspace, same crates by path)"
# perfbench is not a workspace member, so without this step a change to a
# public signature it calls (DiskColumnStore, DiskEngine, write_index)
# would only surface when the benchmark runs.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo run -q -p xtk-lint (panic/determinism ratchet + interprocedural passes)"
# Unconditional: xtk-lint is a workspace crate with no external deps, so
# there is no environment where this step may be skipped.  It enforces
# the lint-baseline.json ratchets (L1 per file, L6 per query entry
# point), the hard rules (hash-order output, float ==, wall-clock in
# query paths, forbid(unsafe_code)), the L7 lock-order gate and the L8
# hot-loop allocation gate.  The output is captured to a file (not a
# pipe: plain sh has no pipefail) so the one-line L6 ratchet delta can
# be asserted on and still land in the CI log.
lint_out=/tmp/xtk-lint-out.txt
if ! cargo run -q --offline -p xtk-lint >"$lint_out" 2>&1; then
    cat "$lint_out" >&2
    exit 1
fi
cat "$lint_out"
grep "L6 ratchet" "$lint_out" >/dev/null || {
    echo "ERROR: xtk-lint did not report the L6 ratchet delta" >&2; exit 1; }

echo "== lint-report.json: schema + L7 acyclicity check"
# The machine-readable report must exist, carry every section of the
# stable schema, and record zero lock-order cycles (the binary already
# hard-fails on cycles; this guards against the report going stale or
# the schema drifting under a consumer).
test -s lint-report.json || { echo "ERROR: lint-report.json missing" >&2; exit 1; }
for key in '"version"' '"l1"' '"hard"' '"l6"' '"l7"' '"l8"' '"l9"'; do
    grep -q "$key" lint-report.json || {
        echo "ERROR: lint-report.json lacks the $key section" >&2; exit 1; }
done
grep -q '"cycles": \[\]' lint-report.json || {
    echo "ERROR: lint-report.json records L7 lock-order cycles" >&2; exit 1; }

echo "== cargo test -q --offline"
cargo test -q --offline --workspace

echo "== bench smoke: query-path I/O trajectory vs committed baseline"
# Deterministic cold-decode counts (seeded corpus, serial execution):
# fails on a >20 % regression against BENCH_query.json, and the run
# itself asserts result-set equality across cache capacities and the
# >=30 % v1->v2 decode reduction.  Refresh the baseline after an
# intentional change with:  query_io --check BENCH_query.json --update
cargo run -q --offline --release -p xtk-bench --bin query_io -- --check BENCH_query.json

echo "== bench smoke: EXPLAIN plans vs committed golden (exact match)"
# Renders the logical plan, rewrite log and physical plan for a fixed
# query grid on every target (memory/disk/sharded); the report contains
# nothing machine-dependent, so the comparison is byte-for-byte.  Any
# diff is a real planner change — review it, then refresh with:
#   explain_snapshot --check BENCH_explain.snap --update
cargo run -q --offline --release -p xtk-bench --bin explain_snapshot -- --check BENCH_explain.snap

echo "== bench smoke: unified metrics snapshot vs committed golden (exact match)"
# Every counter in the snapshot is a logical count (no wall-clock), so
# the comparison is byte-for-byte.  The run also asserts two cold passes
# produce identical metrics and the per-store decode==miss invariant.
# Refresh after an intentional change with:
#   metrics_snapshot --check BENCH_metrics.json --update
cargo run -q --offline --release -p xtk-bench --bin metrics_snapshot -- --check BENCH_metrics.json

echo "== bench smoke: batched serving vs committed baseline"
# Replays the skewed serving mix sequentially and batched; the run itself
# asserts byte-identical results, replay-stable decode/hit counters,
# zero-decode warm result-cache hits, and >=1.3x batched throughput.
# The --check compares the deterministic counters (decodes, result-cache
# misses, result counts) with a 20 % ratchet.  Refresh after an
# intentional change with:  serve_bench --check BENCH_serve.json --update
cargo run -q --offline --release -p xtk-bench --bin serve_bench -- --check BENCH_serve.json

echo "== bench smoke: sharded scatter-gather vs committed baseline"
# Replays the mixed top-K/complete workload at 1/2/4/8 shards; the run
# itself asserts byte-identical results across every topology and vs the
# unsharded reference, and that the TA early-stop changes nothing bit for
# bit.  The --check compares the deterministic counters (result counts,
# decodes, shards executed) with a 20 % ratchet.  Refresh after an
# intentional change with:  shard_bench --check BENCH_shard.json --update
cargo run -q --offline --release -p xtk-bench --bin shard_bench -- --check BENCH_shard.json

echo "== bench smoke: block decode vs committed baseline"
# Times cold column decodes in the varint (v2) and bit-packed (v3) block
# layouts; the run itself asserts that both layouts reproduce the
# in-memory runs bit for bit and that packed delta lanes decode >=1.5x
# faster than varints.  The --check compares the deterministic counters
# (payload bytes, cold decode counts, file sizes) with a 20 % ratchet;
# timings are recorded in the trajectory but never compared.  Refresh
# after an intentional change with:
#   decode_bench --check BENCH_decode.json --update
cargo run -q --offline --release -p xtk-bench --bin decode_bench -- --check BENCH_decode.json

echo "== bench smoke: cost-based planning vs committed baseline"
# Times the planning pipeline cold vs served from the cross-query plan
# cache, and replays the pruning workloads with the cost gate on vs the
# always-fire rewriter; the run itself asserts a >=5x cached planning
# speedup, bit-identical results, and that gating never decodes more
# cold blocks than always-fire.  The --check compares the deterministic
# decode counters with a 20 % ratchet; planning times are recorded in
# the trajectory but never compared.  Refresh after an intentional
# change with:  plan_bench --check BENCH_plan.json --update
cargo run -q --offline --release -p xtk-bench --bin plan_bench -- --check BENCH_plan.json

if [ "${XTK_SKIP_CLIPPY:-0}" = "1" ]; then
    echo "== clippy skipped (XTK_SKIP_CLIPPY=1)"
elif cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --all-targets -- -D warnings"
    cargo clippy --offline --workspace --all-targets -q -- -D warnings
else
    echo "== ERROR: clippy is not installed and XTK_SKIP_CLIPPY is not set" >&2
    echo "   Install the clippy component (rustup component add clippy) or" >&2
    echo "   explicitly opt out with XTK_SKIP_CLIPPY=1 ci.sh" >&2
    exit 1
fi

echo "== ci.sh: all green"
