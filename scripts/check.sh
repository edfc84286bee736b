#!/usr/bin/env bash
# Tier-1 verification gate: builds the repo and runs the full test suite
# twice — a plain Release build, then an AddressSanitizer+UBSanitizer build
# (-DSKYLINE_SANITIZE=ON) that catches the memory bugs a green Release run
# can hide (the columnar dominance kernels deliberately read whole SIMD
# vectors at block tails, so every such read must stay inside the padded
# allocation) — and finally the concurrency-sensitive observability tests
# (trace sink, metrics shards, thread pool, execution context) under
# ThreadSanitizer (-DSKYLINE_SANITIZE=thread).
#
# A benchmark regression gate runs last: a fresh parallel_sfs_bench sweep
# (2 repetitions) is compared against the committed BENCH_sfs.json by
# scripts/bench_gate.py — throughput must stay above a generous floor and
# the deterministic comparison counts must match within tolerance.
#
# Usage: scripts/check.sh [build-dir-prefix]
#   SKYLINE_CHECK_JOBS=N    parallelism for build and ctest (default nproc)
#   SKYLINE_CHECK_BENCH=0   skip the benchmark regression gate (default 1)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-$repo_root/build}"
jobs="${SKYLINE_CHECK_JOBS:-$(nproc)}"

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S "$repo_root" "$@"
  cmake --build "$build_dir" -j"$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j"$jobs"
}

echo "== check: plain build =="
run_suite "$prefix"

echo "== check: ASan/UBSan build =="
# halt_on_error is the default via -fno-sanitize-recover=all; detect leaks
# stays on so window/index ownership mistakes surface too.
UBSAN_OPTIONS="print_stacktrace=1" \
run_suite "${prefix}-sanitize" -DSKYLINE_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug

echo "== check: TSan build (trace/metrics/thread-pool concurrency) =="
# TSan over the full suite is slow and duplicates ASan's coverage of the
# single-threaded tests; scope it to the suites that exercise cross-thread
# telemetry and the pool itself, plus the column-file/zone-cache suites
# (the process-wide TableZoneCache and the shared merge dictionaries are
# touched from pool threads). Partition* covers the scheme-parallel scans,
# the representative pre-prune, and the filtered-cascade merge levels.
# BlockIndex*/Bbs* exercise the z-order index sidecar through the shared
# zone cache and the BBS access path that consumes it. EngineSession*/
# Server*/Maintenance* cover the concurrent query server: the shared
# result cache, the versioned-table swap under mixed read/write sessions,
# the thread-per-connection admission/shutdown paths and the reaping of
# finished connection threads; Protocol* the frame writer resuming sends
# cut short by signals from another thread; EngineRepair*/
# EngineReclaim*/StringDictionary* the delete repair, the reclamation of
# superseded versions and the dictionary the sidecar writer encodes with;
# ExternalSort* the sorter's pool-parallel run formation and merges.
cmake -B "${prefix}-tsan" -S "$repo_root" \
  -DSKYLINE_SANITIZE=thread -DCMAKE_BUILD_TYPE=Debug
cmake --build "${prefix}-tsan" -j"$jobs" --target skyline_tests
TSAN_OPTIONS="halt_on_error=1" \
  "${prefix}-tsan/tests/skyline_tests" \
  --gtest_filter='Trace*:Metrics*:RunReport*:ExecContext*:ThreadPool*:Partition*:SfsParallel*:ColumnFile*:TableZoneCache*:ZonePrefilter*:BlockIndex*:Bbs*:EngineSession*:Protocol*:Server*:Maintenance*:*EngineRepair*:EngineReclaim*:StringDictionary*:ExternalSort*'

echo "== check: server smoke test (ephemeral port, scripted client) =="
# End-to-end over a real socket with the example binaries: start the
# server on an ephemeral port, run a cold query, a cache-hit re-run, an
# INSERT, a post-insert query, and stats, then shut it down cleanly.
cmake --build "$prefix" -j"$jobs" --target skyline_server_bin skyline_client_bin
smoke_out="$(mktemp /tmp/skyline_smoke.XXXXXX)"
"$prefix/examples/skyline_server" --port=0 --allow-shutdown >"$smoke_out" 2>/dev/null &
smoke_pid=$!
trap 'kill "$smoke_pid" 2>/dev/null; rm -f "$smoke_out"' EXIT
for _ in $(seq 50); do
  smoke_port="$(sed -n 's/listening on 127.0.0.1:\([0-9]*\)/\1/p' "$smoke_out")"
  [[ -n "$smoke_port" ]] && break
  sleep 0.1
done
[[ -n "$smoke_port" ]] || { echo "server did not come up"; kill "$smoke_pid"; exit 1; }
client="$prefix/examples/skyline_client"
smoke_q="select * from GoodEats skyline of S max, F max, D max, price min"
"$client" --port="$smoke_port" --no-report "$smoke_q" >/dev/null
"$client" --port="$smoke_port" --no-rows "$smoke_q" | grep -q '"result_cache": "hit"'
"$client" --port="$smoke_port" --no-rows --no-report \
  "INSERT INTO GoodEats VALUES ('Smoke Test Cafe', 25, 26, 22, 21.50)" \
  | grep -q '"table_version": 2'
"$client" --port="$smoke_port" --no-report "$smoke_q" | grep -q "Smoke Test Cafe"
"$client" --port="$smoke_port" --op=stats | grep -q '"patched": 1'
"$client" --port="$smoke_port" --op=shutdown >/dev/null
wait "$smoke_pid"
rm -f "$smoke_out"
trap - EXIT
echo "server smoke test passed"

if [[ "${SKYLINE_CHECK_BENCH:-1}" -eq 1 ]]; then
  echo "== check: benchmark regression gate =="
  # Reuse the plain Release build; 2 repetitions keep the gate quick while
  # letting the best-of wall time absorb one noisy run.
  cmake --build "$prefix" -j"$jobs" --target parallel_sfs_bench
  fresh_json="$(mktemp /tmp/bench_gate.XXXXXX.json)"
  trap 'rm -f "$fresh_json"' EXIT
  SKYLINE_BENCH_REPS=2 "$prefix/bench/parallel_sfs_bench" "$fresh_json"
  python3 "$repo_root/scripts/bench_gate.py" \
    --baseline "$repo_root/BENCH_sfs.json" --fresh "$fresh_json"
fi

echo "check.sh: all suites passed"
