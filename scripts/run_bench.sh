#!/usr/bin/env bash
# Builds (Release) and runs the parallel-SFS benchmark, leaving a
# machine-readable BENCH_sfs.json at the repository root.
#
# Usage: scripts/run_bench.sh [--schemes] [--index] [build-dir]
#   --schemes                   add the partition-scheme sweeps: simulated
#                               shards ("partition_schemes") and wall time
#                               at threads = hardware per distribution
#                               ("partition_schemes_wall")
#   --index                     add the z-order index sweep (correlated
#                               table, sidecar build time, BBS vs SFS with
#                               index_blocks_skipped; "index" JSON section)
#   SKYLINE_BENCH_SCALE=10      run at the paper's 1M-row scale
#   SKYLINE_BENCH_THREADS=...   comma-separated thread counts (default 1,2,4,8)
#   SKYLINE_BENCH_REPS=N        repetitions per config (default 3)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

schemes=0
index=0
args=()
for arg in "$@"; do
  case "$arg" in
    --schemes) schemes=1 ;;
    --index) index=1 ;;
    *) args+=("$arg") ;;
  esac
done
build_dir="${args[0]:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" --target parallel_sfs_bench -j"$(nproc)"

if [[ "$schemes" -eq 1 ]]; then
  export SKYLINE_BENCH_SCHEMES=1
fi
if [[ "$index" -eq 1 ]]; then
  export SKYLINE_BENCH_INDEX=1
fi
"$build_dir/bench/parallel_sfs_bench" "$repo_root/BENCH_sfs.json"
