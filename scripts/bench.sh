#!/usr/bin/env bash
# Wall-clock benchmark of the simulator hot path (`exp_bench_core`, see
# EXPERIMENTS.md § "Simulator throughput"). Writes results/BENCH_core.json.
#
# Usage:
#   scripts/bench.sh              # full sweep, best-of-3 per scenario
#   scripts/bench.sh --reps 15    # tighter best-of-N
#   scripts/bench.sh --smoke      # smallest workloads, one rep; CI crash
#                                 # canary — a failure means a panic,
#                                 # never a perf number (CI machines are
#                                 # far too noisy to gate on timings)
#   scripts/bench.sh --smoke --check results/BENCH_baseline.json
#                                 # regression gate: event counts must
#                                 # match the baseline exactly and wall
#                                 # time may regress at most 20% — the
#                                 # wall gate only applies when the
#                                 # baseline's provenance (cores, CPU)
#                                 # matches this machine; cross-machine
#                                 # overruns are warnings
#
# The full sweep ends with the 10k- and 100k-node cities (`city_N`), the
# rows whose working set no longer fits in cache.
#
# Building only -p siphoc-bench keeps the `obs` feature out of the build
# (resolver 2): the binary asserts it measures the bare hot path.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p siphoc-bench --bin exp_bench_core
exec ./target/release/exp_bench_core "$@"
