#!/usr/bin/env bash
# Build bench/e2e into build-e2e/, run every workload N times (each run its
# own process, seed S+i, workload order alternating), print median and
# quartiles per workload and metric, write build-e2e/e2e-results.json, then
# run one traced pass per workload and print the per-layer table.
#
#   bench/e2e/run.sh [--seed S] [--runs N] [--seconds T] [--out FILE]
set -euo pipefail
cd "$(dirname "$0")/../.."
exec python3 bench/e2e/bench.py --sweep "$@"
