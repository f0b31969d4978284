#!/bin/sh
# Builds the benchmark from source, then runs it with the given arguments,
# from the root of a checkout:
#   sh perf/run.sh --workload boom-guided --seed 7 --seconds 10 --trace 0
# The build writes only under _build/ (the shared dune cache is disabled).
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perf/perf.exe >&2
exec ./_build/default/perf/perf.exe "$@"
