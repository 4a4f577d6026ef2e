#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it.
#
#   bash perfbench/run.sh --workload kv-long-history --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Build output goes to stderr; the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
