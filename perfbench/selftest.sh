#!/usr/bin/env bash
# Self-test of the benchmark: for each workload, two traced runs with the
# same seed, in separate processes, must both pass and print bit-identical
# counts (steps, history length, allocated words, rebuilds, migrations).
#
#   bash perfbench/selftest.sh [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
seconds="${1:-3}"
status=0
for w in kv-long-history kv-sharded-migrate fuzz-sharded; do
  a=$(bash perfbench/run.sh --workload "$w" --seed 7 --seconds "$seconds" --trace 1 | grep '^counts ')
  b=$(bash perfbench/run.sh --workload "$w" --seed 7 --seconds "$seconds" --trace 1 | grep '^counts ')
  if [ "$a" = "$b" ] && [[ "$a" == "counts repeat "* ]]; then
    echo "ok   $w: $a"
  else
    echo "FAIL $w"; echo "  first:  $a"; echo "  second: $b"
    status=1
  fi
done
exit "$status"
