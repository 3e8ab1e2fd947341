#!/usr/bin/env sh
# The regression sentinel's quick deterministic cell set.
#
#   tools/regression_cells.sh <arinoc_sim> write <store-dir>   # (re-)anchor
#   tools/regression_cells.sh <arinoc_sim> check <store-dir>   # gate
#
# Four cells spanning the axes the sentinel watches: scheme (baseline vs
# ARI), workload intensity (bfs saturating, hotspot mid, matrixMul light),
# and fabric (mesh/torus/cmesh). Small enough to finish in seconds, long
# enough past warmup that every tracked metric is exercised. The simulator
# is deterministic, so `check` against the committed store must pass
# byte-for-byte on an unchanged tree — CI runs exactly this script and
# fails on exit 7 (see .github/workflows/ci.yml, docs/observability.md).
#
# Any change to these flags changes the canonical-config hash and makes the
# committed anchors unreachable: re-run `write` and commit the new store in
# the same change, with the reason in the commit message.
set -eu

if [ "$#" -lt 3 ]; then
  echo "usage: $0 <arinoc_sim> write|check <store-dir>" >&2
  exit 2
fi
SIM=$1
MODE=$2
STORE=$3
case "$MODE" in
  write) FLAG=--baseline-write ;;
  check) FLAG=--baseline-check ;;
  *) echo "unknown mode '$MODE' (want write|check)" >&2; exit 2 ;;
esac

COMMON="--mesh 4 --mcs 4 --cycles 2000 --warmup 500"

status=0
run_cell() {
  # shellcheck disable=SC2086  # COMMON is intentionally word-split.
  "$SIM" $COMMON "$@" "$FLAG" "$STORE" >/dev/null || status=$?
}

run_cell --benchmark bfs       --scheme XY-Baseline
run_cell --benchmark bfs       --scheme Ada-ARI
run_cell --benchmark hotspot   --scheme Ada-ARI      --topology torus
run_cell --benchmark matrixMul --scheme Ada-Baseline --topology cmesh:4

exit "$status"
