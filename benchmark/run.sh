#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it).
#
#   bash benchmark/run.sh                         every workload, untraced then traced
#   bash benchmark/run.sh --workload doc_s --seed 7 --seconds 24 --trace 0
#   bash benchmark/run.sh --smoke                 tiny fixtures, whole benchmark in seconds
#
# Builds the package offline, then prints each metric as
# `workload/name value unit n=<samples>` and, last, the result object of
# the run. Exits non-zero if the build fails or any op failed its check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is taken from the caller's directory, by
# cargo and by the path to the binary below alike.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/whirlpool-benchmark"

workload="" trace="" rest=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --seed|--seconds) rest+=("$1" "$2"); shift 2 ;;
    --smoke) rest+=("$1"); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ -n "$workload" ]; then
  exec "$bin" run --workload "$workload" --trace "${trace:-0}" --out "$here/out" "${rest[@]}"
fi

status=0
for w in doc_s doc_m2 corpus_lazy serve_closed; do
  for t in ${trace:-0 1}; do
    "$bin" run --workload "$w" --trace "$t" --out "$here/out" "${rest[@]}" || status=1
  done
done
exit "$status"
