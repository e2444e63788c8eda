#!/usr/bin/env bash
# The reference benchmark's one command.
#
#   benchmark/run.sh [--smoke] [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#
# With --workload it runs that workload once — untraced (end-to-end
# metrics) unless --trace / --trace 1 is given (per-layer metrics) — and
# the last line of its output is the one-line result object. Without
# --workload it runs every workload untraced, then traced, and gathers the
# result objects in benchmark/out/results.json. Every metric is printed as
# `name value unit`. The exit code is non-zero on any correctness failure.
#
# It builds `plasma-serve` (release, from the repository's own workspace)
# and the harness (benchmark/, a workspace of its own) first; both builds
# are no-ops when nothing changed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

workload=""
trace=0
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
    --trace)
      # `--trace` alone means traced; `--trace 0|1` is the driver's form.
      if [ "${2:-}" = "0" ] || [ "${2:-}" = "1" ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --smoke) pass+=(--smoke); shift ;;
    --seed) pass+=(--seed "${2:?--seed needs a value}"); shift 2 ;;
    # The driver passes BENCHMARK.json's run_seconds. The request counts
    # are frozen at what that phase holds, so there is nothing to scale.
    --seconds) : "${2:?--seconds needs a value}"; shift 2 ;;
    -h|--help) sed -n '2,16p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

# One target directory for both workspaces; a relative CARGO_TARGET_DIR
# (the benchmark driver sets one) is taken from the repository root.
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

build() {
  # Build chatter goes to stderr: stdout's last line is the result.
  cargo build --release --offline --quiet "$@" 1>&2
}
build --manifest-path "$root/Cargo.toml" -p plasma-server --bin plasma-serve
build --manifest-path "$here/Cargo.toml" -p plasma-bench-wire
if [ "$trace" = 1 ] || [ -z "$workload" ]; then
  build --manifest-path "$here/Cargo.toml" -p plasma-bench-trace
fi

bin="$target/release"
out="$here/out"
mkdir -p "$out"
run_one() { # workload, binary
  "$bin/$2" --workload "$1" --server-bin "$bin/plasma-serve" --out "$out" ${pass[@]+"${pass[@]}"}
}

if [ -n "$workload" ]; then
  if [ "$trace" = 1 ]; then run_one "$workload" bench-trace; else run_one "$workload" bench-wire; fi
  exit $?
fi

status=0
SECONDS=0
rm -f "$out"/result-*.json
for w in cold_sweep warm_sweep wide_answer ingest_watch; do
  run_one "$w" bench-wire || status=1
done
for w in cold_sweep warm_sweep wide_answer ingest_watch; do
  run_one "$w" bench-trace || status=1
done
{
  echo "{"
  first=1
  for f in "$out"/result-*.json; do
    [ "$first" = 1 ] || echo ","
    first=0
    name="$(basename "$f" .json)"
    printf '"%s": ' "${name#result-}"
    tr -d '\n' < "$f"
  done
  echo
  echo "}"
} > "$out/results.json"
echo "results: $out/results.json"
echo "suite: $SECONDS s"
exit $status
