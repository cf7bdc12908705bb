#!/usr/bin/env bash
# End-to-end benchmark: a five-server, four-host dissent fleet in one process
# over loopback TCP (see README.md).
#
#   bash bench/e2e/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1] [--out F]
#   bash bench/e2e/run.sh [--seed S] [--seconds T] [--trace 0|1] [--out F]   # all workloads
#   bash bench/e2e/run.sh --smoke
#
# Builds the dissent library and both benchmark binaries (plain and
# link-time-traced) into .bench_build/ at the repository root as a Release
# build, then runs. Build output goes to stderr. For one workload the last
# stdout line is the JSON result: --trace 0 reports the end-to-end metrics,
# --trace 1 the per-layer ledger. --out appends every result, stamped with
# the git sha, compiler flags and machine load, to F as a JSON line.
# --smoke runs every workload for 3 s with all integrity checks and fails
# unless each one passes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
workloads=(microblog_100 bulk_100 scale_1000 restart_100)

workload="" seed=1 seconds=15 trace=0 out="" smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [[ $trace != 0 && $trace != 1 ]]; then
  echo "run.sh: --trace takes 0 or 1" >&2
  exit 2
fi

if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  generator=()
  if command -v ninja > /dev/null; then
    generator=(-G Ninja)
  fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

sha="$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)"

# run_one WORKLOAD SEED SECONDS TRACE [extra dissent_bench flags...]
run_one() {
  local w="$1" s="$2" secs="$3" tr="$4"
  shift 4
  local args=(--workload "$w" --seed "$s" --seconds "$secs" --git-sha "$sha" "$@")
  if [[ -n $out ]]; then
    args+=(--out "$out")
  fi
  if [[ $tr == 0 ]]; then
    "$build/dissent_bench" "${args[@]}"
  else
    # The ledger needs no set-up median, so one fleet is built, not several.
    "$build/dissent_bench_traced" --setups 1 "${args[@]}"
  fi
}

if [[ $smoke == 1 ]]; then
  status=0
  for w in "${workloads[@]}"; do
    result="$(run_one "$w" "$seed" 3 0 --setups 1 | tail -n 1)" || true
    echo "$w $result"
    if [[ $result != *'"correct": true'* || $result != *'"failed": 0,'* ]]; then
      echo "run.sh: smoke check failed on $w" >&2
      status=1
    fi
  done
  exit "$status"
fi

if [[ -n $workload ]]; then
  run_one "$workload" "$seed" "$seconds" "$trace"
else
  for w in "${workloads[@]}"; do
    run_one "$w" "$seed" "$seconds" "$trace"
  done
fi
