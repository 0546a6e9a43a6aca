#!/usr/bin/env bash
# Fuzz smoke lane: every fuzz target for 10 s, each new-coverage input
# minimized for at most 1 s. Go's default minimization bound is 60 s, so a
# target that writes files on every execution (FuzzSweepLog, FuzzStoreOpen)
# used to spend all of its 10 s minimizing its first input: FuzzSweepLog
# made 6 executions in 11 s. A target that reports fewer executions than
# its floor fails the lane, so a stall cannot pass silently.
#
# Floors are about a fifth of what each target made in 10 s on a 2-vCPU
# Xeon with Go 1.24.0 (fuzzing with both cores), shown beside each floor.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
fuzz() { # target package floor
  local target=$1 pkg=$2 floor=$3 out execs
  if ! out=$(go test -run='^$' -fuzz="^$target\$" -fuzztime=10s -fuzzminimizetime=1s "$pkg" 2>&1); then
    echo "$out"
    echo "fuzzsmoke: $target failed" >&2
    fail=1
    return
  fi
  execs=$(printf '%s\n' "$out" | sed -n 's/.*execs: \([0-9]*\).*/\1/p' | tail -n 1)
  if [ -z "$execs" ] || [ "$execs" -lt "$floor" ]; then
    printf '%s\n' "$out" | tail -n 5
    echo "fuzzsmoke: $target made ${execs:-no} executions in 10 s, under its floor of $floor" >&2
    fail=1
    return
  fi
  echo "fuzzsmoke: $target ok, $execs executions (floor $floor)"
}

fuzz FuzzConformance ./internal/conformance/ 150        # measured 751
fuzz FuzzDenseVsMapSemantics ./internal/hb/ 30000       # 170,778
fuzz FuzzDPORSoundness ./internal/conformance/ 140      # 696
fuzz FuzzFaultPlanReplay ./internal/inject/ 10000       # 52,950
fuzz FuzzTraceRoundTrip ./internal/trace/ 12000         # 61,433
fuzz FuzzSweepLog ./internal/detect/ 2000               # 12,310
fuzz FuzzStoreOpen ./internal/store/ 600                # 3,114
fuzz FuzzJobDecode ./internal/engine/ 15000             # 84,977
exit $fail
