#!/usr/bin/env bash
# Benchmark regression gate for the simulation hot paths.
#
# Runs the guarded benchmarks and compares each ns/op against the
# checked-in baseline (testdata/bench_baseline.txt), failing on a
# regression beyond the slack; allocs/op is gated strictly (allocation
# counts are deterministic per op, so any increase is a real regression —
# and the pooled lanes must hold their 0). The guarded set:
#
#   BenchmarkRaceDetectorOverhead/without-detector  - the no-sink hot path
#     (an empty Config.Sinks run must keep paying nothing for the event
#     stream; the PR-1 optimized baseline was ~31 µs, ~38 µs with the
#     detector attached)
#   BenchmarkRaceDetectorOverhead/with-detector     - one native sink
#   BenchmarkDetectorPipeline/single-pass           - full pipeline fan-out
#   BenchmarkDetectorPipeline/sweep                 - per-run cost of a
#     serial pooled sweep in the fleet-sweep shard shape (one worker's
#     pipeline reset, not rebuilt, between runs)
#   BenchmarkFaultInjection/off                     - fault hooks disabled
#     (the nil-injector check at every instrumented primitive op must cost
#     nothing when nobody asked for chaos)
#   BenchmarkPooledRun/no-sink                      - RunPool steady state
#     (recycled runtime on the same workload: must stay 0 allocs/op and
#     beat the fresh-run lane by the ISSUE-6 margin)
#   BenchmarkPooledRun/with-detector                - pooled + one sink
#   BenchmarkPooledRun/kernels                      - every kernel variant,
#     buggy and fixed, on one pool at one seed per op (the simulator's
#     per-run cost on the real corpus, where goroutine switches dominate,
#     rather than on the contended counter)
#   BenchmarkTraceArchive/record                    - judged run + Recorder
#     (the archive-while-sweeping lane; gated so codec changes cannot
#     silently tax recording sweeps)
#   BenchmarkTraceArchive/replay                    - decode + re-judge
#     (RunAllTrace over an archived frame — the offline verdict path)
#   BenchmarkEngineSubmit/cold                      - full engine execution
#     (submit, worker dispatch, pooled 5-run sweep, render)
#   BenchmarkEngineSubmit/warm                      - store hit end to end
#     (the daemon's steady-state answer path: key, Get, decode, ticket)
#   BenchmarkEngineSubmit/coalesced                 - attach to an in-flight
#     ticket (the dedup fast path under submission storms)
#   BenchmarkStoreGet                               - raw verdict-store hit
#     (must stay 0 allocs/op: the warm daemon rides it on every request)
#
# BenchmarkEngineSubmit/fanout (kernel-mix's shape: a one-shot engine fanning
# each job over two sweep workers) is left ungated. Its allocs/op does not
# repeat: which worker claims which runs depends on host scheduling, and a
# worker that claims no run never warms its runtime. Six counts read
# 1737-1738 allocs/op at -cpu 1, 1821-1836 at -cpu 2 and 1793-1804 at -cpu 4.
#
# The recorder-OFF guarantee rides on the existing rows: recording is a
# plain event.Sink behind Config.Sinks, so with no RecordDir the hot path
# is exactly the no-sink/without-detector lane gated above — any recorder
# cost leaking into it shows up as a regression there.
#
# Refresh the baseline on the reference machine with:
#   scripts/benchgate.sh -update
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=testdata/bench_baseline.txt
SLACK_PCT=${BENCHGATE_SLACK_PCT:-15}
BENCHES='BenchmarkRaceDetectorOverhead|BenchmarkDetectorPipeline/(single-pass|sweep)$|BenchmarkFaultInjection/off|BenchmarkPooledRun/(no-sink|with-detector|kernels)$|BenchmarkTraceArchive/(record|replay)$|BenchmarkEngineSubmit/(cold|warm|coalesced)$|BenchmarkStoreGet$'

raw=$(go test -bench "$BENCHES" -benchtime 1000x -count 6 -benchmem -run '^$' . | grep -E '^Benchmark')

# Take the fastest ns/op and the smallest allocs/op of the counts per
# benchmark (the least-noise estimates) and strip the -GOMAXPROCS suffix so
# names are stable across machines.
current=$(echo "$raw" | awk '
  { name=$1; sub(/-[0-9]+$/, "", name)
    ns=-1; al=-1
    for (i = 2; i < NF; i++) {
      if ($(i+1) == "ns/op")     ns = $i + 0
      if ($(i+1) == "allocs/op") al = $i + 0
    }
    if (!(name in bestns) || ns < bestns[name]) bestns[name] = ns
    if (!(name in bestal) || al < bestal[name]) bestal[name] = al }
  END { for (n in bestns) printf "%s %.1f %d\n", n, bestns[n], bestal[n] }' | sort)

if [[ "${1:-}" == "-update" ]]; then
  {
    echo "# 'name ns/op allocs/op' baseline for scripts/benchgate.sh"
    echo "# (fastest / smallest of 6x1000 iterations)."
    echo "# Regenerate on the reference machine with: scripts/benchgate.sh -update"
    echo "$current"
  } > "$BASELINE"
  echo "benchgate: baseline updated:"
  cat "$BASELINE"
  exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
  echo "benchgate: missing $BASELINE (run scripts/benchgate.sh -update)" >&2
  exit 1
fi

echo "benchgate: current (fastest of 6 counts):"
echo "$current"
fail=0
while read -r name base basealloc; do
  [[ "$name" == \#* || -z "$name" ]] && continue
  cur=$(echo "$current" | awk -v n="$name" '$1==n {print $2}')
  curalloc=$(echo "$current" | awk -v n="$name" '$1==n {print $3}')
  if [[ -z "$cur" ]]; then
    echo "benchgate: FAIL $name: benchmark missing from run" >&2
    fail=1
    continue
  fi
  verdict=$(awk -v c="$cur" -v b="$base" -v s="$SLACK_PCT" '
    BEGIN { limit = b * (100 + s) / 100
            if (c > limit) printf "FAIL %.1f ns/op vs baseline %.1f (limit %.1f)", c, b, limit
            else           printf "ok   %.1f ns/op vs baseline %.1f (limit %.1f)", c, b, limit }')
  echo "benchgate: $verdict  $name"
  [[ "$verdict" == FAIL* ]] && fail=1
  # Older baselines carry no allocs column; the ns gate still applies.
  if [[ -n "${basealloc:-}" ]]; then
    if (( curalloc > basealloc )); then
      echo "benchgate: FAIL $curalloc allocs/op vs baseline $basealloc  $name"
      fail=1
    else
      echo "benchgate: ok   $curalloc allocs/op vs baseline $basealloc  $name"
    fi
  fi
done < "$BASELINE"
exit $fail
