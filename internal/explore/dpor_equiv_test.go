package explore_test

// Differential equivalence suite for dynamic partial-order reduction.
//
// DPOR's correctness contract is behavioral: the reduced search must reach
// every outcome the full DFS reaches — it may only skip schedules that are
// Mazurkiewicz-trace-equivalent to one it ran. These tests enforce the
// contract directly, by comparing the *set* of trace-invariant outcome
// signatures collected by the reduced and unreduced searches on
//
//   - every kernel in the corpus, buggy and fixed variant alike, and
//   - generated conformance-IR programs (a different program distribution:
//     racy shared variables, WaitGroups, buffered fan-in trees).

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"goconcbugs/internal/conformance"
	"goconcbugs/internal/explore"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

// traceSignature folds a run result down to its trace-invariant content:
// the outcome class, what is blocked forever and on what kind of object,
// simulated panics, and violated invariants. Goroutine ids and names are
// deliberately excluded — concurrent spawns may be numbered in either order
// within one equivalence class — as are step counts and virtual time.
func traceSignature(r *sim.Result) string {
	var leaks []string
	for _, g := range r.Leaked {
		leaks = append(leaks, g.BlockKind.String()+" on "+g.BlockObj)
	}
	sort.Strings(leaks)
	var panics []string
	for _, p := range r.Panics {
		panics = append(panics, p.Msg)
	}
	sort.Strings(panics)
	checks := append([]string(nil), r.CheckFailures...)
	sort.Strings(checks)
	return fmt.Sprintf("%v | leaked[%s] | panic[%s] | check[%s]",
		r.Outcome, strings.Join(leaks, "; "), strings.Join(panics, "; "), strings.Join(checks, "; "))
}

// exploreSigs runs a systematic exploration and collects the signature set.
func exploreSigs(prog sim.Program, opts explore.SystematicOptions) (map[string]bool, *explore.SystematicResult) {
	sigs := map[string]bool{}
	opts.OnRun = func(r *sim.Result, schedule []int) { sigs[traceSignature(r)] = true }
	res := explore.Systematic(prog, opts)
	return sigs, res
}

func sortedKeys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// kernelBudget is the full-DFS schedule budget per kernel variant. Variants
// whose unreduced space exceeds it are compared on the schedules both
// searches did run (subset check) rather than exact set equality.
const kernelBudget = 120_000

// TestDPORKernelEquivalence: on every kernel, buggy and fixed, the reduced
// search must (a) reach exactly the signature set of the full DFS whenever
// both complete, (b) never run more schedules than the full DFS, and
// (c) agree on whether a failure exists.
func TestDPORKernelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive kernel sweep")
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			for _, variant := range []struct {
				name string
				prog sim.Program
			}{{"buggy", k.Buggy}, {"fixed", k.Fixed}} {
				opts := explore.SystematicOptions{
					Config:  k.Config(0),
					MaxRuns: kernelBudget,
				}
				dfsSigs, dfs := exploreSigs(variant.prog, opts)
				opts.Reduction = true
				dporSigs, dpor := exploreSigs(variant.prog, opts)

				if dpor.Runs > dfs.Runs {
					t.Errorf("%s: DPOR ran %d schedules, full DFS %d — reduction must never explore more",
						variant.name, dpor.Runs, dfs.Runs)
				}
				switch {
				case dfs.Complete && dpor.Complete:
					if !reflect.DeepEqual(dfsSigs, dporSigs) {
						t.Errorf("%s: signature sets differ\nfull DFS (%d runs): %v\nDPOR (%d runs): %v",
							variant.name, dfs.Runs, sortedKeys(dfsSigs), dpor.Runs, sortedKeys(dporSigs))
					}
					if (dfs.Failures > 0) != (dpor.Failures > 0) {
						t.Errorf("%s: failure disagreement: DFS %d failing schedules, DPOR %d",
							variant.name, dfs.Failures, dpor.Failures)
					}
				case dpor.Complete:
					// The reduced space fit the budget, the full one did
					// not: every signature DPOR found must be DFS-reachable
					// eventually, and everything the truncated DFS saw must
					// be in the (complete) DPOR set.
					for sig := range dfsSigs {
						if !dporSigs[sig] {
							t.Errorf("%s: complete DPOR search misses DFS-reachable signature %q", variant.name, sig)
						}
					}
				default:
					t.Logf("%s: neither search complete within %d runs (DFS %d, DPOR %d) — sets not comparable",
						variant.name, kernelBudget, dfs.Runs, dpor.Runs)
				}
			}
		})
	}
}

// TestDPORConformanceIREquivalence: 200 generated IR programs — a program
// family independent of the kernel corpus — must yield identical signature
// sets under full enumeration and under reduction.
func TestDPORConformanceIREquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("200-program sweep")
	}
	const programs = 200
	const budget = 20_000
	skipped := 0
	for seed := int64(0); seed < programs; seed++ {
		p := conformance.Generate(seed, conformance.ModeSafe)
		full := conformance.ExploreSimReduced(p, budget, false, false)
		red := conformance.ExploreSimReduced(p, budget, false, true)
		if red.Schedules > full.Schedules {
			t.Errorf("seed %d: DPOR ran %d schedules, full DFS %d", seed, red.Schedules, full.Schedules)
		}
		if !full.Complete || !red.Complete {
			skipped++
			continue
		}
		for sig := range full.Sigs {
			if red.Sigs[sig] == 0 {
				t.Errorf("seed %d: DPOR misses DFS-reachable signature %v\nreproduce with: go test ./internal/conformance -run TestReplaySeed -conformance.seed=%d -v",
					seed, sig, seed)
			}
		}
		for sig := range red.Sigs {
			if full.Sigs[sig] == 0 {
				t.Errorf("seed %d: DPOR reaches signature %v the full DFS does not — reduction must not invent outcomes", seed, sig)
			}
		}
	}
	if skipped > programs/4 {
		t.Errorf("%d of %d programs exceeded the %d-schedule budget — equivalence barely exercised", skipped, programs, budget)
	}
}

// TestReplayScheduleMismatch: a schedule recorded against a different
// program must be rejected explicitly, not silently truncated (regression
// for the old clamp-to-zero behavior).
func TestReplayScheduleMismatch(t *testing.T) {
	twoWorkers := func(t *sim.T) {
		v := sim.NewIntVar(t, "x")
		done := sim.NewChan[int](t, 2)
		for i := 0; i < 2; i++ {
			t.Go(func(t *sim.T) {
				v.Incr(t, 1)
				done.Send(t, 1)
			})
		}
		done.Recv(t)
		done.Recv(t)
	}
	// Out-of-range decision index: at most 3 goroutines are ever runnable,
	// so index 9 can never be a valid option.
	if _, err := explore.ReplaySchedule(twoWorkers, sim.Config{}, []int{9, 9, 9}); err == nil {
		t.Fatalf("out-of-range schedule replayed without error")
	} else if !strings.Contains(err.Error(), "schedule mismatch") {
		t.Fatalf("unexpected error text: %v", err)
	}
	// Overlong schedule: more decisions than the program ever asks for.
	long := make([]int, 10_000)
	if _, err := explore.ReplaySchedule(twoWorkers, sim.Config{}, long); err == nil {
		t.Fatalf("overlong schedule replayed without error")
	}
	// A genuinely recorded schedule must replay cleanly and reproduce its
	// result.
	res := explore.Systematic(twoWorkers, explore.SystematicOptions{MaxRuns: 50})
	var recorded [][]int
	opts := explore.SystematicOptions{MaxRuns: 50,
		OnRun: func(r *sim.Result, s []int) { recorded = append(recorded, append([]int(nil), s...)) }}
	explore.Systematic(twoWorkers, opts)
	_ = res
	for _, s := range recorded[:min(len(recorded), 5)] {
		if _, err := explore.ReplaySchedule(twoWorkers, sim.Config{}, s); err != nil {
			t.Fatalf("recorded schedule %v failed to replay: %v", s, err)
		}
	}
}
