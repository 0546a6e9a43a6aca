package explore

import (
	"context"
	"testing"
	"time"

	"goconcbugs/internal/harness"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/sim"
)

// slowSpin burns scheduler steps so cancellation can land mid-exploration.
func slowSpin(tt *sim.T) {
	ch := sim.NewChan[int](tt, 0)
	tt.Go(func(ct *sim.T) {
		for i := 0; i < 100; i++ {
			ct.Yield()
		}
		ch.Send(ct, 1)
	})
	ch.Recv(tt)
}

// panicOnSomeSeeds host-panics (a raw Go panic, not a simulated one) on a
// seed-dependent subset of runs — the stand-in for a buggy kernel or
// detector crashing the host side.
func panicOnSomeSeeds(tt *sim.T) {
	if tt.Rand(3) == 0 {
		panic("host-side bug in the kernel")
	}
	ch := sim.NewChan[int](tt, 1)
	ch.Send(tt, 1)
	ch.Recv(tt)
}

// TestRunSurvivesHostPanics: explore.Run must isolate host panics per run,
// keep the pool draining, and account every run as completed or errored —
// identically for serial and parallel execution.
func TestRunSurvivesHostPanics(t *testing.T) {
	var firstErrs []*harness.RunError
	for _, workers := range []int{1, 4} {
		st := Run(panicOnSomeSeeds, Options{Runs: 60, BaseSeed: 1, Workers: workers})
		if len(st.Errors) == 0 {
			t.Fatalf("workers=%d: no host panics captured; the fixture should panic on ~1/3 of seeds", workers)
		}
		if st.Completed+len(st.Errors) != st.Runs {
			t.Fatalf("workers=%d: completed %d + errors %d != runs %d", workers, st.Completed, len(st.Errors), st.Runs)
		}
		for _, e := range st.Errors {
			if e.PanicValue != "host-side bug in the kernel" {
				t.Fatalf("workers=%d: captured wrong panic: %+v", workers, e)
			}
		}
		if workers == 1 {
			firstErrs = st.Errors
		} else if len(firstErrs) != len(st.Errors) {
			t.Fatalf("serial captured %d errors, parallel %d — fold must be worker-independent", len(firstErrs), len(st.Errors))
		}
	}
}

// TestRunCancellationReturnsPartial: a canceled exploration stops promptly
// with Completed < Runs instead of discarding or finishing the work.
func TestRunCancellationReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	st := Run(slowSpin, Options{Runs: 500000, BaseSeed: 1, Workers: 2, Context: ctx})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled exploration took %v", elapsed)
	}
	if st.Completed == 0 || st.Completed >= st.Runs {
		t.Fatalf("Completed = %d of %d, want a strict partial result", st.Completed, st.Runs)
	}
}

// TestSystematicBudgetVerdict: exhausting MaxRuns on a space larger than the
// budget yields Incomplete{budget} with a nonzero frontier — distinguishable
// from both refutation and cancellation.
func TestSystematicBudgetVerdict(t *testing.T) {
	res := Systematic(tinyRace, SystematicOptions{MaxRuns: 3})
	if res.Complete {
		t.Fatal("a 3-run budget cannot cover tinyRace's schedule space")
	}
	if res.Verdict.Status != harness.Incomplete || res.Verdict.Reason != harness.ReasonBudget {
		t.Fatalf("verdict = %v, want incomplete(budget)", res.Verdict)
	}
	if res.Frontier <= 0 {
		t.Fatalf("frontier = %d, want > 0 when the search stops early", res.Frontier)
	}
}

// TestSystematicVerdictConfirmedAndRefuted: the two terminal verdicts.
func TestSystematicVerdictConfirmedAndRefuted(t *testing.T) {
	if res := Systematic(tinyRace, SystematicOptions{MaxRuns: 20000}); res.Verdict.Status != harness.Confirmed {
		t.Fatalf("buggy program verdict = %v, want confirmed", res.Verdict)
	}
	res := Systematic(tinySynced, SystematicOptions{MaxRuns: 100_000})
	if res.Verdict.Status != harness.Refuted {
		t.Fatalf("fixed program verdict = %v, want refuted", res.Verdict)
	}
	if res.Frontier != 0 {
		t.Fatalf("complete search left frontier %d", res.Frontier)
	}
}

// TestSystematicCancellation: both search modes (full DFS and DPOR) stop
// between runs on cancellation and return the partial result with an
// Incomplete verdict naming the context reason.
func TestSystematicCancellation(t *testing.T) {
	modes := []struct {
		name string
		opts SystematicOptions
	}{
		{"dfs", SystematicOptions{}},
		{"dpor", SystematicOptions{Reduction: true}},
	}
	for _, m := range modes {
		ctx, cancel := context.WithCancel(context.Background())
		opts := m.opts
		opts.MaxRuns = 1_000_000
		opts.Context = ctx
		runs := 0
		opts.OnRun = func(r *sim.Result, schedule []int) {
			runs++
			if runs == 5 {
				cancel()
			}
		}
		start := time.Now()
		res := Systematic(tinySynced, opts)
		cancel()
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: canceled search took %v", m.name, elapsed)
		}
		if res.Complete {
			t.Fatalf("%s: search claims completeness after cancellation at run 5", m.name)
		}
		if res.Verdict.Status != harness.Incomplete || res.Verdict.Reason != harness.ReasonCanceled {
			t.Fatalf("%s: verdict = %v, want incomplete(canceled)", m.name, res.Verdict)
		}
		if res.Runs == 0 {
			t.Fatalf("%s: partial result lost the completed runs", m.name)
		}
	}
}

// alwaysPanics host-panics on every schedule: the worst-case crashing
// kernel. The systematic search must survive every run erroring and report
// Incomplete{panic} rather than crashing or claiming refutation.
func alwaysPanics(tt *sim.T) {
	ch := sim.NewChan[int](tt, 0)
	tt.Go(func(ct *sim.T) { ch.Send(ct, 1) })
	ch.Recv(tt)
	panic("kernel always crashes the host")
}

func TestSystematicSurvivesHostPanics(t *testing.T) {
	for _, m := range []struct {
		name string
		opts SystematicOptions
	}{
		{"dfs", SystematicOptions{}},
		{"dpor", SystematicOptions{Reduction: true}},
	} {
		opts := m.opts
		opts.MaxRuns = 100
		res := Systematic(alwaysPanics, opts)
		if len(res.Errors) == 0 {
			t.Fatalf("%s: no RunErrors captured from an always-panicking program", m.name)
		}
		if res.Verdict.Status != harness.Incomplete || res.Verdict.Reason != harness.ReasonPanic {
			t.Fatalf("%s: verdict = %v, want incomplete(panic)", m.name, res.Verdict)
		}
	}
}

// TestRunInjectionIsWorkerIndependent: with InjectorFor a pure function of
// the run index, explore.Run folds identically for any worker count even
// under aggressive injection.
func TestRunInjectionIsWorkerIndependent(t *testing.T) {
	injOpts := inject.Options{Seed: 9, Budget: 4, Aggressive: true}
	mk := func(workers int) *Stats {
		return Run(slowSpin, Options{
			Runs: 40, BaseSeed: 2, Workers: workers, WithRace: true,
			InjectorFor: func(run int, seed int64) sim.Injector { return inject.ForRun(injOpts, run) },
		})
	}
	a, b := mk(1), mk(8)
	if a.Manifested != b.Manifested || a.Panics != b.Panics || a.LeakRuns != b.LeakRuns ||
		a.FirstManifestRun != b.FirstManifestRun || a.RaceDetectedRuns != b.RaceDetectedRuns {
		t.Fatalf("serial and parallel folds differ under aggressive injection:\n%+v\n%+v", a, b)
	}
}
