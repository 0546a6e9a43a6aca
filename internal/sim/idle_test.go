package sim

import (
	gort "runtime"
	"testing"
)

// TestIdleWorkersBounded: the idle list keeps at most maxIdleWorkers
// coroutines. Fresh runs of a program with more goroutines than that must
// stop the surplus workers, not leave them parked for the life of the
// process.
func TestIdleWorkersBounded(t *testing.T) {
	n := maxIdleWorkers + 40
	prog := func(tt *T) {
		wg := NewWaitGroup(tt, "wg")
		wg.Add(tt, n)
		for range n {
			tt.Go(func(ct *T) { wg.Done(ct) })
		}
		wg.Wait(tt)
	}
	before := gort.NumGoroutine()
	for seed := range int64(3) {
		if res := Run(Config{Seed: seed}, prog); res.Failed() || res.GoroutinesCreated != n+1 {
			t.Fatalf("seed %d: outcome %v with %d goroutines, want a clean run of %d", seed, res.Outcome, res.GoroutinesCreated, n+1)
		}
	}
	if after := gort.NumGoroutine(); after > before+maxIdleWorkers {
		t.Fatalf("%d goroutines after the runs, want at most %d (%d before, plus the idle list's bound %d)",
			after, before+maxIdleWorkers, before, maxIdleWorkers)
	}
}
