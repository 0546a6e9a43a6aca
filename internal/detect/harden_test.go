package detect

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"goconcbugs/internal/event"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/sim"
)

// hardenProg is a small, bug-free program used by the hardening tests; slow
// enough (via yield loops) that cancellation can land mid-sweep.
func hardenProg(tt *sim.T) {
	ch := sim.NewChan[int](tt, 0)
	tt.Go(func(ct *sim.T) {
		for i := 0; i < 50; i++ {
			ct.Yield()
		}
		ch.Send(ct, 1)
	})
	ch.Recv(tt)
}

// boomInstance panics in Finish whenever the run's seed satisfies pred —
// the deliberately buggy detector of the pool-drain regression test.
type boomInstance struct{ pred func(seed int64) bool }

func (b *boomInstance) Kinds() []event.Kind { return nil }
func (b *boomInstance) Event(*event.Event)  {}
func (b *boomInstance) Reset()              {}
func (b *boomInstance) Finish(res *sim.Result) Verdict {
	if b.pred(res.Seed) {
		panic("detector bug: unhandled seed shape")
	}
	return Verdict{Detector: "boom"}
}

func boomDetector(pred func(seed int64) bool) Detector {
	return Detector{Name: "boom", Desc: "panics on chosen seeds", New: func() Instance {
		return &boomInstance{pred: pred}
	}}
}

// TestSweepSurvivesPanickingDetector: a panicking detector instance must not
// kill the worker pool — the sweep drains, panicked runs fold as Incomplete
// with ReasonPanic, and the healthy runs still count.
func TestSweepSurvivesPanickingDetector(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rep := Sweep(hardenProg, SweepOptions{
			Runs: 12, BaseSeed: 100, Workers: workers,
		}, boomDetector(func(seed int64) bool { return seed%4 == 0 }))
		if rep.Completed != 9 {
			t.Fatalf("workers=%d: Completed = %d, want 9 (12 runs, seeds 100..111, 3 multiples of 4)", workers, rep.Completed)
		}
		if len(rep.Incomplete) != 3 {
			t.Fatalf("workers=%d: Incomplete = %+v, want the 3 panicked runs", workers, rep.Incomplete)
		}
		for _, inc := range rep.Incomplete {
			if inc.Reason != harness.ReasonPanic || inc.Seed%4 != 0 {
				t.Fatalf("workers=%d: incomplete run misclassified: %+v", workers, inc)
			}
		}
		if rep.Verdict.Status != harness.Incomplete || rep.Verdict.Reason != harness.ReasonPanic {
			t.Fatalf("workers=%d: verdict = %v, want incomplete(panic)", workers, rep.Verdict)
		}
	}
}

// TestSweepCancellationReturnsPartial: canceling the context mid-sweep stops
// dispatch promptly; completed runs fold, never-run seeds land in Incomplete
// with the context's reason, and the verdict says the sweep was cut short.
func TestSweepCancellationReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first run: everything is incomplete
	start := time.Now()
	rep := Sweep(hardenProg, SweepOptions{
		Runs: 5000, BaseSeed: 1, Workers: 2, Context: ctx,
	}, MustLookup("race"))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled sweep took %v", elapsed)
	}
	if rep.Completed != 0 || len(rep.Incomplete) != 5000 {
		t.Fatalf("completed=%d incomplete=%d, want 0/5000", rep.Completed, len(rep.Incomplete))
	}
	if rep.Verdict.Status != harness.Incomplete || rep.Verdict.Reason != harness.ReasonCanceled {
		t.Fatalf("verdict = %v, want incomplete(canceled)", rep.Verdict)
	}
}

// cancelInstance cancels the sweep's context when it judges the run of
// seed at: a cancellation that lands at a chosen point mid-sweep.
type cancelInstance struct {
	at     int64
	cancel context.CancelFunc
}

func (c *cancelInstance) Kinds() []event.Kind { return nil }
func (c *cancelInstance) Event(*event.Event)  {}
func (c *cancelInstance) Reset()              {}
func (c *cancelInstance) Finish(res *sim.Result) Verdict {
	if res.Seed == c.at {
		c.cancel()
	}
	return Verdict{Detector: "cancel"}
}

// TestSweepCancelLeavesSuffix: in a parallel sweep canceled mid-way, the
// seeds never run form a suffix of the seed range: every canceled seed lies
// above every completed one.
func TestSweepCancelLeavesSuffix(t *testing.T) {
	const runs, at = 400, 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	det := Detector{Name: "cancel", Desc: "cancels the sweep at one seed", New: func() Instance {
		return &cancelInstance{at: at, cancel: cancel}
	}}
	rep := Sweep(hardenProg, SweepOptions{Runs: runs, Workers: 4, Context: ctx}, det)
	canceled := map[int]bool{}
	for _, inc := range rep.Incomplete {
		if inc.Reason != harness.ReasonCanceled {
			t.Fatalf("incomplete run %+v, want only canceled ones", inc)
		}
		canceled[inc.Run] = true
	}
	if rep.Completed <= at || len(canceled) == 0 {
		t.Fatalf("completed %d, canceled %d: the cancel at run %d did not land mid-sweep", rep.Completed, len(canceled), at)
	}
	for run := 0; run < rep.Completed; run++ {
		if canceled[run] {
			t.Fatalf("run %d canceled below completed run %d", run, rep.Completed-1)
		}
	}
}

// TestSweepDeadlineReturnsPartial: a deadline mid-sweep folds what finished
// and classifies the remainder as deadline-incomplete, within a bounded
// return time (in-flight runs finish, they are microseconds each).
func TestSweepDeadlineReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep := Sweep(hardenProg, SweepOptions{
		Runs: 200000, BaseSeed: 1, Workers: 2, Context: ctx,
	}, MustLookup("race"))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlined sweep took %v", elapsed)
	}
	if rep.Completed == 0 || rep.Completed >= 200000 {
		t.Fatalf("Completed = %d, want a strict partial result", rep.Completed)
	}
	if rep.Verdict.Status != harness.Incomplete || rep.Verdict.Reason != harness.ReasonDeadline {
		t.Fatalf("verdict = %v, want incomplete(deadline)", rep.Verdict)
	}
	if got := rep.Completed + len(rep.Incomplete); got != 200000 {
		t.Fatalf("completed+incomplete = %d, every seed must be accounted for", got)
	}
}

// stripElapsed zeroes the wall-time fields, which are legitimately different
// between runs of the same sweep.
func stripElapsed(rep *SweepReport) *SweepReport {
	cp := *rep
	cp.Detectors = append([]SweepStat(nil), rep.Detectors...)
	for i := range cp.Detectors {
		cp.Detectors[i].Elapsed = 0
	}
	return &cp
}

// TestSweepCheckpointResumeFoldsIdentically is the resumability contract: a
// sweep interrupted mid-flight and resumed from its checkpoint folds to the
// same report as one that was never interrupted — and the resumed sweep only
// executes the missing seeds.
func TestSweepCheckpointResumeFoldsIdentically(t *testing.T) {
	race := MustLookup("race")
	baseline := Sweep(hardenProg, SweepOptions{Runs: 40, BaseSeed: 7, Workers: 1}, race)

	cp := filepath.Join(t.TempDir(), "sweep.json")
	opts := SweepOptions{Runs: 40, BaseSeed: 7, Workers: 1, Checkpoint: cp}

	// Leg 1: cancel after ~15 runs via a detector counting its Finish calls.
	ctx, cancel := context.WithCancel(context.Background())
	executed := 0
	counting := finishHook(race, func() {
		executed++
		if executed == 15 {
			cancel()
		}
	})
	o1 := opts
	o1.Context = ctx
	partial := Sweep(hardenProg, o1, counting)
	if partial.Completed == 0 || partial.Completed >= 40 {
		t.Fatalf("interrupted leg completed %d of 40, want a strict partial", partial.Completed)
	}

	// Leg 2: resume from the checkpoint, no cancellation.
	executed2 := 0
	counting2 := finishHook(race, func() { executed2++ })
	resumed := Sweep(hardenProg, opts, counting2)
	if resumed.Completed != 40 {
		t.Fatalf("resumed sweep completed %d of 40: %+v", resumed.Completed, resumed.Verdict)
	}
	if executed2 >= 40 {
		t.Fatalf("resume re-executed everything (%d Finish calls); checkpoint was ignored", executed2)
	}
	if executed2+partial.Completed != 40 {
		t.Fatalf("leg1 completed %d, leg2 executed %d; together they must cover exactly 40", partial.Completed, executed2)
	}
	if !reflect.DeepEqual(stripElapsed(resumed), stripElapsed(baseline)) {
		t.Fatalf("resumed fold differs from uninterrupted sweep:\n%+v\n%+v", stripElapsed(resumed), stripElapsed(baseline))
	}
}

// TestSweepCheckpointFingerprintMismatchStartsFresh: a checkpoint written
// under different options must be ignored, not half-applied.
func TestSweepCheckpointFingerprintMismatchStartsFresh(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.json")
	race := MustLookup("race")
	Sweep(hardenProg, SweepOptions{Runs: 10, BaseSeed: 7, Workers: 1, Checkpoint: cp}, race)
	rep := Sweep(hardenProg, SweepOptions{Runs: 10, BaseSeed: 8, Workers: 1, Checkpoint: cp}, race)
	if rep.Completed != 10 {
		t.Fatalf("mismatched checkpoint: completed %d, want a full fresh sweep", rep.Completed)
	}
}

// TestSweepWorkerIndependenceUnderInjection: with per-run injectors derived
// purely from (run, seed), the folded report is bit-identical for any worker
// count — the property that makes sweep hits replayable with one command.
func TestSweepWorkerIndependenceUnderInjection(t *testing.T) {
	injOpts := inject.Options{Seed: 5, Budget: 3}
	mk := func(workers int) *SweepReport {
		return stripElapsed(Sweep(hardenProg, SweepOptions{
			Runs: 30, BaseSeed: 3, Workers: workers,
			InjectorFor: func(run int, seed int64) sim.Injector { return inject.ForRun(injOpts, run) },
		}, MustLookup("race"), MustLookup("leak")))
	}
	serial := mk(1)
	parallel := mk(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=1 and workers=8 folds differ under injection:\n%+v\n%+v", serial, parallel)
	}
}
