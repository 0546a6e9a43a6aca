package sim

import (
	"strings"
	"testing"

	"goconcbugs/internal/event"
)

// Robustness and failure-injection tests: the runtime must stay sane when
// the program misbehaves in ways beyond simulated panics.

func TestHostPanicPropagates(t *testing.T) {
	// A genuine bug in kernel code (not a simulated runtime panic) must
	// surface to the host, not be swallowed.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("host panic swallowed")
		}
		if !strings.Contains(toString(r), "kernel bug") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	Run(Config{Seed: 1}, func(tt *T) {
		panic("kernel bug")
	})
}

func toString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

func TestHostPanicInChildPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("child host panic swallowed")
		}
	}()
	Run(Config{Seed: 1}, func(tt *T) {
		tt.Go(func(ct *T) { panic("child bug") })
		tt.Sleep(10)
	})
}

func TestRunAfterHostPanicStillWorks(t *testing.T) {
	// A crashed run must not poison subsequent runs (scheduler state is
	// per-run).
	func() {
		defer func() { recover() }()
		Run(Config{Seed: 1}, func(tt *T) { panic("boom") })
	}()
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 0)
		tt.Go(func(ct *T) { ch.Send(ct, 1) })
		v, _ := ch.Recv(tt)
		tt.Checkf(v == 1, "got %d", v)
	})
	if res.Failed() {
		t.Fatalf("follow-up run failed: %+v", res.CheckFailures)
	}
}

func TestTinyStepBudget(t *testing.T) {
	res := Run(Config{Seed: 1, MaxSteps: 3}, func(tt *T) {
		for {
			tt.Yield()
		}
	})
	if res.Outcome != OutcomeStepLimit {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestChooserOutOfRangeIsClamped(t *testing.T) {
	res := Run(Config{Seed: 1, Chooser: func(n, preferred int) int { return 999 }}, func(tt *T) {
		done := NewChan[int](tt, 0)
		tt.Go(func(ct *T) { done.Send(ct, 1) })
		done.Recv(tt)
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestNegativeChooserIsClamped(t *testing.T) {
	res := Run(Config{Seed: 1, Chooser: func(n, preferred int) int { return -5 }}, func(tt *T) {
		done := NewChan[int](tt, 0)
		tt.Go(func(ct *T) { done.Send(ct, 1) })
		done.Recv(tt)
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestObserverMonitorChooserTogether(t *testing.T) {
	// A memory-access sink, a synchronization sink and the chooser at once
	// must compose.
	accesses := &countSink{kinds: []event.Kind{event.MemRead, event.MemWrite}}
	syncs := &countSink{kinds: []event.Kind{event.MutexLock, event.MutexUnlock, event.WGAdd, event.WGDone, event.WGWaitEnd}}
	var choices int
	res := Run(Config{
		Seed:  1,
		Sinks: []event.Sink{accesses, syncs},
		Chooser: func(n, preferred int) int {
			choices++
			return n - 1
		},
	}, func(tt *T) {
		x := NewVar[int](tt, "x")
		mu := NewMutex(tt, "mu")
		wg := NewWaitGroup(tt, "wg")
		wg.Add(tt, 2)
		for i := 0; i < 2; i++ {
			tt.Go(func(ct *T) {
				mu.Lock(ct)
				x.Store(ct, x.Load(ct)+1)
				mu.Unlock(ct)
				wg.Done(ct)
			})
		}
		wg.Wait(tt)
	})
	if res.Failed() {
		t.Fatalf("failed: %+v", res.CheckFailures)
	}
	if accesses.n == 0 || syncs.n == 0 || choices == 0 {
		t.Fatalf("hooks unused: accesses=%d syncs=%d choices=%d", accesses.n, syncs.n, choices)
	}
}

// countSink counts the events of the kinds it subscribes to.
type countSink struct {
	kinds []event.Kind
	n     int
}

func (c *countSink) Kinds() []event.Kind { return c.kinds }

func (c *countSink) Event(*event.Event) { c.n++ }

func TestManyGoroutines(t *testing.T) {
	const n = 200
	res := Run(Config{Seed: 9, MaxSteps: 500_000}, func(tt *T) {
		wg := NewWaitGroup(tt, "wg")
		wg.Add(tt, n)
		ch := NewChan[int](tt, 16)
		tt.Go(func(ct *T) {
			for i := 0; i < n; i++ {
				ch.Recv(ct)
			}
		})
		for i := 0; i < n; i++ {
			i := i
			tt.Go(func(ct *T) {
				ch.Send(ct, i)
				wg.Done(ct)
			})
		}
		wg.Wait(tt)
	})
	if res.Failed() {
		t.Fatalf("failed: outcome=%v leaks=%d", res.Outcome, len(res.Leaked))
	}
	if res.GoroutinesCreated != n+2 {
		t.Fatalf("created %d, want %d", res.GoroutinesCreated, n+2)
	}
}

func TestGoroutineNamesAreUseful(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		tt.GoNamed("worker", func(ct *T) {})
		tt.Go(func(ct *T) {})
		tt.Sleep(5)
	})
	names := map[string]bool{}
	for _, g := range res.Goroutines {
		names[g.Name] = true
	}
	if !names["main"] || !names["worker"] {
		t.Fatalf("names = %v", names)
	}
}
