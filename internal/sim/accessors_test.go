package sim

import (
	"bytes"
	"strings"
	"testing"

	"goconcbugs/internal/event"
)

// Coverage of the reporting surface: names, string forms, counters, and the
// check-failure path itself — the parts detectors and reports rely on.

func TestCheckFailureRecordsContext(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		tt.Check(false, "invariant broken")
		tt.Checkf(false, "value was %d", 7)
		tt.Fail("explicit failure")
	})
	if len(res.CheckFailures) != 3 {
		t.Fatalf("failures = %v", res.CheckFailures)
	}
	for _, f := range res.CheckFailures {
		if !strings.Contains(f, "g1(main)") {
			t.Fatalf("failure lacks goroutine context: %q", f)
		}
	}
	if !strings.Contains(res.CheckFailures[1], "value was 7") {
		t.Fatalf("Checkf did not format: %q", res.CheckFailures[1])
	}
}

func TestNamesAndAccessors(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		if tt.ID() != 1 || tt.Name() != "main" {
			tt.Fail("main identity wrong")
		}
		mu := NewMutex(tt, "mu")
		mu.Lock(tt)
		if mu.Holder() != 1 || mu.Name() != "mu" {
			tt.Fail("mutex accessors wrong")
		}
		mu.Unlock(tt)
		if mu.Holder() != 0 {
			tt.Fail("holder after unlock")
		}
		rw := NewRWMutex(tt, "rw")
		wg := NewWaitGroup(tt, "wg")
		wg.Add(tt, 1)
		if wg.Counter() != 1 || wg.Name() != "wg" {
			tt.Fail("waitgroup accessors wrong")
		}
		wg.Done(tt)
		once := NewOnce(tt, "once")
		if once.Done() {
			tt.Fail("once done before Do")
		}
		once.Do(tt, func(*T) {})
		if !once.Done() {
			tt.Fail("once not done after Do")
		}
		cond := NewCond(tt, mu, "cond")
		a := NewAtomicInt64(tt, "a")
		v := NewVar[int](tt, "v")
		m := NewMapVar[int, int](tt, "m")
		sem := NewSemaphore(tt, "sem", 2)
		sem.Acquire(tt)
		if sem.Holders() != 1 {
			tt.Fail("semaphore holders wrong")
		}
		sem.Release(tt)
		ch := NewChanNamed[int](tt, "ch", 3)
		ch.Send(tt, 1)
		if ch.Len() != 1 || ch.Cap() != 3 || ch.Name() != "ch" {
			tt.Fail("channel accessors wrong")
		}
		ctx := Background(tt)
		for _, name := range []string{rw.Name(), cond.Name(), a.Name(), v.Name(), m.Name(), sem.Name(), ctx.Name()} {
			if name == "" {
				tt.Fail("empty report name")
			}
		}
		if tt.VCSnapshot().Len() == 0 {
			tt.Fail("empty clock snapshot")
		}
	})
	if res.Failed() {
		t.Fatalf("failed: %v", res.CheckFailures)
	}
}

func TestAutoNamesAreGenerated(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		if NewMutex(tt, "").Name() == "" {
			tt.Fail("mutex auto-name empty")
		}
		if NewWaitGroup(tt, "").Name() == "" {
			tt.Fail("waitgroup auto-name empty")
		}
		if NewChan[int](tt, 0).Name() == "" {
			tt.Fail("chan auto-name empty")
		}
		if NewVar[int](tt, "").Name() == "" {
			tt.Fail("var auto-name empty")
		}
		if NewMapVar[int, int](tt, "").Name() == "" {
			tt.Fail("map auto-name empty")
		}
		if NewSemaphore(tt, "", 1).Name() == "" {
			tt.Fail("semaphore auto-name empty")
		}
	})
	if res.Failed() {
		t.Fatalf("failed: %v", res.CheckFailures)
	}
}

func TestStringForms(t *testing.T) {
	for _, o := range []Outcome{OutcomeOK, OutcomeBuiltinDeadlock, OutcomePanic, OutcomeStepLimit, Outcome(99)} {
		if o.String() == "" {
			t.Fatalf("Outcome(%d) has no string", int(o))
		}
	}
	for _, s := range []GState{GRunnable, GRunning, GBlocked, GDone, GPanicked, GAbandoned, GState(99)} {
		if s.String() == "" {
			t.Fatalf("GState(%d) has no string", int(s))
		}
	}
	kinds := []BlockKind{
		BlockNone, BlockChanSend, BlockChanRecv, BlockSelect, BlockMutex,
		BlockRWMutexR, BlockRWMutexW, BlockWaitGroup, BlockCond, BlockOnce,
		BlockSleep, BlockPipe, BlockExternal, BlockKind(99),
	}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("BlockKind(%d) has no string", int(k))
		}
	}
	var trace bytes.Buffer
	ts := NewTextTraceSink(&trace)
	ts.Event(&event.Event{Kind: event.GoBlock, Step: 3, Time: 7, G: 1, GName: "main", Obj: "ch", Detail: "x"})
	ts.Event(&event.Event{Kind: event.GoExit, Step: 12, Time: 2000, G: 1, GName: "main"})
	ts.RunEnd()
	want := "step=3      t=7        g1(main) block ch [x]\n" +
		"step=12     t=2000     g1(main) exit \n"
	if trace.String() != want {
		t.Fatalf("text trace = %q, want %q", trace.String(), want)
	}
}

func TestWaitGroupNegativeAddPanics(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		wg := NewWaitGroup(tt, "wg")
		wg.Add(tt, -1)
	})
	if res.Outcome != OutcomePanic {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestCondSignalWakesExactlyOne(t *testing.T) {
	res := Run(Config{Seed: 6}, func(tt *T) {
		mu := NewMutex(tt, "mu")
		cond := NewCond(tt, mu, "cond")
		woken := NewAtomicInt64(tt, "woken")
		for i := 0; i < 2; i++ {
			tt.Go(func(ct *T) {
				mu.Lock(ct)
				cond.Wait(ct)
				woken.Add(ct, 1)
				mu.Unlock(ct)
			})
		}
		tt.Sleep(10)
		cond.Signal(tt)
		tt.Sleep(10)
		tt.Checkf(woken.Load(tt) == 1, "woken=%d after one Signal", woken.Load(tt))
		cond.Signal(tt)
		tt.Sleep(10)
		tt.Checkf(woken.Load(tt) == 2, "woken=%d after two Signals", woken.Load(tt))
	})
	if res.Failed() {
		t.Fatalf("failed: %v", res.CheckFailures)
	}
}

func TestTickerStopPreventsFurtherTicks(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		tick := NewTicker(tt, 10)
		tick.C.Recv(tt) // first tick
		tick.Stop(tt)
		tt.Sleep(50)
		got := false
		Select(tt, OnRecv(tick.C, func(int64, bool) { got = true }), Default(nil))
		tt.Check(!got, "tick after Stop")
	})
	if res.Failed() {
		t.Fatalf("failed: %v", res.CheckFailures)
	}
}
