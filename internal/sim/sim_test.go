package sim

import (
	"strings"
	"testing"

	"goconcbugs/internal/event"
)

func TestUnbufferedRendezvous(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 0)
		tt.Go(func(ct *T) { ch.Send(ct, 42) })
		v, ok := ch.Recv(tt)
		tt.Check(ok && v == 42, "expected 42")
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res)
	}
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestBufferedChannelDoesNotBlockUnderCap(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 2)
		ch.Send(tt, 1)
		ch.Send(tt, 2)
		a, _ := ch.Recv(tt)
		b, _ := ch.Recv(tt)
		tt.Checkf(a == 1 && b == 2, "got %d %d", a, b)
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res)
	}
}

func TestRecvOnClosedChannel(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 1)
		ch.Send(tt, 7)
		ch.Close(tt)
		v, ok := ch.Recv(tt)
		tt.Check(ok && v == 7, "drain buffered value")
		_, ok = ch.Recv(tt)
		tt.Check(!ok, "closed channel should report !ok")
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res)
	}
}

func TestSendOnClosedChannelPanics(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 0)
		ch.Close(tt)
		ch.Send(tt, 1)
	})
	if res.Outcome != OutcomePanic {
		t.Fatalf("outcome = %v, want panic", res.Outcome)
	}
}

func TestDoubleClosePanics(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 0)
		ch.Close(tt)
		ch.Close(tt)
	})
	if res.Outcome != OutcomePanic {
		t.Fatalf("outcome = %v, want panic", res.Outcome)
	}
}

func TestBlockedSenderLeaks(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 0)
		tt.Go(func(ct *T) { ch.Send(ct, 1) }) // no receiver ever
		tt.Sleep(10)
	})
	if res.Outcome != OutcomeOK || len(res.Leaked) != 1 {
		t.Fatalf("outcome=%v leaked=%d, want ok with 1 leak", res.Outcome, len(res.Leaked))
	}
	if res.Leaked[0].BlockKind != BlockChanSend {
		t.Fatalf("leak kind = %v", res.Leaked[0].BlockKind)
	}
}

func TestBuiltinDeadlockAllAsleep(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		mu := NewMutex(tt, "mu")
		mu.Lock(tt)
		mu.Lock(tt) // self-deadlock, like BoltDB#392
	})
	if res.Outcome != OutcomeBuiltinDeadlock {
		t.Fatalf("outcome = %v, want builtin-deadlock", res.Outcome)
	}
}

func TestExternalWaitHidesDeadlockFromBuiltin(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		mu := NewMutex(tt, "mu")
		tt.Go(func(ct *T) { ct.BlockExternal("network peer") })
		mu.Lock(tt)
		mu.Lock(tt)
	})
	if res.Outcome == OutcomeBuiltinDeadlock {
		t.Fatalf("builtin detector should not see past external waits")
	}
	if len(res.Leaked) != 2 {
		t.Fatalf("leaked=%d, want 2", len(res.Leaked))
	}
}

func TestRWMutexWriterPriorityDeadlock(t *testing.T) {
	// Section 5.1.1: th-A RLock; th-B Lock (waits); th-A RLock again ->
	// both stuck because Go prioritizes the waiting writer.
	res := Run(Config{Seed: 1}, func(tt *T) {
		rw := NewRWMutex(tt, "rw")
		rw.RLock(tt)
		started := NewChan[struct{}](tt, 0)
		tt.Go(func(ct *T) {
			Select(ct, OnSend(started, struct{}{}, nil), Default(nil))
			rw.Lock(ct)
			rw.Unlock(ct)
		})
		tt.Sleep(5) // let the writer queue up
		rw.RLock(tt)
		rw.RUnlock(tt)
		rw.RUnlock(tt)
	})
	if res.Outcome != OutcomeBuiltinDeadlock {
		t.Fatalf("outcome = %v, want builtin-deadlock; leaked=%v", res.Outcome, res.Leaked)
	}
}

func TestRWMutexReadersShareAndWriterExcludes(t *testing.T) {
	res := Run(Config{Seed: 3}, func(tt *T) {
		rw := NewRWMutex(tt, "rw")
		inside := NewVar[int](tt, "inside")
		done := NewWaitGroup(tt, "wg")
		done.Add(tt, 3)
		for i := 0; i < 2; i++ {
			tt.Go(func(ct *T) {
				rw.RLock(ct)
				inside.Store(ct, inside.Load(ct)+1)
				ct.Sleep(10)
				inside.Store(ct, inside.Load(ct)-1)
				rw.RUnlock(ct)
				done.Done(ct)
			})
		}
		tt.Go(func(ct *T) {
			rw.Lock(ct)
			ct.Checkf(inside.Load(ct) == 0, "writer saw %d readers inside", inside.Load(ct))
			rw.Unlock(ct)
			done.Done(ct)
		})
		done.Wait(tt)
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res.CheckFailures)
	}
}

func TestWaitGroupWaitsForAll(t *testing.T) {
	res := Run(Config{Seed: 2}, func(tt *T) {
		wg := NewWaitGroup(tt, "wg")
		count := NewAtomicInt64(tt, "count")
		n := 5
		wg.Add(tt, n)
		for i := 0; i < n; i++ {
			tt.Go(func(ct *T) {
				ct.Sleep(Duration(ct.Rand(20)))
				count.Add(ct, 1)
				wg.Done(ct)
			})
		}
		wg.Wait(tt)
		tt.Checkf(count.Load(tt) == int64(n), "count=%d", count.Load(tt))
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res.CheckFailures)
	}
}

func TestOnceRunsExactlyOnce(t *testing.T) {
	res := Run(Config{Seed: 4}, func(tt *T) {
		once := NewOnce(tt, "once")
		runs := NewIntVar(tt, "runs")
		wg := NewWaitGroup(tt, "wg")
		wg.Add(tt, 4)
		for i := 0; i < 4; i++ {
			tt.Go(func(ct *T) {
				once.Do(ct, func(ot *T) {
					ot.Sleep(5)
					runs.Incr(ot, 1)
				})
				wg.Done(ct)
			})
		}
		wg.Wait(tt)
		tt.Checkf(runs.Load(tt) == 1, "f ran %d times", runs.Load(tt))
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res.CheckFailures)
	}
}

func TestSelectDefault(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 0)
		idx := Select(tt,
			OnRecv(ch, nil),
			Default(nil),
		)
		tt.Checkf(idx == 1, "chose %d", idx)
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res.CheckFailures)
	}
}

func TestSelectRandomAmongReady(t *testing.T) {
	chose := map[int]bool{}
	for seed := int64(0); seed < 32; seed++ {
		var got int
		Run(Config{Seed: seed}, func(tt *T) {
			a := NewChan[int](tt, 1)
			b := NewChan[int](tt, 1)
			a.Send(tt, 1)
			b.Send(tt, 2)
			got = Select(tt, OnRecv(a, nil), OnRecv(b, nil))
		})
		chose[got] = true
	}
	if !chose[0] || !chose[1] {
		t.Fatalf("select never varied its choice: %v", chose)
	}
}

func TestTimerFiresAndSelectTimesOut(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 0)
		timedOut := false
		Select(tt,
			OnRecv(ch, nil),
			OnRecv(After(tt, 100), func(int64, bool) { timedOut = true }),
		)
		tt.Check(timedOut, "expected the timeout case")
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res.CheckFailures)
	}
}

func TestZeroTimerFiresImmediately(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		tm := NewTimer(tt, 0)
		tt.Sleep(1)
		fired := false
		Select(tt,
			OnRecv(tm.C, func(int64, bool) { fired = true }),
			Default(nil),
		)
		tt.Check(fired, "NewTimer(0) must fire immediately (Figure 12)")
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res.CheckFailures)
	}
}

func TestContextWithCancel(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ctx, cancel := WithCancel(tt, Background(tt))
		done := NewChan[struct{}](tt, 0)
		tt.Go(func(ct *T) {
			ctx.Done().Recv(ct)
			ct.Check(ctx.Err() == ErrCanceled, "err after cancel")
			done.Send(ct, struct{}{})
		})
		cancel(tt)
		done.Recv(tt)
	})
	if res.Failed() || len(res.Leaked) > 0 {
		t.Fatalf("unexpected failure: %+v leaked=%v", res.CheckFailures, res.Leaked)
	}
}

func TestContextWithTimeout(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		ctx, cancel := WithTimeout(tt, Background(tt), 50)
		defer cancel(tt)
		ctx.Done().Recv(tt)
		tt.Check(ctx.Err() == ErrDeadlineExceeded, "deadline err")
	})
	if res.Failed() {
		t.Fatalf("unexpected failure: %+v", res.CheckFailures)
	}
}

func TestPipeWriteBlocksWithoutReader(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		_, w := NewPipe(tt, "p")
		tt.Go(func(ct *T) { w.Write(ct, []byte("hello")) })
		tt.Sleep(10)
	})
	if len(res.Leaked) != 1 {
		t.Fatalf("leaked=%d, want 1", len(res.Leaked))
	}
}

func TestPipeRoundTripAndClose(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		r, w := NewPipe(tt, "p")
		tt.Go(func(ct *T) {
			w.Write(ct, []byte("hi"))
			w.Close(ct)
		})
		b, err := r.Read(tt)
		tt.Checkf(err == nil && string(b) == "hi", "read %q err=%v", b, err)
		_, err = r.Read(tt)
		tt.Check(err == ErrEOF, "EOF after writer close")
	})
	if res.Failed() || len(res.Leaked) > 0 {
		t.Fatalf("unexpected failure: %+v leaked=%v", res.CheckFailures, res.Leaked)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (*Result, string) {
		var trace strings.Builder
		res := Run(Config{Seed: 99, Sinks: []event.Sink{NewTextTraceSink(&trace)}}, func(tt *T) {
			ch := NewChan[int](tt, 1)
			wg := NewWaitGroup(tt, "wg")
			wg.Add(tt, 3)
			for i := 0; i < 3; i++ {
				i := i
				tt.Go(func(ct *T) {
					ct.Sleep(Duration(ct.Rand(10)))
					Select(ct,
						OnSend(ch, i, nil),
						Default(nil),
					)
					wg.Done(ct)
				})
			}
			wg.Wait(tt)
		})
		return res, trace.String()
	}
	a, aTrace := run()
	b, bTrace := run()
	if a.Steps != b.Steps {
		t.Fatalf("non-deterministic: steps %d vs %d", a.Steps, b.Steps)
	}
	if aTrace != bTrace {
		t.Fatalf("non-deterministic trace:\n%s\nvs\n%s", aTrace, bTrace)
	}
}

func TestStepLimitWithRunnableLoop(t *testing.T) {
	res := Run(Config{Seed: 1, MaxSteps: 500}, func(tt *T) {
		tt.Go(func(ct *T) {
			for {
				ct.Yield()
			}
		})
		ch := NewChan[int](tt, 0)
		ch.Recv(tt) // blocks forever while the loop keeps running
	})
	if res.Outcome != OutcomeStepLimit {
		t.Fatalf("outcome = %v, want step-limit", res.Outcome)
	}
	if len(res.Leaked) == 0 {
		t.Fatalf("the blocked receiver should be reported leaked")
	}
}

func TestNoHostGoroutineLeakAcrossRuns(t *testing.T) {
	// Each run tears down its parked goroutines; run many deadlocking
	// programs to give a leak a chance to show up as runaway growth.
	for seed := int64(0); seed < 50; seed++ {
		Run(Config{Seed: seed}, func(tt *T) {
			ch := NewChan[int](tt, 0)
			tt.Go(func(ct *T) { ch.Send(ct, 1) })
			tt.Go(func(ct *T) { ch.Send(ct, 2) })
			ch.Recv(tt)
		})
	}
}
