package race

import (
	"fmt"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/hb"
	"goconcbugs/internal/sim"
)

// runWith runs prog with a fresh detector attached and returns it.
func runWith(seed int64, shadow int, prog sim.Program) (*Detector, *sim.Result) {
	d := New(shadow)
	res := sim.Run(sim.Config{Seed: seed, Sinks: []event.Sink{d}}, prog)
	return d, res
}

// TestResetJudgesLikeNew: a detector Reset between runs reports, for every
// run, exactly what a New detector reports. A kept dedup set would hide a
// race the previous run already reported on the same variable and pair; a
// kept shadow ring would invent races against the previous run's accesses.
func TestResetJudgesLikeNew(t *testing.T) {
	prog := func(tt *sim.T) {
		x := sim.NewVar[int](tt, "x")
		y := sim.NewVar[int](tt, "y")
		mu := sim.NewMutex(tt, "mu")
		tt.Go(func(ct *sim.T) {
			x.Store(ct, 1)
			mu.Lock(ct)
			y.Store(ct, 1)
			mu.Unlock(ct)
		})
		mu.Lock(tt)
		y.Store(tt, 2)
		mu.Unlock(tt)
		x.Store(tt, 2)
		tt.Sleep(10)
	}
	reused := New(0)
	for seed := int64(0); seed < 20; seed++ {
		reused.Reset()
		sim.Run(sim.Config{Seed: seed, Sinks: []event.Sink{reused}}, prog)
		fresh, _ := runWith(seed, 0, prog)
		if got, want := fmt.Sprint(reused.Reports()), fmt.Sprint(fresh.Reports()); got != want {
			t.Fatalf("seed %d: reset detector reported %s, a new one %s", seed, got, want)
		}
	}
}

// TestReportStringFormat: the append-style rendering matches the
// diagnostic's fmt form field for field.
func TestReportStringFormat(t *testing.T) {
	kind := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	reps := []Report{
		{Var: "x", FirstG: 2, FirstEpoch: hb.Epoch{G: 2, C: 7}, FirstWrite: true, SecondG: 1, SecondName: "main", Step: 42},
		{Var: "replica.status", FirstG: 300, FirstEpoch: hb.Epoch{G: 300, C: 1 << 40}, SecondG: 12, SecondName: "worker", SecondWrit: true, Step: 1 << 33},
		{},
	}
	for _, r := range reps {
		want := fmt.Sprintf("DATA RACE on %s: %s by g%d (epoch %s) vs %s by g%d(%s) at step %d",
			r.Var, kind(r.FirstWrite), r.FirstG, r.FirstEpoch,
			kind(r.SecondWrit), r.SecondG, r.SecondName, r.Step)
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if got := string(r.AppendTo([]byte("> "))); got != "> "+want {
			t.Errorf("AppendTo = %q, want %q", got, "> "+want)
		}
	}
}

func TestDetectsWriteWriteRace(t *testing.T) {
	d, _ := runWith(1, 0, func(tt *sim.T) {
		x := sim.NewVar[int](tt, "x")
		tt.Go(func(ct *sim.T) { x.Store(ct, 1) })
		x.Store(tt, 2)
		tt.Sleep(10)
	})
	if len(d.Reports()) == 0 {
		t.Fatalf("expected a write/write race on x")
	}
}

func TestDetectsReadWriteRace(t *testing.T) {
	d, _ := runWith(1, 0, func(tt *sim.T) {
		x := sim.NewVar[int](tt, "x")
		tt.Go(func(ct *sim.T) { _ = x.Load(ct) })
		x.Store(tt, 2)
		tt.Sleep(10)
	})
	if len(d.Reports()) == 0 {
		t.Fatalf("expected a read/write race on x")
	}
}

func TestReadReadIsNotARace(t *testing.T) {
	d, _ := runWith(1, 0, func(tt *sim.T) {
		x := sim.NewVar[int](tt, "x")
		tt.Go(func(ct *sim.T) { _ = x.Load(ct) })
		_ = x.Load(tt)
		tt.Sleep(10)
	})
	if len(d.Reports()) != 0 {
		t.Fatalf("read/read flagged: %v", d.Reports())
	}
}

func TestMutexOrdersAccesses(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d, _ := runWith(seed, 0, func(tt *sim.T) {
			x := sim.NewVar[int](tt, "x")
			mu := sim.NewMutex(tt, "mu")
			wg := sim.NewWaitGroup(tt, "wg")
			wg.Add(tt, 2)
			for i := 0; i < 2; i++ {
				tt.Go(func(ct *sim.T) {
					mu.Lock(ct)
					x.Store(ct, x.Load(ct)+1)
					mu.Unlock(ct)
					wg.Done(ct)
				})
			}
			wg.Wait(tt)
		})
		if len(d.Reports()) != 0 {
			t.Fatalf("seed %d: mutex-protected accesses flagged: %v", seed, d.Reports())
		}
	}
}

func TestChannelOrdersAccesses(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d, _ := runWith(seed, 0, func(tt *sim.T) {
			x := sim.NewVar[int](tt, "x")
			ch := sim.NewChan[struct{}](tt, 0)
			tt.Go(func(ct *sim.T) {
				x.Store(ct, 1)
				ch.Send(ct, struct{}{})
			})
			ch.Recv(tt)
			_ = x.Load(tt)
		})
		if len(d.Reports()) != 0 {
			t.Fatalf("seed %d: channel-ordered accesses flagged: %v", seed, d.Reports())
		}
	}
}

func TestWaitGroupOrdersAccesses(t *testing.T) {
	d, _ := runWith(7, 0, func(tt *sim.T) {
		x := sim.NewVar[int](tt, "x")
		wg := sim.NewWaitGroup(tt, "wg")
		wg.Add(tt, 1)
		tt.Go(func(ct *sim.T) {
			x.Store(ct, 1)
			wg.Done(ct)
		})
		wg.Wait(tt)
		_ = x.Load(tt)
	})
	if len(d.Reports()) != 0 {
		t.Fatalf("waitgroup-ordered accesses flagged: %v", d.Reports())
	}
}

func TestAtomicIsNotARaceAndCarriesHB(t *testing.T) {
	d, _ := runWith(3, 0, func(tt *sim.T) {
		x := sim.NewVar[int](tt, "x")
		flag := sim.NewAtomicInt64(tt, "flag")
		tt.Go(func(ct *sim.T) {
			x.Store(ct, 42)
			flag.Store(ct, 1)
		})
		for flag.Load(tt) == 0 {
			tt.Yield()
		}
		_ = x.Load(tt)
	})
	if len(d.Reports()) != 0 {
		t.Fatalf("atomic-published accesses flagged: %v", d.Reports())
	}
}

// TestShadowWordEviction reproduces the paper's third Table 12 failure mode:
// a bounded shadow history forgets an old concurrent access.
func TestShadowWordEviction(t *testing.T) {
	prog := func(tt *sim.T) {
		x := sim.NewVar[int](tt, "x")
		g1done := sim.NewChan[struct{}](tt, 0)
		// g2: an early read, never synchronized with anyone.
		tt.GoNamed("g2", func(ct *sim.T) { _ = x.Load(ct) })
		// g1: four later reads (no race with g2's read), then a sync
		// edge to g3.
		tt.GoNamed("g1", func(ct *sim.T) {
			ct.Sleep(10)
			for i := 0; i < 4; i++ {
				_ = x.Load(ct)
			}
			g1done.Send(ct, struct{}{})
		})
		// g3: a write that races with g2's read but is ordered after
		// g1's reads.
		tt.GoNamed("g3", func(ct *sim.T) {
			g1done.Recv(ct)
			x.Store(ct, 1)
		})
		tt.Sleep(100)
	}
	bounded, _ := runWith(5, 4, prog)
	unbounded, _ := runWith(5, -1, prog)
	if len(bounded.Reports()) != 0 {
		t.Fatalf("4 shadow words should have evicted g2's read: %v", bounded.Reports())
	}
	if len(unbounded.Reports()) == 0 {
		t.Fatalf("unbounded history should catch the g2/g3 race")
	}
}

func TestAnonymousFunctionLoopRace(t *testing.T) {
	// The Figure 8 shape: children read a loop variable the parent keeps
	// writing.
	d, _ := runWith(11, 0, func(tt *sim.T) {
		i := sim.NewVar[int](tt, "i")
		for k := 17; k <= 21; k++ {
			i.Store(tt, k)
			tt.Go(func(ct *sim.T) { _ = i.Load(ct) })
		}
		tt.Sleep(50)
	})
	if len(d.Reports()) == 0 {
		t.Fatalf("expected the loop-variable race")
	}
}

func TestNoFalsePositiveOnDisjointVars(t *testing.T) {
	d, _ := runWith(2, 0, func(tt *sim.T) {
		a := sim.NewVar[int](tt, "a")
		b := sim.NewVar[int](tt, "b")
		tt.Go(func(ct *sim.T) { a.Store(ct, 1) })
		b.Store(tt, 2)
		tt.Sleep(10)
	})
	if len(d.Reports()) != 0 {
		t.Fatalf("disjoint variables flagged: %v", d.Reports())
	}
}
