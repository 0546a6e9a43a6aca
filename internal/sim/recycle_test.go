package sim_test

import (
	"reflect"
	"slices"
	"testing"

	"goconcbugs/internal/sim"
)

// A runtime recycles its waiters, select operations and timer entries only
// from the next reset on, never mid-run: a select's losing cases stay
// queued, claimed, until an operation dequeues them, and a Timer keeps its
// entry after the fire, for Stop and Reset. These programs break if a
// record is reused within the run that made it.

// selectLoserProgram makes a select lose on channel a (it wins on b), then
// blocks two receivers on a, feeds them, and checks that a holds no stale
// receiver: a select that can only send to one must take its default.
func selectLoserProgram(t *sim.T) {
	a := sim.NewChanNamed[int](t, "a", 0)
	b := sim.NewChanNamed[int](t, "b", 0)
	results := sim.NewChanNamed[int](t, "results", 2)
	t.GoNamed("selector", func(t *sim.T) {
		got := -1
		sim.Select(t,
			sim.OnRecv(a, func(v int, _ bool) { got = 100 + v }),
			sim.OnRecv(b, func(v int, _ bool) { got = v }),
		)
		results.Send(t, got)
	})
	t.Sleep(1) // the selector blocks on both channels
	b.Send(t, 2)
	// The select has returned once its result arrives; its case on a is
	// still queued there, claimed.
	v, _ := results.Recv(t)
	t.Checkf(v == 2, "the select received %d, want 2 from b", v)
	for _, name := range []string{"reader1", "reader2"} {
		t.GoNamed(name, func(t *sim.T) {
			v, ok := a.Recv(t)
			t.Check(ok, "receive on a saw a close")
			results.Send(t, v)
		})
	}
	t.Sleep(1) // both readers block on a, behind the select's claimed case
	a.Send(t, 7)
	a.Send(t, 8)
	idx := sim.Select(t, sim.OnSend(a, 9, nil), sim.Default(nil))
	t.Check(idx == 1, "a send found a receiver on a after both readers were served")
	var got []int
	for range 2 {
		v, _ := results.Recv(t)
		got = append(got, v)
	}
	slices.Sort(got)
	t.Checkf(slices.Equal(got, []int{7, 8}), "the readers received %v, want [7 8]", got)
}

// firedTimerProgram stops and resets a Timer after its entry fired, while
// another goroutine sleeps on the first timer entry armed after the fire.
func firedTimerProgram(t *sim.T) {
	tm := sim.NewTimer(t, 5)
	later := sim.NewTimer(t, 7)
	woke := sim.NewChanNamed[int](t, "woke", 1)
	start := sim.NewChanNamed[int](t, "start", 0)
	tm.C.Recv(t) // tm's entry fires at 5
	t.GoNamed("sleeper", func(t *sim.T) {
		start.Recv(t)
		t.Sleep(10) // the first entry armed since tm fired
		woke.Send(t, 1)
	})
	start.Send(t, 1)
	later.C.Recv(t) // at 7; the sleeper is asleep by now
	t.Check(!tm.Stop(t), "Stop after the fire reported a pending timer")
	tm.Reset(t, 4)
	v, _ := tm.C.Recv(t)
	t.Checkf(v == 11, "reset timer delivered %d, want 11", v)
	t.Check(!tm.Stop(t), "Stop after the reset timer fired reported a pending timer")
	woke.Recv(t)
	t.Checkf(t.Now() == 15, "sleeper woke at %d, want 15", t.Now())
}

// TestRecyclingNeverAliasesWithinARun runs both programs fresh and twice in
// a row on one RunPool, over several seeds: every run must end cleanly with
// its checks holding, and every pooled run must equal the fresh one.
func TestRecyclingNeverAliasesWithinARun(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog sim.Program
	}{
		{"select-loser", selectLoserProgram},
		{"fired-timer", firedTimerProgram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := sim.NewRunPool()
			defer pool.Close()
			for seed := int64(0); seed < 20; seed++ {
				cfg := sim.Config{Seed: seed, Name: tc.name}
				fresh := sim.Run(cfg, tc.prog)
				if fresh.Outcome != sim.OutcomeOK || fresh.Failed() {
					t.Fatalf("seed %d fresh: outcome %v, checks %q, leaked %d, deadlock %q",
						seed, fresh.Outcome, fresh.CheckFailures, len(fresh.Leaked), fresh.DeadlockReport)
				}
				for round := 1; round <= 2; round++ {
					pooled := pool.Run(cfg, tc.prog).Clone()
					if !reflect.DeepEqual(fresh, pooled) {
						t.Fatalf("seed %d pooled round %d differs from fresh:\n  fresh:  %+v\n  pooled: %+v",
							seed, round, fresh, pooled)
					}
				}
			}
		})
	}
}
