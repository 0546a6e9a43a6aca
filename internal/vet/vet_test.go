package vet

import (
	"fmt"
	"strings"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

// TestResetJudgesLikeNew: a monitor Reset between runs reports, for every
// run, exactly what a New monitor reports — a kept dedup set would hide the
// previous run's violations, kept Wait records would invent new ones. The
// number of Waits varies by seed, so runs both reuse the records (and clock
// backings) of earlier runs and make new ones.
func TestResetJudgesLikeNew(t *testing.T) {
	reused := New()
	for seed := int64(0); seed < 20; seed++ {
		prog := func(tt *sim.T) {
			wg := sim.NewWaitGroup(tt, "wg")
			ch := sim.NewChanNamed[int](tt, "ch", 0)
			for range 1 + seed%3 {
				tt.Go(func(ct *sim.T) {
					wg.Add(ct, 1)
					wg.Done(ct)
				})
				wg.Wait(tt)
			}
			tt.Go(func(ct *sim.T) { ch.Close(ct) })
			ch.Close(tt)
		}
		reused.Reset()
		sim.Run(sim.Config{Seed: seed, Sinks: []event.Sink{reused}}, prog)
		fresh, _ := Check(sim.Config{Seed: seed}, prog)
		if got, want := fmt.Sprint(reused.Violations()), fmt.Sprint(fresh.Violations()); got != want {
			t.Fatalf("seed %d: reset monitor reported %s, a new one %s", seed, got, want)
		}
	}
}

func TestDoubleCloseFlagged(t *testing.T) {
	m, res := Check(sim.Config{Seed: 1}, func(tt *sim.T) {
		ch := sim.NewChanNamed[int](tt, "ch", 0)
		ch.Close(tt)
		ch.Close(tt)
	})
	if !m.HasRule(RuleDoubleClose) {
		t.Fatalf("double close not flagged; violations=%v", m.Violations())
	}
	if res.Outcome != sim.OutcomePanic {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestSendOnClosedFlagged(t *testing.T) {
	m, _ := Check(sim.Config{Seed: 1}, func(tt *sim.T) {
		ch := sim.NewChanNamed[int](tt, "ch", 1)
		ch.Close(tt)
		ch.Send(tt, 1)
	})
	if !m.HasRule(RuleSendOnClosed) {
		t.Fatalf("send on closed not flagged; violations=%v", m.Violations())
	}
}

func TestNilChannelFlagged(t *testing.T) {
	m, _ := Check(sim.Config{Seed: 1}, func(tt *sim.T) {
		var ch sim.Chan[int]
		tt.Go(func(ct *sim.T) { ch.Send(ct, 1) })
		tt.Sleep(10)
	})
	if !m.HasRule(RuleNilChannel) {
		t.Fatalf("nil channel op not flagged; violations=%v", m.Violations())
	}
}

func TestNegativeWaitGroupFlagged(t *testing.T) {
	m, _ := Check(sim.Config{Seed: 1}, func(tt *sim.T) {
		wg := sim.NewWaitGroup(tt, "wg")
		wg.Done(tt)
	})
	if !m.HasRule(RuleNegativeWaitGroup) {
		t.Fatalf("negative counter not flagged; violations=%v", m.Violations())
	}
}

func TestAddAfterWaitFlagged(t *testing.T) {
	// The Figure 9 shape: Add races an in-flight (or unordered) Wait.
	flagged := false
	for seed := int64(0); seed < 30; seed++ {
		m, _ := Check(sim.Config{Seed: seed}, func(tt *sim.T) {
			wg := sim.NewWaitGroup(tt, "wg")
			tt.Go(func(ct *sim.T) {
				ct.Work(sim.Duration(ct.Rand(4)))
				wg.Add(ct, 1)
				wg.Done(ct)
			})
			tt.Go(func(ct *sim.T) {
				ct.Work(sim.Duration(ct.Rand(4)))
				wg.Wait(ct)
			})
			tt.Sleep(50)
		})
		if m.HasRule(RuleAddAfterWait) {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("Add racing Wait never flagged across 30 seeds")
	}
}

func TestOrderedAddBeforeWaitClean(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		m, _ := Check(sim.Config{Seed: seed}, func(tt *sim.T) {
			wg := sim.NewWaitGroup(tt, "wg")
			wg.Add(tt, 2)
			for i := 0; i < 2; i++ {
				tt.Go(func(ct *sim.T) {
					ct.Work(sim.Duration(ct.Rand(4)))
					wg.Done(ct)
				})
			}
			wg.Wait(tt)
			// Sequential reuse after Wait is legal: completion of
			// Wait happens-before this Add.
			wg.Add(tt, 1)
			wg.Done(tt)
			wg.Wait(tt)
		})
		if m.HasRule(RuleAddAfterWait) {
			t.Fatalf("seed %d: legal Add-before-Wait (and sequential reuse) flagged: %v",
				seed, m.Violations())
		}
	}
}

func TestChanInCriticalSectionWarning(t *testing.T) {
	m, _ := Check(sim.Config{Seed: 1}, func(tt *sim.T) {
		mu := sim.NewMutex(tt, "m")
		ch := sim.NewChanNamed[int](tt, "ch", 0)
		tt.Go(func(ct *sim.T) {
			mu.Lock(ct)
			ch.Send(ct, 1) // Figure 7
			mu.Unlock(ct)
		})
		tt.Sleep(5)
		ch.Recv(tt)
	})
	if !m.HasRule(RuleChanInCritical) {
		t.Fatalf("channel send under lock not flagged; violations=%v", m.Violations())
	}
	for _, v := range m.Violations() {
		if v.Rule == RuleChanInCritical && !v.Warning {
			t.Fatalf("chan-in-critical must be a warning: %v", v)
		}
	}
}

func TestChanOutsideCriticalSectionClean(t *testing.T) {
	m, _ := Check(sim.Config{Seed: 1}, func(tt *sim.T) {
		mu := sim.NewMutex(tt, "m")
		ch := sim.NewChanNamed[int](tt, "ch", 1)
		mu.Lock(tt)
		mu.Unlock(tt)
		ch.Send(tt, 1)
		ch.Recv(tt)
	})
	if m.HasRule(RuleChanInCritical) {
		t.Fatalf("lock-free channel op flagged: %v", m.Violations())
	}
}

// TestVetCatchesWhatOtherDetectorsMiss runs the three figure bugs the other
// detectors cannot see and asserts the rule checker reports each.
func TestVetCatchesWhatOtherDetectorsMiss(t *testing.T) {
	cases := []struct {
		kernel string
		rule   Rule
	}{
		{"docker-24007-double-close", RuleDoubleClose}, // not a data race
		{"etcd-waitgroup-order", RuleAddAfterWait},     // not a data race
		{"boltdb-240-chan-mutex", RuleChanInCritical},  // invisible to -race
	}
	for _, c := range cases {
		k, ok := kernels.ByID(c.kernel)
		if !ok {
			t.Fatalf("missing kernel %s", c.kernel)
		}
		found := false
		for seed := int64(0); seed < 50 && !found; seed++ {
			m, _ := Check(k.Config(seed), k.Buggy)
			if m.HasRule(c.rule) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: rule %s never fired across 50 seeds", c.kernel, c.rule)
		}
	}
}

// TestVetQuietOnAllFixedKernels: no patched kernel may trip an error rule
// (heuristic warnings are allowed — a fixed program can still structure
// channel operations near locks).
func TestVetQuietOnAllFixedKernels(t *testing.T) {
	for _, k := range kernels.All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			for seed := int64(0); seed < 25; seed++ {
				m, _ := Check(k.Config(seed), k.Fixed)
				if errs := m.Errors(); len(errs) > 0 {
					t.Fatalf("seed %d: %v", seed, errs)
				}
			}
		})
	}
}

func TestViolationStringAndFilters(t *testing.T) {
	m, _ := Check(sim.Config{Seed: 1}, func(tt *sim.T) {
		mu := sim.NewMutex(tt, "m")
		ch := sim.NewChanNamed[int](tt, "ch", 1)
		mu.Lock(tt)
		ch.Send(tt, 1) // warning: under lock
		mu.Unlock(tt)
		ch.Close(tt)
		ch.Close(tt) // error: double close
	})
	if len(m.Warnings()) == 0 || len(m.Errors()) == 0 {
		t.Fatalf("want both warnings and errors: %v", m.Violations())
	}
	for _, v := range m.Violations() {
		s := v.String()
		if !strings.Contains(s, "vet ") || !strings.Contains(s, string(v.Rule)) {
			t.Fatalf("violation string = %q", s)
		}
		if v.Warning && !strings.Contains(s, "warning") {
			t.Fatalf("warning not labeled: %q", s)
		}
		if !v.Warning && !strings.Contains(s, "violation") {
			t.Fatalf("error not labeled: %q", s)
		}
	}
}

func TestDuplicateViolationsDeduped(t *testing.T) {
	m, _ := Check(sim.Config{Seed: 1}, func(tt *sim.T) {
		mu := sim.NewMutex(tt, "m")
		ch := sim.NewChanNamed[int](tt, "ch", 4)
		mu.Lock(tt)
		for i := 0; i < 4; i++ {
			ch.Send(tt, i) // same site, same rule, same goroutine
		}
		mu.Unlock(tt)
	})
	n := 0
	for _, v := range m.Violations() {
		if v.Rule == RuleChanInCritical {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("chan-in-critical reported %d times, want deduped to 1", n)
	}
}
