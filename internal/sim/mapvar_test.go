package sim

import (
	"strings"
	"testing"

	"goconcbugs/internal/event"
)

func TestMapVarBasicOps(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		m := NewMapVar[string, int](tt, "m")
		m.Store(tt, "a", 1)
		m.Store(tt, "b", 2)
		v, ok := m.Load(tt, "a")
		tt.Check(ok && v == 1, "load a")
		m.Delete(tt, "a")
		_, ok = m.Load(tt, "a")
		tt.Check(!ok, "a deleted")
		tt.Checkf(m.Len(tt) == 1, "len=%d", m.Len(tt))
	})
	if res.Failed() {
		t.Fatalf("failed: %+v", res.CheckFailures)
	}
}

func TestMapVarConcurrentWritesCrashSometimes(t *testing.T) {
	crashes := 0
	for seed := int64(0); seed < 50; seed++ {
		res := Run(Config{Seed: seed}, func(tt *T) {
			m := NewMapVar[int, int](tt, "m")
			for g := 0; g < 2; g++ {
				g := g
				tt.Go(func(ct *T) {
					for i := 0; i < 3; i++ {
						m.Store(ct, g*10+i, i)
					}
				})
			}
			tt.Sleep(50)
		})
		if res.Outcome == OutcomePanic {
			crashes++
			if !strings.Contains(res.Panics[0].Msg, "concurrent map") {
				t.Fatalf("unexpected panic: %v", res.Panics[0])
			}
		}
	}
	if crashes == 0 {
		t.Fatal("unsynchronized concurrent writes never crashed in 50 seeds")
	}
	if crashes == 50 {
		t.Fatal("the check should be best-effort (schedule-dependent), not universal")
	}
}

func TestMapVarGuardedIsSafe(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		res := Run(Config{Seed: seed}, func(tt *T) {
			m := NewMapVar[int, int](tt, "m")
			mu := NewMutex(tt, "mu")
			wg := NewWaitGroup(tt, "wg")
			wg.Add(tt, 3)
			for g := 0; g < 3; g++ {
				g := g
				tt.Go(func(ct *T) {
					mu.Lock(ct)
					m.Store(ct, g, g)
					_, _ = m.Load(ct, g)
					mu.Unlock(ct)
					wg.Done(ct)
				})
			}
			wg.Wait(tt)
			tt.Checkf(m.Len(tt) == 3, "len=%d", m.Len(tt))
		})
		if res.Failed() {
			t.Fatalf("seed %d: guarded map failed: outcome=%v %v", seed, res.Outcome, res.CheckFailures)
		}
	}
}

func TestMapVarConcurrentReadsAreFine(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		res := Run(Config{Seed: seed}, func(tt *T) {
			m := NewMapVar[int, int](tt, "m")
			m.Store(tt, 1, 1)
			wg := NewWaitGroup(tt, "wg")
			wg.Add(tt, 4)
			for g := 0; g < 4; g++ {
				tt.Go(func(ct *T) {
					for i := 0; i < 4; i++ {
						m.Load(ct, 1)
					}
					wg.Done(ct)
				})
			}
			wg.Wait(tt)
		})
		if res.Outcome == OutcomePanic {
			t.Fatalf("seed %d: read-only sharing crashed: %v", seed, res.Panics)
		}
	}
}

func TestMapVarRaceDetectorSeesIt(t *testing.T) {
	// Even when the crash window is missed, the HB detector reports the
	// race (the paper's traditional map races were found both ways).
	detected := false
	for seed := int64(0); seed < 20 && !detected; seed++ {
		d := newTestDetector()
		res := Run(Config{Seed: seed, Sinks: []event.Sink{d}}, func(tt *T) {
			m := NewMapVar[int, int](tt, "m")
			tt.Go(func(ct *T) { m.Store(ct, 1, 1) })
			m.Store(tt, 2, 2)
			tt.Sleep(10)
		})
		if res.Outcome == OutcomePanic || d.races > 0 {
			detected = true
		}
	}
	if !detected {
		t.Fatal("map race invisible to both the crash check and the detector")
	}
}

// testDetector is a minimal in-package map-access check (the real detector
// lives in package race, which cannot be imported here without a cycle
// through tests).
type testDetector struct {
	last  map[int]struct{ g int }
	races int
}

func newTestDetector() *testDetector {
	return &testDetector{last: map[int]struct{ g int }{}}
}

func (d *testDetector) Kinds() []event.Kind { return []event.Kind{event.MapRead, event.MapWrite} }

func (d *testDetector) Event(ev *event.Event) {
	if prev, ok := d.last[ev.Var.ID]; ok && prev.g != ev.G {
		d.races++ // crude: any cross-goroutine touch counts for this test
	}
	d.last[ev.Var.ID] = struct{ g int }{g: ev.G}
}
