package sim_test

// Differential test pinning the RunPool equivalence contract: for any
// program and configuration, pool.Run must be observably bit-identical to a
// fresh sim.Run — same Result, same event stream, same detector verdicts.
// The pool is deliberately SHARED across every kernel and variant, so each
// run recycles a runtime shaped by a completely different program (the
// hardest case for slot/arena reuse).

import (
	"fmt"
	"reflect"
	gort "runtime"
	"strings"
	"sync"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/vet"
)

// diffOne runs prog once fresh and once on the pool under identical
// configurations and fails the test on any observable divergence.
func diffOne(t *testing.T, pool *sim.RunPool, label string, cfg sim.Config, prog sim.Program,
	injFor func() sim.Injector) {
	t.Helper()

	run := func(pooled bool) (*sim.Result, *strings.Builder, *race.Detector, *vet.Monitor) {
		tr := &strings.Builder{}
		det := race.New(-1)
		vt := vet.New()
		c := cfg
		c.Sinks = []event.Sink{sim.NewTextTraceSink(tr), det, vt}
		if injFor != nil {
			c.Injector = injFor()
		}
		if pooled {
			return pool.Run(c, prog).Clone(), tr, det, vt
		}
		return sim.Run(c, prog), tr, det, vt
	}

	fres, ftr, fdet, fvet := run(false)
	pres, ptr, pdet, pvet := run(true)

	if !reflect.DeepEqual(fres, pres) {
		t.Errorf("%s: Result differs\n  fresh:  %+v\n  pooled: %+v", label, fres, pres)
	}
	fe, pe := strings.Split(ftr.String(), "\n"), strings.Split(ptr.String(), "\n")
	if len(fe) != len(pe) {
		t.Fatalf("%s: trace length differs fresh=%d pooled=%d", label, len(fe), len(pe))
	}
	for i := range fe {
		if fe[i] != pe[i] {
			t.Fatalf("%s: trace diverges at event %d:\n  fresh:  %s\n  pooled: %s",
				label, i, fe[i], pe[i])
		}
	}
	fr, pr := fdet.Reports(), pdet.Reports()
	if len(fr) != len(pr) {
		t.Fatalf("%s: race report count differs fresh=%d pooled=%d", label, len(fr), len(pr))
	}
	for i := range fr {
		if fr[i].String() != pr[i].String() {
			t.Errorf("%s: race report %d differs:\n  fresh:  %s\n  pooled: %s",
				label, i, fr[i], pr[i])
		}
	}
	fv, pv := fvet.Violations(), pvet.Violations()
	if len(fv) != len(pv) {
		t.Fatalf("%s: vet violation count differs fresh=%d pooled=%d", label, len(fv), len(pv))
	}
	for i := range fv {
		if fv[i].String() != pv[i].String() {
			t.Errorf("%s: vet violation %d differs:\n  fresh:  %s\n  pooled: %s",
				label, i, fv[i], pv[i])
		}
	}
}

// TestPooledMatchesFreshOnAllKernels sweeps every kernel, both variants,
// several seeds, through ONE shared pool interleaved with fresh runs.
func TestPooledMatchesFreshOnAllKernels(t *testing.T) {
	pool := sim.NewRunPool()
	defer pool.Close()
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, k := range kernels.All() {
		for _, v := range []struct {
			name string
			prog sim.Program
		}{{"buggy", k.Buggy}, {"fixed", k.Fixed}} {
			for _, seed := range seeds {
				label := k.ID + "/" + v.name
				diffOne(t, pool, label, k.Config(seed), v.prog, nil)
			}
		}
	}
}

// TestPooledMatchesFreshUnderBenignInjection repeats the sweep with a
// benign (yield-only) fault injector — injected scheduling perturbations
// must land identically on recycled and fresh runtimes.
func TestPooledMatchesFreshUnderBenignInjection(t *testing.T) {
	pool := sim.NewRunPool()
	defer pool.Close()
	ks := kernels.All()
	if testing.Short() {
		ks = ks[:8]
	}
	for run, k := range ks {
		opts := inject.Options{Seed: 11, Budget: 6}
		injFor := func() sim.Injector { return inject.ForRun(opts, run) }
		diffOne(t, pool, k.ID+"/buggy+inject", k.Config(3), k.Buggy, injFor)
		diffOne(t, pool, k.ID+"/fixed+inject", k.Config(3), k.Fixed, injFor)
	}
}

// TestPooledResultCloneSurvivesRecycling pins the Clone contract: a cloned
// Result must stay intact after the pool reuses its runtime.
func TestPooledResultCloneSurvivesRecycling(t *testing.T) {
	pool := sim.NewRunPool()
	defer pool.Close()
	k := kernels.All()[0]
	first := pool.Run(k.Config(1), k.Buggy).Clone()
	want := pool.Run(k.Config(1), k.Buggy).Clone() // deterministic: same seed
	for _, other := range kernels.All()[1:4] {
		pool.Run(other.Config(2), other.Fixed)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("cloned Result mutated by later pooled runs:\n  got:  %+v\n  want: %+v", first, want)
	}
}

// TestPooledMatchesFreshUnderAggressiveInjection repeats the sweep under
// aggressive injection (kills, panics, early timeouts). Teardown then
// unwinds goroutines through deferred primitive operations, which still
// schedule and can hand the CPU token on mid-unwind; a goroutine left
// parked inside such a deferred call must not resume in the pool's next
// run. (docker-24007-double-close/fixed at seed 12 is one such run.)
func TestPooledMatchesFreshUnderAggressiveInjection(t *testing.T) {
	pool := sim.NewRunPool()
	defer pool.Close()
	opts := inject.Options{Seed: 1, Budget: 4, Aggressive: true}
	seeds := int64(20)
	if testing.Short() {
		seeds = 13
	}
	for _, k := range kernels.All() {
		for seed := range seeds {
			injFor := func() sim.Injector { return inject.ForRun(opts, int(seed)) }
			diffOne(t, pool, fmt.Sprintf("%s/buggy+aggressive seed %d", k.ID, seed), k.Config(seed), k.Buggy, injFor)
			diffOne(t, pool, fmt.Sprintf("%s/fixed+aggressive seed %d", k.ID, seed), k.Config(seed), k.Fixed, injFor)
		}
	}
}

// escapeProgram has two goroutines; whichever exits first, the other is
// parked inside its body at that moment.
func escapeProgram(t *sim.T) {
	ch := sim.NewChan[int](t, 0)
	t.Go(func(ct *sim.T) { ch.Send(ct, 1) })
	v, _ := ch.Recv(t)
	t.Checkf(v == 1, "got %d", v)
}

// exitBoomSink panics on GoExit: a sink bug in a goroutine's exit path,
// which runs after the goroutine body's own recover.
type exitBoomSink struct{}

func (exitBoomSink) Kinds() []event.Kind { return []event.Kind{event.GoExit} }
func (exitBoomSink) Event(*event.Event)  { panic("sink bug on GoExit") }

// TestEscapedPanicDiscardsRuntime: a panic raised in a goroutine's exit
// path reaches the Run caller and discards the pool's runtime. The pool's
// next run must equal a fresh Run of the same seed, and once the pool is
// closed no goroutine of a broken run may remain parked in its body.
func TestEscapedPanicDiscardsRuntime(t *testing.T) {
	pool := sim.NewRunPool()
	for seed := range int64(8) {
		func() {
			defer func() {
				if r := recover(); r != "sink bug on GoExit" {
					t.Fatalf("seed %d: recovered %v, want the sink's panic", seed, r)
				}
			}()
			pool.Run(sim.Config{Seed: seed, Sinks: []event.Sink{exitBoomSink{}}}, escapeProgram)
		}()
		got := pool.Run(sim.Config{Seed: seed}, escapeProgram).Clone()
		if want := sim.Run(sim.Config{Seed: seed}, escapeProgram); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: the pooled run after an escaped panic differs from a fresh run:\n  pooled: %+v\n  fresh:  %+v",
				seed, got, want)
		}
	}
	pool.Close()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:gort.Stack(buf, true)]); strings.Contains(stacks, "escapeProgram") {
		t.Errorf("a goroutine of a broken run is still parked in the program body:\n%s", stacks)
	}
}

// TestConcurrentRunsMatchSerial: the idle list of worker coroutines is the
// only runtime state that concurrent runs share. Eight host goroutines run
// every kernel variant at once, half on fresh runtimes and half each on its
// own pool, and every Result must equal the serial run's.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	type job struct {
		label string
		cfg   sim.Config
		prog  sim.Program
	}
	var jobs []job
	for _, k := range kernels.All() {
		jobs = append(jobs, job{k.ID, k.Config(5), k.Buggy}, job{k.ID + "/fixed", k.Config(5), k.Fixed})
	}
	want := make([]*sim.Result, len(jobs))
	for i, j := range jobs {
		want[i] = sim.Run(j.cfg, j.prog)
	}
	const hosts = 8
	var wg sync.WaitGroup
	for h := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pool *sim.RunPool
			if h%2 == 1 {
				pool = sim.NewRunPool()
				defer pool.Close()
			}
			for n := range jobs {
				// Each host goroutine starts at a different kernel.
				i := (n + h*len(jobs)/hosts) % len(jobs)
				var got *sim.Result
				if pool != nil {
					got = pool.Run(jobs[i].cfg, jobs[i].prog)
				} else {
					got = sim.Run(jobs[i].cfg, jobs[i].prog)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("host %d (pooled %v), %s: Result differs from the serial run\n  got:  %+v\n  want: %+v",
						h, pool != nil, jobs[i].label, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
