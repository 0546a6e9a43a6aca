package engine

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"goconcbugs/internal/conformance"
	"goconcbugs/internal/detect"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

// The differential suite pins the service-layer contract: a verdict's
// canonical text is a pure function of the job — identical whether computed
// by the one-shot CLI profile (SweepWorkers=0, uncached), the daemon
// profile (SweepWorkers=1, store-backed) cold, the same daemon warm from
// its store, or shared across coalesced submissions.

// profiles returns the two engine configurations whose outputs must agree.
func profiles(t *testing.T) (daemon, oneshot *Engine) {
	daemon = newEngine(t, Options{Workers: 2, SweepWorkers: 1, Store: newStore(t)})
	oneshot = newEngine(t, Options{Workers: 1, SweepWorkers: 0})
	return daemon, oneshot
}

// TestDifferentialAllKernels sweeps every registered kernel, buggy and
// fixed, through both profiles and requires cold, warm, and one-shot text
// to be byte-identical.
func TestDifferentialAllKernels(t *testing.T) {
	daemon, oneshot := profiles(t)
	ctx := context.Background()
	dets := detect.Names()
	for _, k := range kernels.All() {
		for _, fixed := range []bool{false, true} {
			job := Job{Kind: KindSweep, Kernel: k.ID, Fixed: fixed, Runs: 10, Seed: 1, Detectors: dets}
			cold, err := daemon.Submit(ctx, job)
			if err != nil {
				t.Fatalf("%s fixed=%v cold: %v", k.ID, fixed, err)
			}
			warm, err := daemon.Submit(ctx, job)
			if err != nil {
				t.Fatalf("%s fixed=%v warm: %v", k.ID, fixed, err)
			}
			direct, err := oneshot.Submit(ctx, job)
			if err != nil {
				t.Fatalf("%s fixed=%v one-shot: %v", k.ID, fixed, err)
			}
			if !warm.CacheHit {
				t.Errorf("%s fixed=%v: second daemon submit was not a cache hit", k.ID, fixed)
			}
			if warm.Text != cold.Text {
				t.Errorf("%s fixed=%v: warm text diverged from cold:\n%s\nvs\n%s", k.ID, fixed, cold.Text, warm.Text)
			}
			if direct.Text != cold.Text {
				t.Errorf("%s fixed=%v: one-shot profile diverged from daemon:\n%s\nvs\n%s", k.ID, fixed, direct.Text, cold.Text)
			}
			if direct.Fired != cold.Fired || warm.Fired != cold.Fired {
				t.Errorf("%s fixed=%v: fired bits disagree (cold %v, warm %v, one-shot %v)",
					k.ID, fixed, cold.Fired, warm.Fired, direct.Fired)
			}
		}
	}
}

// TestDifferentialConformanceIR runs 200 generated conformance-IR programs
// through the detector pipeline via SubmitProgram on both profiles — the
// in-process face of "the daemon serves arbitrary programs the same bytes
// the CLI computes".
func TestDifferentialConformanceIR(t *testing.T) {
	daemon, oneshot := profiles(t)
	ctx := context.Background()
	dets := detect.Names()
	fams := conformance.AllFamilies
	hits := 0
	for seed := int64(0); seed < 200; seed++ {
		p := conformance.GenerateWith(seed, conformance.ModeSafe, fams)
		prog := conformance.SimProgram(p)
		name := fmt.Sprintf("conformance-ir-%d", seed)
		cfgFor := func(s int64) sim.Config { return sim.Config{Name: name, Seed: s} }
		job := Job{Kind: KindSweep, Runs: 3, Seed: seed, Detectors: dets}

		cold, err := daemon.SubmitProgram(ctx, job, name, prog, cfgFor)
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		warm, err := daemon.SubmitProgram(ctx, job, name, prog, cfgFor)
		if err != nil {
			t.Fatalf("seed %d warm: %v", seed, err)
		}
		direct, err := oneshot.SubmitProgram(ctx, job, name, prog, cfgFor)
		if err != nil {
			t.Fatalf("seed %d one-shot: %v", seed, err)
		}
		if warm.CacheHit {
			hits++
		}
		if warm.Text != cold.Text || direct.Text != cold.Text {
			t.Fatalf("seed %d: texts diverged\ncold:\n%s\nwarm:\n%s\none-shot:\n%s",
				seed, cold.Text, warm.Text, direct.Text)
		}
	}
	if hits != 200 {
		t.Errorf("only %d/200 warm submissions hit the store", hits)
	}
}

// TestDifferentialFaultInjected pins the same agreement for a
// fault-injected sweep, including the coalesced path: eight concurrent
// identical submissions on a fresh engine share one execution and all see
// the cold text.
func TestDifferentialFaultInjected(t *testing.T) {
	daemon, oneshot := profiles(t)
	ctx := context.Background()
	job := Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 25, Seed: 2,
		Detectors: detect.Names(), Faults: 3, FaultSeed: 5}

	cold, err := daemon.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := daemon.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := oneshot.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Text != cold.Text || direct.Text != cold.Text {
		t.Fatalf("fault-injected sweep diverged (warm hit=%v):\ncold:\n%s\nwarm:\n%s\none-shot:\n%s",
			warm.CacheHit, cold.Text, warm.Text, direct.Text)
	}

	coalesce := newEngine(t, Options{Workers: 1, SweepWorkers: 1, Store: newStore(t)})
	const n = 8
	var wg sync.WaitGroup
	texts := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := coalesce.Submit(ctx, job)
			if err == nil {
				texts[i] = res.Text
			}
		}(i)
	}
	wg.Wait()
	for i, text := range texts {
		if text != cold.Text {
			t.Fatalf("coalesced submission %d diverged:\n%s\nvs\n%s", i, text, cold.Text)
		}
	}
	if s := coalesce.Stats(); s.Executed != 1 {
		t.Fatalf("coalesced engine executed %d times, want 1", s.Executed)
	}
}

// TestCrewEngineMatchesFreshEngines runs every kernel variant as
// interleaved run and sweep jobs, with and without faults, on one engine
// whose crew keeps its helpers and their warm runtimes from job to job, and
// requires each result's text to match a fresh engine's byte for byte.
func TestCrewEngineMatchesFreshEngines(t *testing.T) {
	ctx := context.Background()
	dets := detect.Names()
	var jobs []Job
	for _, k := range kernels.All() {
		for _, fixed := range []bool{false, true} {
			for _, faults := range []int{0, 3} {
				jobs = append(jobs,
					Job{Kind: KindRun, Kernel: k.ID, Fixed: fixed, Runs: 10, Seed: 7, Faults: faults, FaultSeed: 5},
					Job{Kind: KindSweep, Kernel: k.ID, Fixed: fixed, Runs: 10, Seed: 7, Faults: faults, FaultSeed: 5, Detectors: dets})
			}
		}
	}
	// Interleave kernels and kinds, so that each slot's runtime moves
	// from program to program between jobs.
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	long := newEngine(t, Options{Workers: 1, SweepWorkers: 2})
	for _, job := range jobs {
		got, err := long.Submit(ctx, job)
		if err != nil {
			t.Fatalf("%s %s fixed=%v faults=%d: %v", job.Kind, job.Kernel, job.Fixed, job.Faults, err)
		}
		fresh := New(Options{Workers: 1, SweepWorkers: 2})
		want, err := fresh.Submit(ctx, job)
		fresh.Close()
		if err != nil {
			t.Fatalf("%s %s fixed=%v faults=%d on a fresh engine: %v", job.Kind, job.Kernel, job.Fixed, job.Faults, err)
		}
		if got.Text != want.Text {
			t.Errorf("%s %s fixed=%v faults=%d: crew engine diverged from a fresh one:\n%s\nvs\n%s",
				job.Kind, job.Kernel, job.Fixed, job.Faults, got.Text, want.Text)
		}
	}
}

// TestWarmLoadHarness is the load proof for EXPERIMENTS.md: a store-backed
// engine answering a warm-cache request mix. It asserts only a conservative
// floor so CI never flakes; the measured numbers are logged.
func TestWarmLoadHarness(t *testing.T) {
	e := newEngine(t, Options{Workers: 4, SweepWorkers: 1, Store: newStore(t)})
	ctx := context.Background()
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 10,
			Seed: int64(100 + i), Detectors: []string{"cycle", "race"}}
		if _, err := e.Submit(ctx, jobs[i]); err != nil {
			t.Fatal(err)
		}
	}

	const requests = 4096
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests/8; i++ {
				res, err := e.Submit(ctx, jobs[(w+i)%len(jobs)])
				if err != nil {
					t.Error(err)
					return
				}
				if !res.CacheHit {
					t.Errorf("request missed warm cache")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	qps := float64(requests) / elapsed.Seconds()
	t.Logf("warm-cache load: %d requests in %v (%.0f QPS, %v mean latency)",
		requests, elapsed, qps, elapsed/time.Duration(requests))
	if qps < 1000 {
		t.Errorf("warm-cache QPS %.0f below the 1000 floor", qps)
	}
}
