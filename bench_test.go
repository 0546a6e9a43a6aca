package goconcbugs

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out. Each benchmark prints its table or figure
// once (so `go test -bench` regenerates the paper's rows) and then times
// the underlying computation.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"goconcbugs/internal/core"
	"goconcbugs/internal/deadlock"
	"goconcbugs/internal/detect"
	"goconcbugs/internal/engine"
	"goconcbugs/internal/event"
	"goconcbugs/internal/explore"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/race"
	"goconcbugs/internal/rpc"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/stats"
	"goconcbugs/internal/store"
	"goconcbugs/internal/trace"
	"goconcbugs/internal/vet"
)

var printGates sync.Map

// printOnce emits the regenerated artifact a single time per benchmark,
// regardless of how many times the harness re-enters it.
func printOnce(key string, f func()) {
	once, _ := printGates.LoadOrStore(key, &sync.Once{})
	once.(*sync.Once).Do(f)
}

func study() *core.Study {
	s := core.NewStudy()
	s.SourceRoot = "testdata/apps"
	return s
}

func BenchmarkTable1(b *testing.B) {
	s := study()
	printOnce("t1", func() { fmt.Print("\n", s.Table1()) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Table1()
	}
}

func BenchmarkTable2(b *testing.B) {
	s := study()
	printOnce("t2", func() {
		t, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		fmt.Print("\n", t)
	})
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	s := study()
	printOnce("t3", func() { fmt.Print("\n", s.Table3()) })
	for i := 0; i < b.N; i++ {
		cmp := rpc.Compare(rpc.Workloads()[0])
		b.ReportMetric(cmp.ServerCreateRatio, "create-ratio")
	}
}

func BenchmarkTable4(b *testing.B) {
	s := study()
	printOnce("t4", func() {
		t, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		fmt.Print("\n", t)
	})
	for i := 0; i < b.N; i++ {
		if _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	s := study()
	printOnce("t5", func() { fmt.Print("\n", s.Table5()) })
	for i := 0; i < b.N; i++ {
		_ = s.Table5()
	}
}

func BenchmarkTable6(b *testing.B) {
	s := study()
	printOnce("t6", func() { fmt.Print("\n", s.Table6()) })
	for i := 0; i < b.N; i++ {
		_ = s.Table6()
	}
}

func BenchmarkTable7(b *testing.B) {
	s := study()
	printOnce("t7", func() {
		t, lifts := s.Table7()
		fmt.Print("\n", t)
		for i, e := range lifts {
			if i >= 2 {
				break
			}
			fmt.Printf("lift(%s, %s) = %.2f\n", e.Row, e.Col, e.Lift)
		}
	})
	for i := 0; i < b.N; i++ {
		_, lifts := s.Table7()
		b.ReportMetric(lifts[0].Lift, "top-lift")
	}
}

func BenchmarkTable8(b *testing.B) {
	s := study()
	printOnce("t8", func() {
		t, _ := s.Table8()
		fmt.Print("\n", t)
	})
	for i := 0; i < b.N; i++ {
		_, res := s.Table8()
		b.ReportMetric(float64(res.BuiltinDetected), "builtin-detected")
		b.ReportMetric(float64(res.LeakDetected), "leak-detected")
	}
}

func BenchmarkTable9(b *testing.B) {
	s := study()
	printOnce("t9", func() { fmt.Print("\n", s.Table9()) })
	for i := 0; i < b.N; i++ {
		_ = s.Table9()
	}
}

func BenchmarkTable10(b *testing.B) {
	s := study()
	printOnce("t10", func() {
		t, _ := s.Table10()
		fmt.Print("\n", t)
	})
	for i := 0; i < b.N; i++ {
		_, _ = s.Table10()
	}
}

func BenchmarkTable11(b *testing.B) {
	s := study()
	printOnce("t11", func() {
		t, lifts := s.Table11()
		fmt.Print("\n", t)
		for _, e := range lifts {
			if e.Row == "chan" && e.Col == "Channel" {
				fmt.Printf("lift(chan, Channel) = %.2f\n", e.Lift)
			}
		}
	})
	for i := 0; i < b.N; i++ {
		_, _ = s.Table11()
	}
}

func BenchmarkTable12(b *testing.B) {
	s := study()
	s.Runs = 100
	printOnce("t12", func() {
		t, res := s.Table12()
		fmt.Print("\n", t)
		fmt.Printf("every-run detections: %d, rare detections: %d\n", res.EveryRun, res.Rare)
	})
	// Timing loop at the paper's protocol is expensive; use a smaller
	// per-iteration protocol for the timed part.
	s.Runs = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := s.Table12()
		b.ReportMetric(float64(res.TotalDetected), "detected")
	}
}

func BenchmarkFigure2_3(b *testing.B) {
	s := study()
	printOnce("f23", func() {
		for _, fig := range s.Figure2and3() {
			fmt.Print("\n", fig)
		}
	})
	for i := 0; i < b.N; i++ {
		_ = s.Figure2and3()
	}
}

func BenchmarkFigure4(b *testing.B) {
	s := study()
	printOnce("f4", func() {
		fmt.Print("\n", s.Figure4())
		for cause, m := range s.LifetimeMedians() {
			fmt.Printf("median lifetime (%s): %.0f days\n", cause, m)
		}
	})
	for i := 0; i < b.N; i++ {
		_ = s.Figure4()
	}
}

func BenchmarkSection7Detector(b *testing.B) {
	s := study()
	printOnce("s7", func() {
		findings, err := s.Section7Detector()
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\nSection 7 detector: %d candidate bugs in the application trees\n", len(findings))
		for _, f := range findings {
			fmt.Println(" ", f)
		}
	})
	for i := 0; i < b.N; i++ {
		if _, err := s.Section7Detector(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationShadowWords sweeps the race detector's shadow-word
// budget on a kernel engineered to need deep history.
func BenchmarkAblationShadowWords(b *testing.B) {
	k, _ := kernels.ByID("docker-apiversion")
	for _, words := range []int{1, 2, 4, 8, -1} {
		name := fmt.Sprintf("words=%d", words)
		if words < 0 {
			name = "words=unbounded"
		}
		b.Run(name, func(b *testing.B) {
			detected := 0
			for i := 0; i < b.N; i++ {
				st := explore.Run(k.Buggy, explore.Options{
					Runs: 10, BaseSeed: int64(i), Config: k.Config(0),
					WithRace: true, ShadowWords: words,
				})
				detected += st.RaceDetectedRuns
			}
			b.ReportMetric(float64(detected)/float64(b.N*10), "detect-rate")
		})
	}
}

// BenchmarkAblationBuiltinVsLeak compares the two blocking detectors over
// the Table 8 set.
func BenchmarkAblationBuiltinVsLeak(b *testing.B) {
	set := kernels.DeadlockStudySet()
	for i := 0; i < b.N; i++ {
		builtin, leak := 0, 0
		for _, k := range set {
			res := sim.Run(k.Config(1), k.Buggy)
			if (deadlock.Builtin{}).Detect(res).Detected {
				builtin++
			}
			if (deadlock.Leak{}).Detect(res).Detected || res.Outcome == sim.OutcomeBuiltinDeadlock {
				leak++
			}
		}
		b.ReportMetric(float64(builtin), "builtin")
		b.ReportMetric(float64(leak), "leak")
	}
}

// BenchmarkAblationBufferedFix measures Figure 1's patch: leak rate of the
// unbuffered (buggy) vs buffered (fixed) channel across 50 seeds.
func BenchmarkAblationBufferedFix(b *testing.B) {
	k, _ := kernels.ByID("kubernetes-finishreq")
	for i := 0; i < b.N; i++ {
		buggy := explore.Run(k.Buggy, explore.Options{Runs: 50, Config: k.Config(0)})
		fixed := explore.Run(k.Fixed, explore.Options{Runs: 50, Config: k.Config(0)})
		b.ReportMetric(buggy.ManifestRate(), "buggy-leak-rate")
		b.ReportMetric(fixed.ManifestRate(), "fixed-leak-rate")
	}
}

// BenchmarkAblationSeedSensitivity measures how manifestation varies with
// the seed on a schedule-sensitive bug (Figure 10's double close).
func BenchmarkAblationSeedSensitivity(b *testing.B) {
	k, _ := kernels.ByID("docker-24007-double-close")
	for i := 0; i < b.N; i++ {
		st := explore.Run(k.Buggy, explore.Options{Runs: 100, BaseSeed: int64(i * 100), Config: k.Config(0)})
		b.ReportMetric(st.ManifestRate(), "panic-rate")
	}
}

// BenchmarkAblationPoolSize sweeps the worker-pool size of the C-style
// server: the goroutine-creation ratio of Table 3 is a property of the
// threading model, not of the specific pool width.
func BenchmarkAblationPoolSize(b *testing.B) {
	w := rpc.Workloads()[0]
	for _, pool := range []int{1, 2, 5, 16} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := rpc.NewTracker()
				srv := rpc.NewServer(rpc.ModelWorkerPool, pool, rpc.EchoHandler(0), tr)
				cl := rpc.Dial(srv, rpc.ModelWorkerPool, tr, w.Requests)
				for r := 0; r < w.Requests; r++ {
					cl.Call("echo", []byte{1})
				}
				cl.Hangup()
				srv.Close()
				tr.Finish()
				b.ReportMetric(float64(tr.Created()), "goroutines")
			}
		})
	}
}

// BenchmarkDetectorComparison runs the extension experiment: all four
// detectors over the reproduced kernels.
func BenchmarkDetectorComparison(b *testing.B) {
	s := study()
	s.Runs = 30
	printOnce("detcmp", func() {
		t, cmp := s.DetectorComparisonTable()
		fmt.Print("\n", t)
		_ = cmp
	})
	for i := 0; i < b.N; i++ {
		_, cmp := s.DetectorComparisonTable()
		b.ReportMetric(float64(cmp.Builtin), "builtin")
		b.ReportMetric(float64(cmp.Race), "race")
		b.ReportMetric(float64(cmp.Leak), "leak")
		b.ReportMetric(float64(cmp.Vet), "vet")
	}
}

// BenchmarkDetectorPipeline measures the event-stream pipeline's reason to
// exist: one instrumented pass with race+vet+leak attached versus three
// sequential single-detector runs of the same kernel. The printed per-kernel
// table (the paper-figure kernels) is the "§ Detector pipeline" table in
// EXPERIMENTS.md. "sweep" is one serial, pooled detect.Sweep of b.N runs in
// the shape of a fleet-sweep shard, so its per-op numbers are the per-run
// cost of a sweep worker's reused pipeline, records included.
func BenchmarkDetectorPipeline(b *testing.B) {
	dets := []detect.Detector{
		detect.MustLookup("race"), detect.MustLookup("vet"), detect.MustLookup("leak"),
	}
	var figureKernels []kernels.Kernel
	for _, k := range kernels.All() {
		if k.Figure > 0 {
			figureKernels = append(figureKernels, k)
		}
	}
	singlePass := func(k kernels.Kernel) {
		detect.RunAll(k.Config(1), k.Buggy, dets...)
	}
	sequential := func(k kernels.Kernel) {
		for _, d := range dets {
			detect.RunAll(k.Config(1), k.Buggy, d)
		}
	}
	printOnce("detpipeline", func() {
		fmt.Printf("\n%-34s %14s %14s %7s\n", "kernel (buggy, race+vet+leak)", "single pass", "3 sequential", "ratio")
		for _, k := range figureKernels {
			const reps = 50
			measure := func(f func(kernels.Kernel)) time.Duration {
				start := time.Now()
				for i := 0; i < reps; i++ {
					f(k)
				}
				return time.Since(start) / reps
			}
			measure(singlePass) // warm both paths once before timing
			measure(sequential)
			sp, seq := measure(singlePass), measure(sequential)
			fmt.Printf("%-34s %14v %14v %6.1fx\n", k.ID, sp, seq, float64(seq)/float64(sp))
		}
	})
	b.Run("single-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range figureKernels {
				singlePass(k)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range figureKernels {
				sequential(k)
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		k, _ := kernels.ByID("docker-abba-order")
		shard, err := detect.Parse("race,vet,leak,cycle")
		if err != nil {
			b.Fatal(err)
		}
		pool := sim.NewRunPool()
		defer pool.Close()
		opts := detect.SweepOptions{Runs: 10, BaseSeed: 1, Config: k.Config(1), Workers: 1, Pool: pool}
		detect.Sweep(k.Buggy, opts, shard...) // warm the pool
		opts.Runs = b.N
		b.ReportAllocs()
		b.ResetTimer()
		detect.Sweep(k.Buggy, opts, shard...)
	})
}

// BenchmarkSystematicExploration measures exhaustive schedule enumeration
// on the Figure 10 kernel (a few thousand schedules).
func BenchmarkSystematicExploration(b *testing.B) {
	k, _ := kernels.ByID("docker-24007-double-close")
	printOnce("systematic", func() {
		res := explore.Systematic(k.Buggy, explore.SystematicOptions{Config: k.Config(0), MaxRuns: 50_000})
		fmt.Printf("\nsystematic exploration of %s: %d schedules (complete=%v), %d failing\n",
			k.ID, res.Runs, res.Complete, res.Failures)
	})
	for i := 0; i < b.N; i++ {
		res := explore.Systematic(k.Buggy, explore.SystematicOptions{Config: k.Config(0), MaxRuns: 50_000})
		b.ReportMetric(float64(res.Runs), "schedules")
		b.ReportMetric(float64(res.Failures), "failing")
	}
}

// BenchmarkDPORvsDFS prints, for every kernel, the schedule count of the
// full depth-first enumeration next to the dynamic partial-order-reduced
// search (the EXPERIMENTS.md "§ Partial-order reduction" table is this
// output), then times the reduced search on the Figure 10 kernel.
func BenchmarkDPORvsDFS(b *testing.B) {
	printOnce("dporvsdfs", func() {
		fmt.Printf("\n%-34s %10s %10s %8s %8s\n", "kernel (buggy)", "full DFS", "DPOR", "pruned", "ratio")
		for _, k := range kernels.All() {
			opts := explore.SystematicOptions{Config: k.Config(0), MaxRuns: 120_000}
			full := explore.Systematic(k.Buggy, opts)
			opts.Reduction = true
			red := explore.Systematic(k.Buggy, opts)
			fullCount := fmt.Sprintf("%d", full.Runs)
			if !full.Complete {
				fullCount = ">" + fullCount
			}
			ratio := "-"
			if full.Complete && red.Runs > 0 {
				ratio = fmt.Sprintf("%.1fx", float64(full.Runs)/float64(red.Runs))
			}
			fmt.Printf("%-34s %10s %10d %8d %8s\n", k.ID, fullCount, red.Runs, red.SchedulesPruned, ratio)
		}
	})
	k, _ := kernels.ByID("docker-24007-double-close")
	for i := 0; i < b.N; i++ {
		res := explore.Systematic(k.Buggy, explore.SystematicOptions{
			Config: k.Config(0), MaxRuns: 120_000, Reduction: true,
		})
		b.ReportMetric(float64(res.Runs), "schedules")
		b.ReportMetric(float64(res.SchedulesPruned), "pruned")
	}
}

// BenchmarkVetOverhead measures the rule monitor's cost on a healthy
// pipeline.
func BenchmarkVetOverhead(b *testing.B) {
	prog := func(t *sim.T) {
		ch := sim.NewChan[int](t, 2)
		wg := sim.NewWaitGroup(t, "wg")
		wg.Add(t, 2)
		t.Go(func(ct *sim.T) {
			for i := 0; i < 16; i++ {
				ch.Send(ct, i)
			}
			ch.Close(ct)
			wg.Done(ct)
		})
		t.Go(func(ct *sim.T) {
			for {
				if _, ok := ch.Recv(ct); !ok {
					break
				}
			}
			wg.Done(ct)
		})
		wg.Wait(t)
	}
	b.Run("without-vet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(sim.Config{Seed: int64(i)}, prog)
		}
	})
	b.Run("with-vet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := vet.New()
			sim.Run(sim.Config{Seed: int64(i), Sinks: []event.Sink{m}}, prog)
		}
	})
}

// --- Substrate microbenchmarks ---

func BenchmarkSimChannelRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Run(sim.Config{Seed: int64(i)}, func(t *sim.T) {
			ch := sim.NewChan[int](t, 0)
			t.Go(func(ct *sim.T) { ch.Send(ct, 1) })
			ch.Recv(t)
		})
	}
}

func BenchmarkSimMutexContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim.Run(sim.Config{Seed: int64(i)}, func(t *sim.T) {
			mu := sim.NewMutex(t, "mu")
			wg := sim.NewWaitGroup(t, "wg")
			wg.Add(t, 4)
			for g := 0; g < 4; g++ {
				t.Go(func(ct *sim.T) {
					for j := 0; j < 8; j++ {
						mu.Lock(ct)
						mu.Unlock(ct)
					}
					wg.Done(ct)
				})
			}
			wg.Wait(t)
		})
	}
}

func BenchmarkRaceDetectorOverhead(b *testing.B) {
	prog := func(t *sim.T) {
		x := sim.NewVar[int](t, "x")
		mu := sim.NewMutex(t, "mu")
		wg := sim.NewWaitGroup(t, "wg")
		wg.Add(t, 2)
		for g := 0; g < 2; g++ {
			t.Go(func(ct *sim.T) {
				for j := 0; j < 16; j++ {
					mu.Lock(ct)
					x.Store(ct, x.Load(ct)+1)
					mu.Unlock(ct)
				}
				wg.Done(ct)
			})
		}
		wg.Wait(t)
	}
	b.Run("without-detector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(sim.Config{Seed: int64(i)}, prog)
		}
	})
	b.Run("with-detector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(sim.Config{Seed: int64(i), Sinks: []event.Sink{race.New(0)}}, prog)
		}
	})
}

// BenchmarkFaultInjection measures the fault hook's cost at the three
// operating points: injection off (the nil-injector check every primitive
// op pays — must be free), an attached injector whose budget is exhausted
// immediately (the common post-budget steady state), and live benign
// injection. The benchgate guards the "off" lane: hooks nobody enabled must
// not tax the hot path.
func BenchmarkFaultInjection(b *testing.B) {
	prog := func(t *sim.T) {
		x := sim.NewVar[int](t, "x")
		mu := sim.NewMutex(t, "mu")
		wg := sim.NewWaitGroup(t, "wg")
		wg.Add(t, 2)
		for g := 0; g < 2; g++ {
			t.Go(func(ct *sim.T) {
				for j := 0; j < 16; j++ {
					mu.Lock(ct)
					x.Store(ct, x.Load(ct)+1)
					mu.Unlock(ct)
				}
				wg.Done(ct)
			})
		}
		wg.Wait(t)
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(sim.Config{Seed: int64(i)}, prog)
		}
	})
	b.Run("spent-budget", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := inject.New(inject.Options{Seed: int64(i), Budget: 1, MeanGap: 1})
			for in.Consult(sim.SiteVar, 1, "warm") == sim.FaultNone {
				// burn the budget before the run (gap 1 means at most two
				// consultations until the single fault fires)
			}
			sim.Run(sim.Config{Seed: int64(i), Injector: in}, prog)
		}
	})
	b.Run("benign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(sim.Config{Seed: int64(i), Injector: inject.ForRun(inject.Options{Budget: 3}, i)}, prog)
		}
	})
}

// BenchmarkPooledRun measures sim.RunPool's steady state on the same
// no-sink program the RaceDetectorOverhead/FaultInjection gates time with a
// fresh runtime per run. The benchgate guards all three lanes: the pooled
// no-sink lane must hold 0 allocs/op (every per-run structure recycled) and
// stay well under the fresh-run lanes' baseline; the with-detector lane
// keeps the pooled instrumented path honest; and the kernels lane prices
// the simulator on the real corpus rather than the contended counter: one
// op runs every kernel variant, buggy and fixed, at seed i on one pool,
// with no sinks.
func BenchmarkPooledRun(b *testing.B) {
	// The program body is the same contended-counter workload the fresh-run
	// gates use, but structured the way a zero-alloc caller would write it:
	// the goroutine bodies close over one long-lived state struct (created
	// once, like methods on a server object) instead of capturing per-run
	// locals, so the program itself allocates nothing per run and the lane
	// measures the runtime's own steady state.
	type state struct {
		x  *sim.Var[int]
		mu *sim.Mutex
		wg *sim.WaitGroup
	}
	st := &state{}
	worker := func(ct *sim.T) {
		for j := 0; j < 16; j++ {
			st.mu.Lock(ct)
			st.x.Store(ct, st.x.Load(ct)+1)
			st.mu.Unlock(ct)
		}
		st.wg.Done(ct)
	}
	prog := func(t *sim.T) {
		st.x = sim.NewVar[int](t, "x")
		st.mu = sim.NewMutex(t, "mu")
		st.wg = sim.NewWaitGroup(t, "wg")
		st.wg.Add(t, 2)
		for g := 0; g < 2; g++ {
			t.Go(worker)
		}
		st.wg.Wait(t)
	}
	b.Run("no-sink", func(b *testing.B) {
		pool := sim.NewRunPool()
		defer pool.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool.Run(sim.Config{Seed: int64(i)}, prog)
		}
	})
	b.Run("with-detector", func(b *testing.B) {
		pool := sim.NewRunPool()
		defer pool.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool.Run(sim.Config{Seed: int64(i), Sinks: []event.Sink{race.New(0)}}, prog)
		}
	})
	b.Run("kernels", func(b *testing.B) {
		ks := kernels.All()
		pool := sim.NewRunPool()
		defer pool.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range ks {
				pool.Run(k.Config(int64(i)), k.Buggy)
				pool.Run(k.Config(int64(i)), k.Fixed)
			}
		}
	})
}

// BenchmarkTraceArchive prices the trace-in/verdict-out split on the same
// contended-counter workload the RaceDetectorOverhead gates use. "record" is
// a live run with the streaming trace/v1 Recorder attached (compare against
// BenchmarkRaceDetectorOverhead/without-detector for the recording
// overhead); "replay" re-judges the archived stream through the full
// race+vet+leak pipeline offline (compare against a live RunAll of the same
// detectors for the replay-vs-live speedup); "size" reports the archive
// bytes per run. The recorder-off hot path itself is guarded by the
// benchgate's without-detector row: an empty sink set must keep paying
// nothing for the existence of the codec.
func BenchmarkTraceArchive(b *testing.B) {
	prog := func(t *sim.T) {
		x := sim.NewVar[int](t, "x")
		mu := sim.NewMutex(t, "mu")
		wg := sim.NewWaitGroup(t, "wg")
		wg.Add(t, 2)
		for g := 0; g < 2; g++ {
			t.Go(func(ct *sim.T) {
				for j := 0; j < 16; j++ {
					mu.Lock(ct)
					x.Store(ct, x.Load(ct)+1)
					mu.Unlock(ct)
				}
				wg.Done(ct)
			})
		}
		wg.Wait(t)
	}
	dets := []detect.Detector{
		detect.MustLookup("race"), detect.MustLookup("vet"), detect.MustLookup("leak"),
	}
	archive := func(w io.Writer, seed int64) error {
		tw := trace.NewWriter(w)
		rec := tw.BeginRun(trace.RunMeta{Name: "bench", Runs: 1, Seed: seed})
		res := sim.Run(sim.Config{Name: "bench", Seed: seed, Sinks: []event.Sink{rec}}, prog)
		return rec.FinishRun(res, nil)
	}
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := archive(io.Discard, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		var buf bytes.Buffer
		if err := archive(&buf, 1); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := detect.RunAllTrace(bytes.NewReader(data), dets...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live-judged", func(b *testing.B) {
		// The replay lane's live twin: same workload, same detectors, fresh
		// simulation per judging — replay speedup = live-judged / replay.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			detect.RunAll(sim.Config{Name: "bench", Seed: 1}, prog, dets...)
		}
	})
}

func BenchmarkLiftComputation(b *testing.B) {
	cont := stats.NewContingency([]string{"a", "b", "c"}, []string{"x", "y"})
	cont.Add("a", "x", 20)
	cont.Add("b", "y", 11)
	cont.Add("c", "x", 7)
	for i := 0; i < b.N; i++ {
		_ = cont.LiftRanking(0)
	}
}

// BenchmarkEngineSubmit times the service layer's three request paths: a
// cold submission that actually sweeps, a warm one answered from the
// persistent verdict store, and a coalesced enqueue that attaches to an
// identical in-flight job. Warm and coalesced are the daemon's steady
// state — they are what "godetect as a service" buys over re-running the
// CLI.
// gatedStore is a VerdictStore whose PutKey parks the caller until gate is
// closed, signalling entered on first arrival — it pins an engine worker at
// the publish barrier so the coalesced lane times queue-attach alone.
type gatedStore struct {
	*store.Store
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (s *gatedStore) PutKey(k store.Key, val []byte) error {
	s.once.Do(func() { close(s.entered) })
	<-s.gate
	return s.Store.PutKey(k, val)
}

func BenchmarkEngineSubmit(b *testing.B) {
	ctx := context.Background()
	job := engine.Job{Kind: engine.KindSweep, Kernel: "docker-abba-order",
		Runs: 5, Seed: 1, Detectors: []string{"cycle"}}

	b.Run("cold", func(b *testing.B) {
		// No store: every submission executes the 5-run sweep.
		e := engine.New(engine.Options{Workers: 1, SweepWorkers: 1})
		defer e.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Submit(ctx, job); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		st, err := store.Open(filepath.Join(b.TempDir(), "verdicts.db"), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		e := engine.New(engine.Options{Workers: 1, SweepWorkers: 1, Store: st})
		defer e.Close()
		if _, err := e.Submit(ctx, job); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Submit(ctx, job)
			if err != nil {
				b.Fatal(err)
			}
			if !res.CacheHit {
				b.Fatal("warm lane missed the cache")
			}
		}
	})
	b.Run("fanout", func(b *testing.B) {
		// kernel-mix's shape, a one-shot engine fanning each job over two
		// sweep workers: per op, one 100-run race,vet,leak,cycle sweep and
		// one 100-run plain job on a non-blocking kernel, so the plain
		// job's race detector runs too.
		e := engine.New(engine.Options{Workers: 1, SweepWorkers: 2})
		defer e.Close()
		jobs := []engine.Job{
			{Kind: engine.KindSweep, Kernel: "cockroachdb-6111-status", Runs: 100, Seed: 1,
				Detectors: []string{"race", "vet", "leak", "cycle"}},
			{Kind: engine.KindRun, Kernel: "cockroachdb-6111-status", Runs: 100, Seed: 2},
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := e.Submit(ctx, j); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("coalesced", func(b *testing.B) {
		// Hold the engine's only worker at the store-put barrier of a
		// decoy job so the target ticket stays parked in the queue:
		// attaching to it is then the pure coalesce fast path, with no
		// concurrent execution perturbing the timer (this may be a
		// single-CPU host, where a busy worker would steal whole
		// scheduler timeslices from the timed loop).
		st, err := store.Open(filepath.Join(b.TempDir(), "verdicts.db"), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		gs := &gatedStore{Store: st, entered: make(chan struct{}), gate: make(chan struct{})}
		e := engine.New(engine.Options{Workers: 1, SweepWorkers: 1, Store: gs, QueueDepth: 4})
		defer func() { close(gs.gate); e.Close() }()
		decoy := job
		decoy.Seed = 99
		if _, err := e.Enqueue(decoy); err != nil {
			b.Fatal(err)
		}
		<-gs.entered // the worker is now asleep inside PutKey(decoy)
		parked, err := e.Enqueue(job)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, err := e.Enqueue(job)
			if err != nil {
				b.Fatal(err)
			}
			if t != parked {
				b.Fatal("submission did not coalesce onto the parked ticket")
			}
		}
	})
}

// BenchmarkStoreGet times the verdict store's hit path. The no-copy lane is
// the one the warm daemon rides on every request; it must stay at 0
// allocs/op (gated by scripts/benchgate.sh).
func BenchmarkStoreGet(b *testing.B) {
	st, err := store.Open(filepath.Join(b.TempDir(), "verdicts.db"), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	key := store.Key{Fingerprint: "sweep/v1 prog=bench variant=buggy faults=off",
		Config: "0123456789abcdef", Detectors: "cycle", Seeds: "base=1 runs=100"}
	if err := st.PutKey(key, bytes.Repeat([]byte("v"), 2048)); err != nil {
		b.Fatal(err)
	}
	ks := key.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, ok := st.Get(ks)
		if !ok || len(raw) != 2048 {
			b.Fatal("store miss")
		}
	}
}
