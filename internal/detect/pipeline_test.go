package detect

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

// freshLog is the record log a sweep of opts should write, built without
// any reuse: every seed runs through RunAll on a fresh runtime with freshly
// built detector instances.
func freshLog(opts SweepOptions, prog sim.Program, dets []Detector) []byte {
	records := make([]*sweepRecord, opts.Runs)
	for i := range records {
		cfg := opts.Config
		cfg.Seed = opts.BaseSeed + int64(i)
		if opts.InjectorFor != nil {
			cfg.Injector = opts.InjectorFor(i, cfg.Seed)
		}
		var rep *Report
		if err := harness.Capture(i, cfg.Seed, func() { rep = RunAll(cfg, prog, dets...) }); err != nil {
			records[i] = &sweepRecord{Run: i, Seed: cfg.Seed, Err: err}
			continue
		}
		rec := &sweepRecord{Run: i, Seed: cfg.Seed, Verdicts: rep.Verdicts, Events: make([]int64, len(dets))}
		for di, st := range rep.Stats {
			rec.Events[di] = st.Events
		}
		records[i] = rec
	}
	return encodeLog(sweepIdentity(opts, dets), records)
}

// TestReusedPipelineMatchesFresh: a sweep worker builds its detector
// instances once and resets them before every run, on a recycled runtime.
// Its record log must equal the log of per-seed RunAll calls on fresh
// runtimes with fresh instances — for every kernel, buggy and fixed, under
// every registered detector, serial and parallel, with and without benign
// fault injection. A Reset that forgets to clear any state a verdict
// depends on shows up here as a verdict, message or event count that
// differs from the fresh run's.
func TestReusedPipelineMatchesFresh(t *testing.T) {
	dets := All()
	benign := inject.Options{Seed: 11, Budget: 3}
	for _, k := range kernels.All() {
		for _, fixed := range []bool{false, true} {
			prog, name := k.Buggy, k.ID
			if fixed {
				prog, name = k.Fixed, k.ID+"/fixed"
			}
			for _, faults := range []bool{false, true} {
				opts := SweepOptions{Runs: 30, BaseSeed: 1, Config: k.Config(1)}
				opts.Config.Name = name
				label := name
				if faults {
					opts.InjectorFor = func(run int, seed int64) sim.Injector { return inject.ForRun(benign, run) }
					label += " (faults)"
				}
				want := freshLog(opts, prog, dets)
				for _, workers := range []int{1, 4} {
					o := opts
					o.Workers = workers
					o.Checkpoint = filepath.Join(t.TempDir(), fmt.Sprintf("w%d.log", workers))
					Sweep(prog, o, dets...)
					if got := readFile(t, o.Checkpoint); !bytes.Equal(got, want) {
						t.Errorf("%s, %d workers: the reused pipeline's record log differs from fresh per-seed runs: %s",
							label, workers, firstLogDiff(t, got, want, dets))
					}
				}
			}
		}
	}
}

// firstLogDiff renders the first record where two logs of dets differ.
func firstLogDiff(t *testing.T, got, want []byte, dets []Detector) string {
	t.Helper()
	records := func(data []byte) []string {
		_, body, err := readLogHeader(data)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		opts := SweepOptions{Runs: 1 << 20, BaseSeed: 1}
		if _, err := scanRecords(body, opts, newRecordDecoder(dets), func(rec *sweepRecord) {
			out = append(out, fmt.Sprintf("run %d: %+v events %v", rec.Run, rec.Verdicts, rec.Events))
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	g, w := records(got), records(want)
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("\n got  %s\n want %s", g[i], w[i])
		}
	}
	return fmt.Sprintf("%d records, want %d", len(g), len(w))
}

// exitBoomInstance panics on the GoExit events whose step satisfies pred: a
// sink bug in a simulated goroutine's exit path, which runs after the
// goroutine body's own recover.
type exitBoomInstance struct{ pred func(step int64) bool }

func (b *exitBoomInstance) Kinds() []event.Kind { return []event.Kind{event.GoExit} }
func (b *exitBoomInstance) Event(ev *event.Event) {
	if ev.Kind == event.GoExit && b.pred(ev.Step) {
		panic(fmt.Sprintf("sink bug on GoExit at step %d", ev.Step))
	}
}
func (b *exitBoomInstance) Reset()                         {}
func (b *exitBoomInstance) Finish(res *sim.Result) Verdict { return Verdict{Detector: "exitboom"} }

// TestSweepSurvivesExitPathPanic: a detector that panics while a goroutine
// exits must fail only the run it panicked in. The panic reaches the
// sweep's per-run capture, and the worker's next run starts on a clean
// runtime, so the record log equals the one fresh per-seed runs give.
func TestSweepSurvivesExitPathPanic(t *testing.T) {
	var fired atomic.Int64
	exitBoom := Detector{Name: "exitboom", Desc: "panics on chosen GoExit events", New: func() Instance {
		return &exitBoomInstance{pred: func(step int64) bool {
			if step%4 != 1 {
				return false
			}
			fired.Add(1)
			return true
		}}
	}}
	dets := append(All(), exitBoom)
	for _, k := range kernels.All() {
		for _, fixed := range []bool{false, true} {
			prog, name := k.Buggy, k.ID
			if fixed {
				prog, name = k.Fixed, k.ID+"/fixed"
			}
			opts := SweepOptions{Runs: 20, BaseSeed: 1, Config: k.Config(1)}
			opts.Config.Name = name
			want := freshLog(opts, prog, dets)
			for _, workers := range []int{1, 4} {
				o := opts
				o.Workers = workers
				o.Checkpoint = filepath.Join(t.TempDir(), fmt.Sprintf("w%d.log", workers))
				Sweep(prog, o, dets...)
				if got := readFile(t, o.Checkpoint); !bytes.Equal(got, want) {
					t.Errorf("%s, %d workers: the record log differs from fresh per-seed runs: %s",
						name, workers, firstLogDiff(t, got, want, dets))
				}
			}
		}
	}
	if fired.Load() == 0 {
		t.Fatal("the exit-path detector never panicked; the test checks nothing")
	}
}
