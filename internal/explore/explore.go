// Package explore runs a simulated program under many seeds and aggregates
// manifestation and detection statistics.
//
// It is the harness behind the paper's detection experiments: Table 12 ran
// each reproduced non-blocking bug 100 times under the race detector ("We
// consider a bug detected within runs as a detected bug"), and Section 4
// notes bugs sometimes needed many runs or manual sleeps to reproduce at
// all. With the deterministic runtime, "many runs" is simply "many seeds".
package explore

import (
	"context"
	"runtime"

	"goconcbugs/internal/event"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
)

// Options configures an exploration.
type Options struct {
	// Runs is the number of seeds to try (default 100, the paper's
	// Table 12 protocol).
	Runs int
	// BaseSeed is the first seed; run i uses BaseSeed+i.
	BaseSeed int64
	// Config is the per-run sim configuration (Seed and Sinks are
	// overwritten per run).
	Config sim.Config
	// WithRace attaches a fresh race detector to every run.
	WithRace bool
	// ShadowWords is the per-variable shadow budget when WithRace is set
	// (0 = the Go detector's 4; negative = unbounded).
	ShadowWords int
	// Workers fans the runs out over that many host goroutines, the
	// caller among them (harness.ForEach; each simulated run is
	// self-contained, so this is safe); 0 or negative uses GOMAXPROCS, 1
	// runs serially on the caller. Aggregation folds results in seed
	// order, so the Stats are identical either way.
	Workers int
	// Context, when non-nil, stops dispatching new runs once canceled;
	// in-flight runs finish and the partial Stats fold only completed runs
	// (Completed < Runs flags the truncation). Nil means run to the end.
	Context context.Context
	// InjectorFor, when non-nil, builds a fresh fault injector for each
	// run (injectors are stateful and single-run). The derivation must be
	// a pure function of (run, seed) to keep the exploration replayable.
	InjectorFor func(run int, seed int64) sim.Injector
}

// Stats aggregates the outcomes of an exploration.
type Stats struct {
	Runs             int
	Completed        int // runs that executed (== Runs unless canceled or panicked)
	Manifested       int // runs where Result.Failed()
	Panics           int
	LeakRuns         int
	BuiltinDeadlocks int
	CheckFailureRuns int
	RaceDetectedRuns int // runs where the race detector reported anything
	RacesTotal       int
	FirstManifestRun int // index of first manifesting run, -1 if none
	FirstDetectedRun int // index of first race-detected run, -1 if none
	RacyVars         map[string]int
	SampleRace       string // one representative race report
	SampleLeak       string // one representative leak description
	SamplePanic      string
	SampleCheckFail  string
	// Errors records runs that panicked on the host side; they count
	// toward Runs but not Completed, and the exploration continues past
	// them.
	Errors []*harness.RunError
}

// ManifestRate returns the fraction of runs where the bug manifested.
func (s *Stats) ManifestRate() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Manifested) / float64(s.Runs)
}

// RaceDetectRate returns the fraction of runs where a race was reported.
func (s *Stats) RaceDetectRate() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.RaceDetectedRuns) / float64(s.Runs)
}

// Detected reports whether any run detected a race — the paper's Table 12
// criterion.
func (s *Stats) Detected() bool { return s.RaceDetectedRuns > 0 }

// runOutcome is one seed's extracted result, kept so parallel execution can
// fold deterministically in seed order. It stores scalars and samples rather
// than the *sim.Result itself: runs execute on recycled RunPool runtimes
// whose Result is only valid until the worker's next run.
type runOutcome struct {
	failed      bool
	panicked    bool
	panicMsg    string
	builtin     bool
	leaked      bool
	leakSample  string
	checkFailed bool
	checkSample string
	reports     []race.Report
	racyVars    []string
	err         *harness.RunError
}

// Run explores prog under opts.
func Run(prog sim.Program, opts Options) *Stats {
	if opts.Runs <= 0 {
		opts.Runs = 100
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	// Pointers, not values: a huge Runs count must not pay for zeroing
	// outcome structs it will never dispatch (nil = never dispatched).
	outcomes := make([]*runOutcome, opts.Runs)
	// Each worker owns a RunPool: the recycled runtime makes back-to-back
	// seeds nearly allocation-free, and pools are single-owner by contract.
	oneRun := func(pool *sim.RunPool, i int) {
		cfg := opts.Config
		cfg.Seed = opts.BaseSeed + int64(i)
		if opts.InjectorFor != nil {
			cfg.Injector = opts.InjectorFor(i, cfg.Seed)
		}
		var det *race.Detector
		if opts.WithRace {
			det = race.New(opts.ShadowWords)
			// Fresh slice per run: workers must not share an appended-to
			// backing array.
			cfg.Sinks = []event.Sink{det}
		}
		out := new(runOutcome)
		out.err = harness.Capture(i, cfg.Seed, func() {
			res := pool.Run(cfg, prog)
			// Extract everything the fold needs before the pool recycles
			// the Result on the next run.
			out.failed = res.Failed()
			out.panicked = res.Outcome == sim.OutcomePanic
			if out.panicked && len(res.Panics) > 0 {
				out.panicMsg = res.Panics[0].Msg
			}
			out.builtin = res.Outcome == sim.OutcomeBuiltinDeadlock
			if len(res.Leaked) > 0 {
				out.leaked = true
				g := res.Leaked[0]
				out.leakSample = g.Name + " blocked on " + g.BlockKind.String()
			}
			if len(res.CheckFailures) > 0 {
				out.checkFailed = true
				out.checkSample = res.CheckFailures[0]
			}
		})
		if det != nil && out.err == nil {
			out.reports = det.Reports()
			out.racyVars = det.RacyVars()
		}
		outcomes[i] = out
	}
	harness.ForEach(ctx, opts.Runs, workers, func(_ int, claim func() (int, bool)) {
		pool := sim.NewRunPool()
		defer pool.Close()
		for i, ok := claim(); ok; i, ok = claim() {
			oneRun(pool, i)
		}
	})

	st := &Stats{Runs: opts.Runs, FirstManifestRun: -1, FirstDetectedRun: -1, RacyVars: map[string]int{}}
	for i := 0; i < opts.Runs; i++ {
		out := outcomes[i]
		if out == nil { // never dispatched (context canceled first)
			continue
		}
		if e := out.err; e != nil {
			st.Errors = append(st.Errors, e)
			continue
		}
		st.Completed++
		if out.failed {
			st.Manifested++
			if st.FirstManifestRun < 0 {
				st.FirstManifestRun = i
			}
		}
		if out.panicked {
			st.Panics++
			if st.SamplePanic == "" && out.panicMsg != "" {
				st.SamplePanic = out.panicMsg
			}
		}
		if out.builtin {
			st.BuiltinDeadlocks++
		}
		if out.leaked {
			st.LeakRuns++
			if st.SampleLeak == "" {
				st.SampleLeak = out.leakSample
			}
		}
		if out.checkFailed {
			st.CheckFailureRuns++
			if st.SampleCheckFail == "" {
				st.SampleCheckFail = out.checkSample
			}
		}
		if reports := outcomes[i].reports; len(reports) > 0 {
			st.RaceDetectedRuns++
			st.RacesTotal += len(reports)
			if st.FirstDetectedRun < 0 {
				st.FirstDetectedRun = i
			}
			for _, v := range outcomes[i].racyVars {
				st.RacyVars[v]++
			}
			if st.SampleRace == "" {
				st.SampleRace = reports[0].String()
			}
		}
	}
	return st
}
