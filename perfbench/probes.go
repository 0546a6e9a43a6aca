package main

import (
	"time"

	"goconcbugs/internal/corpus"
	"goconcbugs/internal/detect"
	"goconcbugs/internal/explore"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

// sweepDetectors is the detector set every sweep job runs (godetect -with).
var sweepDetectors = []string{"race", "vet", "leak", "cycle"}

// layerProbe times the sim, detect and explore layers by calling them
// directly, serially, on the seeds a workload's jobs use.
type layerProbe struct {
	pool *sim.RunPool

	simRuns  int
	simTime  time.Duration
	simSteps int64

	sweepRuns    int
	sweepTime    time.Duration // detect.Sweep, serial, pooled
	sweepSimTime time.Duration // sim alone on the same seeds
	detTime      map[string]time.Duration
	detEvents    map[string]int64

	exploreRuns    int
	exploreTime    time.Duration // explore.Run, serial
	exploreSimTime time.Duration // sim alone on the same seeds
}

func newLayerProbe() *layerProbe {
	return &layerProbe{pool: sim.NewRunPool(), detTime: map[string]time.Duration{}, detEvents: map[string]int64{}}
}

func (lp *layerProbe) close() { lp.pool.Close() }

// variant is the program a job runs.
func variant(k kernels.Kernel, fixed bool) sim.Program {
	if fixed {
		return k.Fixed
	}
	return k.Buggy
}

// simOnly runs seeds [base, base+runs) on the pooled runtime with no sinks:
// the sim layer alone. Host-panicking seeds are skipped.
func (lp *layerProbe) simOnly(k kernels.Kernel, fixed bool, base int64, runs int) time.Duration {
	prog := variant(k, fixed)
	cfg := k.Config(base)
	start := time.Now()
	for i := 0; i < runs; i++ {
		cfg.Seed = base + int64(i)
		_ = harness.Capture(i, cfg.Seed, func() { lp.simSteps += lp.pool.Run(cfg, prog).Steps })
	}
	d := time.Since(start)
	lp.simRuns += runs
	lp.simTime += d
	return d
}

// sweep times a serial detect.Sweep of the job's seeds and the sim alone on
// the same seeds.
func (lp *layerProbe) sweep(k kernels.Kernel, fixed bool, base int64, runs int) {
	lp.sweepSimTime += lp.simOnly(k, fixed, base, runs)
	start := time.Now()
	sw := detect.Sweep(variant(k, fixed), detect.SweepOptions{
		Runs: runs, BaseSeed: base, Config: k.Config(base), Workers: 1, Pool: lp.pool,
	}, detectors()...)
	lp.sweepTime += time.Since(start)
	lp.sweepRuns += runs
	for _, st := range sw.Detectors {
		lp.detTime[st.Detector] += st.Elapsed
		lp.detEvents[st.Detector] += st.Events
	}
}

// explore times a serial explore.Run — the KindRun path — and the sim alone
// on the same seeds.
func (lp *layerProbe) explore(k kernels.Kernel, fixed bool, base int64, runs int) {
	lp.exploreSimTime += lp.simOnly(k, fixed, base, runs)
	start := time.Now()
	explore.Run(variant(k, fixed), explore.Options{
		Runs: runs, BaseSeed: base, Config: k.Config(base),
		WithRace: withRace(k), Workers: 1,
	})
	lp.exploreTime += time.Since(start)
	lp.exploreRuns += runs
}

// withRace mirrors the engine's KindRun rule: non-blocking kernels run with
// the race detector attached.
func withRace(k kernels.Kernel) bool { return k.Behavior == corpus.NonBlocking }

// detectors resolves sweepDetectors.
func detectors() []detect.Detector {
	out := make([]detect.Detector, len(sweepDetectors))
	for i, name := range sweepDetectors {
		out[i] = detect.MustLookup(name)
	}
	return out
}

// simUsPerRun is the sim layer's cost per run.
func (lp *layerProbe) simUsPerRun() float64 { return us(lp.simTime) / float64(max(lp.simRuns, 1)) }

// detectUsPerRun is the detect layer's cost per run: detectors plus the
// dispatch gap, i.e. a sweep run's time minus the sim's.
func (lp *layerProbe) detectUsPerRun() float64 {
	return us(lp.sweepTime-lp.sweepSimTime) / float64(max(lp.sweepRuns, 1))
}

// fill writes the sim, detect and explore per-layer metrics.
func (lp *layerProbe) fill(m map[string]float64) {
	if lp.simRuns > 0 {
		m["sim.us_per_run"] = lp.simUsPerRun()
		m["sim.steps_per_run"] = float64(lp.simSteps) / float64(lp.simRuns)
		if lp.simSteps > 0 {
			m["sim.ns_per_step"] = float64(lp.simTime) / float64(lp.simSteps)
		}
	}
	if lp.sweepRuns > 0 {
		var det time.Duration
		for _, name := range sweepDetectors {
			det += lp.detTime[name]
			m["detect."+name+".us_per_run"] = us(lp.detTime[name]) / float64(lp.sweepRuns)
			m["detect."+name+".events_per_run"] = float64(lp.detEvents[name]) / float64(lp.sweepRuns)
		}
		m["detect.dispatch.us_per_run"] = us(lp.sweepTime-lp.sweepSimTime-det) / float64(lp.sweepRuns)
	}
	if lp.exploreRuns > 0 {
		m["explore.us_per_run"] = us(lp.exploreTime) / float64(lp.exploreRuns)
	}
}

// perRun scales a per-run cost in microseconds to n runs.
func perRun(usPerRun float64, n int) time.Duration {
	return time.Duration(usPerRun * 1e3 * float64(n))
}
