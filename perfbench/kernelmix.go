package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"goconcbugs/internal/detect"
	"goconcbugs/internal/engine"
	"goconcbugs/internal/explore"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/kernels"
)

// kernelMixRound is one pass over every registered kernel, buggy and fixed,
// as a plain run job (godetect -kernel) and as a detector sweep (godetect
// -with race,vet,leak,cycle), in seeded order with fresh base seeds.
func kernelMixRound(rng *rand.Rand, runs int) []engine.Job {
	var jobs []engine.Job
	for _, k := range kernels.All() {
		for _, fixed := range []bool{false, true} {
			jobs = append(jobs,
				engine.Job{Kind: engine.KindRun, Kernel: k.ID, Fixed: fixed, Runs: runs, Seed: rng.Int64N(1 << 40)},
				engine.Job{Kind: engine.KindSweep, Kernel: k.ID, Fixed: fixed, Runs: runs, Seed: rng.Int64N(1 << 40),
					Detectors: sweepDetectors})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// checkKernelJob is kernel-mix's output check: the job ran, its verdict is
// not Incomplete, and a fixed kernel's detector sweep stayed quiet (the
// CLI's -fixed gate). It returns the problem, or "".
func checkKernelJob(job engine.Job, res *engine.Result, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s %s: %v", job.Kind, job.Kernel, err)
	case res.Verdict.Status == harness.Incomplete:
		return fmt.Sprintf("%s %s seed %d: incomplete verdict %v", job.Kind, job.Kernel, job.Seed, res.Verdict)
	case job.Kind == engine.KindSweep && job.Fixed && res.Fired:
		return fmt.Sprintf("fixed %s seed %d fired a detector", job.Kernel, job.Seed)
	}
	return ""
}

// runKernelMix is the one-shot CLI profile: an in-process engine with one
// worker, per-job sweep fan-out over GOMAXPROCS, no store, no checkpoint.
// One caller submits jobs back to back. Set-up is engine start plus one
// warm-up round.
func runKernelMix(p params) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	sz := p.sizes
	var eng *engine.Engine
	for i := 0; i < sz.setups; i++ {
		if eng != nil {
			eng.Close()
		}
		warm := kernelMixRound(rand.New(rand.NewPCG(uint64(p.seed), 0)), sz.runsPerJob)
		start := time.Now()
		eng = engine.New(engine.Options{Workers: 1, SweepWorkers: 0})
		for _, job := range warm {
			if _, err := eng.Submit(ctx, job); err != nil {
				eng.Close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	defer eng.Close()

	rng := rand.New(rand.NewPCG(uint64(p.seed), 1))
	// kernel-mix has no seam to decorate, so a traced sample runs exactly
	// like an untraced one and trace_overhead_frac reads the noise floor.
	err := rep.forSamples(p.seconds, p.minSamples(), func(i int) (sample, bool, error) {
		var jobs []engine.Job
		for r := 0; r < sz.kmRounds; r++ {
			jobs = append(jobs, kernelMixRound(rng, sz.runsPerJob)...)
		}
		s := sample{lat: make([]time.Duration, 0, len(jobs))}
		resetPeakRSS()
		start := time.Now()
		for _, job := range jobs {
			t0 := time.Now()
			res, err := eng.Submit(ctx, job)
			s.lat = append(s.lat, time.Since(t0))
			rep.op(checkKernelJob(job, res, err))
			s.runs += job.Runs
		}
		s.wall = time.Since(start)
		return s, p.trace && i%2 == 1, nil
	})
	if err != nil {
		return nil, err
	}
	if p.trace {
		kernelMixProbes(ctx, p, eng, rep)
	}
	return rep, nil
}

// kernelMixProbes measures the layers on one more round of jobs: each job
// through the engine, through the direct layer call at the engine's fan-out,
// and serially through the sim alone and the layer alone.
func kernelMixProbes(ctx context.Context, p params, eng *engine.Engine, rep *report) {
	lp := newLayerProbe()
	defer lp.close()
	jobs := kernelMixRound(rand.New(rand.NewPCG(uint64(p.seed), 2)), p.sizes.runsPerJob)
	var overhead time.Duration
	for _, job := range jobs {
		k, _ := kernels.ByID(job.Kernel)
		t0 := time.Now()
		_, err := eng.Submit(ctx, job)
		viaEngine := time.Since(t0)
		if err != nil {
			continue
		}
		// The engine's own call, at the engine's fan-out (SweepWorkers 0).
		t0 = time.Now()
		if job.Kind == engine.KindSweep {
			detect.Sweep(variant(k, job.Fixed), detect.SweepOptions{
				Runs: job.Runs, BaseSeed: job.Seed, Config: k.Config(job.Seed),
			}, detectors()...)
		} else {
			explore.Run(variant(k, job.Fixed), explore.Options{
				Runs: job.Runs, BaseSeed: job.Seed, Config: k.Config(job.Seed),
				WithRace: withRace(k),
			})
		}
		overhead += viaEngine - time.Since(t0)
		if job.Kind == engine.KindSweep {
			lp.sweep(k, job.Fixed, job.Seed, job.Runs)
		} else {
			lp.explore(k, job.Fixed, job.Seed, job.Runs)
		}
	}
	lp.fill(rep.layers)
	rep.layers["engine.overhead_us_per_job"] = us(overhead) / float64(len(jobs))
	rep.layers["trace_overhead_frac"] = traceOverhead(rep)

	// Serial per-run costs spread over the sweep fan-out, scaled from the
	// probe round to a sample's rounds.
	fan := time.Duration(min(runtime.GOMAXPROCS(0), p.sizes.runsPerJob))
	rounds := time.Duration(p.sizes.kmRounds)
	rep.attribute(medianDur(sampleWalls(rep.samples)),
		share{"sim", lp.simTime / fan * rounds},
		share{"detect", (lp.sweepTime - lp.sweepSimTime) / fan * rounds},
		share{"explore", (lp.exploreTime - lp.exploreSimTime) / fan * rounds},
		share{"engine", overhead * rounds},
	)
}
