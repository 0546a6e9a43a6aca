package engine

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"

	"goconcbugs/internal/conformance"
	"goconcbugs/internal/detect"
	"goconcbugs/internal/explore"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/vet"
)

// execute runs one job to completion and renders its canonical text. The
// rendering is deliberately wall-time-free: equal jobs produce equal bytes
// whether computed here, served from the store, or printed by a remote
// client — the property the differential suite pins. ctx is the job's
// execution context (engine lifetime + job deadline + ticket cancel).
func (e *Engine) execute(ctx context.Context, pool *sim.RunPool, job Job) (*Result, error) {
	switch job.Kind {
	case KindSweep:
		return e.execSweep(ctx, pool, job)
	case KindRun:
		return e.execRun(ctx, job)
	case KindSystematic:
		return e.execSystematic(ctx, job)
	case KindConformance:
		return e.execConformance(ctx, job)
	}
	return nil, fmt.Errorf("engine: unknown job kind %q", job.Kind)
}

// ShardCheckpointName derives shard i's checkpoint file from the serial
// checkpoint base — the base itself stays reserved for the folded result.
// Exported because a fleet coordinator laying down InlineShard bytes must
// use exactly the names a local fold job will look for.
func ShardCheckpointName(base string, shard, shards int) string {
	return fmt.Sprintf("%s.shard%d-of-%d", base, shard, shards)
}

// replayCommand is the one CLI command that reproduces run firstRun of a
// kernel sweep bit-identically: a single-run sweep whose base seeds are
// shifted so its run 0 is exactly the firing run. Empty for in-process
// program jobs (there is no CLI spelling for those).
func (j *Job) replayCommand(firstRun int) string {
	if j.prog != nil {
		return ""
	}
	cmd := fmt.Sprintf("go run ./cmd/godetect -kernel %s", j.Kernel)
	if j.Fixed {
		cmd += " -fixed"
	}
	cmd += fmt.Sprintf(" -runs 1 -seed %d", j.Seed+int64(firstRun))
	if inj := j.injOpts(); inj != nil {
		cmd += fmt.Sprintf(" -faults %d -faultseed %d", inj.Budget, inj.Seed+int64(firstRun))
		if inj.Aggressive {
			cmd += " -aggressive"
		}
	}
	return cmd
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// execSweep is the detector-pipeline job: a live sweep, an offline archive
// replay, a single shard, or a shard fold, all folding the same report.
func (e *Engine) execSweep(ctx context.Context, pool *sim.RunPool, job Job) (*Result, error) {
	r, err := job.resolve()
	if err != nil {
		return nil, err
	}
	dets := make([]detect.Detector, len(job.Detectors))
	for i, name := range job.Detectors {
		dets[i] = detect.MustLookup(name)
	}
	label := job.variantLabel()
	if inj := job.injOpts(); inj != nil {
		label += fmt.Sprintf(", %d faults/run", inj.Budget)
	}
	opts := detect.SweepOptions{
		Runs: job.Runs, BaseSeed: job.Seed, Config: r.cfgFor(job.Seed),
		Context:     ctx,
		InjectorFor: job.injectorFor(),
		Checkpoint:  job.Checkpoint,
		RecordDir:   job.RecordDir,
		Workers:     e.opts.SweepWorkers,
		Pool:        pool,
	}
	var sw *detect.SweepReport
	var shardBytes []byte
	switch {
	case job.ReplayDir != "":
		if sw, err = detect.ReplayDir(job.ReplayDir, opts, dets...); err != nil {
			return nil, err
		}
		label += ", offline replay"
	case job.Fold:
		srcs := make([]string, job.Shards)
		for i := range srcs {
			srcs[i] = ShardCheckpointName(job.Checkpoint, i, job.Shards)
		}
		if sw, err = detect.MergeSweepCheckpoints(job.Checkpoint, srcs, opts, dets...); err != nil {
			return nil, err
		}
		label += fmt.Sprintf(", fold of %d shards", job.Shards)
	case job.Shards > 1:
		opts.ShardCount, opts.ShardIndex = job.Shards, job.Shard
		label += fmt.Sprintf(", shard %d/%d", job.Shard, job.Shards)
		if job.InlineShard {
			// The shard sweeps into a private temp checkpoint whose bytes
			// ship back in the result: same writer, same bytes as a shard
			// run against a -resume base, no shared filesystem needed.
			tmp, terr := os.CreateTemp("", "godetect-shard-*.ck")
			if terr != nil {
				return nil, fmt.Errorf("engine: inline shard checkpoint: %w", terr)
			}
			tmpPath := tmp.Name()
			tmp.Close()
			defer os.Remove(tmpPath)
			opts.Checkpoint = tmpPath
			sw = detect.Sweep(r.prog, opts, dets...)
			if shardBytes, err = os.ReadFile(tmpPath); err != nil {
				return nil, fmt.Errorf("engine: reading inline shard checkpoint: %w", err)
			}
		} else {
			opts.Checkpoint = ShardCheckpointName(job.Checkpoint, job.Shard, job.Shards)
			sw = detect.Sweep(r.prog, opts, dets...)
		}
	default:
		sw = detect.Sweep(r.prog, opts, dets...)
	}
	// Wall time is process-local; the canonical result carries none.
	for i := range sw.Detectors {
		sw.Detectors[i].Elapsed = 0
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, %d runs, single pass per run): %s\n", r.name, label, sw.Runs, sw.Verdict)
	fired := false
	firstRun := -1
	for _, st := range sw.Detectors {
		status := "quiet"
		if st.Detected() {
			fired = true
			if firstRun < 0 || st.FirstRun < firstRun {
				firstRun = st.FirstRun
			}
			status = fmt.Sprintf("fired on %d/%d runs (first run %d)", st.DetectedRuns, sw.Runs, st.FirstRun)
		}
		fmt.Fprintf(&b, "    %-8s %-34s %9d events\n", st.Detector, status, st.Events)
		if st.Sample != "" {
			fmt.Fprintf(&b, "             e.g. %s\n", firstLine(st.Sample))
		}
	}
	if len(sw.Incomplete) > 0 {
		fmt.Fprintf(&b, "    %d incomplete run(s) (first: run %d, %s)\n",
			len(sw.Incomplete), sw.Incomplete[0].Run, sw.Incomplete[0].Reason)
	}
	if fired {
		if cmd := job.replayCommand(firstRun); cmd != "" {
			fmt.Fprintf(&b, "    replay: %s\n", cmd)
		}
	}
	return &Result{Job: job, Text: b.String(), Fired: fired, Verdict: sw.Verdict, Sweep: sw, ShardCheckpoint: shardBytes}, nil
}

// execRun is the plain seeded sampling sweep — the paper's
// run-it-many-times protocol with manifestation oracles and, on
// non-blocking kernels, the race detector; optionally also the usage-rule
// checker over the same seeds.
func (e *Engine) execRun(ctx context.Context, job Job) (*Result, error) {
	r, err := job.resolve()
	if err != nil {
		return nil, err
	}
	st := explore.Run(r.prog, explore.Options{
		Runs:        job.Runs,
		BaseSeed:    job.Seed,
		Config:      r.cfgFor(job.Seed),
		WithRace:    r.withRace,
		ShadowWords: job.Shadow,
		Workers:     e.opts.SweepWorkers,
		Context:     ctx,
		InjectorFor: job.injectorFor(),
	})
	label := job.variantLabel()
	if inj := job.injOpts(); inj != nil {
		label += fmt.Sprintf(", %d faults/run", inj.Budget)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, %d runs): manifested %d, deadlock %d, leak %d, panic %d, check-fail %d, race-detected %d\n",
		r.name, label, st.Runs, st.Manifested, st.BuiltinDeadlocks, st.LeakRuns, st.Panics,
		st.CheckFailureRuns, st.RaceDetectedRuns)
	if st.Completed < st.Runs {
		fmt.Fprintf(&b, "    incomplete: %d/%d runs completed (%d host panics)\n", st.Completed, st.Runs, len(st.Errors))
	}
	for _, sample := range []string{st.SampleLeak, st.SamplePanic, st.SampleCheckFail, st.SampleRace} {
		if sample != "" {
			fmt.Fprintf(&b, "    e.g. %s\n", sample)
		}
	}
	fired := st.Manifested > 0 || st.RaceDetectedRuns > 0
	if fired {
		first := st.FirstManifestRun
		if first < 0 || (st.FirstDetectedRun >= 0 && st.FirstDetectedRun < first) {
			first = st.FirstDetectedRun
		}
		if cmd := job.replayCommand(first); cmd != "" {
			fmt.Fprintf(&b, "    replay: %s\n", cmd)
		}
	}
	vetDone, vetPanics := job.Runs, 0
	if job.Vet {
		vetDone, vetPanics = renderVet(ctx, &b, job, r)
	}

	var verdict harness.Verdict
	switch {
	case vetDone < job.Runs:
		// A cut vet pass leaves its findings partial, so the result must
		// not be Confirmed (and cached) on the sampling pass alone.
		reason := harness.ReasonPanic
		if vetPanics == 0 {
			reason = harness.CtxReason(ctx.Err())
		}
		verdict = harness.Incompletef(reason, "vet: %d of %d runs incomplete", job.Runs-vetDone, job.Runs)
	case fired:
		verdict = harness.Verdict{Status: harness.Confirmed}
	case st.Completed == st.Runs:
		verdict = harness.Verdict{Status: harness.Refuted}
	case len(st.Errors) > 0:
		verdict = harness.Incompletef(harness.ReasonPanic, "%d of %d runs incomplete", st.Runs-st.Completed, st.Runs)
	default:
		reason := harness.ReasonCanceled
		if err := ctx.Err(); err != nil {
			reason = harness.CtxReason(err)
		}
		verdict = harness.Incompletef(reason, "%d of %d runs incomplete", st.Runs-st.Completed, st.Runs)
	}
	return &Result{Job: job, Text: b.String(), Fired: fired, Verdict: verdict}, nil
}

// renderVet sweeps the same seeds under the usage-rule checker, with the
// job's fault injector, and appends the distinct findings in sorted
// (deterministic) order. Each seed runs under harness.Capture, and the pass
// stops once ctx ends. It returns how many seeds completed and how many
// host-panicked.
func renderVet(ctx context.Context, b *strings.Builder, job Job, r resolved) (done, panics int) {
	distinct := map[string]bool{}
	injectorFor := job.injectorFor()
	for i := 0; i < job.Runs && ctx.Err() == nil; i++ {
		seed := job.Seed + int64(i)
		cfg := r.cfgFor(seed)
		if injectorFor != nil {
			cfg.Injector = injectorFor(i, seed)
		}
		var m *vet.Monitor
		if harness.Capture(i, seed, func() { m, _ = vet.Check(cfg, r.prog) }) != nil {
			panics++
			continue
		}
		done++
		for _, v := range m.Violations() {
			distinct[v.String()] = true
		}
	}
	if done < job.Runs {
		fmt.Fprintf(b, "    vet incomplete: %d/%d runs completed (%d host panics)\n", done, job.Runs, panics)
	}
	if len(distinct) == 0 {
		fmt.Fprintln(b, "    vet: no rule violations")
		return done, panics
	}
	findings := make([]string, 0, len(distinct))
	for v := range distinct {
		findings = append(findings, v)
	}
	sort.Strings(findings)
	for _, v := range findings {
		fmt.Fprintf(b, "    %s\n", v)
	}
	return done, panics
}

// execSystematic exhaustively explores the schedule space, optionally with
// dynamic partial-order reduction.
func (e *Engine) execSystematic(ctx context.Context, job Job) (*Result, error) {
	r, err := job.resolve()
	if err != nil {
		return nil, err
	}
	res := explore.Systematic(r.prog, explore.SystematicOptions{
		Config:    r.cfgFor(0),
		MaxRuns:   job.MaxRuns,
		Reduction: job.DPOR,
		Context:   ctx,
	})
	mode := "full DFS"
	if job.DPOR {
		mode = "DPOR"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, %s): %d schedules (complete=%v, max depth %d), %d failing — %s",
		r.name, job.variantLabel(), mode, res.Runs, res.Complete, res.MaxDepth, res.Failures, res.Verdict)
	if job.DPOR {
		fmt.Fprintf(&b, ", pruned %d, sleep-set hits %d", res.SchedulesPruned, res.SleepSetHits)
	}
	b.WriteString("\n")
	if res.FirstFailure != nil {
		fmt.Fprintf(&b, "    first failing decision sequence: %v\n", res.FailureSchedule)
	}
	return &Result{Job: job, Text: b.String(), Fired: res.Failures > 0, Verdict: res.Verdict}, nil
}

// execConformance differentially tests the sim against the real Go runtime
// on generated programs. Host outcome counts depend on the real scheduler,
// so this is the one kind whose text is not a pure function of the job —
// it is engine-routable (the daemon can serve it) but never cached.
func (e *Engine) execConformance(ctx context.Context, job Job) (*Result, error) {
	fams, err := conformance.ParseFamilies(job.Families)
	if err != nil {
		return nil, err
	}
	st := conformance.Sweep(conformance.SweepOptions{
		Programs: job.Programs,
		BaseSeed: job.Seed,
		Context:  ctx,
		Check:    conformance.CheckOptions{Families: &fams},
	})
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: %d programs from seed %d — %d checked, %d strict (complete exploration), %d sim schedules — %s\n",
		st.Programs, job.Seed, st.Completed, st.Strict, st.Schedules, st.Verdict)
	fmt.Fprintf(&b, "host outcomes: done %d, hung %d, panic %d; must-deadlock confirmed hung: %d\n",
		st.HostKinds[conformance.KindDone], st.HostKinds[conformance.KindHung],
		st.HostKinds[conformance.KindPanic], st.AllHungConfirmed)
	fmt.Fprintf(&b, "kind coverage (programs containing each statement kind, %d liveness-checked):\n", st.SignalGuaranteed)
	for _, k := range conformance.AllStmtKinds {
		if n := st.KindCoverage[k]; n > 0 {
			fmt.Fprintf(&b, "  %-16s %d\n", k, n)
		}
	}
	if st.StepLimited > 0 {
		fmt.Fprintf(&b, "WARNING: %d schedules hit the sim step budget (harness bug: IR programs are loop-free)\n", st.StepLimited)
	}
	if len(st.Divergences) == 0 {
		fmt.Fprintln(&b, "no divergences")
	} else {
		for _, d := range st.Divergences {
			fmt.Fprintf(&b, "\n%v\n", d)
		}
		fmt.Fprintf(&b, "\n%d divergence(s)\n", len(st.Divergences))
	}
	return &Result{Job: job, Text: b.String(), Fired: len(st.Divergences) > 0, Verdict: st.Verdict}, nil
}
