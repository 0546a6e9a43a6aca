// Offline replay: the detector pipeline driven by archived trace/v1 event
// streams instead of a live simulation. Record once (SweepOptions.RecordDir
// or trace.Record), re-judge forever — including with detectors that did
// not exist when the run executed, the paper's own post-hoc methodology.
package detect

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"goconcbugs/internal/event"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/trace"
)

// RunAllTrace is RunAll's offline twin: it decodes one archived run frame
// from r and drives every listed detector from the decoded stream, exactly
// as the mux dispatched it live. Verdicts and per-detector event counts are
// bit-identical to the live run's because both sides see the same events in
// the same order: a recorder subscribes to every kind, so the archive holds
// the full stream, and replay dispatches it through the same per-kind mux
// the simulation used.
func RunAllTrace(r io.Reader, dets ...Detector) (*Report, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	if _, err := tr.NextRun(); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("detect: trace holds no run frames")
		}
		return nil, err
	}
	p := newPipeline(dets)
	start := time.Now()
	res, err := p.replay(tr, &event.Mux{})
	if err != nil {
		return nil, err
	}
	return p.report(res, time.Since(start)), nil
}

// replay is run's offline twin: it judges the current frame of tr,
// dispatching the archived stream through mux (rebuilt for this pipeline's
// sinks) and the archived Result through Finish.
func (p *pipeline) replay(tr *trace.Reader, mux *event.Mux) (*sim.Result, error) {
	mux.Reset(p.begin(nil, nil))
	res, err := tr.Replay(mux)
	if err != nil {
		return nil, err
	}
	p.finish(res)
	return res, nil
}

// ReplayDir re-judges a sweep archive recorded via SweepOptions.RecordDir:
// every *.trace file under dir replays through the listed detectors, and
// the records fold with foldSweep — the same fold as a live sweep, so the
// report (and, when opts.Checkpoint is set, the checkpoint file) is
// byte-identical to what a live Sweep of the same options and detectors
// writes. Runs absent from the archive (a shard not yet recorded, or a run
// that panicked while recording) fold into Incomplete.
//
// opts must be the recording sweep's options: everything sweepIdentity
// covers except the detector set (runs, seeds, program name, step budget,
// leak threshold and fault parameters) is checked against every frame
// header, and a mismatch returns a *trace.FingerprintError.
func ReplayDir(dir string, opts SweepOptions, dets ...Detector) (*SweepReport, error) {
	if opts.Runs <= 0 {
		opts.Runs = 100
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("detect: no .trace files under %s", dir)
	}
	sort.Strings(files)
	want := sweepIdentity(opts, nil)
	records := make([]*sweepRecord, opts.Runs)
	p, mux := newPipeline(dets), &event.Mux{}
	for _, path := range files {
		if err := replayFile(path, want, opts, p, mux, records); err != nil {
			return nil, err
		}
	}
	if opts.Checkpoint != "" {
		if err := writeFileAtomic(opts.Checkpoint, appendLog(nil, sweepIdentity(opts, dets), records)); err != nil {
			return nil, err
		}
	}
	return foldSweep(opts, dets, records, 0, opts.Runs, nil, nil), nil
}

// replayFile folds every frame of one archive file into records, judging
// each with p through mux.
func replayFile(path, want string, opts SweepOptions, p *pipeline, mux *event.Mux, records []*sweepRecord) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		return fmt.Errorf("detect: %s: %w", path, err)
	}
	for {
		meta, err := tr.NextRun()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("detect: %s: %w", path, err)
		}
		if meta.Fingerprint != want {
			return fmt.Errorf("detect: %s: %w", path, &trace.FingerprintError{Have: meta.Fingerprint, Want: want})
		}
		if meta.Run < 0 || meta.Run >= opts.Runs {
			return fmt.Errorf("detect: %s: frame claims run %d of a %d-run sweep", path, meta.Run, opts.Runs)
		}
		if seed := opts.BaseSeed + int64(meta.Run); meta.Seed != seed {
			return fmt.Errorf("detect: %s: frame claims run %d with seed %d, but run %d of a sweep from seed %d has seed %d", path, meta.Run, meta.Seed, meta.Run, opts.BaseSeed, seed)
		}
		if records[meta.Run] != nil {
			return fmt.Errorf("detect: %s: run %d appears in more than one frame — archives must partition the seed range", path, meta.Run)
		}
		if _, err := p.replay(tr, mux); err != nil {
			return fmt.Errorf("detect: %s: %w", path, err)
		}
		records[meta.Run] = p.record(meta.Run, meta.Seed)
	}
}

// planner is the optional interface through which a sim.Injector exposes
// its recorded fault plan (inject.Injector does). The sweep recorder
// archives the pre-run plan spec in the frame header — enough to rebuild
// the injector deterministically — and the post-run plan, faults included,
// in the trailer for attribution.
type planner interface{ Plan() *inject.Plan }

// recording is one run's in-flight archive: a temp file in the record
// directory that is renamed to its final name only once the run completed
// and the frame is fully written, so readers never observe a partial file
// and a run that panics host-side leaves no archive entry (it replays as
// Incomplete, just as it folds live).
type recording struct {
	file *os.File
	path string
	rec  *trace.Recorder
	inj  sim.Injector
}

// beginRecording opens run i's archive file and starts its frame; the
// caller attaches rc.rec to the run's sinks. Recording is best-effort, the
// same contract as checkpoint saves: a failure costs the archive entry,
// never the sweep — it returns nil and the run proceeds unrecorded.
func beginRecording(opts SweepOptions, i int, cfg sim.Config) *recording {
	f, err := os.CreateTemp(opts.RecordDir, ".run-*.tmp")
	if err != nil {
		return nil
	}
	var planSpec []byte
	if p, ok := cfg.Injector.(planner); ok {
		planSpec, _ = p.Plan().Encode()
	}
	tw := trace.NewWriter(f)
	rec := tw.BeginRun(trace.RunMeta{
		Fingerprint:   sweepIdentity(opts, nil),
		Name:          cfg.Name,
		Run:           i,
		Runs:          opts.Runs,
		BaseSeed:      opts.BaseSeed,
		Seed:          cfg.Seed,
		MaxSteps:      cfg.MaxSteps,
		LeakThreshold: cfg.LeakThreshold,
		FaultPlan:     planSpec,
	})
	return &recording{
		file: f,
		path: filepath.Join(opts.RecordDir, fmt.Sprintf("run-%05d.trace", i)),
		rec:  rec,
		inj:  cfg.Injector,
	}
}

// finish closes the frame with the run's Result and publishes the file;
// res == nil (the run panicked host-side) discards the partial archive.
func (rc *recording) finish(res *sim.Result) {
	tmp := rc.file.Name()
	defer os.Remove(tmp)
	if res == nil {
		rc.file.Close()
		return
	}
	var plan []byte
	if p, ok := rc.inj.(planner); ok {
		plan, _ = p.Plan().Encode()
	}
	if err := rc.rec.FinishRun(res, plan); err != nil {
		rc.file.Close()
		return
	}
	if err := rc.file.Close(); err != nil {
		return
	}
	_ = os.Rename(tmp, rc.path)
}
