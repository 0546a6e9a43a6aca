// Package detect is the composable detector pipeline: a named registry of
// the study's detectors and a driver that attaches ANY subset of them to a
// single instrumented simulation pass.
//
// Before the unified event stream, each detector dragged its own run along:
// regenerating the detector-comparison extension meant simulating every
// kernel once per detector. Now every detector is an event.Sink (or a
// Result-only analysis), so one sim.Run dispatches each event once through
// the event.Mux and every attached detector sees it. RunAll is that single
// pass; Sweep folds RunAll over many seeds (the paper's Table 12 protocol,
// "We ran each buggy program 100 times with the race detector turned on").
//
// The pipeline also does the accounting the comparison experiment wants:
// per detector, how many events it consumed and how much wall time its
// Event calls (plus Finish) took — the measured version of the overhead
// argument in Section 5.3's detector discussion.
package detect

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"goconcbugs/internal/event"
	"goconcbugs/internal/frame"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/sim"
)

// Verdict is one detector's judgement of one run.
type Verdict struct {
	// Detector is the registry name that produced this verdict.
	Detector string
	// Detected reports whether the detector fired.
	Detected bool
	// Message is one representative finding (empty when !Detected).
	Message string
	// Findings lists every finding, rendered.
	Findings []string
	// Rules lists the detector-specific rule identifiers behind the
	// findings, when the detector has a rule taxonomy (vet does).
	Rules []string
}

// Instance is one attached detector. Kinds and Event follow event.Sink; a
// Result-only detector (built-in deadlock, leak, cycle analysis) returns nil
// from Kinds and is never dispatched to — all its work happens in Finish.
//
// An instance is built once per sweep worker and serves all of that
// worker's runs, one at a time: Reset runs before every run and must drop
// all per-run state (vector clocks from different runs are incomparable),
// so the instance judges each run exactly as a freshly built one would —
// even when the previous run was cut short by a host panic. Finish judges
// the run; the Verdict it returns must not alias memory the instance
// reuses.
type Instance interface {
	Kinds() []event.Kind
	Event(*event.Event)
	Reset()
	Finish(res *sim.Result) Verdict
}

// Detector is a registry entry: a name, a one-line description, and the
// constructor of an instance (see Instance for its reuse across runs).
type Detector struct {
	Name string
	Desc string
	New  func() Instance
}

var (
	regMu    sync.Mutex
	registry []Detector
)

// Register adds a detector to the registry. Names must be unique; the
// built-in set registers itself in this package's init.
func Register(d Detector) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, e := range registry {
		if e.Name == d.Name {
			panic(fmt.Sprintf("detect: duplicate detector %q", d.Name))
		}
	}
	registry = append(registry, d)
}

// All returns the registry in registration order.
func All() []Detector {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]Detector(nil), registry...)
}

// Names returns the registered detector names in registration order.
func Names() []string {
	var out []string
	for _, d := range All() {
		out = append(out, d.Name)
	}
	return out
}

// Lookup finds a detector by name. It searches the registry in place,
// without All's copy: job validation and set-up look up every name of a
// detector set.
func Lookup(name string) (Detector, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, d := range registry {
		if d.Name == name {
			return d, true
		}
	}
	return Detector{}, false
}

// MustLookup is Lookup for names known at compile time.
func MustLookup(name string) Detector {
	d, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("detect: unknown detector %q", name))
	}
	return d
}

// Parse resolves a comma-separated detector list ("race,vet,leak").
func Parse(list string) ([]Detector, error) {
	var out []Detector
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		d, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown detector %q (have %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty detector list (have %s)", strings.Join(Names(), ", "))
	}
	return out, nil
}

// Stat accounts one detector's share of a pass.
type Stat struct {
	Detector string
	// Events is the number of events dispatched to the detector (0 for
	// Result-only detectors).
	Events int64
	// Elapsed is the wall time spent inside the detector's Event and
	// Finish calls.
	Elapsed time.Duration
}

// counted is the sink actually registered with the mux: it forwards to the
// instance while counting events and accumulating wall time.
type counted struct {
	inst Instance
	stat Stat
}

func (c *counted) Kinds() []event.Kind { return c.inst.Kinds() }

func (c *counted) Event(ev *event.Event) {
	start := time.Now()
	c.inst.Event(ev)
	c.stat.Elapsed += time.Since(start)
	c.stat.Events++
}

// pipeline is one worker's detector set, built once and reset before every
// run: the instances behind their counted wrappers, the run's sink list,
// and scratch verdicts and stats that each run overwrites.
type pipeline struct {
	dets     []counted
	sinks    []event.Sink
	verdicts []Verdict
	stats    []Stat
	// The unused rests of the chunks sweep records and their Verdicts and
	// Events are carved from (see record), and the size of the next chunk.
	recs   []sweepRecord
	vs     []Verdict
	events []int64
	chunk  int
}

func newPipeline(dets []Detector) *pipeline {
	p := &pipeline{
		dets:     make([]counted, len(dets)),
		verdicts: make([]Verdict, len(dets)),
		stats:    make([]Stat, len(dets)),
	}
	for i, d := range dets {
		p.dets[i] = counted{inst: d.New(), stat: Stat{Detector: d.Name}}
	}
	return p
}

// begin resets every instance and its counters and returns the run's sinks:
// base (the caller's Config.Sinks), then rec when non-nil (a trace
// recorder), then the detectors. The slice is the pipeline's and is rebuilt
// by the next begin.
func (p *pipeline) begin(base []event.Sink, rec event.Sink) []event.Sink {
	p.sinks = append(p.sinks[:0], base...)
	if rec != nil {
		p.sinks = append(p.sinks, rec)
	}
	for i := range p.dets {
		c := &p.dets[i]
		c.inst.Reset()
		c.stat.Events, c.stat.Elapsed = 0, 0
		p.sinks = append(p.sinks, c)
	}
	return p.sinks
}

// finish judges res with every instance into p.verdicts and p.stats.
func (p *pipeline) finish(res *sim.Result) {
	for i := range p.dets {
		c := &p.dets[i]
		start := time.Now()
		p.verdicts[i] = c.inst.Finish(res)
		c.stat.Elapsed += time.Since(start)
		p.stats[i] = c.stat
	}
}

// run executes prog once under cfg with rec and the detectors attached
// after cfg.Sinks, on pool when non-nil (the Result is then the pool's,
// valid until its next run), and judges the result into p.verdicts and
// p.stats.
func (p *pipeline) run(pool *sim.RunPool, cfg sim.Config, prog sim.Program, rec event.Sink) *sim.Result {
	cfg.Sinks = p.begin(cfg.Sinks, rec)
	var res *sim.Result
	if pool != nil {
		res = pool.Run(cfg, prog)
	} else {
		res = sim.Run(cfg, prog)
	}
	p.finish(res)
	return res
}

// record copies the last run's verdicts and event counts out of the
// scratch buffers into run's sweep record. The record and its slices are
// carved from chunks, each slot handed out once, so records stay immutable
// and a run costs no allocation of its own; a chunk holds twice as many
// runs as the one before, up to 256, so a short sweep wastes little.
func (p *pipeline) record(run int, seed int64) *sweepRecord {
	if len(p.recs) == 0 {
		p.chunk = min(max(2*p.chunk, 4), 256)
		n := len(p.verdicts) * p.chunk
		p.recs = make([]sweepRecord, p.chunk)
		p.vs, p.events = make([]Verdict, n), make([]int64, n)
	}
	n := len(p.verdicts)
	rec := &p.recs[0]
	*rec = sweepRecord{Run: run, Seed: seed, Verdicts: p.vs[:n:n], Events: p.events[:n:n]}
	p.recs, p.vs, p.events = p.recs[1:], p.vs[n:], p.events[n:]
	copy(rec.Verdicts, p.verdicts)
	for di, st := range p.stats {
		rec.Events[di] = st.Events
	}
	return rec
}

// report hands the last run's result to a Report. The Report takes the
// scratch buffers, so the pipeline must not run again.
func (p *pipeline) report(res *sim.Result, elapsed time.Duration) *Report {
	return &Report{Result: res, Verdicts: p.verdicts, Stats: p.stats, Elapsed: elapsed}
}

// Report is the outcome of one single-pass instrumented run.
type Report struct {
	Result   *sim.Result
	Verdicts []Verdict
	Stats    []Stat
	// Elapsed is the wall time of the whole run, detectors included.
	Elapsed time.Duration
}

// Verdict returns the named detector's verdict (zero Verdict if absent).
func (r *Report) Verdict(name string) Verdict {
	for _, v := range r.Verdicts {
		if v.Detector == name {
			return v
		}
	}
	return Verdict{}
}

// Detected reports whether any attached detector fired.
func (r *Report) Detected() bool {
	for _, v := range r.Verdicts {
		if v.Detected {
			return true
		}
	}
	return false
}

// RunAll runs prog once with every listed detector attached to the same
// event stream — each event is produced once and fanned out by the mux —
// then collects the verdicts. Sinks already present in cfg are kept.
func RunAll(cfg sim.Config, prog sim.Program, dets ...Detector) *Report {
	p := newPipeline(dets)
	start := time.Now()
	res := p.run(nil, cfg, prog, nil)
	return p.report(res, time.Since(start))
}

// SweepOptions configures a multi-seed sweep.
type SweepOptions struct {
	// Runs is the number of seeds (default 100, the Table 12 protocol).
	Runs int
	// BaseSeed is the first seed; run i uses BaseSeed+i.
	BaseSeed int64
	// Config is the per-run configuration (Seed is overwritten per run;
	// Sinks present in it are kept on every run).
	Config sim.Config
	// Workers fans runs out over that many host goroutines, the caller
	// among them (0 or negative = GOMAXPROCS, 1 = serial). Results fold in
	// seed order either way.
	Workers int
	// Context, when non-nil, bounds the sweep's wall-clock: once it is
	// canceled (or its deadline expires) no new runs start, in-flight runs
	// finish, and the report folds what completed — never-run seeds appear
	// in Incomplete and the Verdict says why. Nil means run to the end.
	Context context.Context
	// InjectorFor, when non-nil, builds a fresh fault injector for each
	// run (injectors are stateful and single-run). It must be a pure
	// function of (run, seed), so the sweep stays a deterministic function
	// of its options for any Workers value.
	InjectorFor func(run int, seed int64) sim.Injector
	// Checkpoint, when non-empty, is the sweep's record log: the sweep
	// appends one CRC-framed record per run, in run order, fsyncing every
	// Runs/50 records (at least 10), and reads the log back on start.
	// Records already present are not re-executed, so an interrupted sweep
	// resumed with the same options folds to the same report — and leaves
	// the same file — as an uninterrupted one. A torn tail is truncated; a
	// log written under different options is replaced.
	Checkpoint string
	// RecordDir, when non-empty, archives every completed run as a
	// trace/v1 file under it (run-NNNNN.trace, one frame per file, written
	// atomically) for offline re-judging by ReplayDir. Frames are
	// position-independent, so sharded sweeps recording into the same
	// directory assemble the exact archive a serial sweep writes.
	// Recording is best-effort with the same contract as Checkpoint: a
	// write failure costs the archive entry, never the sweep.
	RecordDir string
	// Pool, when non-nil, is an external sim.RunPool that the calling
	// goroutine's runs recycle instead of a pool of their own. The caller
	// is the only worker of a serial sweep and worker 0 of a parallel one
	// (harness.ForEach). The pool is single-owner and is NOT closed by
	// Sweep.
	Pool *sim.RunPool
	// Crew, when non-nil, is the caller's persistent fan-out: worker w
	// runs on the crew's slot w and recycles that slot's pool, slot 0
	// (Crew.Own) being the caller's unless Pool is set. A job-engine
	// worker executing many sweeps back to back thus keeps every worker's
	// runtime warm and starts no goroutine per sweep. Nil means a crew of
	// the sweep's own, closed before Sweep returns; Sweep does not close
	// the caller's.
	Crew *harness.Crew[*sim.RunPool]
	// ShardCount and ShardIndex restrict the sweep to one contiguous block
	// of the seed range: with ShardCount > 1, only runs in shard ShardIndex
	// (per harness.Shard) execute, and the report folds that block alone.
	// Each shard logs only its own block; MergeSweepCheckpoints folds the
	// shard logs back into the byte-identical checkpoint — and hence the
	// identical report — a serial sweep would have produced. ShardCount <= 1
	// means unsharded.
	ShardCount int
	ShardIndex int
}

// SweepStat aggregates one detector over a sweep.
type SweepStat struct {
	Detector     string
	DetectedRuns int
	// FirstRun is the index of the first detecting run, -1 if none.
	FirstRun int
	// Sample is one representative finding from the first detecting run.
	Sample string
	// Rules is the union of rule identifiers across runs, sorted.
	Rules []string
	// Events is the total events dispatched to the detector across all
	// completed runs. Elapsed is the wall time spent inside the detector
	// in THIS process — a resumed sweep excludes time spent before the
	// checkpoint (wall time is not reproducible, so it is never part of
	// the deterministic fold).
	Events  int64
	Elapsed time.Duration
}

// Detected reports whether any run fired — the paper's "We consider a bug
// detected within runs as a detected bug".
func (s SweepStat) Detected() bool { return s.DetectedRuns > 0 }

// IncompleteRun is one seed the sweep could not finish: it panicked on the
// host side or was never dispatched before cancellation.
type IncompleteRun struct {
	Run    int    `json:"run"`
	Seed   int64  `json:"seed"`
	Reason string `json:"reason"` // harness.ReasonPanic / Canceled / Deadline
	Detail string `json:"detail,omitempty"`
}

// SweepReport is the seed-order fold of a sweep.
type SweepReport struct {
	Runs      int
	Detectors []SweepStat
	// Completed counts runs that executed to the end; panicked and
	// never-dispatched seeds are listed in Incomplete instead of being
	// silently dropped.
	Completed  int
	Incomplete []IncompleteRun
	// Verdict is the structured outcome: Confirmed when any completed run
	// fired a detector, Refuted when every scheduled run completed clean,
	// Incomplete (with a reason) otherwise.
	Verdict harness.Verdict
}

// Stat returns the named detector's aggregate (zero SweepStat if absent).
func (r *SweepReport) Stat(name string) SweepStat {
	for _, s := range r.Detectors {
		if s.Detector == name {
			return s
		}
	}
	return SweepStat{Detector: name, FirstRun: -1}
}

// sweepRecord is one run's deterministic outcome — the unit of
// checkpointing (sweeplog.go holds its encoding). Wall time is deliberately
// absent: it is not reproducible, so keeping it out makes the fold of a
// resumed sweep bit-identical to an uninterrupted one.
type sweepRecord struct {
	Run      int
	Seed     int64
	Err      *harness.RunError
	Verdicts []Verdict
	// Events is the per-detector dispatch count, indexed like dets.
	Events []int64
}

// Sweep runs prog under opts.Runs seeds, every listed detector attached to
// each run's single event stream, and folds the verdicts in seed order (so
// the report is identical for any Workers value).
//
// The sweep is hardened: a run that panics on the host side (a buggy
// detector or kernel) is isolated, recorded in Incomplete, and the pool
// keeps draining; cancellation via Context stops dispatching and folds the
// partial result; Checkpoint persists per-run records so an interrupted
// sweep resumes where it stopped.
func Sweep(prog sim.Program, opts SweepOptions, dets ...Detector) *SweepReport {
	rep, _ := sweep(prog, opts, dets, false)
	return rep
}

// SweepWithLog is Sweep that also returns the sweep's record log, encoded
// in memory at its exact size once the sweep ends: the bytes opts.Checkpoint
// would hold after the same sweep. A shard that ships its log to a fold
// elsewhere thus needs no file of its own.
func SweepWithLog(prog sim.Program, opts SweepOptions, dets ...Detector) (*SweepReport, []byte) {
	return sweep(prog, opts, dets, true)
}

// sweep is Sweep, encoding the record log when keepLog is set.
func sweep(prog sim.Program, opts SweepOptions, dets []Detector, keepLog bool) (*SweepReport, []byte) {
	if opts.Runs <= 0 {
		opts.Runs = 100
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.RecordDir != "" {
		// Best-effort, like checkpoint saves: per-run recording quietly
		// no-ops if the directory cannot exist.
		_ = os.MkdirAll(opts.RecordDir, 0o755)
	}

	lo, hi := 0, opts.Runs
	if opts.ShardCount > 1 {
		lo, hi = harness.Shard(opts.Runs, opts.ShardCount, opts.ShardIndex)
	}

	records := make([]*sweepRecord, opts.Runs)
	var lg *sweepLog
	if opts.Checkpoint != "" {
		lg = openSweepLog(opts, dets, records)
	}
	worklist := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if records[i] == nil {
			worklist = append(worklist, i)
		}
	}
	if lg != nil {
		lg.order = worklist
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(worklist) {
		workers = len(worklist)
	}

	// mu guards records, the live-elapsed accumulator, and the log;
	// records entries are immutable once stored.
	var mu sync.Mutex
	elapsed := make([]time.Duration, len(dets))
	// Each worker owns a RunPool and a pipeline, so back-to-back seeds
	// recycle one runtime and one set of detector instances.
	oneRun := func(pool *sim.RunPool, p *pipeline, i int) {
		cfg := opts.Config
		cfg.Seed = opts.BaseSeed + int64(i)
		if opts.InjectorFor != nil {
			cfg.Injector = opts.InjectorFor(i, cfg.Seed)
		}
		var rc *recording
		var recSink event.Sink
		if opts.RecordDir != "" {
			if rc = beginRecording(opts, i, cfg); rc != nil {
				recSink = rc.rec
			}
		}
		var res *sim.Result
		runErr := harness.Capture(i, cfg.Seed, func() { res = p.run(pool, cfg, prog, recSink) })
		if rc != nil {
			// Before the next run: a pooled Result is recycled by it.
			rc.finish(res)
		}
		var rec *sweepRecord
		if runErr == nil {
			rec = p.record(i, cfg.Seed)
		} else {
			rec = &sweepRecord{Run: i, Seed: cfg.Seed, Err: runErr}
		}
		mu.Lock()
		records[i] = rec
		if runErr == nil {
			for di := range dets {
				elapsed[di] += p.stats[di].Elapsed
			}
		}
		if lg != nil {
			lg.advance(records)
		}
		mu.Unlock()
	}
	if workers <= 1 {
		// A plain loop rather than a crew's ForEach, whose closures and
		// cursor would cost every serial sweep allocations.
		pool := opts.Pool
		if pool == nil && opts.Crew != nil {
			pool = opts.Crew.Own()
		}
		if pool == nil {
			pool = sim.NewRunPool()
			defer pool.Close()
		}
		p := newPipeline(dets)
		for _, i := range worklist {
			if ctx.Err() != nil {
				break
			}
			oneRun(pool, p, i)
		}
	} else {
		crew := opts.Crew
		if crew == nil {
			crew = harness.NewCrew(sim.NewRunPool, (*sim.RunPool).Close)
			defer crew.Close()
		}
		crew.ForEach(ctx, len(worklist), workers, func(w int, pool *sim.RunPool, claim func() (int, bool)) {
			if w == 0 && opts.Pool != nil {
				pool = opts.Pool
			}
			p := newPipeline(dets)
			for k, ok := claim(); ok; k, ok = claim() {
				oneRun(pool, p, worklist[k])
			}
		})
	}
	if lg != nil {
		// Every claimed run has finished, and claims follow the worklist,
		// so the log now holds every completed record.
		lg.close(records)
	}

	rep := foldSweep(opts, dets, records, lo, hi, elapsed, ctx.Err())
	if !keepLog {
		return rep, nil
	}
	return rep, encodeLog(sweepIdentity(opts, dets), records)
}

// foldSweep folds the present records of a run table over [lo, hi) with
// sweepFold. Sweep and ReplayDir fold through it; elapsed may be nil (wall
// time is process-local and never part of the deterministic fold).
func foldSweep(opts SweepOptions, dets []Detector, records []*sweepRecord, lo, hi int, elapsed []time.Duration, ctxErr error) *SweepReport {
	f := newSweepFold(opts, dets, lo, hi, ctxErr)
	for _, rec := range records[lo:hi] {
		if rec != nil {
			f.add(rec)
		}
	}
	return f.report(elapsed)
}

// sweepFold is the one fold from per-run records to the seed-order report
// over the half-open run range [lo, hi), behind Sweep, ReplayDir and
// MergeSweepCheckpoints. Records arrive in ascending run order, each run at
// most once; a run that never arrives is incomplete, canceled or for the
// reason ctxErr gives. A record is read only during add, so a caller may
// decode each record into a scratch record it reuses; the strings the fold
// keeps must outlive it.
type sweepFold struct {
	out      *SweepReport
	rules    []map[string]bool
	next, hi int // next is the lowest run not yet folded or missed
	baseSeed int64
	reason   string // a missed run's Incomplete reason
}

func newSweepFold(opts SweepOptions, dets []Detector, lo, hi int, ctxErr error) sweepFold {
	f := sweepFold{
		out: &SweepReport{Runs: hi - lo}, rules: make([]map[string]bool, len(dets)),
		next: lo, hi: hi, baseSeed: opts.BaseSeed, reason: harness.ReasonCanceled,
	}
	if ctxErr != nil {
		f.reason = harness.CtxReason(ctxErr)
	}
	for di, d := range dets {
		f.out.Detectors = append(f.out.Detectors, SweepStat{Detector: d.Name, FirstRun: -1})
		f.rules[di] = map[string]bool{}
	}
	return f
}

// add folds rec, after missing the runs before it that never arrived.
func (f *sweepFold) add(rec *sweepRecord) {
	f.miss(rec.Run)
	f.next = rec.Run + 1
	if rec.Err != nil {
		f.out.Incomplete = append(f.out.Incomplete, IncompleteRun{
			Run: rec.Run, Seed: rec.Seed, Reason: harness.ReasonPanic, Detail: rec.Err.PanicValue,
		})
		return
	}
	f.out.Completed++
	for di := range f.out.Detectors {
		st := &f.out.Detectors[di]
		v := &rec.Verdicts[di]
		st.Events += rec.Events[di]
		if v.Detected {
			st.DetectedRuns++
			if st.FirstRun < 0 {
				st.FirstRun = rec.Run
				st.Sample = v.Message
			}
		}
		for _, r := range v.Rules {
			f.rules[di][r] = true
		}
	}
}

// miss records the runs from f.next up to run as incomplete.
func (f *sweepFold) miss(run int) {
	for ; f.next < run; f.next++ {
		f.out.Incomplete = append(f.out.Incomplete, IncompleteRun{
			Run: f.next, Seed: f.baseSeed + int64(f.next), Reason: f.reason,
		})
	}
}

// report misses the runs after the last record and finishes the fold.
func (f *sweepFold) report(elapsed []time.Duration) *SweepReport {
	f.miss(f.hi)
	out := f.out
	for di := range out.Detectors {
		if elapsed != nil {
			out.Detectors[di].Elapsed = elapsed[di]
		}
		for r := range f.rules[di] {
			out.Detectors[di].Rules = append(out.Detectors[di].Rules, r)
		}
		sort.Strings(out.Detectors[di].Rules)
	}

	detected := false
	for di := range out.Detectors {
		if out.Detectors[di].DetectedRuns > 0 {
			detected = true
			break
		}
	}
	switch {
	case detected:
		out.Verdict = harness.Verdict{Status: harness.Confirmed}
	case len(out.Incomplete) == 0:
		out.Verdict = harness.Verdict{Status: harness.Refuted}
	default:
		reason := out.Incomplete[0].Reason
		for _, inc := range out.Incomplete {
			// A cut-short sweep dominates isolated panics as the
			// headline reason.
			if inc.Reason != harness.ReasonPanic {
				reason = inc.Reason
				break
			}
		}
		out.Verdict = harness.Incompletef(reason, "%d of %d runs incomplete", len(out.Incomplete), out.Runs)
	}
	return out
}

// Structured merge failures. MergeSweepCheckpoints wraps each with the
// offending path and details, and errors.Is tells them apart. No caller
// branches on them today: the CLI's -fold and the fleet's fold report the
// wrapped error and stop, and nothing retries a shard on any of them.
var (
	// ErrShardUnreadable: a shard log is missing, or is not a valid log
	// all the way to its end — a torn tail, a flipped bit, an undecodable
	// record, or a record out of run order or out of the seed range.
	ErrShardUnreadable = errors.New("shard checkpoint unreadable")
	// ErrShardFingerprint: a shard log was written under different sweep
	// options (program, seed range, step budget, leak threshold, detector
	// set, fault parameters).
	ErrShardFingerprint = errors.New("shard checkpoint fingerprint mismatch")
	// ErrShardOverlap: the same run appears in more than one shard log —
	// overlapping shard ranges or a duplicated shard file.
	ErrShardOverlap = errors.New("shard checkpoints overlap")
)

// MergeSweepCheckpoints folds the logs written by sharded Sweeps of the same
// program and options back into the one report a serial sweep would
// produce. Every source must be a valid log to its end, carrying the
// identity of opts/dets; records present in more than one source mean the
// shards overlapped (a partitioning bug) and are rejected, as is the same
// source path listed twice. Seeds no shard executed fold into Incomplete,
// exactly as a canceled serial sweep's would. Failures wrap the ErrShard*
// sentinels, never fold silently.
//
// The sources are walked together in run order, each frame decoded into
// its source's scratch record and folded when the walk takes it, so the
// merge keeps no per-record state and neither the report nor the merged log
// depends on the order of srcs. When dst is non-empty the merged log is
// streamed there, through a synced temp file renamed over dst once every
// source checked out: the header, then the sources' record frames in run
// order, copied byte for byte. Records hold no wall time and the header no
// shard identity, so that file is byte-identical to the log an
// uninterrupted serial sweep of the same options writes.
func MergeSweepCheckpoints(dst string, srcs []string, opts SweepOptions, dets ...Detector) (*SweepReport, error) {
	if opts.Runs <= 0 {
		opts.Runs = 100
	}
	ident := sweepIdentity(opts, dets)
	m := &merger{
		opts: opts, dec: newRecordDecoder(dets),
		fold: newSweepFold(opts, dets, 0, opts.Runs, nil),
		curs: make([]mergeCursor, len(srcs)),
	}
	seen := make(map[string]bool, len(srcs))
	for i, src := range srcs {
		if seen[src] {
			return nil, fmt.Errorf("detect: shard checkpoint %s listed twice: %w", src, ErrShardOverlap)
		}
		seen[src] = true
		data, err := os.ReadFile(src)
		if err != nil {
			return nil, fmt.Errorf("detect: reading shard checkpoint: %w (%w)", err, ErrShardUnreadable)
		}
		have, body, err := readLogHeader(data)
		if err != nil {
			return nil, fmt.Errorf("detect: shard checkpoint %s: %w (%w)", src, err, ErrShardUnreadable)
		}
		if have != ident {
			return nil, fmt.Errorf("detect: shard checkpoint %s was written under different options:\n  have %q\n  want %q\n  %w", src, have, ident, ErrShardFingerprint)
		}
		m.curs[i] = mergeCursor{path: src, body: body, rec: sweepRecord{Run: -1}}
		if err := m.next(&m.curs[i]); err != nil {
			return nil, err
		}
	}
	if dst != "" {
		out, err := createAtomic(dst)
		if err != nil {
			return nil, err
		}
		m.out = out
		_, m.werr = out.Write(frame.Append(nil, []byte(ident)))
	}
	if err := m.merge(); err != nil {
		if m.out != nil {
			m.out.abort()
		}
		return nil, err
	}
	if m.out != nil {
		if err := m.out.commit(m.werr); err != nil {
			return nil, err
		}
	}
	return m.fold.report(nil), nil
}

// merger is one MergeSweepCheckpoints call: a cursor per source, the fold,
// and the merged log's temp file (nil without dst) with its first write
// error.
type merger struct {
	opts SweepOptions
	dec  *recordDecoder
	fold sweepFold
	curs []mergeCursor
	out  *atomicFile
	werr error
}

// mergeCursor walks one source's record frames. The frame at body[off:]
// has been checked and decoded into rec, the source's scratch record, but
// not yet taken; size is its length, 0 once the source is exhausted.
type mergeCursor struct {
	path      string
	body      []byte
	off, size int
	rec       sweepRecord
}

// next moves c past its current frame, then checks and decodes the frame
// after it.
func (m *merger) next(c *mergeCursor) error {
	c.off += c.size
	c.size = 0
	if c.off == len(c.body) {
		return nil
	}
	size, err := nextRecord(c.body[c.off:], &m.opts, m.dec, &c.rec, c.rec.Run)
	if err != nil {
		return fmt.Errorf("detect: shard checkpoint %s: record frame at byte %d: %w (%w)", c.path, c.off, err, ErrShardUnreadable)
	}
	c.size = size
	return nil
}

// merge takes the sources' frames in run order, always the lowest next run
// of any source, and folds each as it takes it. It copies them to m.out in
// spans of consecutive frames from one source: for contiguous shards, one
// write per source. A run taken twice means two sources hold it.
func (m *merger) merge() error {
	var span *mergeCursor // source of the frames taken but not yet written
	spanStart, prev := 0, -1
	for {
		var c *mergeCursor
		for i := range m.curs {
			if k := &m.curs[i]; k.size > 0 && (c == nil || k.rec.Run < c.rec.Run) {
				c = k
			}
		}
		if c == nil {
			break
		}
		if c.rec.Run <= prev {
			return fmt.Errorf("detect: run %d appears in more than one shard checkpoint (%s) — shards must partition the seed range: %w", c.rec.Run, c.path, ErrShardOverlap)
		}
		if c != span {
			m.write(span, spanStart)
			span, spanStart = c, c.off
		}
		prev = c.rec.Run
		m.fold.add(&c.rec)
		if err := m.next(c); err != nil {
			return err
		}
	}
	m.write(span, spanStart)
	return nil
}

// write copies c's frames from start up to its current frame to m.out.
func (m *merger) write(c *mergeCursor, start int) {
	if c != nil && m.out != nil && m.werr == nil {
		_, m.werr = m.out.Write(c.body[start:c.off])
	}
}
