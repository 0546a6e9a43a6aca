// Package engine is the reusable job layer between the godetect CLI and the
// exploration harnesses: typed jobs (detector sweeps, seeded sampling runs,
// systematic exploration, conformance sweeps) executed by a bounded worker
// pool, memoized through a persistent verdict store, and coalesced so N
// concurrent identical requests cost one exploration.
//
// Both front ends route through it — the one-shot CLI submits a job and
// prints the result, the daemon (server.go) serves the same jobs over a
// socket — so a verdict is computed by exactly one code path no matter how
// it was requested. Result.Text is the canonical rendering both print; it is
// a deterministic function of the job (wall time never appears in it), which
// is what makes "daemon-served verdicts are byte-identical to one-shot CLI
// output, cold cache, warm cache, or coalesced" a testable invariant rather
// than a hope.
//
// Caching: jobs whose outcome is a pure function of their options (no
// archive replay, no recording side effects, no sharding) land in the store
// keyed by (program fingerprint, config digest, detector set, seed range).
// Incomplete results — deadline, cancellation, panic — are never cached.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goconcbugs/internal/corpus"
	"goconcbugs/internal/detect"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/store"
)

// Kind selects a job's execution mode. The string values are the wire format
// of the daemon API.
type Kind string

const (
	// KindSweep is a detector-pipeline sweep: detect.Sweep (or its replay
	// / shard-fold variants) with a named detector set.
	KindSweep Kind = "sweep"
	// KindRun is the plain seeded sampling sweep (explore.Run) — the
	// paper's run-it-100-times protocol with the built-in observers and,
	// for non-blocking kernels, the race detector.
	KindRun Kind = "run"
	// KindSystematic explores the schedule space exhaustively
	// (explore.Systematic), optionally with DPOR.
	KindSystematic Kind = "systematic"
	// KindConformance differentially tests the sim against the real
	// runtime on generated programs. Host outcomes depend on the real
	// scheduler, so conformance results are never cached.
	KindConformance Kind = "conformance"
)

// Job is one unit of work. The zero value is invalid; fill Kind plus the
// fields the kind uses. Jobs are JSON-serializable (the daemon API accepts
// exactly this struct); in-process callers may instead attach an unexported
// program via Engine.SubmitProgram.
type Job struct {
	Kind Kind `json:"kind"`

	// Kernel is the registered kernel ID; Fixed selects the variant.
	Kernel string `json:"kernel,omitempty"`
	Fixed  bool   `json:"fixed,omitempty"`

	// Runs and Seed are the seed range for sweep/run kinds.
	Runs int   `json:"runs,omitempty"`
	Seed int64 `json:"seed"`

	// Detectors is the detector set for KindSweep (registry names).
	Detectors []string `json:"detectors,omitempty"`

	// Fault injection (sweep/run kinds).
	Faults     int   `json:"faults,omitempty"`
	FaultSeed  int64 `json:"faultseed,omitempty"`
	Aggressive bool  `json:"aggressive,omitempty"`

	// Shadow is the race-detector shadow-word budget for KindRun; Vet
	// additionally runs the usage-rule checker over the same seeds.
	Shadow int  `json:"shadow,omitempty"`
	Vet    bool `json:"vet,omitempty"`

	// MaxRuns and DPOR configure KindSystematic.
	MaxRuns int  `json:"maxruns,omitempty"`
	DPOR    bool `json:"dpor,omitempty"`

	// Programs and Families configure KindConformance.
	Programs int    `json:"programs,omitempty"`
	Families string `json:"families,omitempty"`

	// Deadline bounds the job's wall clock (0 = none). A job cut short by
	// it reports an Incomplete verdict and is not cached.
	Deadline time.Duration `json:"deadline,omitempty"`

	// Side-effecting sweep options: any of these disables caching (the
	// file is the product, or the input). Paths are daemon-local when the
	// job arrives over the API.
	ReplayDir  string `json:"replay,omitempty"`
	RecordDir  string `json:"record,omitempty"`
	Checkpoint string `json:"checkpoint,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	Shard      int    `json:"shard,omitempty"`
	Fold       bool   `json:"fold,omitempty"`
	// InlineShard makes a sharded sweep return its shard checkpoint bytes
	// in Result.ShardCheckpoint instead of requiring a Checkpoint base on
	// the executing machine's disk: the daemon sweeps the shard into a
	// private temp file and serves the bytes at GET /v1/jobs/{id}/shard,
	// so a fleet coordinator can fold shards from daemons that share no
	// filesystem with it.
	InlineShard bool `json:"inlineShard,omitempty"`

	// In-process program override (SubmitProgram): not serializable, so
	// daemon jobs always go through the kernel registry. ProgName is the
	// caller-supplied identity; caching requires a non-empty one.
	prog     sim.Program
	progCfg  func(seed int64) sim.Config
	ProgName string `json:"-"`
}

// normalize applies the CLI's documented defaults so equal requests build
// equal cache keys no matter which front end spelled them.
func (j *Job) normalize() {
	switch j.Kind {
	case KindSweep, KindRun:
		if j.Runs <= 0 {
			j.Runs = 100
		}
	case KindSystematic:
		if j.MaxRuns <= 0 {
			j.MaxRuns = 200_000
		}
	case KindConformance:
		if j.Programs <= 0 {
			j.Programs = 200
		}
	}
}

// maxJobSize caps a job's Runs, Programs and Shards. Each one sizes a slice
// when the job executes, so an unbounded or negative count arriving in a
// request would panic an engine worker and take the daemon down. The cap
// sits far above the largest sweeps run here (600k runs).
const maxJobSize = 1 << 24

// Validate reports whether the job is well-formed and executable.
func (j *Job) Validate() error {
	for _, n := range []int{j.Runs, j.Programs, j.Shards} {
		if n < 0 || n > maxJobSize {
			return fmt.Errorf("engine: runs %d, programs %d and shards %d must each lie in [0, %d]",
				j.Runs, j.Programs, j.Shards, maxJobSize)
		}
	}
	switch j.Kind {
	case KindSweep:
		if len(j.Detectors) == 0 {
			return errors.New("engine: sweep job needs a detector set")
		}
		for _, name := range j.Detectors {
			if _, ok := detect.Lookup(name); !ok {
				return fmt.Errorf("engine: unknown detector %q (have %s)", name, strings.Join(detect.Names(), ", "))
			}
		}
		if j.ReplayDir != "" && (j.RecordDir != "" || j.Shards > 1 || j.Fold) {
			return errors.New("engine: replay cannot be combined with record, shards, or fold")
		}
		if j.InlineShard {
			if j.Shards <= 1 || j.Fold {
				return errors.New("engine: inline shard checkpoints need a sharded (non-fold) sweep")
			}
			if j.Checkpoint != "" {
				return errors.New("engine: inline shard sweeps use a private checkpoint; leave Checkpoint empty")
			}
		}
		if (j.Shards > 1 || j.Fold) && j.Checkpoint == "" && !j.InlineShard {
			return errors.New("engine: sharded sweeps need a checkpoint base")
		}
		if j.Shards > 1 && !j.Fold && (j.Shard < 0 || j.Shard >= j.Shards) {
			return fmt.Errorf("engine: shard %d out of range [0, %d)", j.Shard, j.Shards)
		}
	case KindRun, KindSystematic:
	case KindConformance:
		if j.Kernel != "" {
			return errors.New("engine: conformance jobs take no kernel")
		}
	default:
		return fmt.Errorf("engine: unknown job kind %q", j.Kind)
	}
	if j.Kind != KindConformance && j.prog == nil {
		if j.Kernel == "" {
			return errors.New("engine: job names no kernel")
		}
		if _, ok := kernels.ByID(j.Kernel); !ok {
			return fmt.Errorf("engine: unknown kernel %q", j.Kernel)
		}
	}
	return nil
}

// resolved is the executable form of a job: the program pair and config
// builder, either from the kernel registry or from an in-process override.
type resolved struct {
	name     string
	prog     sim.Program
	cfgFor   func(seed int64) sim.Config
	withRace bool // KindRun: attach the race detector (non-blocking kernels)
}

func (j *Job) resolve() (resolved, error) {
	if j.prog != nil {
		return resolved{name: j.ProgName, prog: j.prog, cfgFor: j.progCfg}, nil
	}
	k, ok := kernels.ByID(j.Kernel)
	if !ok {
		return resolved{}, fmt.Errorf("engine: unknown kernel %q", j.Kernel)
	}
	prog, cfgFor := k.Buggy, k.Config
	if j.Fixed {
		// The config name is the program's identity in sweep logs, trace
		// headers and cache keys; the fixed variant gets its own so a
		// checkpoint or archive of one variant never resumes or replays as
		// the other. The buggy variant keeps the bare kernel ID that direct
		// detect.Sweep callers use.
		prog = k.Fixed
		base := cfgFor
		cfgFor = func(seed int64) sim.Config {
			cfg := base(seed)
			cfg.Name += "/fixed"
			return cfg
		}
	}
	return resolved{
		name:     k.ID,
		prog:     prog,
		cfgFor:   cfgFor,
		withRace: k.Behavior == corpus.NonBlocking,
	}, nil
}

// variantLabel is the "buggy"/"fixed" half of every report header.
func (j *Job) variantLabel() string {
	if j.Fixed {
		return "fixed"
	}
	return "buggy"
}

// injOpts reconstructs the injector options, nil when injection is off.
func (j *Job) injOpts() *inject.Options {
	if j.Faults <= 0 {
		return nil
	}
	return &inject.Options{Seed: j.FaultSeed, Budget: j.Faults, Aggressive: j.Aggressive}
}

// injectorFor adapts the options to the per-run injector hook; nil when
// injection is off.
func (j *Job) injectorFor() func(run int, seed int64) sim.Injector {
	opts := j.injOpts()
	if opts == nil {
		return nil
	}
	o := *opts
	return func(run int, seed int64) sim.Injector { return inject.ForRun(o, run) }
}

// configDigest hashes the deterministic sim parameters the job runs under.
// Cache keys carry it so a kernel whose step budget or leak threshold
// changes stops matching stale entries.
func (j *Job) configDigest(r resolved) string {
	cfg := r.cfgFor(0)
	h := fnv.New64a()
	fmt.Fprintf(h, "name=%s maxsteps=%d leak=%d shadow=%d race=%v",
		cfg.Name, cfg.MaxSteps, cfg.LeakThreshold, j.Shadow, r.withRace)
	return fmt.Sprintf("%016x", h.Sum64())
}

// faultsKey renders the injection parameters for cache keys.
func (j *Job) faultsKey() string {
	if j.Faults <= 0 {
		return "off"
	}
	mode := "benign"
	if j.Aggressive {
		mode = "aggressive"
	}
	return fmt.Sprintf("%d/%d/%s", j.Faults, j.FaultSeed, mode)
}

// cacheKey builds the store key and reports whether the job is cacheable at
// all: its outcome must be a pure function of the key. Side-effecting sweeps
// (recording an archive, replaying one, sharding) and conformance jobs
// (host-scheduler-dependent) are not; a checkpoint alone does not disqualify
// (the checkpoint is crash insurance, the store is the cache).
func (j *Job) cacheKey() (store.Key, bool) {
	if j.Kind == KindConformance ||
		j.ReplayDir != "" || j.RecordDir != "" || j.Shards > 1 || j.Fold {
		return store.Key{}, false
	}
	r, err := j.resolve()
	if err != nil || r.name == "" {
		// In-process programs without a caller-supplied identity cannot be
		// keyed soundly.
		return store.Key{}, false
	}
	k := store.Key{Config: j.configDigest(r)}
	switch j.Kind {
	case KindSweep:
		k.Fingerprint = fmt.Sprintf("sweep/v1 prog=%s variant=%s faults=%s", r.name, j.variantLabel(), j.faultsKey())
		k.Detectors = strings.Join(j.Detectors, ",")
		k.Seeds = fmt.Sprintf("base=%d runs=%d", j.Seed, j.Runs)
	case KindRun:
		k.Fingerprint = fmt.Sprintf("run/v2 prog=%s variant=%s faults=%s vet=%v", r.name, j.variantLabel(), j.faultsKey(), j.Vet)
		k.Seeds = fmt.Sprintf("base=%d runs=%d", j.Seed, j.Runs)
	case KindSystematic:
		k.Fingerprint = fmt.Sprintf("systematic/v1 prog=%s variant=%s dpor=%v", r.name, j.variantLabel(), j.DPOR)
		k.Seeds = fmt.Sprintf("maxruns=%d", j.MaxRuns)
	default:
		return store.Key{}, false
	}
	return k, true
}

// Result is a completed job. Text is the canonical rendering both front ends
// print — a deterministic function of the job, byte-identical whether the
// result was computed cold, served warm from the store, or shared by a
// coalesced submission.
type Result struct {
	Job  Job    `json:"job"`
	Text string `json:"text"`
	// Fired reports whether any detector (or manifestation oracle) fired —
	// the bit the CLI turns into exit codes for -fixed regression gates.
	Fired   bool            `json:"fired"`
	Verdict harness.Verdict `json:"verdict"`
	// Sweep carries the structured fold for KindSweep jobs (per-detector
	// wall time zeroed: it is process-local and would break determinism).
	Sweep *detect.SweepReport `json:"sweep,omitempty"`
	// ShardCheckpoint is the record log an InlineShard sweep wrote,
	// holding that shard's block only — exactly the bytes the same shard
	// sweeping into a -resume base would have written, so a coordinator
	// can lay the shards side by side and fold them byte-identically to a
	// serial sweep. It never rides in JSON: Client.Result and Submit fetch
	// it raw from the daemon's shard endpoint.
	ShardCheckpoint []byte `json:"-"`
	// CacheHit marks results served from the store without execution.
	CacheHit bool `json:"cacheHit,omitempty"`
}

// cached is the store payload: the deterministic portion of a Result.
type cached struct {
	Text    string              `json:"text"`
	Fired   bool                `json:"fired"`
	Verdict harness.Verdict     `json:"verdict"`
	Sweep   *detect.SweepReport `json:"sweep,omitempty"`
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Submitted counts accepted jobs; Executed the ones that actually ran
	// (submitted minus cache hits and coalesced shares); Errored the
	// executions that failed.
	Submitted uint64 `json:"submitted"`
	Executed  uint64 `json:"executed"`
	Errored   uint64 `json:"errored"`
	// CacheHits/CacheMisses count store lookups for cacheable jobs;
	// Coalesced counts submissions attached to an identical in-flight job.
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	Coalesced   uint64 `json:"coalesced"`
	// Queued and Running describe the instantaneous pipeline state.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Store is the verdict store's snapshot, nil when the engine runs
	// uncached.
	Store *store.Stats `json:"store,omitempty"`
}

// VerdictStore is the persistence contract the engine caches through,
// satisfied by *store.Store. The indirection keeps the engine layer
// independent of the storage implementation and lets tests and benchmarks
// substitute instrumented doubles (e.g. one that gates PutKey to hold a
// worker at the publish barrier).
type VerdictStore interface {
	// Get returns the payload stored under a canonical key, if any.
	Get(key string) ([]byte, bool)
	// PutKey stores a payload under a structured key.
	PutKey(k store.Key, val []byte) error
	// Stats snapshots the store's counters for the engine's Stats view.
	Stats() store.Stats
}

// Options configures New.
type Options struct {
	// Workers is the number of job-executing goroutines. Each owns a
	// fan-out crew (harness.Crew) for its lifetime, whose slots each keep
	// a warm sim.RunPool across jobs: a serial sweep or run job runs
	// entirely on slot 0, the worker's own, and a parallel one puts its
	// worker w on slot w. <= 0 means GOMAXPROCS.
	Workers int
	// SweepWorkers is the per-job fan-out handed to the harnesses
	// (detect.SweepOptions.Workers / explore.Options.Workers). 0 means
	// GOMAXPROCS — right for a one-shot CLI running one job; a daemon
	// running Workers jobs concurrently sets 1 so jobs, not runs, are the
	// unit of parallelism. A crew starts its SweepWorkers-1 helper
	// goroutines on its worker's first parallel job and keeps them until
	// Close; with SweepWorkers 1 it starts none.
	SweepWorkers int
	// Store, when non-nil, is the persistent verdict cache. Leave it nil
	// (the interface zero value, not a typed-nil pointer) to run uncached.
	Store VerdictStore
	// Context bounds every execution (the engine's lifetime); nil means
	// Background. Cancel it to abort in-flight harness work — partial
	// results fold with Incomplete verdicts, exactly as the harnesses
	// already do.
	Context context.Context
	// QueueDepth bounds pending jobs (default 256). Enqueue past it fails
	// with ErrBusy rather than blocking — the daemon turns that into
	// backpressure (HTTP 503).
	QueueDepth int
}

// ErrBusy is returned by Enqueue when the job queue is full.
var ErrBusy = errors.New("engine: job queue full")

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("engine: closed")

// Engine executes jobs on a bounded worker pool with read-through caching
// and singleflight coalescing.
type Engine struct {
	opts  Options
	ctx   context.Context
	queue chan *Ticket
	wg    sync.WaitGroup
	start time.Time

	mu       sync.Mutex
	closed   bool
	nextID   uint64
	inflight map[string]*Ticket // cache key -> in-flight ticket
	stats    Stats
	running  int
}

// New starts an engine with opts.Workers workers. Close it to drain.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	e := &Engine{
		opts:     opts,
		ctx:      ctx,
		queue:    make(chan *Ticket, opts.QueueDepth),
		inflight: make(map[string]*Ticket),
		start:    time.Now(),
	}
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Ticket is a handle on a submitted job.
type Ticket struct {
	// ID is unique within the engine ("j-000001", ...).
	ID  string
	Job Job

	done chan struct{}
	// state is atomic: the daemon's status endpoint polls it from request
	// goroutines while a worker advances it.
	state atomic.Int32
	res   *Result
	err   error
	// key is the job's cache key and keyString its canonical string, ""
	// when the job is not cacheable: built once at Enqueue, read by the
	// worker to store the result and to drop the in-flight entry.
	key       store.Key
	keyString string

	// cancelMu guards the cancel handshake between Cancel (any goroutine,
	// any time) and the worker installing the job context's cancel func.
	cancelMu sync.Mutex
	cancelFn context.CancelFunc
	canceled bool
}

// Cancel aborts the ticket's job: a queued job starts with an already-dead
// context (it folds an immediate Incomplete/canceled result), a running job
// has its context canceled so the harness stops dispatching and folds the
// partial work, and a done job is unaffected. Note that coalesced waiters
// share one ticket — canceling it cancels the job for all of them.
func (t *Ticket) Cancel() {
	t.cancelMu.Lock()
	t.canceled = true
	if t.cancelFn != nil {
		t.cancelFn()
	}
	t.cancelMu.Unlock()
}

// Canceled reports whether Cancel was called.
func (t *Ticket) Canceled() bool {
	t.cancelMu.Lock()
	defer t.cancelMu.Unlock()
	return t.canceled
}

// arm installs the running job's cancel func, collapsing the race with an
// earlier Cancel: if the ticket was canceled while queued, the fresh context
// is killed before execution observes it.
func (t *Ticket) arm(cancel context.CancelFunc) {
	t.cancelMu.Lock()
	t.cancelFn = cancel
	if t.canceled {
		cancel()
	}
	t.cancelMu.Unlock()
}

// disarm clears the cancel func once execution finished.
func (t *Ticket) disarm() {
	t.cancelMu.Lock()
	t.cancelFn = nil
	t.cancelMu.Unlock()
}

const (
	stateQueued = iota
	stateRunning
	stateDone
)

// State reports "queued", "running", or "done".
func (t *Ticket) State() string {
	select {
	case <-t.done:
		return "done"
	default:
	}
	if t.state.Load() == stateRunning {
		return "running"
	}
	return "queued"
}

// Wait blocks until the job completes or ctx is done.
func (t *Ticket) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Enqueue validates and submits a job without waiting. Identical cacheable
// jobs share one ticket (singleflight); cached jobs return an
// already-completed ticket.
func (e *Engine) Enqueue(job Job) (*Ticket, error) {
	job.normalize()
	if err := job.Validate(); err != nil {
		return nil, err
	}
	key, cacheable := job.cacheKey()
	ks := ""
	if cacheable {
		ks = key.String()
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.stats.Submitted++
	if cacheable {
		if t := e.inflight[ks]; t != nil {
			e.stats.Coalesced++
			e.mu.Unlock()
			return t, nil
		}
		if e.opts.Store != nil {
			if raw, ok := e.opts.Store.Get(ks); ok {
				var c cached
				if err := json.Unmarshal(raw, &c); err == nil {
					e.stats.CacheHits++
					e.nextID++
					t := &Ticket{
						ID: fmt.Sprintf("j-%06d", e.nextID), Job: job,
						done: make(chan struct{}),
						res: &Result{
							Job: job, Text: c.Text, Fired: c.Fired,
							Verdict: c.Verdict, Sweep: c.Sweep, CacheHit: true,
						},
					}
					t.state.Store(stateDone)
					close(t.done)
					e.mu.Unlock()
					return t, nil
				}
				// Undecodable entry (format drift): fall through and
				// recompute; the fresh put overwrites it.
			}
			e.stats.CacheMisses++
		}
	}
	e.nextID++
	t := &Ticket{ID: fmt.Sprintf("j-%06d", e.nextID), Job: job, done: make(chan struct{}), key: key, keyString: ks}
	if cacheable {
		e.inflight[ks] = t
	}
	e.mu.Unlock()

	select {
	case e.queue <- t:
		return t, nil
	default:
		e.mu.Lock()
		if cacheable && e.inflight[ks] == t {
			delete(e.inflight, ks)
		}
		e.stats.Submitted--
		e.mu.Unlock()
		return nil, ErrBusy
	}
}

// Submit enqueues job and waits for its result: the one-shot entry point.
func (e *Engine) Submit(ctx context.Context, job Job) (*Result, error) {
	t, err := e.Enqueue(job)
	if err != nil {
		return nil, err
	}
	return t.Wait(ctx)
}

// SubmitProgram is Submit for an in-process program that is not in the
// kernel registry (conformance-IR programs, tests). cfgFor builds the
// per-seed config; name is the program's identity for reports and — when
// non-empty — cache keys. In-process only: program jobs cannot arrive over
// the daemon API.
func (e *Engine) SubmitProgram(ctx context.Context, job Job, name string, prog sim.Program, cfgFor func(seed int64) sim.Config) (*Result, error) {
	job.prog = prog
	job.progCfg = cfgFor
	job.ProgName = name
	return e.Submit(ctx, job)
}

// worker drains the queue. Each worker owns one fan-out crew for its
// lifetime: a serial job runs on the crew's slot 0, the worker's own warm
// runtime, and a parallel one on as many slots as it fans out to, so
// back-to-back jobs recycle warm runtimes and start no goroutine. The crew
// starts its helpers on the first parallel job.
func (e *Engine) worker() {
	defer e.wg.Done()
	crew := harness.NewCrew(sim.NewRunPool, (*sim.RunPool).Close)
	defer crew.Close()
	for t := range e.queue {
		e.mu.Lock()
		t.state.Store(stateRunning)
		e.running++
		e.mu.Unlock()

		ctx, cancel := e.jobCtx(t.Job)
		t.arm(cancel)
		res, err := e.execute(ctx, crew, t.Job)
		t.disarm()
		cancel()

		cacheable := t.keyString != ""
		if err == nil && cacheable && e.opts.Store != nil &&
			res.Verdict.Status != harness.Incomplete {
			if raw, merr := json.Marshal(cached{
				Text: res.Text, Fired: res.Fired, Verdict: res.Verdict, Sweep: res.Sweep,
			}); merr == nil {
				// A failed put costs future warm hits, never this result.
				_ = e.opts.Store.PutKey(t.key, raw)
			}
		}

		e.mu.Lock()
		if cacheable {
			delete(e.inflight, t.keyString)
		}
		e.stats.Executed++
		if err != nil {
			e.stats.Errored++
		}
		e.running--
		t.res, t.err = res, err
		t.state.Store(stateDone)
		e.mu.Unlock()
		close(t.done)
	}
}

// Health is the engine's load-and-liveness snapshot — the daemon's
// GET /v1/health payload. Unlike verdict text it is deliberately
// wall-clock-bearing: schedulers route on it, nothing folds it.
type Health struct {
	// Status is "ok" while the engine accepts jobs, "closed" after Close.
	Status string `json:"status"`
	// QueueDepth and Running are the instantaneous pipeline state;
	// InFlight is their sum — the number a scheduler compares across
	// daemons to find the least-loaded one.
	QueueDepth int `json:"queueDepth"`
	Running    int `json:"running"`
	InFlight   int `json:"inFlight"`
	// Workers and QueueCapacity are the static bounds the load is
	// relative to.
	Workers       int `json:"workers"`
	QueueCapacity int `json:"queueCapacity"`
	// UptimeSeconds is time since the engine started.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// StoreHitRate is hits/(hits+misses) of the verdict store lookups, 0
	// with no store or no lookups yet.
	StoreHitRate float64 `json:"storeHitRate"`
	// Executed mirrors Stats.Executed — a cheap liveness delta for
	// probes that want progress, not just reachability.
	Executed uint64 `json:"executed"`
}

// Health snapshots the engine's health view.
func (e *Engine) Health() Health {
	e.mu.Lock()
	h := Health{
		Status:        "ok",
		QueueDepth:    len(e.queue),
		Running:       e.running,
		Workers:       e.opts.Workers,
		QueueCapacity: e.opts.QueueDepth,
		UptimeSeconds: time.Since(e.start).Seconds(),
		Executed:      e.stats.Executed,
	}
	if e.closed {
		h.Status = "closed"
	}
	e.mu.Unlock()
	h.InFlight = h.QueueDepth + h.Running
	if e.opts.Store != nil {
		ss := e.opts.Store.Stats()
		if total := ss.Hits + ss.Misses; total > 0 {
			h.StoreHitRate = float64(ss.Hits) / float64(total)
		}
	}
	return h
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := e.stats
	st.Queued = len(e.queue)
	st.Running = e.running
	e.mu.Unlock()
	if e.opts.Store != nil {
		ss := e.opts.Store.Stats()
		st.Store = &ss
	}
	return st
}

// Close stops accepting jobs and drains the queue: every already-enqueued
// ticket completes. It does not cancel in-flight work — cancel the engine's
// Context for that.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.queue)
	e.wg.Wait()
}

// jobCtx derives the execution context from the engine lifetime and the
// job's deadline. The returned cancel must always be called.
func (e *Engine) jobCtx(job Job) (context.Context, context.CancelFunc) {
	if job.Deadline > 0 {
		return context.WithTimeout(e.ctx, job.Deadline)
	}
	return context.WithCancel(e.ctx)
}
