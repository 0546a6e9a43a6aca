// Package fleet fans a sharded sweep across a pool of godetect daemons and
// folds the shard checkpoints byte-identically to a serial run, no matter
// which daemons slow down, refuse work, or die mid-shard.
//
// The scheduler is deliberately simple: shard state lives behind one mutex,
// and each daemon runs a pull worker that claims whatever the fleet most
// needs next — a pending shard, an expired lease to steal, or a straggling
// shard to hedge. Pull workers make load balancing emergent (a fast daemon
// simply comes back for more), and the single lock makes every transition
// (lease, steal, hedge, fail, complete) atomic without channel choreography.
//
// Correctness rests on two invariants the engine provides:
//
//   - Shard sweep records are a deterministic function of (options, seed
//     range) with no wall-clock content, so duplicate executions — retries,
//     steals, hedges — produce identical checkpoint bytes. Whichever runner
//     finishes first wins and the losers' bytes would have been the same.
//   - A shard is accepted only when its report holds a deterministic record
//     for every seed in the shard's range. Host-panicked seeds count: the
//     sweep records them and a serial run folds the same Incomplete entry.
//     Canceled or deadline-cut seeds do not — their records simply never
//     ran, and accepting such a shard would silently hole the fold (possibly
//     under a Confirmed verdict — the detector may have fired in the
//     completed prefix).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"goconcbugs/internal/detect"
	"goconcbugs/internal/engine"
	"goconcbugs/internal/harness"
)

// Client is the slice of the daemon API the fleet drives. *engine.Client
// satisfies it; tests and the local-fallback pseudo-daemon provide their
// own.
type Client interface {
	Enqueue(ctx context.Context, job engine.Job) (string, error)
	Result(ctx context.Context, id string) (*engine.Result, error)
	Cancel(ctx context.Context, id string) error
	Health(ctx context.Context) (engine.Health, error)
	Close()
}

// Options configures a fleet run.
type Options struct {
	// Hosts are daemon addresses (host:port or unix://path). Empty means
	// run everything on the local fallback engine.
	Hosts []string

	// Shards is the number of seed-range shards to fan out. Defaults to
	// max(len(Hosts), 1).
	Shards int

	// CheckpointBase is where shard checkpoints and the folded checkpoint
	// land: shard i writes CheckpointBase.shard{i}-of-{n}, the fold writes
	// CheckpointBase itself. Required.
	CheckpointBase string

	// ProbeInterval is the health-probe cadence per daemon. A daemon is
	// marked unhealthy after two consecutive probe failures (its leases
	// become instantly stealable) and healthy again after one success.
	ProbeInterval time.Duration

	// LeaseTimeout is how long a shard lease may run before another daemon
	// may steal the shard. Steals do not cancel the original runner — if it
	// was merely slow, first finisher wins.
	LeaseTimeout time.Duration

	// HedgeAfter, when positive, lets an idle daemon dispatch a duplicate
	// of a shard that has been running longer than this. 0 disables
	// hedging.
	HedgeAfter time.Duration

	// Retry shapes the per-shard requeue backoff: attempt k sleeps
	// Retry.SleepFor(k) before the shard becomes claimable again.
	// Attempts bounds REMOTE attempts per shard; once exhausted the shard
	// becomes eligible for the local fallback. Defaults: 3 attempts,
	// 100ms base, 5s cap, 0.5 jitter, seeded from the job seed.
	Retry harness.RetryOptions

	// LocalEngine configures the fallback engine. Zero value works.
	LocalEngine engine.Options

	// Dial opens a client for a host. Defaults to engine.NewClientWith
	// with a 5s connect timeout. Tests inject stubs here.
	Dial func(host string) Client

	// Logf, when non-nil, receives scheduler events (steals, hedges,
	// degradation). Nondeterministic — never fold it into verdict output.
	Logf func(format string, args ...any)
}

// DaemonReport is one daemon's slice of the fleet counters.
type DaemonReport struct {
	Name       string `json:"name"`
	Dispatched int    `json:"dispatched"`
	Completed  int    `json:"completed"`
	Retried    int    `json:"retried"`
	Stolen     int    `json:"stolen"`
	Hedged     int    `json:"hedged"`
	Busy       int    `json:"busy"`
	ProbeFails int    `json:"probeFails"`
	Healthy    bool   `json:"healthy"`
}

// Report is the fleet run's outcome: the folded result plus the scheduling
// story. Only Result carries deterministic content; everything else is
// wall-clock-and-topology-dependent and belongs on stderr.
type Report struct {
	// Result is the canonical fold — byte-for-byte what a serial sweep of
	// the same job renders (modulo the ", fold of N shards" label).
	Result *engine.Result `json:"result"`
	// Degraded reports that at least one shard ran on the local fallback
	// because the remote fleet could not complete it.
	Degraded bool `json:"degraded"`
	// LocalShards counts shards completed by the local fallback.
	LocalShards int            `json:"localShards"`
	Shards      int            `json:"shards"`
	Daemons     []DaemonReport `json:"daemons"`
}

const (
	shardPending = iota
	shardLeased
	shardDone
)

// shardState tracks one shard through pending → leased → done. A hedged or
// stolen shard is leased with several live runners; first finisher wins.
type shardState struct {
	index     int
	state     int
	attempts  int                           // failed remote attempts so far
	leasedAt  time.Time                     // newest live lease, for steal/hedge triggers
	notBefore time.Time                     // backoff gate after a failure
	cancels   map[string]context.CancelFunc // live runners by daemon name
	lastOwner string                        // most recent lease holder, for re-dispatch accounting
	doneBy    string
}

type daemon struct {
	name   string
	client Client
	local  bool

	mu         sync.Mutex
	healthy    bool
	probeFails int
	busyUntil  time.Time
	stats      DaemonReport
	lastHealth engine.Health
}

func (d *daemon) setHealthy(ok bool) (changed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ok {
		d.probeFails = 0
		changed = !d.healthy
		d.healthy = true
		return changed
	}
	d.probeFails++
	d.stats.ProbeFails++
	if d.probeFails >= 2 && d.healthy {
		d.healthy = false
		return true
	}
	return false
}

func (d *daemon) isHealthy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.healthy
}

func (d *daemon) bump(f func(*DaemonReport)) {
	d.mu.Lock()
	f(&d.stats)
	d.mu.Unlock()
}

// claimMode labels why a runner picked up a shard.
type claimMode int

const (
	claimLease claimMode = iota
	claimSteal
	claimHedge
)

type coordinator struct {
	opts    Options
	job     engine.Job
	daemons []*daemon
	local   *daemon

	localOnce sync.Once
	localEng  *engine.Engine

	mu       sync.Mutex
	shards   []*shardState
	doneLeft int
	allDone  chan struct{}
	localRan int
}

// Run fans opts.Job-shaped work (job must be a plain, unsharded sweep) over
// the fleet and returns the folded report. The context bounds the whole
// run; its deadline propagates into every dispatched job.
func Run(ctx context.Context, job engine.Job, opts Options) (*Report, error) {
	if opts.CheckpointBase == "" {
		return nil, errors.New("fleet: CheckpointBase is required")
	}
	if job.Shards > 1 || job.Fold || job.InlineShard {
		return nil, errors.New("fleet: job must be an unsharded sweep; the fleet shards it")
	}
	if opts.Shards <= 0 {
		opts.Shards = len(opts.Hosts)
	}
	// A one-shard fleet cannot steal or hedge; two is the useful minimum
	// (and the engine only accepts inline shards when Shards > 1).
	if opts.Shards < 2 {
		opts.Shards = 2
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 250 * time.Millisecond
	}
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = 10 * time.Second
	}
	if opts.Retry.Attempts <= 0 {
		opts.Retry.Attempts = 3
	}
	if opts.Retry.Backoff <= 0 {
		opts.Retry.Backoff = 100 * time.Millisecond
	}
	if opts.Retry.MaxBackoff <= 0 {
		opts.Retry.MaxBackoff = 5 * time.Second
	}
	if opts.Retry.Jitter == 0 {
		opts.Retry.Jitter = 0.5
	}
	if opts.Retry.Seed == 0 {
		opts.Retry.Seed = uint64(job.Seed) + 1
	}
	if opts.Dial == nil {
		opts.Dial = func(host string) Client {
			return engine.NewClientWith(host, engine.ClientOptions{ConnectTimeout: 5 * time.Second})
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}

	c := &coordinator{
		opts:     opts,
		job:      job,
		doneLeft: opts.Shards,
		allDone:  make(chan struct{}),
	}
	for i := 0; i < opts.Shards; i++ {
		c.shards = append(c.shards, &shardState{index: i, cancels: map[string]context.CancelFunc{}})
	}
	for _, h := range opts.Hosts {
		// Optimistically healthy: the first dispatch races the first probe,
		// and a dead daemon fails fast at Enqueue anyway. Pessimism here
		// would stall healthy fleets for a probe round at startup.
		c.daemons = append(c.daemons, &daemon{name: h, client: opts.Dial(h), healthy: true})
	}
	c.local = &daemon{name: "local", local: true, healthy: true}
	defer func() {
		for _, d := range c.daemons {
			d.client.Close()
		}
		if c.localEng != nil {
			c.localEng.Close()
		}
	}()

	runCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	var wg sync.WaitGroup
	for _, d := range c.daemons {
		wg.Add(1)
		go func(d *daemon) { defer wg.Done(); c.probe(runCtx, d) }(d)
		wg.Add(1)
		go func(d *daemon) { defer wg.Done(); c.work(runCtx, d) }(d)
	}
	wg.Add(1)
	go func() { defer wg.Done(); c.work(runCtx, c.local) }()

	select {
	case <-c.allDone:
	case <-ctx.Done():
		cancelAll()
		wg.Wait()
		return nil, fmt.Errorf("fleet: sweep interrupted: %w", ctx.Err())
	}
	cancelAll()
	wg.Wait()

	res, err := c.fold(ctx)
	if err != nil {
		return nil, err
	}

	rep := &Report{Result: res, Shards: opts.Shards}
	c.mu.Lock()
	rep.LocalShards = c.localRan
	c.mu.Unlock()
	rep.Degraded = rep.LocalShards > 0 && len(opts.Hosts) > 0
	for _, d := range append(append([]*daemon{}, c.daemons...), c.local) {
		d.mu.Lock()
		st := d.stats
		st.Name = d.name
		st.Healthy = d.healthy
		d.mu.Unlock()
		rep.Daemons = append(rep.Daemons, st)
	}
	return rep, nil
}

// localEngine lazily builds the fallback engine the first time degradation
// (or an all-local fleet) needs it, and wires it behind the same Client
// interface the remote runners use.
func (c *coordinator) localEngine() *engine.Engine {
	c.localOnce.Do(func() {
		c.localEng = engine.New(c.opts.LocalEngine)
		c.local.mu.Lock()
		c.local.client = &localClient{eng: c.localEng, tickets: map[string]*engine.Ticket{}}
		c.local.mu.Unlock()
	})
	return c.localEng
}

// probe keeps d's health bit fresh. Marking a daemon unhealthy zeroes its
// live leases' clocks so other daemons steal those shards immediately
// instead of waiting out the lease.
func (c *coordinator) probe(ctx context.Context, d *daemon) {
	tick := time.NewTicker(c.opts.ProbeInterval)
	defer tick.Stop()
	for {
		pctx, cancel := context.WithTimeout(ctx, c.opts.ProbeInterval)
		h, err := d.client.Health(pctx)
		cancel()
		if err == nil && h.Status == "ok" {
			if d.setHealthy(true) {
				c.opts.Logf("fleet: daemon %s healthy", d.name)
			}
			d.mu.Lock()
			d.lastHealth = h
			d.mu.Unlock()
		} else if d.setHealthy(false) {
			c.opts.Logf("fleet: daemon %s unhealthy, releasing its leases", d.name)
			c.expireLeases(d)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// expireLeases makes every shard d is running instantly stealable.
func (c *coordinator) expireLeases(d *daemon) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		if s.state == shardLeased {
			if _, ok := s.cancels[d.name]; ok {
				s.leasedAt = time.Time{}
			}
		}
	}
}

func (c *coordinator) healthyRemotes() int {
	n := 0
	for _, d := range c.daemons {
		if d.isHealthy() {
			n++
		}
	}
	return n
}

// work is the per-daemon pull loop: claim, run, repeat.
func (c *coordinator) work(ctx context.Context, d *daemon) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.allDone:
			return
		default:
		}
		if !d.isHealthy() {
			sleepCtx(ctx, 20*time.Millisecond)
			continue
		}
		d.mu.Lock()
		busy := time.Until(d.busyUntil)
		d.mu.Unlock()
		if busy > 0 {
			sleepCtx(ctx, busy)
			continue
		}
		s, mode, rctx, rcancel := c.claim(ctx, d)
		if s == nil {
			sleepCtx(ctx, 10*time.Millisecond)
			continue
		}
		c.runShard(rctx, rcancel, d, s, mode)
	}
}

// claim picks the next shard for d under the scheduler lock: a claimable
// pending shard first, then an expired (or orphaned) lease to steal, then —
// with hedging on — the longest-running solo shard to duplicate. The
// returned context governs the runner; a rival completing the shard first
// cancels it through the registered func.
func (c *coordinator) claim(ctx context.Context, d *daemon) (*shardState, claimMode, context.Context, context.CancelFunc) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()

	lease := func(s *shardState, mode claimMode) (*shardState, claimMode, context.Context, context.CancelFunc) {
		rctx, rcancel := context.WithCancel(ctx)
		s.state = shardLeased
		// The newest runner restarts the clock: a just-stolen or just-hedged
		// shard is not instantly re-stealable.
		s.leasedAt = now
		s.lastOwner = d.name
		s.cancels[d.name] = rcancel
		return s, mode, rctx, rcancel
	}

	for _, s := range c.shards {
		if s.state != shardPending || now.Before(s.notBefore) {
			continue
		}
		// The local fallback only takes a shard the remotes cannot do:
		// remote attempts exhausted, or no healthy remote exists.
		if d.local && len(c.opts.Hosts) > 0 &&
			s.attempts < c.opts.Retry.Attempts && c.healthyRemotes() > 0 {
			continue
		}
		// Re-dispatching another daemon's failed or dropped shard is a
		// steal for accounting: the work moved off its last owner. (A
		// killed daemon's shards come back through this path — its socket
		// errors out rather than hanging, so no lease ever expires.)
		if s.lastOwner != "" && s.lastOwner != d.name {
			return lease(s, claimSteal)
		}
		return lease(s, claimLease)
	}
	for _, s := range c.shards {
		if s.state != shardLeased {
			continue
		}
		if _, mine := s.cancels[d.name]; mine {
			continue
		}
		expired := s.leasedAt.IsZero() || now.Sub(s.leasedAt) > c.opts.LeaseTimeout
		if !expired {
			continue
		}
		// The local fallback is the thief of last resort: it waits out a
		// second lease window so a healthy remote gets first claim, unless
		// no remote could possibly take it. A zeroed lease clock (the
		// owner was benched) makes the shard instantly stealable by
		// remotes only — the local worker still defers while a healthy
		// remote has attempts left, so one flapping daemon cannot flip the
		// run degraded.
		if d.local && len(c.opts.Hosts) > 0 &&
			s.attempts < c.opts.Retry.Attempts && c.healthyRemotes() > 0 &&
			(s.leasedAt.IsZero() || now.Sub(s.leasedAt) <= 2*c.opts.LeaseTimeout) {
			continue
		}
		return lease(s, claimSteal)
	}
	if c.opts.HedgeAfter > 0 && !d.local {
		var best *shardState
		for _, s := range c.shards {
			if s.state != shardLeased || len(s.cancels) != 1 {
				continue
			}
			if _, mine := s.cancels[d.name]; mine {
				continue
			}
			if now.Sub(s.leasedAt) > c.opts.HedgeAfter {
				if best == nil || s.leasedAt.Before(best.leasedAt) {
					best = s
				}
			}
		}
		if best != nil {
			return lease(best, claimHedge)
		}
	}
	return nil, 0, nil, nil
}

// shardJob builds the dispatchable job for shard i: the template plus shard
// coordinates, inline checkpoint return, and the run deadline.
func (c *coordinator) shardJob(ctx context.Context, i int) engine.Job {
	job := c.job
	job.Shards = c.opts.Shards
	job.Shard = i
	job.InlineShard = true
	job.Checkpoint = ""
	if dl, ok := ctx.Deadline(); ok {
		job.Deadline = time.Until(dl)
	}
	return job
}

// runShard executes one claimed attempt. rctx dies when the fleet run ends
// or when a rival runner completes the shard first.
func (c *coordinator) runShard(rctx context.Context, rcancel context.CancelFunc, d *daemon, s *shardState, mode claimMode) {
	defer rcancel()
	switch mode {
	case claimSteal:
		d.bump(func(r *DaemonReport) { r.Stolen++ })
		c.opts.Logf("fleet: %s steals shard %d", d.name, s.index)
	case claimHedge:
		d.bump(func(r *DaemonReport) { r.Hedged++ })
		c.opts.Logf("fleet: %s hedges shard %d", d.name, s.index)
	}

	client := d.client
	if d.local {
		c.localEngine()
		d.mu.Lock()
		client = d.client
		d.mu.Unlock()
	}

	d.bump(func(r *DaemonReport) { r.Dispatched++ })
	job := c.shardJob(rctx, s.index)
	id, err := client.Enqueue(rctx, job)
	if err != nil {
		if errors.Is(err, engine.ErrBusy) {
			d.mu.Lock()
			d.busyUntil = time.Now().Add(c.opts.Retry.SleepFor(1))
			d.stats.Busy++
			d.mu.Unlock()
			c.opts.Logf("fleet: daemon %s busy, rerouting shard %d", d.name, s.index)
			c.release(s, d)
			return
		}
		if rctx.Err() != nil {
			// Rival won (or the fleet is shutting down) mid-enqueue — a
			// cancellation, not a daemon failure.
			c.release(s, d)
			return
		}
		c.fail(s, d, fmt.Errorf("enqueue: %w", err))
		return
	}
	res, err := client.Result(rctx, id)
	if rctx.Err() != nil {
		// Canceled, not failed: either a rival runner won the shard (its
		// bytes would have been identical) or the whole fleet is shutting
		// down. Stop the duplicate remotely, best effort, and walk away
		// without charging anyone a failure.
		cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = client.Cancel(cctx, id)
		ccancel()
		c.release(s, d)
		return
	}
	lo, hi := harness.Shard(c.job.Runs, c.opts.Shards, s.index)
	switch {
	case err != nil:
		c.fail(s, d, err)
	case len(res.ShardCheckpoint) == 0:
		c.fail(s, d, errors.New("no inline shard checkpoint in result"))
	case !shardCovered(res.Sweep, hi-lo):
		// A deadline- or cancel-cut sweep folds partial records; accepting
		// it would hole the final fold even if its verdict looks Confirmed.
		c.fail(s, d, fmt.Errorf("shard incomplete: %d of %d seeds recorded", recordedSeeds(res.Sweep), hi-lo))
	default:
		c.complete(s, d, res.ShardCheckpoint)
	}
}

// shardCovered reports whether a shard sweep produced a deterministic record
// for every seed in its range. Host-panicked seeds count as covered — the
// sweep excludes them from Completed but records them, and a serial run folds
// the identical Incomplete entry. Canceled- or deadline-cut seeds never ran,
// so a shard containing one must be retried, not folded.
func shardCovered(sw *detect.SweepReport, want int) bool {
	if sw == nil {
		return false
	}
	for _, inc := range sw.Incomplete {
		if inc.Reason != harness.ReasonPanic {
			return false
		}
	}
	return sw.Completed+len(sw.Incomplete) == want
}

// recordedSeeds counts the seeds a shard sweep has deterministic records for
// (completed plus host-panicked), for failure messages.
func recordedSeeds(sw *detect.SweepReport) int {
	if sw == nil {
		return 0
	}
	n := sw.Completed
	for _, inc := range sw.Incomplete {
		if inc.Reason == harness.ReasonPanic {
			n++
		}
	}
	return n
}

// release drops d's runner from s without charging a failure (busy reroute,
// lost hedge). If no runners remain and the shard is not done, it returns
// to pending.
func (c *coordinator) release(s *shardState, d *daemon) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(s.cancels, d.name)
	if s.state == shardLeased && len(s.cancels) == 0 {
		s.state = shardPending
	}
}

// fail requeues s after a runner error, with jittered backoff per attempt.
// An attempt is charged against the shard only when the failing runner was
// its sole live runner — a losing rival's error (say, a stolen shard's dead
// original owner) must not burn the shard's remote attempt budget while the
// thief is running fine, and a straggler losing to an already-accepted
// result charges nothing at all. The failing daemon itself still sits out
// one backoff step on any genuine error: a dead daemon otherwise cycles
// through every pending shard faster than the health prober can bench it.
func (c *coordinator) fail(s *shardState, d *daemon, err error) {
	c.mu.Lock()
	delete(s.cancels, d.name)
	if s.state == shardDone {
		c.mu.Unlock()
		return
	}
	solo := len(s.cancels) == 0
	if solo {
		s.attempts++
		s.notBefore = time.Now().Add(c.opts.Retry.SleepFor(s.attempts))
		s.state = shardPending
	}
	attempts := s.attempts
	c.mu.Unlock()

	d.mu.Lock()
	d.stats.Retried++
	if until := time.Now().Add(c.opts.Retry.SleepFor(1)); until.After(d.busyUntil) {
		d.busyUntil = until
	}
	d.mu.Unlock()
	if solo {
		c.opts.Logf("fleet: shard %d failed on %s (attempt %d): %v", s.index, d.name, attempts, err)
	} else {
		c.opts.Logf("fleet: shard %d runner %s errored; rival still live, no attempt charged: %v", s.index, d.name, err)
	}
}

// complete accepts the first full checkpoint for s, writes the shard file
// immediately (so observers — and the chaos smoke — see progress), and
// cancels rival runners.
func (c *coordinator) complete(s *shardState, d *daemon, data []byte) {
	c.mu.Lock()
	if s.state == shardDone {
		c.mu.Unlock()
		return
	}
	s.state = shardDone
	s.doneBy = d.name
	delete(s.cancels, d.name)
	rivals := make([]context.CancelFunc, 0, len(s.cancels))
	for _, fn := range s.cancels {
		rivals = append(rivals, fn)
	}
	s.cancels = map[string]context.CancelFunc{}
	if d.local {
		c.localRan++
	}
	c.doneLeft--
	last := c.doneLeft == 0
	c.mu.Unlock()

	for _, fn := range rivals {
		fn()
	}
	d.bump(func(r *DaemonReport) { r.Completed++ })

	path := engine.ShardCheckpointName(c.opts.CheckpointBase, s.index, c.opts.Shards)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		// An unwritable checkpoint dir fails the fold loudly later; the
		// shard's work is still done.
		c.opts.Logf("fleet: writing %s: %v", path, err)
	}
	c.opts.Logf("fleet: shard %d done by %s", s.index, d.name)
	if last {
		close(c.allDone)
	}
}

// fold merges the shard checkpoints through the local engine, producing the
// canonical result text and the byte-identical merged checkpoint.
func (c *coordinator) fold(ctx context.Context) (*engine.Result, error) {
	job := c.job
	job.Shards = c.opts.Shards
	job.Fold = true
	job.Checkpoint = c.opts.CheckpointBase
	res, err := c.localEngine().Submit(ctx, job)
	if err != nil {
		return nil, fmt.Errorf("fleet: folding shards: %w", err)
	}
	return res, nil
}

// localClient adapts the in-process fallback engine to the Client surface,
// so degradation reuses the exact runner path the remotes take.
type localClient struct {
	eng *engine.Engine

	mu      sync.Mutex
	tickets map[string]*engine.Ticket
}

func (l *localClient) Enqueue(ctx context.Context, job engine.Job) (string, error) {
	t, err := l.eng.Enqueue(job)
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	l.tickets[t.ID] = t
	l.mu.Unlock()
	return t.ID, nil
}

func (l *localClient) ticket(id string) (*engine.Ticket, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t := l.tickets[id]; t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("fleet: no local job %q", id)
}

func (l *localClient) Result(ctx context.Context, id string) (*engine.Result, error) {
	t, err := l.ticket(id)
	if err != nil {
		return nil, err
	}
	return t.Wait(ctx)
}

func (l *localClient) Cancel(ctx context.Context, id string) error {
	t, err := l.ticket(id)
	if err != nil {
		return err
	}
	t.Cancel()
	return nil
}

func (l *localClient) Health(ctx context.Context) (engine.Health, error) {
	return l.eng.Health(), nil
}

func (l *localClient) Close() {}

// sleepCtx sleeps d or until ctx dies, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
