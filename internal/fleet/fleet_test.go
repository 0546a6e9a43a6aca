package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goconcbugs/internal/detect"
	"goconcbugs/internal/engine"
	"goconcbugs/internal/harness"
)

// baseJob is the sweep every fleet test fans out: small enough to finish in
// milliseconds per shard, racy enough that a mixed-up fold would change the
// verdict.
func baseJob() engine.Job {
	return engine.Job{Kind: engine.KindSweep, Kernel: "docker-abba-order",
		Runs: 60, Seed: 5, Detectors: []string{"cycle"}}
}

// realDaemon is a fleet "remote" backed by a real in-process engine behind
// the same Client surface a network daemon presents — full-fidelity shard
// bytes without sockets.
func realDaemon(t *testing.T) Client {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2, SweepWorkers: 1})
	t.Cleanup(eng.Close)
	return &localClient{eng: eng, tickets: map[string]*engine.Ticket{}}
}

// serialBaseline runs the job serially with a checkpoint and returns
// (checkpoint bytes, canonical text).
func serialBaseline(t *testing.T, job engine.Job) ([]byte, string) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 1, SweepWorkers: 1})
	defer eng.Close()
	job.Checkpoint = filepath.Join(t.TempDir(), "serial.ck")
	res, err := eng.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(job.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return data, res.Text
}

// checkFold asserts the fleet's folded checkpoint and text match the serial
// baseline byte for byte (modulo the fold label).
func checkFold(t *testing.T, rep *Report, base string, shards int, wantCk []byte, wantText string) {
	t.Helper()
	got, err := os.ReadFile(base)
	if err != nil {
		t.Fatalf("reading folded checkpoint: %v", err)
	}
	if !bytes.Equal(got, wantCk) {
		t.Errorf("folded checkpoint differs from serial (%d vs %d bytes)", len(got), len(wantCk))
	}
	norm := strings.Replace(rep.Result.Text,
		", fold of "+itoa(shards)+" shards", "", 1)
	if norm != wantText {
		t.Errorf("fold text differs from serial:\nfleet:\n%s\nserial:\n%s", rep.Result.Text, wantText)
	}
}

func itoa(n int) string {
	return string(rune('0' + n)) // test shards stay single-digit
}

func dialMap(m map[string]Client) func(string) Client {
	return func(host string) Client { return m[host] }
}

func counters(rep *Report) map[string]DaemonReport {
	out := map[string]DaemonReport{}
	for _, d := range rep.Daemons {
		out[d.Name] = d
	}
	return out
}

// --- fault-injecting client decorators ---------------------------------

// flakyClient fails the first n Enqueues with a transient error.
type flakyClient struct {
	Client
	left atomic.Int32
}

func (f *flakyClient) Enqueue(ctx context.Context, job engine.Job) (string, error) {
	if f.left.Add(-1) >= 0 {
		return "", errors.New("connection reset by peer")
	}
	return f.Client.Enqueue(ctx, job)
}

// busyClient answers every Enqueue with the daemon's backpressure error.
type busyClient struct{ Client }

func (b *busyClient) Enqueue(ctx context.Context, job engine.Job) (string, error) {
	return "", engine.ErrBusy
}

// deadClient models an unreachable daemon: every call errors.
type deadClient struct{}

func (deadClient) Enqueue(ctx context.Context, job engine.Job) (string, error) {
	return "", errors.New("connection refused")
}
func (deadClient) Result(ctx context.Context, id string) (*engine.Result, error) {
	return nil, errors.New("connection refused")
}
func (deadClient) Cancel(ctx context.Context, id string) error {
	return errors.New("connection refused")
}
func (deadClient) Health(ctx context.Context) (engine.Health, error) {
	return engine.Health{}, errors.New("connection refused")
}
func (deadClient) Close() {}

// hangClient accepts jobs but never delivers results — a daemon that
// wedged after dequeue. Result blocks until the caller gives up.
type hangClient struct{ Client }

func (h *hangClient) Result(ctx context.Context, id string) (*engine.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// panicReportClient rewrites each shard result to look like a sweep whose
// first seed panicked on the host: Completed shrinks by one and a
// panic-reason Incomplete entry appears, exactly how detect.Sweep reports a
// kernel that panics on some seeds. The checkpoint bytes are untouched —
// panicked seeds still have deterministic records a serial fold reproduces.
type panicReportClient struct{ Client }

func (p *panicReportClient) Result(ctx context.Context, id string) (*engine.Result, error) {
	res, err := p.Client.Result(ctx, id)
	if err != nil || res == nil || res.Sweep == nil || res.Sweep.Completed == 0 {
		return res, err
	}
	r2 := *res
	sw := *res.Sweep
	sw.Completed--
	sw.Incomplete = append(append([]detect.IncompleteRun{}, sw.Incomplete...),
		detect.IncompleteRun{Run: 0, Seed: 0, Reason: harness.ReasonPanic, Detail: "simulated host panic"})
	r2.Sweep = &sw
	return &r2, nil
}

// slowClient delivers correct results after a fixed straggle.
type slowClient struct {
	Client
	delay time.Duration
}

func (s *slowClient) Result(ctx context.Context, id string) (*engine.Result, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return s.Client.Result(ctx, id)
}

// --- tests --------------------------------------------------------------

// TestFleetFoldsIdenticalToSerial is the tentpole contract on the happy
// path: two daemons, four shards, and the fold is byte-identical to one
// serial sweep.
func TestFleetFoldsIdenticalToSerial(t *testing.T) {
	job := baseJob()
	wantCk, wantText := serialBaseline(t, job)
	base := filepath.Join(t.TempDir(), "fleet.ck")

	clients := map[string]Client{"a": realDaemon(t), "b": realDaemon(t)}
	rep, err := Run(context.Background(), job, Options{
		Hosts: []string{"a", "b"}, Shards: 4, CheckpointBase: base,
		ProbeInterval: 10 * time.Millisecond, Dial: dialMap(clients),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, rep, base, 4, wantCk, wantText)
	if rep.Degraded || rep.LocalShards != 0 {
		t.Errorf("healthy fleet reported degraded=%v localShards=%d", rep.Degraded, rep.LocalShards)
	}
	cs := counters(rep)
	if cs["a"].Completed+cs["b"].Completed != 4 {
		t.Errorf("daemon completions %d+%d, want 4", cs["a"].Completed, cs["b"].Completed)
	}
}

// TestFleetRetriesFlakyDaemon: transient enqueue failures are retried with
// backoff and never corrupt the fold.
func TestFleetRetriesFlakyDaemon(t *testing.T) {
	job := baseJob()
	wantCk, wantText := serialBaseline(t, job)
	base := filepath.Join(t.TempDir(), "fleet.ck")

	flaky := &flakyClient{Client: realDaemon(t)}
	flaky.left.Store(2)
	clients := map[string]Client{"flaky": flaky, "solid": realDaemon(t)}
	rep, err := Run(context.Background(), job, Options{
		Hosts: []string{"flaky", "solid"}, Shards: 4, CheckpointBase: base,
		ProbeInterval: 10 * time.Millisecond,
		Retry:         retryFast(),
		Dial:          dialMap(clients),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, rep, base, 4, wantCk, wantText)
	if got := counters(rep)["flaky"].Retried; got == 0 {
		t.Error("flaky daemon recorded no retries")
	}
}

// retryFast keeps test backoff in the milliseconds.
func retryFast() harness.RetryOptions {
	return harness.RetryOptions{Attempts: 3, Backoff: 5 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond, Jitter: 0.5, Seed: 1}
}

// TestFleetStealsFromHungDaemon: a daemon that accepts a shard and then
// wedges loses it to a lease steal; the fold is unharmed.
func TestFleetStealsFromHungDaemon(t *testing.T) {
	job := baseJob()
	wantCk, wantText := serialBaseline(t, job)
	base := filepath.Join(t.TempDir(), "fleet.ck")

	clients := map[string]Client{
		"hung":  &hangClient{Client: realDaemon(t)},
		"solid": realDaemon(t),
	}
	rep, err := Run(context.Background(), job, Options{
		Hosts: []string{"hung", "solid"}, Shards: 4, CheckpointBase: base,
		ProbeInterval: 10 * time.Millisecond,
		LeaseTimeout:  50 * time.Millisecond,
		Dial:          dialMap(clients),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, rep, base, 4, wantCk, wantText)
	cs := counters(rep)
	if cs["solid"].Stolen == 0 {
		t.Error("no steals recorded against the hung daemon")
	}
	if cs["solid"].Completed != 4 {
		t.Errorf("solid daemon completed %d shards, want all 4", cs["solid"].Completed)
	}
}

// TestFleetHedgesStragglers: with hedging on, an idle daemon duplicates a
// straggling shard, the first finisher wins, and the fold stays canonical.
func TestFleetHedgesStragglers(t *testing.T) {
	job := baseJob()
	wantCk, wantText := serialBaseline(t, job)
	base := filepath.Join(t.TempDir(), "fleet.ck")

	clients := map[string]Client{
		"slow": &slowClient{Client: realDaemon(t), delay: 2 * time.Second},
		"fast": realDaemon(t),
	}
	rep, err := Run(context.Background(), job, Options{
		Hosts: []string{"slow", "fast"}, Shards: 2, CheckpointBase: base,
		ProbeInterval: 10 * time.Millisecond,
		LeaseTimeout:  time.Minute, // isolate hedging from stealing
		HedgeAfter:    30 * time.Millisecond,
		Dial:          dialMap(clients),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, rep, base, 2, wantCk, wantText)
	if got := counters(rep)["fast"].Hedged; got == 0 {
		t.Error("fast daemon recorded no hedges against the straggler")
	}
}

// TestFleetRoutesAroundBusyDaemon: ErrBusy is backpressure, not failure —
// the shard reroutes without charging a retry, and the busy daemon is
// left alone for a backoff window.
func TestFleetRoutesAroundBusyDaemon(t *testing.T) {
	job := baseJob()
	wantCk, wantText := serialBaseline(t, job)
	base := filepath.Join(t.TempDir(), "fleet.ck")

	clients := map[string]Client{
		"busy":  &busyClient{Client: realDaemon(t)},
		"solid": realDaemon(t),
	}
	rep, err := Run(context.Background(), job, Options{
		Hosts: []string{"busy", "solid"}, Shards: 4, CheckpointBase: base,
		ProbeInterval: 10 * time.Millisecond,
		Dial:          dialMap(clients),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, rep, base, 4, wantCk, wantText)
	cs := counters(rep)
	if cs["busy"].Busy == 0 {
		t.Error("busy daemon recorded no ErrBusy rejections")
	}
	if cs["busy"].Retried != 0 {
		t.Errorf("busy rejections were charged as %d retries", cs["busy"].Retried)
	}
	if cs["solid"].Completed != 4 {
		t.Errorf("solid daemon completed %d shards, want all 4", cs["solid"].Completed)
	}
}

// TestFleetDegradesToLocal is the blackout drill: every remote is
// unreachable, the sweep still completes on the local fallback, and the
// report says so in a structured way.
func TestFleetDegradesToLocal(t *testing.T) {
	job := baseJob()
	wantCk, wantText := serialBaseline(t, job)
	base := filepath.Join(t.TempDir(), "fleet.ck")

	clients := map[string]Client{"dead1": deadClient{}, "dead2": deadClient{}}
	rep, err := Run(context.Background(), job, Options{
		Hosts: []string{"dead1", "dead2"}, Shards: 3, CheckpointBase: base,
		ProbeInterval: 10 * time.Millisecond,
		Retry:         retryFast(),
		Dial:          dialMap(clients),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, rep, base, 3, wantCk, wantText)
	if !rep.Degraded {
		t.Error("all-remotes-down run not marked degraded")
	}
	if rep.LocalShards != 3 {
		t.Errorf("LocalShards = %d, want 3", rep.LocalShards)
	}
	if got := counters(rep)["local"].Completed; got != 3 {
		t.Errorf("local pseudo-daemon completed %d, want 3", got)
	}
}

// TestFleetAllLocalWhenNoHosts: an empty host list is a purely local fleet
// — not degraded, just local.
func TestFleetAllLocalWhenNoHosts(t *testing.T) {
	job := baseJob()
	wantCk, wantText := serialBaseline(t, job)
	base := filepath.Join(t.TempDir(), "fleet.ck")

	rep, err := Run(context.Background(), job, Options{
		Shards: 2, CheckpointBase: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, rep, base, 2, wantCk, wantText)
	if rep.Degraded {
		t.Error("hostless fleet marked degraded")
	}
	if rep.LocalShards != 2 {
		t.Errorf("LocalShards = %d, want 2", rep.LocalShards)
	}
}

// TestFleetAcceptsPanickedSeeds: a shard whose sweep report lists
// host-panicked seeds (excluded from Completed but recorded
// deterministically) is accepted like a serial sweep would fold it — not
// retried until the remote budget burns out and the run degrades.
func TestFleetAcceptsPanickedSeeds(t *testing.T) {
	job := baseJob()
	wantCk, wantText := serialBaseline(t, job)
	base := filepath.Join(t.TempDir(), "fleet.ck")

	clients := map[string]Client{
		"a": &panicReportClient{Client: realDaemon(t)},
		"b": &panicReportClient{Client: realDaemon(t)},
	}
	rep, err := Run(context.Background(), job, Options{
		Hosts: []string{"a", "b"}, Shards: 4, CheckpointBase: base,
		ProbeInterval: 10 * time.Millisecond,
		Retry:         retryFast(),
		Dial:          dialMap(clients),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, rep, base, 4, wantCk, wantText)
	if rep.Degraded {
		t.Error("panicked-seed shards pushed the fleet into degraded mode")
	}
	cs := counters(rep)
	if got := cs["a"].Retried + cs["b"].Retried; got != 0 {
		t.Errorf("panicked-seed shards were charged %d retries", got)
	}
}

// TestShardCovered pins the acceptance rule: panic-reason incompletes count
// as recorded, canceled/deadline ones reject the shard.
func TestShardCovered(t *testing.T) {
	pnc := detect.IncompleteRun{Reason: harness.ReasonPanic}
	cases := []struct {
		name string
		sw   *detect.SweepReport
		want bool
	}{
		{"nil sweep", nil, false},
		{"all completed", &detect.SweepReport{Completed: 5}, true},
		{"panics recorded", &detect.SweepReport{Completed: 3,
			Incomplete: []detect.IncompleteRun{pnc, pnc}}, true},
		{"canceled seed", &detect.SweepReport{Completed: 4,
			Incomplete: []detect.IncompleteRun{{Reason: harness.ReasonCanceled}}}, false},
		{"deadline seed", &detect.SweepReport{Completed: 3,
			Incomplete: []detect.IncompleteRun{pnc, {Reason: harness.ReasonDeadline}}}, false},
		{"short range", &detect.SweepReport{Completed: 3,
			Incomplete: []detect.IncompleteRun{pnc}}, false},
	}
	for _, tc := range cases {
		if got := shardCovered(tc.sw, 5); got != tc.want {
			t.Errorf("%s: shardCovered = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFailRivalKeepsAttemptBudget: a losing runner's error while a rival is
// still live on the shard must not burn the shard's remote attempt budget or
// requeue it; a sole runner's failure still counts; a straggler erroring
// after acceptance charges nothing at all.
func TestFailRivalKeepsAttemptBudget(t *testing.T) {
	c := &coordinator{opts: Options{Retry: retryFast(), Logf: func(string, ...any) {}}}
	owner := &daemon{name: "owner"}
	s := &shardState{state: shardLeased, cancels: map[string]context.CancelFunc{
		"owner": func() {}, "thief": func() {},
	}}
	c.shards = []*shardState{s}

	c.fail(s, owner, errors.New("connection reset"))
	if s.attempts != 0 {
		t.Errorf("losing rival burned %d attempts", s.attempts)
	}
	if s.state != shardLeased {
		t.Error("shard requeued while the thief was still running")
	}

	thief := &daemon{name: "thief"}
	c.fail(s, thief, errors.New("boom"))
	if s.attempts != 1 {
		t.Errorf("sole-runner failure counted %d attempts, want 1", s.attempts)
	}
	if s.state != shardPending {
		t.Error("sole-runner failure did not requeue the shard")
	}

	done := &shardState{state: shardDone, cancels: map[string]context.CancelFunc{"late": func() {}}}
	late := &daemon{name: "late"}
	c.fail(done, late, errors.New("straggler error"))
	if late.stats.Retried != 0 {
		t.Error("straggler on a done shard was charged a retry")
	}
	if done.attempts != 0 {
		t.Error("straggler on a done shard burned an attempt")
	}
}

// TestLocalThiefWaitsForBenchedLease: a benched daemon's zeroed lease clock
// makes its shard instantly stealable by remotes but NOT by the local
// fallback while a healthy remote with attempt budget remains — one flapping
// daemon must not flip the run degraded.
func TestLocalThiefWaitsForBenchedLease(t *testing.T) {
	newCoord := func(remoteHealthy bool, attempts int) (*coordinator, *daemon, *shardState) {
		remote := &daemon{name: "a", healthy: remoteHealthy}
		c := &coordinator{
			opts: Options{Hosts: []string{"a", "b"}, Retry: retryFast(),
				LeaseTimeout: time.Minute, Logf: func(string, ...any) {}},
			daemons: []*daemon{remote, {name: "b"}},
			local:   &daemon{name: "local", local: true, healthy: true},
		}
		// Shard leased by the benched daemon b; expireLeases zeroed the
		// clock, so leasedAt stays its time.Time zero value.
		s := &shardState{state: shardLeased, attempts: attempts,
			cancels: map[string]context.CancelFunc{"b": func() {}}}
		c.shards = []*shardState{s}
		return c, remote, s
	}

	c, remote, s := newCoord(true, 0)
	if got, _, _, cancel := c.claim(context.Background(), c.local); got != nil {
		cancel()
		t.Fatal("local fallback stole a zero-clock lease while a healthy remote remained")
	}
	if got, mode, _, cancel := c.claim(context.Background(), remote); got != s || mode != claimSteal {
		t.Fatalf("healthy remote did not steal the benched lease (shard %v, mode %v)", got, mode)
	} else {
		cancel()
		c.release(s, remote)
	}

	c, _, s = newCoord(false, 0)
	if got, mode, _, cancel := c.claim(context.Background(), c.local); got != s || mode != claimSteal {
		t.Fatalf("with no healthy remote, local did not steal (shard %v, mode %v)", got, mode)
	} else {
		cancel()
	}

	c, _, s = newCoord(true, retryFast().Attempts)
	if got, _, _, cancel := c.claim(context.Background(), c.local); got != s {
		t.Fatal("with remote attempts exhausted, local did not steal")
	} else {
		cancel()
	}
}

// TestFleetValidation pins the option errors.
func TestFleetValidation(t *testing.T) {
	if _, err := Run(context.Background(), baseJob(), Options{}); err == nil {
		t.Error("missing CheckpointBase accepted")
	}
	job := baseJob()
	job.Shards, job.Shard = 4, 0
	job.Checkpoint = "x"
	if _, err := Run(context.Background(), job, Options{CheckpointBase: "y"}); err == nil {
		t.Error("pre-sharded job accepted")
	}
}

// TestFleetHonorsContextCancel: killing the run context aborts promptly
// with an error instead of wedging on unreachable daemons.
func TestFleetHonorsContextCancel(t *testing.T) {
	base := filepath.Join(t.TempDir(), "fleet.ck")
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := Run(ctx, baseJob(), Options{
		Hosts: []string{"dead"}, Shards: 2, CheckpointBase: base,
		ProbeInterval: 10 * time.Millisecond,
		Dial:          dialMap(map[string]Client{"dead": hangForever{}}),
	})
	if err == nil {
		t.Fatal("canceled fleet run returned nil error")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("canceled run took %v to abort", d)
	}
}

// hangForever blocks every call until its context dies — including Health,
// so the daemon never turns unhealthy and the local fallback never engages.
type hangForever struct{}

func (hangForever) Enqueue(ctx context.Context, job engine.Job) (string, error) {
	<-ctx.Done()
	return "", ctx.Err()
}
func (hangForever) Result(ctx context.Context, id string) (*engine.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (hangForever) Cancel(ctx context.Context, id string) error { return nil }
func (hangForever) Health(ctx context.Context) (engine.Health, error) {
	return engine.Health{Status: "ok"}, nil
}
func (hangForever) Close() {}

// TestFleetDaemonMemoryBounded: a daemon that serves sweep after sweep keeps
// no shard's record log once the fleet has fetched it, so its heap stays
// flat instead of growing by a sweep's shard logs per sweep.
func TestFleetDaemonMemoryBounded(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, SweepWorkers: 1})
	t.Cleanup(eng.Close)
	srv := engine.NewServer(eng)
	sock := filepath.Join(t.TempDir(), "d.sock")
	if err := srv.Listen(sock); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})

	const sweeps, shards = 10, 4
	job := baseJob()
	job.Runs = 4000
	var shardBytes int64
	var heap2 uint64
	for i := 0; i < sweeps; i++ {
		base := filepath.Join(t.TempDir(), "fleet.ck")
		rep, err := Run(context.Background(), job, Options{
			Hosts: []string{sock}, Shards: shards, CheckpointBase: base,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded {
			t.Fatalf("sweep %d degraded to local execution", i)
		}
		switch i {
		case 0:
			for s := 0; s < shards; s++ {
				fi, err := os.Stat(engine.ShardCheckpointName(base, s, shards))
				if err != nil {
					t.Fatal(err)
				}
				shardBytes += fi.Size()
			}
		case 1:
			heap2 = heapAfterGC()
		}
	}
	if grew := int64(heapAfterGC()) - int64(heap2); grew >= shardBytes {
		t.Errorf("daemon heap grew %d bytes from sweep 2 to %d; one sweep's shard logs are %d bytes",
			grew, sweeps, shardBytes)
	}
}

// heapAfterGC is the live heap after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
