package engine

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goconcbugs/internal/harness"
	"goconcbugs/internal/sim"
)

// TestClientTimeouts is the stalled-daemon table: a server that accepts the
// connection but never answers (hung worker, wedged event loop) must not
// block a client forever once a request timeout or context deadline is in
// play — and must block when the caller asked for no bound (the legitimate
// long-wait Submit path), which we verify by observing the stall outlive a
// generous grace period via the request context.
func TestClientTimeouts(t *testing.T) {
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hold the request open until the client gives up
	}))
	defer stall.Close()
	addr := strings.TrimPrefix(stall.URL, "http://")

	cases := []struct {
		name    string
		opts    ClientOptions
		ctx     func() (context.Context, context.CancelFunc)
		within  time.Duration
		wantErr bool
	}{
		{
			name:   "request timeout cuts a stalled response",
			opts:   ClientOptions{RequestTimeout: 100 * time.Millisecond},
			ctx:    func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			within: 5 * time.Second, wantErr: true,
		},
		{
			name: "context deadline cuts a stalled response",
			opts: ClientOptions{},
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 100*time.Millisecond)
			},
			within: 5 * time.Second, wantErr: true,
		},
		{
			name: "caller cancellation cuts a stalled response",
			opts: ClientOptions{},
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				go func() { time.Sleep(50 * time.Millisecond); cancel() }()
				return ctx, func() {}
			},
			within: 5 * time.Second, wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClientWith(addr, tc.opts)
			defer c.Close()
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			_, err := c.Stats(ctx)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if d := time.Since(start); d > tc.within {
				t.Fatalf("request took %v, want under %v", d, tc.within)
			}
		})
	}
}

// TestClientConnectTimeout: dialing a dead address fails within the connect
// bound instead of the kernel's (minutes-long) default.
func TestClientConnectTimeout(t *testing.T) {
	// A unix socket path that exists for no listener: dial fails instantly,
	// which exercises the error path; the timeout bound is what we pin.
	c := NewClientWith("unix://"+filepath.Join(t.TempDir(), "absent.sock"), ClientOptions{ConnectTimeout: 200 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("dialing a dead socket succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("dead dial took %v", d)
	}
}

// TestClient503MapsToErrBusy: the daemon's backpressure answer classifies
// via errors.Is so schedulers can reroute instead of string-matching.
func TestClient503MapsToErrBusy(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"engine: job queue full"}`))
	}))
	defer busy.Close()
	c := NewClient(strings.TrimPrefix(busy.URL, "http://"))
	defer c.Close()
	_, err := c.Enqueue(context.Background(), sweepJob())
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("503 mapped to %v, want errors.Is(ErrBusy)", err)
	}
}

// TestHealthEndpoint: the daemon's health view carries the load numbers a
// scheduler routes on, and the store hit rate reflects lookups.
func TestHealthEndpoint(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "h.sock")
	c, eng := startServer(t, "unix://"+sock)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 || h.QueueCapacity <= 0 {
		t.Fatalf("health = %+v, want ok / 2 workers / positive queue capacity", h)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("uptime %v negative", h.UptimeSeconds)
	}

	if _, err := c.Submit(ctx, sweepJob()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, sweepJob()); err != nil {
		t.Fatal(err)
	}
	h, err = c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Executed != 1 {
		t.Fatalf("health executed = %d, want 1 (second submit was a hit)", h.Executed)
	}
	if h.StoreHitRate <= 0 || h.StoreHitRate > 1 {
		t.Fatalf("store hit rate = %v, want in (0, 1]", h.StoreHitRate)
	}
	if got := eng.Health(); got.Status != "ok" {
		t.Fatalf("local health status %q", got.Status)
	}
}

// TestCancelRunningJob: canceling an in-flight sweep stops dispatch and
// folds the partial work instead of hanging or running to completion. The
// verdict may be Confirmed (the detector fired in the completed prefix) or
// Incomplete — the cancellation observable is partial completion, which is
// exactly why a fleet scheduler must requeue on Completed < Runs rather
// than trusting the verdict alone.
func TestCancelRunningJob(t *testing.T) {
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1})
	// A big sweep so cancellation lands mid-flight.
	job := Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 2_000_000, Seed: 1, Detectors: []string{"cycle"}}
	tk, err := e.Enqueue(job)
	if err != nil {
		t.Fatal(err)
	}
	for tk.State() != "running" {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	tk.Cancel()
	if !tk.Canceled() {
		t.Fatal("Canceled() false after Cancel")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatalf("canceled job errored at the transport level: %v", err)
	}
	if res.Sweep == nil || res.Sweep.Completed >= job.Runs {
		t.Fatalf("canceled sweep completed all %d runs — cancellation did not stop dispatch", job.Runs)
	}
}

// TestCancelQueuedJob: a job canceled before a worker picks it up completes
// promptly with an Incomplete verdict — the worker does not burn the full
// sweep on a dead ticket.
func TestCancelQueuedJob(t *testing.T) {
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1})
	// Occupy the single worker.
	blocker, err := e.Enqueue(Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 500, Seed: 1, Detectors: []string{"cycle"}})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := e.Enqueue(Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 1_000_000, Seed: 99, Detectors: []string{"cycle"}})
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := victim.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Status != harness.Incomplete {
		t.Fatalf("verdict = %v, want incomplete", res.Verdict)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("pre-canceled job still ran for %v", d)
	}
}

// TestCancelOverDaemonAPI drives POST /v1/jobs/{id}/cancel end to end.
func TestCancelOverDaemonAPI(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "c.sock")
	c, _ := startServer(t, "unix://"+sock)
	ctx := context.Background()

	const runs = 2_000_000
	id, err := c.Enqueue(ctx, Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: runs, Seed: 1, Detectors: []string{"cycle"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	res, err := c.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweep == nil || res.Sweep.Completed >= runs {
		t.Fatalf("remotely canceled sweep completed all %d runs — cancel endpoint did not reach the job", runs)
	}
	if err := c.Cancel(ctx, "j-424242"); err == nil {
		t.Fatal("cancel of unknown job did not error")
	}
}

// TestInlineShardMatchesFileShard: the bytes an InlineShard job ships back
// are exactly the checkpoint a filesystem shard run writes — the invariant
// that lets a fleet coordinator fold remote shards byte-identically to a
// serial sweep.
func TestInlineShardMatchesFileShard(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1})
	ctx := context.Background()

	base := filepath.Join(dir, "sweep.ck")
	const shards = 3
	var inline [][]byte
	for s := 0; s < shards; s++ {
		fileJob := Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 30, Seed: 7,
			Detectors: []string{"cycle"}, Shards: shards, Shard: s, Checkpoint: base}
		if _, err := e.Submit(ctx, fileJob); err != nil {
			t.Fatal(err)
		}
		inlineJob := fileJob
		inlineJob.Checkpoint = ""
		inlineJob.InlineShard = true
		res, err := e.Submit(ctx, inlineJob)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ShardCheckpoint) == 0 {
			t.Fatalf("shard %d: empty inline checkpoint", s)
		}
		inline = append(inline, res.ShardCheckpoint)

		fileBytes, err := os.ReadFile(ShardCheckpointName(base, s, shards))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.ShardCheckpoint, fileBytes) {
			t.Fatalf("shard %d: inline bytes differ from filesystem shard checkpoint", s)
		}
	}

	// Folding the inline bytes laid down under a fresh base reproduces the
	// canonical fold.
	base2 := filepath.Join(dir, "fleet.ck")
	for s, data := range inline {
		if err := os.WriteFile(ShardCheckpointName(base2, s, shards), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	foldJob := Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 30, Seed: 7,
		Detectors: []string{"cycle"}, Shards: shards, Fold: true, Checkpoint: base2}
	res, err := e.Submit(ctx, foldJob)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := e.Submit(ctx, Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 30, Seed: 7, Detectors: []string{"cycle"}})
	if err != nil {
		t.Fatal(err)
	}
	norm := strings.Replace(res.Text, ", fold of 3 shards", "", 1)
	if norm != serial.Text {
		t.Fatalf("fold text differs from serial:\nfold:\n%s\nserial:\n%s", res.Text, serial.Text)
	}
}

// TestInlineShardNeedsNoTempDir: an inline shard encodes its record log in
// memory, so it runs on a host whose temp directory is missing.
func TestInlineShardNeedsNoTempDir(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1})
	res, err := e.Submit(context.Background(), inlineShardJob(1))
	if err != nil {
		t.Fatalf("inline shard with TMPDIR missing: %v", err)
	}
	if len(res.ShardCheckpoint) == 0 {
		t.Fatal("inline shard with TMPDIR missing returned no record log")
	}
}

// TestInlineShardValidation: the flag composes only with a sharded,
// non-fold, checkpoint-free sweep.
func TestInlineShardValidation(t *testing.T) {
	bad := []Job{
		{Kind: KindSweep, Kernel: "docker-abba-order", Detectors: []string{"cycle"}, InlineShard: true},
		{Kind: KindSweep, Kernel: "docker-abba-order", Detectors: []string{"cycle"}, InlineShard: true, Shards: 4, Fold: true, Checkpoint: "x"},
		{Kind: KindSweep, Kernel: "docker-abba-order", Detectors: []string{"cycle"}, InlineShard: true, Shards: 4, Shard: 0, Checkpoint: "x"},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("bad job %d validated", i)
		}
	}
	good := Job{Kind: KindSweep, Kernel: "docker-abba-order", Detectors: []string{"cycle"}, InlineShard: true, Shards: 4, Shard: 1}
	good.normalize()
	if err := good.Validate(); err != nil {
		t.Errorf("good inline shard job rejected: %v", err)
	}
}

// panicOnSomeSeeds host-panics (a raw Go panic, not a simulated one) on a
// seed-dependent subset of runs.
func panicOnSomeSeeds(tt *sim.T) {
	if tt.Rand(3) == 0 {
		panic("host-side bug in the program")
	}
}

// TestRunVetSurvivesHostPanics: a KindRun job whose program host-panics on
// some seeds must come back Incomplete, with or without the vet pass — the
// vet pass isolates each seed instead of panicking out of the worker — and
// neither result may be cached.
func TestRunVetSurvivesHostPanics(t *testing.T) {
	st := newStore(t)
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1, Store: st})
	cfgFor := func(seed int64) sim.Config { return sim.Config{Seed: seed} }
	for _, vet := range []bool{false, true} {
		job := Job{Kind: KindRun, Runs: 20, Seed: 1, Vet: vet}
		res, err := e.SubmitProgram(context.Background(), job, "host-panic", panicOnSomeSeeds, cfgFor)
		if err != nil {
			t.Fatalf("vet=%v: %v", vet, err)
		}
		if res.Verdict.Status != harness.Incomplete || res.Verdict.Reason != harness.ReasonPanic {
			t.Errorf("vet=%v: verdict %v, want incomplete (panic)", vet, res.Verdict)
		}
	}
	if st.Len() != 0 {
		t.Fatalf("%d incomplete results cached", st.Len())
	}
}

// TestRunVetStopsWhenContextEnds: a context that ends during the vet pass
// stops it at the next seed and yields an Incomplete verdict that is not
// cached, even though the sampling pass completed.
func TestRunVetStopsWhenContextEnds(t *testing.T) {
	const runs = 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := newStore(t)
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1, Store: st, Context: ctx})
	var calls atomic.Int32
	prog := func(tt *sim.T) {
		if calls.Add(1) == runs+3 { // the third seed of the vet pass
			cancel()
		}
	}
	cfgFor := func(seed int64) sim.Config { return sim.Config{Seed: seed} }
	res, err := e.SubmitProgram(context.Background(), Job{Kind: KindRun, Runs: runs, Seed: 1, Vet: true}, "cut-vet", prog, cfgFor)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Status != harness.Incomplete || res.Verdict.Reason != harness.ReasonCanceled {
		t.Errorf("verdict %v, want incomplete (canceled)", res.Verdict)
	}
	if got := calls.Load(); got != runs+3 {
		t.Errorf("program ran %d times; the vet pass must stop after the seed that saw the cancel (want %d)", got, runs+3)
	}
	if !strings.Contains(res.Text, "vet incomplete: 3/20 runs completed (0 host panics)") {
		t.Errorf("text lacks the cut vet pass:\n%s", res.Text)
	}
	if st.Len() != 0 {
		t.Fatalf("%d incomplete results cached", st.Len())
	}
}

// TestRunVetSeesFaults: a run job's vet pass runs each seed under the job's
// fault injector, so its findings come from the executions counted above
// them. The injected vet sweep's sample finding must appear, and the vet
// lines must differ from the fault-free job's.
func TestRunVetSeesFaults(t *testing.T) {
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1})
	ctx := context.Background()
	const kernel = "docker-24007-double-close"
	plain := Job{Kind: KindRun, Kernel: kernel, Runs: 30, Vet: true}
	faulty := plain
	faulty.Faults, faulty.FaultSeed, faulty.Aggressive = 3, 1, true
	sweep := Job{Kind: KindSweep, Kernel: kernel, Runs: 30, Detectors: []string{"vet"},
		Faults: 3, FaultSeed: 1, Aggressive: true}

	var texts []string
	for _, job := range []Job{plain, faulty} {
		res, err := e.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, vetLines(res.Text))
	}
	sw, err := e.Submit(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	sample := firstLine(sw.Sweep.Detectors[0].Sample)
	if sample == "" {
		t.Fatalf("injected vet sweep found nothing:\n%s", sw.Text)
	}
	if !strings.Contains(texts[1], sample) {
		t.Errorf("-vet -faults lacks the injected sweep's finding %q:\n%s", sample, texts[1])
	}
	if texts[0] == texts[1] {
		t.Errorf("-vet -faults printed the fault-free findings:\n%s", texts[1])
	}
}

// vetLines keeps a run job's vet findings, dropping the sampling summary.
func vetLines(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "    vet") {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
