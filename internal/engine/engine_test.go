package engine

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"goconcbugs/internal/harness"
	"goconcbugs/internal/store"
)

func newStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "verdicts.db"), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	t.Cleanup(e.Close)
	return e
}

func sweepJob() Job {
	return Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 20, Seed: 1, Detectors: []string{"cycle"}}
}

// A cold submit, a warm (cached) submit, and a third on a fresh engine over
// the same store must all produce byte-identical text — the core service
// invariant.
func TestColdWarmByteIdentical(t *testing.T) {
	st := newStore(t)
	ctx := context.Background()

	e := New(Options{Workers: 1, SweepWorkers: 1, Store: st})
	cold, err := e.Submit(ctx, sweepJob())
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if cold.CacheHit {
		t.Fatal("cold submit reported a cache hit")
	}
	warm, err := e.Submit(ctx, sweepJob())
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	if !warm.CacheHit {
		t.Fatal("second submit missed the cache")
	}
	if warm.Text != cold.Text {
		t.Fatalf("warm text diverged:\ncold:\n%s\nwarm:\n%s", cold.Text, warm.Text)
	}
	s := e.Stats()
	if s.Executed != 1 || s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want 1 executed / 1 hit / 1 miss", s)
	}
	e.Close()

	// A fresh engine over the same store file (daemon restart) still hits.
	e2 := newEngine(t, Options{Workers: 1, SweepWorkers: 1, Store: st})
	again, err := e2.Submit(ctx, sweepJob())
	if err != nil {
		t.Fatalf("restart submit: %v", err)
	}
	if !again.CacheHit || again.Text != cold.Text {
		t.Fatalf("restarted engine: hit=%v, text match=%v", again.CacheHit, again.Text == cold.Text)
	}
	if !cold.Fired {
		t.Fatal("buggy docker-abba-order sweep did not fire")
	}
	if !strings.Contains(cold.Text, "replay: go run ./cmd/godetect -kernel docker-abba-order") {
		t.Fatalf("missing replay hint:\n%s", cold.Text)
	}
}

// N identical concurrent submissions while the job is in flight must execute
// once; the text each waiter observes is identical.
func TestCoalescing(t *testing.T) {
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1, Store: newStore(t)})
	job := Job{Kind: KindSweep, Kernel: "grpc-lost-update", Runs: 200, Seed: 7, Detectors: []string{"race", "leak"}}

	const n = 8
	var wg sync.WaitGroup
	texts := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Submit(context.Background(), job)
			if err != nil {
				errs[i] = err
				return
			}
			texts[i] = res.Text
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if texts[i] != texts[0] {
			t.Fatalf("submission %d saw different text", i)
		}
	}
	if s := e.Stats(); s.Executed != 1 {
		t.Fatalf("executed %d times, want 1 (stats %+v)", s.Executed, s)
	}
}

func TestRunJobFiresOnBuggy(t *testing.T) {
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1})
	res, err := e.Submit(context.Background(), Job{Kind: KindRun, Kernel: "grpc-lost-update", Runs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fired {
		t.Fatalf("buggy grpc-lost-update did not fire:\n%s", res.Text)
	}
	if res.Verdict.Status != harness.Confirmed {
		t.Fatalf("verdict %v, want Confirmed", res.Verdict)
	}
	if !strings.Contains(res.Text, "manifested") {
		t.Fatalf("unexpected text:\n%s", res.Text)
	}
}

func TestSystematicJob(t *testing.T) {
	e := newEngine(t, Options{Workers: 1})
	res, err := e.Submit(context.Background(), Job{Kind: KindSystematic, Kernel: "docker-24007-double-close", DPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fired {
		t.Fatalf("systematic exploration found no failures:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "DPOR") || !strings.Contains(res.Text, "pruned") {
		t.Fatalf("missing DPOR stats:\n%s", res.Text)
	}
}

// Conformance jobs execute every time even with a store attached: host
// outcomes are not a pure function of the job.
func TestConformanceNeverCached(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep builds host subprocesses")
	}
	e := newEngine(t, Options{Workers: 1, Store: newStore(t)})
	job := Job{Kind: KindConformance, Programs: 5, Seed: 3}
	for i := 0; i < 2; i++ {
		res, err := e.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatal("conformance result served from cache")
		}
	}
	if s := e.Stats(); s.Executed != 2 || s.CacheHits != 0 {
		t.Fatalf("stats %+v, want 2 executions and 0 hits", s)
	}
}

// Deadline-truncated (Incomplete) results must not poison the cache: the
// next submission re-executes.
func TestIncompleteNotCached(t *testing.T) {
	st := newStore(t)
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1, Store: st})
	job := Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 100000, Seed: 1,
		Detectors: []string{"cycle"}, Deadline: time.Microsecond}
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Status != harness.Incomplete {
		t.Skipf("sweep finished inside the deadline (verdict %v); nothing to assert", res.Verdict)
	}
	if res.CacheHit {
		t.Fatal("first submission cannot be a hit")
	}
	if st.Len() != 0 {
		t.Fatalf("incomplete verdict was cached (%d entries)", st.Len())
	}
}

func TestValidateRejectsBadJobs(t *testing.T) {
	e := newEngine(t, Options{Workers: 1})
	for _, job := range []Job{
		{Kind: "bogus"},
		{Kind: KindSweep, Kernel: "docker-abba-order"},                               // no detectors
		{Kind: KindSweep, Kernel: "no-such-kernel", Detectors: []string{"cycle"}},    // unknown kernel
		{Kind: KindSweep, Kernel: "docker-abba-order", Detectors: []string{"bogus"}}, // unknown detector
		{Kind: KindRun}, // no kernel
		{Kind: KindSweep, Kernel: "docker-abba-order", Detectors: []string{"cycle"}, Shards: 4},                                // no checkpoint
		{Kind: KindConformance, Kernel: "docker-abba-order"},                                                                   // kernel on conformance
		{Kind: KindSweep, Kernel: "docker-abba-order", Detectors: []string{"cycle"}, Fold: true, Shards: -1, Checkpoint: "cp"}, // negative shard count
	} {
		if _, err := e.Enqueue(job); err == nil {
			t.Errorf("job %+v validated", job)
		}
	}
}

// Anonymous in-process programs are executable but never cached: no sound
// key exists for them.
func TestAnonymousProgramNotCached(t *testing.T) {
	st := newStore(t)
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1, Store: st})
	job := Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 5, Seed: 1, Detectors: []string{"cycle"}}
	r, err := job.resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SubmitProgram(context.Background(), Job{Kind: KindSweep, Runs: 5, Seed: 1, Detectors: []string{"cycle"}},
		"", r.prog, r.cfgFor)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit || st.Len() != 0 {
		t.Fatalf("anonymous program was cached (hit=%v, entries=%d)", res.CacheHit, st.Len())
	}
}

// Named in-process programs cache under their supplied identity, and the
// text matches the kernel-registry path for the same program byte for byte.
func TestNamedProgramMatchesKernelPath(t *testing.T) {
	st := newStore(t)
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1, Store: st})
	ctx := context.Background()
	base := sweepJob()
	viaKernel, err := e.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	r, err := base.resolve()
	if err != nil {
		t.Fatal(err)
	}
	viaProg, err := e.SubmitProgram(ctx, Job{Kind: KindSweep, Runs: base.Runs, Seed: base.Seed, Detectors: base.Detectors},
		base.Kernel, r.prog, r.cfgFor)
	if err != nil {
		t.Fatal(err)
	}
	if viaProg.Text != viaKernel.Text {
		t.Fatalf("program path diverged from kernel path:\n%s\nvs\n%s", viaProg.Text, viaKernel.Text)
	}
	if !viaProg.CacheHit {
		t.Fatal("named program with identical key should have hit the kernel job's cache entry")
	}
}

func TestQueueBackpressure(t *testing.T) {
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1, QueueDepth: 1})
	slow := Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 5000, Seed: 99, Detectors: []string{"cycle"}}
	if _, err := e.Enqueue(slow); err != nil {
		t.Fatal(err)
	}
	// Fill the queue and then force ErrBusy with distinct (uncoalescable) jobs.
	sawBusy := false
	for i := int64(0); i < 64 && !sawBusy; i++ {
		_, err := e.Enqueue(Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 5000, Seed: 1000 + i, Detectors: []string{"cycle"}})
		if err == ErrBusy {
			sawBusy = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawBusy {
		t.Skip("workers drained faster than we could fill the queue")
	}
}

// A checkpoint written by one variant of a kernel must not resume the other:
// resuming it as the other variant starts fresh, so the result equals that
// variant's uncheckpointed sweep, in both orders.
func TestResumeDoesNotCrossVariants(t *testing.T) {
	ctx := context.Background()
	e := newEngine(t, Options{Workers: 1, SweepWorkers: 1})
	for _, fixedFirst := range []bool{false, true} {
		job := Job{Kind: KindSweep, Kernel: "docker-abba-order", Fixed: fixedFirst, Runs: 20, Seed: 1,
			Detectors: []string{"leak", "cycle"}, Checkpoint: filepath.Join(t.TempDir(), "cp")}
		if _, err := e.Submit(ctx, job); err != nil {
			t.Fatal(err)
		}
		from := job.variantLabel()
		job.Fixed = !fixedFirst
		resumed, err := e.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		job.Checkpoint = ""
		fresh, err := e.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Text != fresh.Text {
			t.Errorf("%s sweep resumed from a %s checkpoint:\n%s\nfresh:\n%s", job.variantLabel(), from, resumed.Text, fresh.Text)
		}
	}
}

// running counts the goroutines whose stacks show frame, waiting up to
// five seconds while the count is above want: a goroutine that has
// signalled its exit, to an earlier test's Close too, may not have
// returned yet.
func running(frame string, want int) int {
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		got := strings.Count(string(buf[:n]), frame)
		if got <= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// crewHelpers is running for the goroutines serving a fan-out crew.
func crewHelpers(want int) int { return running("harness.(*Crew[...]).serve(", want) }

// TestSerialEngineStartsNoHelper: an engine that runs its jobs serially
// (SweepWorkers 1, the daemon default) never starts a crew helper.
func TestSerialEngineStartsNoHelper(t *testing.T) {
	if n := crewHelpers(0); n != 0 {
		t.Fatalf("%d crew helpers running before the test", n)
	}
	e := newEngine(t, Options{Workers: 2, SweepWorkers: 1})
	ctx := context.Background()
	for _, job := range []Job{
		sweepJob(),
		{Kind: KindRun, Kernel: "cockroachdb-6111-status", Runs: 20, Seed: 1},
	} {
		if _, err := e.Submit(ctx, job); err != nil {
			t.Fatal(err)
		}
	}
	if n := crewHelpers(0); n != 0 {
		t.Errorf("%d crew helpers running after serial jobs", n)
	}
}

// TestEngineCloseLeavesNoGoroutine: an engine's crew keeps its helpers
// between jobs, and Close stops every one of them along with the worker.
func TestEngineCloseLeavesNoGoroutine(t *testing.T) {
	if n := crewHelpers(0); n != 0 {
		t.Fatalf("%d crew helpers running before the test", n)
	}
	e := New(Options{Workers: 1, SweepWorkers: 3})
	ctx := context.Background()
	for _, job := range []Job{
		sweepJob(),
		{Kind: KindRun, Kernel: "cockroachdb-6111-status", Runs: 20, Seed: 1},
	} {
		if _, err := e.Submit(ctx, job); err != nil {
			t.Fatal(err)
		}
	}
	if n := crewHelpers(2); n != 2 {
		t.Errorf("%d crew helpers running between jobs, want 2", n)
	}
	e.Close()
	if n := crewHelpers(0); n != 0 {
		t.Errorf("%d crew helpers left after Close", n)
	}
	if w := running("(*Engine).worker(", 0); w != 0 {
		t.Errorf("%d engine workers left after Close", w)
	}
}
