package harness

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVerdictString(t *testing.T) {
	cases := []struct {
		v    Verdict
		want string
	}{
		{Verdict{Status: Confirmed}, "confirmed"},
		{Verdict{Status: Refuted}, "refuted"},
		{Incompletef(ReasonBudget, "10 runs left"), "incomplete (budget: 10 runs left)"},
		{Verdict{Status: Incomplete, Reason: ReasonPanic}, "incomplete (panic)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCtxReason(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if r := CtxReason(canceled.Err()); r != ReasonCanceled {
		t.Errorf("canceled context classified %q", r)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if r := CtxReason(expired.Err()); r != ReasonDeadline {
		t.Errorf("expired deadline classified %q", r)
	}
}

func TestCaptureRecordsPanic(t *testing.T) {
	err := Capture(7, 42, func() { panic("kaboom") })
	if err == nil {
		t.Fatal("Capture swallowed the panic silently")
	}
	if err.Run != 7 || err.Seed != 42 || err.PanicValue != "kaboom" {
		t.Fatalf("RunError = %+v", err)
	}
	if !strings.Contains(err.Stack, "harness_test") {
		t.Error("stack trace missing the panicking frame")
	}
	if !strings.Contains(err.Error(), "run 7 (seed 42)") {
		t.Errorf("Error() = %q", err.Error())
	}
	if e := Capture(0, 0, func() {}); e != nil {
		t.Fatalf("clean fn reported %v", e)
	}
}

func TestRetryEventuallySucceeds(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 5, time.Microsecond, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success on attempt 3", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	base := errors.New("still broken")
	err := Retry(context.Background(), 3, time.Microsecond, func() error { calls++; return base })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, base) || !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	err := Retry(ctx, 10, time.Hour, func() error {
		calls++
		cancel() // cancel mid-flight: the backoff sleep must not run
		return errors.New("fail")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not cut the backoff sleep")
	}
}

// TestRetrySleepSchedule pins the deterministic backoff schedule: doubling
// from the base, capped at MaxBackoff, jitter seeded so equal options replay
// equal sleeps and never stretch a sleep past its un-jittered value.
func TestRetrySleepSchedule(t *testing.T) {
	o := RetryOptions{Attempts: 8, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, time.Second,
	}
	for i, w := range want {
		if got := o.SleepFor(i); got != w {
			t.Errorf("SleepFor(%d) = %v, want %v", i, got, w)
		}
	}

	j := o
	j.Jitter, j.Seed = 0.5, 42
	for i := 0; i < len(want); i++ {
		a, b := j.SleepFor(i), j.SleepFor(i)
		if a != b {
			t.Fatalf("jittered SleepFor(%d) not deterministic: %v vs %v", i, a, b)
		}
		full := o.SleepFor(i)
		if a > full || a < full/2 {
			t.Errorf("jittered SleepFor(%d) = %v outside [%v, %v]", i, a, full/2, full)
		}
	}
	j2 := j
	j2.Seed = 43
	differs := false
	for i := 0; i < len(want); i++ {
		if j.SleepFor(i) != j2.SleepFor(i) {
			differs = true
		}
	}
	if !differs {
		t.Error("different seeds produced identical jitter schedules")
	}
}

// TestRetryTotalBackoffBounded is the regression the cap exists for: the sum
// of every sleep a retry loop can take stays under (attempts-1)*MaxBackoff —
// exponential growth never outruns the cap, and huge attempt counts do not
// overflow into negative (i.e. zero) sleeps.
func TestRetryTotalBackoffBounded(t *testing.T) {
	o := RetryOptions{Attempts: 200, Backoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond, Jitter: 0.5, Seed: 7}
	var total time.Duration
	for i := 0; i < o.Attempts-1; i++ {
		s := o.SleepFor(i)
		if s < 0 || s > o.MaxBackoff {
			t.Fatalf("SleepFor(%d) = %v outside [0, %v]", i, s, o.MaxBackoff)
		}
		total += s
	}
	if limit := time.Duration(o.Attempts-1) * o.MaxBackoff; total > limit {
		t.Fatalf("total backoff %v exceeds bound %v", total, limit)
	}
}

// TestRetryWithCancelCutsSleep: a cancellation arriving mid-sleep must end
// the wait immediately even when the (capped, jittered) sleep is huge.
func TestRetryWithCancelCutsSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := RetryWith(ctx, RetryOptions{Attempts: 5, Backoff: time.Hour, Jitter: 0.9, Seed: 3}, func() error {
		calls++
		return errors.New("fail")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not cut the jittered sleep")
	}
}

// TestShardPartitions: for many (n, count) shapes the blocks are contiguous,
// disjoint, balanced to within one item, and cover [0, n) exactly.
func TestShardPartitions(t *testing.T) {
	for _, n := range []int{0, 1, 7, 23, 100, 101} {
		for _, count := range []int{1, 2, 3, 4, 16} {
			next, min, max := 0, n, 0
			for i := 0; i < count; i++ {
				lo, hi := Shard(n, count, i)
				if lo != next || hi < lo {
					t.Fatalf("Shard(%d, %d, %d) = [%d, %d): blocks must be contiguous from %d", n, count, i, lo, hi, next)
				}
				next = hi
				sz := hi - lo
				if sz < min {
					min = sz
				}
				if sz > max {
					max = sz
				}
			}
			if next != n {
				t.Fatalf("Shard(%d, %d, *) covers [0, %d), want [0, %d)", n, count, next, n)
			}
			if count > 1 && max-min > 1 {
				t.Fatalf("Shard(%d, %d, *): block sizes range %d..%d, want balanced within 1", n, count, min, max)
			}
		}
	}
}

func TestShardPanicsOnBadIndex(t *testing.T) {
	for _, bad := range [][2]int{{0, 0}, {4, 4}, {4, -1}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shard(10, %d, %d) did not panic", bad[0], bad[1])
				}
			}()
			Shard(10, bad[0], bad[1])
		}()
	}
}

// TestForEachHandsOutEveryItemOnce: every item is claimed exactly once, and
// each of the min(workers, n) workers is called exactly once.
func TestForEachHandsOutEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			handed := make([]atomic.Int32, n)
			called := make([]atomic.Int32, workers)
			ForEach(context.Background(), n, workers, func(w int, claim func() (int, bool)) {
				called[w].Add(1)
				for i, ok := claim(); ok; i, ok = claim() {
					handed[i].Add(1)
				}
			})
			for i := range handed {
				if c := handed[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: item %d handed out %d times", workers, n, i, c)
				}
			}
			for w := range called {
				want := int32(0)
				if w < min(workers, n) {
					want = 1
				}
				if c := called[w].Load(); c != want {
					t.Errorf("workers=%d n=%d: worker %d called %d times, want %d", workers, n, w, c, want)
				}
			}
		}
	}
}

// TestForEachCancelLeavesSuffix: a cancel at a seeded item stops the claims
// (no claim that starts after the cancel returned succeeds), the claimed
// items are exactly [0, k) and every one of them finished.
func TestForEachCancelLeavesSuffix(t *testing.T) {
	const n = 500
	for seed := uint64(0); seed < 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		workers := 1 + r.IntN(4)
		at := r.IntN(n)
		ctx, cancel := context.WithCancel(context.Background())
		var claimed, finished [n]atomic.Bool
		var canceled atomic.Bool
		ForEach(ctx, n, workers, func(_ int, claim func() (int, bool)) {
			for {
				after := canceled.Load()
				i, ok := claim()
				if !ok {
					return
				}
				if after {
					t.Errorf("seed %d: item %d claimed after the cancel", seed, i)
				}
				claimed[i].Store(true)
				if i == at {
					cancel()
					canceled.Store(true)
				}
				runtime.Gosched()
				finished[i].Store(true)
			}
		})
		cancel()
		k := 0
		for k < n && claimed[k].Load() {
			k++
		}
		for i := k; i < n; i++ {
			if claimed[i].Load() {
				t.Fatalf("seed %d: item %d claimed after the gap at %d", seed, i, k)
			}
		}
		for i := 0; i < k; i++ {
			if !finished[i].Load() {
				t.Fatalf("seed %d: claimed item %d never finished", seed, i)
			}
		}
		if k <= at {
			t.Fatalf("seed %d: %d workers canceled at item %d claimed [0, %d)", seed, workers, at, k)
		}
	}
}

// goid returns the calling goroutine's ID from its stack header.
func goid() int {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// TestForEachCallerIsWorkerZero: worker 0 runs on the calling goroutine and
// every other worker on a goroutine of its own, workers-1 of them at most.
func TestForEachCallerIsWorkerZero(t *testing.T) {
	caller := goid()
	for _, workers := range []int{1, 2, 3, 8} {
		var mu sync.Mutex
		ids := map[int]int{}
		ForEach(context.Background(), 100, workers, func(w int, claim func() (int, bool)) {
			mu.Lock()
			ids[w] = goid()
			mu.Unlock()
			for _, ok := claim(); ok; _, ok = claim() {
			}
		})
		if ids[0] != caller {
			t.Errorf("workers=%d: worker 0 ran on goroutine %d, the caller is %d", workers, ids[0], caller)
		}
		seen := map[int]bool{}
		for w, id := range ids {
			if w != 0 && (id == caller || seen[id]) {
				t.Errorf("workers=%d: worker %d shares goroutine %d", workers, w, id)
			}
			seen[id] = true
		}
		if len(ids) != workers {
			t.Errorf("workers=%d: %d workers called", workers, len(ids))
		}
	}
}

// TestForEachLeavesNoGoroutine: every worker has returned when ForEach
// does, even when worker 0 panics, and the goroutine count settles back.
func TestForEachLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, panics := range []bool{false, true} {
		const workers = 8
		var returned atomic.Int32
		func() {
			defer func() {
				if v := recover(); (v != nil) != panics {
					t.Errorf("panics=%v: recovered %v", panics, v)
				}
			}()
			ForEach(context.Background(), 1000, workers, func(w int, claim func() (int, bool)) {
				defer returned.Add(1)
				for _, ok := claim(); ok; _, ok = claim() {
					if panics && w == 0 {
						panic("worker 0")
					}
					runtime.Gosched()
				}
			})
		}()
		if r := returned.Load(); r != workers {
			t.Errorf("panics=%v: %d of %d workers had returned", panics, r, workers)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before ForEach, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrewHandsOutEveryItemOnce: on one long-lived crew, 1000 back-to-back
// calls with varying n and worker counts each hand out every item exactly
// once and call each of their min(workers, n) workers exactly once.
func TestCrewHandsOutEveryItemOnce(t *testing.T) {
	c := NewCrew[struct{}](nil, nil)
	defer c.Close()
	r := rand.New(rand.NewPCG(1, 0))
	for call := 0; call < 1000; call++ {
		n, workers := r.IntN(60), 1+r.IntN(5)
		handed := make([]atomic.Int32, n)
		called := make([]atomic.Int32, workers)
		c.ForEach(context.Background(), n, workers, func(w int, _ struct{}, claim func() (int, bool)) {
			called[w].Add(1)
			for i, ok := claim(); ok; i, ok = claim() {
				handed[i].Add(1)
			}
		})
		for i := range handed {
			if got := handed[i].Load(); got != 1 {
				t.Fatalf("call %d (n=%d, workers=%d): item %d handed out %d times", call, n, workers, i, got)
			}
		}
		for w := range called {
			want := int32(0)
			if w < min(workers, n) {
				want = 1
			}
			if got := called[w].Load(); got != want {
				t.Fatalf("call %d (n=%d, workers=%d): worker %d called %d times, want %d", call, n, workers, w, got, want)
			}
		}
	}
}

// TestCrewCancelLeavesSuffix is TestForEachCancelLeavesSuffix on one crew
// reused across the seeds: a cancel stops the claims, and the claimed items
// are exactly [0, k), every one of them finished.
func TestCrewCancelLeavesSuffix(t *testing.T) {
	const n = 500
	c := NewCrew[struct{}](nil, nil)
	defer c.Close()
	for seed := uint64(0); seed < 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 1))
		workers := 1 + r.IntN(4)
		at := r.IntN(n)
		ctx, cancel := context.WithCancel(context.Background())
		var claimed, finished [n]atomic.Bool
		var canceled atomic.Bool
		c.ForEach(ctx, n, workers, func(_ int, _ struct{}, claim func() (int, bool)) {
			for {
				after := canceled.Load()
				i, ok := claim()
				if !ok {
					return
				}
				if after {
					t.Errorf("seed %d: item %d claimed after the cancel", seed, i)
				}
				claimed[i].Store(true)
				if i == at {
					cancel()
					canceled.Store(true)
				}
				runtime.Gosched()
				finished[i].Store(true)
			}
		})
		cancel()
		k := 0
		for k < n && claimed[k].Load() {
			k++
		}
		for i := k; i < n; i++ {
			if claimed[i].Load() {
				t.Fatalf("seed %d: item %d claimed after the gap at %d", seed, i, k)
			}
		}
		for i := 0; i < k; i++ {
			if !finished[i].Load() {
				t.Fatalf("seed %d: claimed item %d never finished", seed, i)
			}
		}
		if k <= at {
			t.Fatalf("seed %d: %d workers canceled at item %d claimed [0, %d)", seed, workers, at, k)
		}
	}
}

// TestCrewCallerIsWorkerZero: worker 0 runs on the calling goroutine, and
// worker w >= 1 on helper w, the same goroutine in every call, with the
// same slot state, opened once.
func TestCrewCallerIsWorkerZero(t *testing.T) {
	caller := goid()
	var opened atomic.Int32
	c := NewCrew(func() int { return int(opened.Add(1)) }, nil)
	defer c.Close()
	var mu sync.Mutex
	ids, states := map[int]int{}, map[int]int{}
	for call := 0; call < 100; call++ {
		workers := 1 + call%4
		c.ForEach(context.Background(), 100, workers, func(w int, s int, claim func() (int, bool)) {
			id := goid()
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := ids[w]; ok && prev != id {
				t.Errorf("call %d: worker %d moved from goroutine %d to %d", call, w, prev, id)
			}
			if prev, ok := states[w]; ok && prev != s {
				t.Errorf("call %d: worker %d's slot state changed from %d to %d", call, w, prev, s)
			}
			ids[w], states[w] = id, s
			for _, ok := claim(); ok; _, ok = claim() {
			}
		})
	}
	if ids[0] != caller {
		t.Errorf("worker 0 ran on goroutine %d, the caller is %d", ids[0], caller)
	}
	seen := map[int]bool{}
	for w, id := range ids {
		if w != 0 && (id == caller || seen[id]) {
			t.Errorf("worker %d shares goroutine %d", w, id)
		}
		seen[id] = true
	}
	if len(ids) != 4 || opened.Load() != 4 {
		t.Errorf("%d workers called, %d slot states opened; want 4 of each", len(ids), opened.Load())
	}
}

// TestCrewCloseIsPrompt: Close returns at once whether the helpers still
// poll or have parked, releases every slot state it opened, and leaves no
// goroutine behind.
func TestCrewCloseIsPrompt(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, parked := range []bool{false, true} {
		var opened, shut atomic.Int32
		c := NewCrew(func() struct{} { opened.Add(1); return struct{}{} }, func(struct{}) { shut.Add(1) })
		c.ForEach(context.Background(), 100, 4, func(_ int, _ struct{}, claim func() (int, bool)) {
			for _, ok := claim(); ok; _, ok = claim() {
			}
		})
		if parked {
			deadline := time.Now().Add(5 * time.Second)
			for _, h := range c.helpers {
				for h.mail.Load() != &h.parked {
					if time.Now().After(deadline) {
						t.Fatal("a helper never parked")
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
		start := time.Now()
		c.Close()
		if d := time.Since(start); d > time.Second {
			t.Errorf("parked=%v: Close took %v", parked, d)
		}
		if o, s := opened.Load(), shut.Load(); o != 4 || s != 4 {
			t.Errorf("parked=%v: %d slot states opened, %d shut; want 4 and 4", parked, o, s)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the crews, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrewSpinBound: with crews busy on several goroutines at once, never
// more than GOMAXPROCS-1 waiters poll, so nothing polls at GOMAXPROCS=1.
func TestCrewSpinBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		limit := int32(procs - 1)
		var over atomic.Int32
		check := func() {
			if n := spinners.Load(); n > limit {
				over.Store(n)
			}
		}
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			for {
				select {
				case <-stop:
					return
				default:
					check()
					runtime.Gosched()
				}
			}
		}()
		var wg sync.WaitGroup
		for range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewCrew[struct{}](nil, nil)
				defer c.Close()
				for call := 0; call < 200; call++ {
					c.ForEach(context.Background(), 20, 3, func(_ int, _ struct{}, claim func() (int, bool)) {
						for _, ok := claim(); ok; _, ok = claim() {
							check()
						}
					})
					check()
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-sampled
		if n := over.Load(); n != 0 {
			t.Errorf("GOMAXPROCS=%d: %d waiters polled at once, limit %d", procs, n, limit)
		}
	}
}
