package harness

import (
	"context"
	"errors"
	"strings"
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
