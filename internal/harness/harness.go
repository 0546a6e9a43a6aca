// Package harness is the shared hardening layer for the long-running
// exploration harnesses (detect.Sweep, explore.Systematic, the conformance
// sweep). It provides the structured error taxonomy the harnesses report
// instead of crashing (a panic in one detector or kernel must not take down
// a thousand-run sweep), bounded retry for flaky host-side subprocesses,
// the seed-range partitioning behind sharded sweeps, and the fan-out that
// hands a sweep's seeds to its workers.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Status is the top-level outcome of a harness invocation.
type Status int

const (
	// Confirmed: the harness completed enough work to establish the
	// property it was probing for (e.g. at least one run fired a detector).
	Confirmed Status = iota
	// Refuted: every scheduled run completed and none established the
	// property.
	Refuted
	// Incomplete: the harness could not finish — budget or deadline
	// exhaustion, cancellation, or errors — so absence of evidence is not
	// evidence of absence. Reason says why.
	Incomplete
)

var statusNames = [...]string{"confirmed", "refuted", "incomplete"}

func (s Status) String() string {
	if s < 0 || int(s) >= len(statusNames) {
		return fmt.Sprintf("Status(%d)", int(s))
	}
	return statusNames[s]
}

// Reason classifies why a harness result is Incomplete (empty otherwise).
const (
	ReasonPanic    = "panic"    // a run panicked on the host side
	ReasonDeadline = "deadline" // the context's deadline expired
	ReasonCanceled = "canceled" // the context was canceled
	ReasonBudget   = "budget"   // run/choice budget exhausted with work left
	ReasonRetries  = "retries"  // subprocess retries exhausted
)

// Verdict is the structured outcome attached to harness reports.
type Verdict struct {
	Status Status `json:"status"`
	// Reason is one of the Reason* constants when Status is Incomplete.
	Reason string `json:"reason,omitempty"`
	// Detail is a human-readable elaboration (what was left undone).
	Detail string `json:"detail,omitempty"`
}

func (v Verdict) String() string {
	s := v.Status.String()
	if v.Reason != "" {
		s += " (" + v.Reason
		if v.Detail != "" {
			s += ": " + v.Detail
		}
		s += ")"
	} else if v.Detail != "" {
		s += " (" + v.Detail + ")"
	}
	return s
}

// Incompletef builds an Incomplete verdict with a formatted detail.
func Incompletef(reason, format string, args ...any) Verdict {
	return Verdict{Status: Incomplete, Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// CtxReason maps a context error to the matching Reason constant.
func CtxReason(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return ReasonDeadline
	}
	return ReasonCanceled
}

// RunError records one panicking run: which run, under which seed, what the
// panic value was and where. It satisfies error so harnesses can fold it
// into errors slices, but it is data first — sweeps keep draining after one.
type RunError struct {
	Run        int    `json:"run"`
	Seed       int64  `json:"seed"`
	PanicValue string `json:"panic"`
	Stack      string `json:"stack,omitempty"`
}

func (e *RunError) Error() string {
	return fmt.Sprintf("run %d (seed %d) panicked: %s", e.Run, e.Seed, e.PanicValue)
}

// Capture runs fn, converting a panic into a *RunError carrying the stack.
// Returns nil when fn completes normally.
func Capture(run int, seed int64, fn func()) (err *RunError) {
	defer func() {
		if v := recover(); v != nil {
			err = &RunError{
				Run:        run,
				Seed:       seed,
				PanicValue: fmt.Sprint(v),
				Stack:      string(debug.Stack()),
			}
		}
	}()
	fn()
	return nil
}

// DefaultMaxBackoff caps a single retry sleep when RetryOptions.MaxBackoff
// is zero. Uncapped exponential backoff turns a handful of attempts into
// minutes of dead air — precisely the failure mode a fleet scheduler waiting
// on a flapping daemon cannot afford.
const DefaultMaxBackoff = 30 * time.Second

// RetryOptions tunes RetryWith. The zero value means one attempt with no
// sleep; fill Attempts and Backoff for the classic exponential schedule.
type RetryOptions struct {
	// Attempts is the total number of calls to fn (minimum 1).
	Attempts int
	// Backoff is the base sleep before the second attempt; attempt i
	// (0-based) sleeps up to Backoff<<i, capped at MaxBackoff.
	Backoff time.Duration
	// MaxBackoff caps every individual sleep (0 = DefaultMaxBackoff). The
	// cap also bounds the total: Attempts-1 sleeps never exceed
	// (Attempts-1)*MaxBackoff no matter how the doubling would grow.
	MaxBackoff time.Duration
	// Jitter is the fraction of each sleep randomized away, in [0, 1): a
	// sleep of d becomes uniform in [d*(1-Jitter), d]. Jitter decorrelates
	// a fleet of retriers hammering one recovering daemon; 0 disables it.
	Jitter float64
	// Seed makes the jitter sequence deterministic: equal options replay
	// equal sleeps, so retry schedules are testable and reproducible.
	Seed uint64
}

// SleepFor returns the (jittered, capped) sleep after failed attempt i
// (0-based). It is a pure function of the options and i — the deterministic
// schedule RetryWith executes and tests pin.
func (o RetryOptions) SleepFor(i int) time.Duration {
	max := o.MaxBackoff
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	d := o.Backoff
	// Double step by step instead of shifting by i: backoff<<i overflows
	// for large attempt counts, and past the cap the exact value is moot.
	for k := 0; k < i && d < max; k++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	if d <= 0 {
		return 0
	}
	if o.Jitter > 0 && o.Jitter < 1 {
		// Seeded per (Seed, attempt): deterministic, and attempts are
		// independently jittered rather than replaying one stream offset.
		r := rand.New(rand.NewPCG(o.Seed, uint64(i)))
		d = time.Duration(float64(d) * (1 - o.Jitter*r.Float64()))
	}
	return d
}

// RetryWith runs fn up to o.Attempts times with exponential backoff between
// failures — jittered and capped per o, context-aware throughout: a
// cancellation cuts both the sleep and the loop immediately. It returns nil
// on the first success, the context error if canceled, and otherwise the
// last failure wrapped with the attempt count.
func RetryWith(ctx context.Context, o RetryOptions, fn func() error) error {
	if o.Attempts < 1 {
		o.Attempts = 1
	}
	var last error
	for i := 0; i < o.Attempts; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if last = fn(); last == nil {
			return nil
		}
		if i == o.Attempts-1 {
			break
		}
		sleep := o.SleepFor(i)
		if sleep <= 0 {
			continue
		}
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	return fmt.Errorf("%d attempts exhausted: %w", o.Attempts, last)
}

// Retry is RetryWith under the classic signature: exponential backoff from
// the given base, capped at DefaultMaxBackoff, with a deterministic 50%
// jitter (fixed seed 1) that staggers one retrier's successive attempts off
// the pure power-of-two schedule. Because every Retry caller shares the
// seed, identical concurrent retriers compute identical sleeps — callers
// that need decorrelation between retriers must use RetryWith with a
// caller-distinct Seed.
func Retry(ctx context.Context, attempts int, backoff time.Duration, fn func() error) error {
	return RetryWith(ctx, RetryOptions{
		Attempts: attempts, Backoff: backoff, Jitter: 0.5, Seed: 1,
	}, fn)
}

// Shard partitions n work items into count contiguous blocks and returns the
// half-open range [lo, hi) of block index (0-based). Blocks are balanced to
// within one item and together cover [0, n) exactly, so count processes each
// taking their own block partition the work with no overlap and no gap —
// the seed-range splitting behind sharded sweeps. Out-of-range arguments
// (count < 1, index outside [0, count)) panic: they are caller bugs, and a
// silently empty shard would drop work.
func Shard(n, count, index int) (lo, hi int) {
	if count < 1 || index < 0 || index >= count {
		panic(fmt.Sprintf("harness: Shard(%d, %d, %d): index must be in [0, count)", n, count, index))
	}
	if n < 0 {
		n = 0
	}
	return n * index / count, n * (index + 1) / count
}

// ForEach hands the items 0, 1, ..., n-1 out to workers and returns once
// every worker has returned. The calling goroutine is worker 0; ForEach
// starts min(workers, n)-1 more goroutines (none when workers <= 1), calling
// worker(w, claim) once on each. A worker keeps its own state (a runtime, a
// detector pipeline) in that call and loops on claim, which returns the next
// item, or false once all are taken or ctx is done.
//
// Items are claimed in ascending order through one atomic cursor, and ctx is
// checked before each claim, so the claimed items are always a prefix
// [0, k) of the range: a cancellation leaves the never-claimed items as a
// suffix. A worker must finish every item it has claimed.
func ForEach(ctx context.Context, n, workers int, worker func(w int, claim func() (int, bool))) {
	if n <= 0 {
		return
	}
	workers = max(1, min(workers, n))
	var next atomic.Int64
	claim := func() (int, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		if i := next.Add(1) - 1; i < int64(n) {
			return int(i), true
		}
		return 0, false
	}
	var wg sync.WaitGroup
	// Deferred, so that no worker outlives the call even when worker 0
	// panics.
	defer wg.Wait()
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(w, claim)
		}()
	}
	worker(0, claim)
}
