package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ForEach hands the items 0, 1, ..., n-1 out to workers and returns once
// every worker has returned. The calling goroutine is worker 0; ForEach
// runs min(workers, n)-1 more workers (none when workers <= 1) on
// goroutines of a one-shot Crew, calling worker(w, claim) once on each. A
// worker keeps its own state (a runtime, a detector pipeline) in that call
// and loops on claim, which returns the next item, or false once all are
// taken or ctx is done.
//
// Items are claimed in ascending order through one atomic cursor, and ctx is
// checked before each claim, so the claimed items are always a prefix
// [0, k) of the range: a cancellation leaves the never-claimed items as a
// suffix. A worker must finish every item it has claimed.
func ForEach(ctx context.Context, n, workers int, worker func(w int, claim func() (int, bool))) {
	c := NewCrew[struct{}](nil, nil)
	defer c.Close()
	c.ForEach(ctx, n, workers, func(w int, _ struct{}, claim func() (int, bool)) {
		worker(w, claim)
	})
}

// Crew is ForEach's fan-out kept alive between calls: worker w >= 1 of
// every call runs on helper goroutine w, which waits for the next call
// once its share of this one is done, and keeps its slot's state S (a warm
// runtime) across calls. A job-engine worker owns one crew for its
// lifetime, so a job's fan-out neither starts goroutines nor wakes an idle
// CPU.
//
// A waiter, a helper between calls or the caller for its helpers at the end
// of one, first polls for up to spinWindow and then parks. At most
// GOMAXPROCS-1 waiters poll at once, across the process, so nothing polls
// at GOMAXPROCS=1 and a polling waiter never holds the last CPU the work
// needs. A crew belongs to one goroutine, its owner, which alone calls
// ForEach, Own and Close.
type Crew[S any] struct {
	open func() S
	shut func(S)

	own     S
	ownOpen bool

	helpers []*helper[S]
	wg      sync.WaitGroup
	// done wakes a parked owner when its last helper finishes a call.
	done chan struct{}
}

// NewCrew returns a crew with no helpers yet: ForEach starts them when a
// call first needs them, so a crew that only ever runs serial work costs
// no goroutine. open builds a slot's state on the slot's first call and
// shut releases it when the crew closes; either may be nil.
func NewCrew[S any](open func() S, shut func(S)) *Crew[S] {
	return &Crew[S]{open: open, shut: shut, done: make(chan struct{}, 1)}
}

// Own returns slot 0's state, the owner's, opening it on first use.
func (c *Crew[S]) Own() S {
	if !c.ownOpen {
		if c.open != nil {
			c.own = c.open()
		}
		c.ownOpen = true
	}
	return c.own
}

// ForEach is the package-level ForEach on the crew: the owner is worker 0
// on slot 0, and worker w >= 1 runs on helper w with that slot's state. It
// returns once every worker has returned, even when worker 0 panics.
func (c *Crew[S]) ForEach(ctx context.Context, n, workers int, worker func(w int, s S, claim func() (int, bool))) {
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
	if workers == 1 {
		worker(0, c.Own(), claim)
		return
	}
	t := &task[S]{worker: worker, claim: claim}
	t.left.Store(int32(workers - 1))
	for len(c.helpers) < workers-1 {
		h := &helper[S]{wake: make(chan struct{}, 1)}
		c.helpers = append(c.helpers, h)
		c.wg.Add(1)
		go c.serve(len(c.helpers), h)
	}
	for _, h := range c.helpers[:workers-1] {
		h.post(t)
	}
	// Deferred, so that no worker outlives the call even when worker 0
	// panics.
	defer c.await(t)
	worker(0, c.Own(), claim)
}

// Close stops the helpers, promptly whether they poll or park, returns
// once every one has exited, and releases every slot's state.
func (c *Crew[S]) Close() {
	stop := new(task[S])
	for _, h := range c.helpers {
		h.post(stop)
	}
	c.wg.Wait()
	if c.ownOpen && c.shut != nil {
		c.shut(c.own)
	}
}

// task is one ForEach call as its helpers see it; a task with no worker
// stops them.
type task[S any] struct {
	worker func(w int, s S, claim func() (int, bool))
	claim  func() (int, bool)
	// left counts the helpers still in the call, and owner is the owner's
	// wait state, one of the own* constants.
	left  atomic.Int32
	owner atomic.Int32
}

const (
	ownBusy    = iota // working, or past its wait
	ownPolling        // polling left, holding a spin slot
	ownHanded         // it was polling, and the last helper took its slot
	ownParked         // blocked on the crew's done channel
)

// await returns once every helper has finished t. It polls while it holds
// a spin slot, and when the last helper finishes during the poll, that
// helper inherits the slot to poll for the next call with: the owner
// returns without releasing it. Otherwise two waiters would contend for
// one slot at the moment the call ends, and on two CPUs the helper would
// lose and park before nearly every other call.
func (c *Crew[S]) await(t *task[S]) {
	if t.left.Load() == 0 {
		return
	}
	if acquireSpin() {
		t.owner.Store(ownPolling)
		poll(func() bool { return t.left.Load() == 0 })
		if t.owner.CompareAndSwap(ownPolling, ownBusy) {
			releaseSpin()
		}
		if t.left.Load() == 0 {
			return
		}
	}
	t.owner.Store(ownParked)
	if t.left.Load() == 0 && t.owner.CompareAndSwap(ownParked, ownBusy) {
		return
	}
	// The last helper moved owner out of ownParked and sends, or has sent,
	// the wake.
	<-c.done
}

// finish records that one helper is done with t. The last one wakes a
// parked owner, or takes over a polling owner's spin slot, which it
// reports.
func (c *Crew[S]) finish(t *task[S]) (holdsSlot bool) {
	if t.left.Add(-1) != 0 {
		return false
	}
	if t.owner.CompareAndSwap(ownPolling, ownHanded) {
		return true
	}
	if t.owner.CompareAndSwap(ownParked, ownBusy) {
		c.done <- struct{}{}
	}
	return false
}

// helper is one slot w >= 1 of a crew. Its mailbox holds the next task,
// nil while it waits for one, or &parked once the goroutine has committed
// to block on wake: one atomic word, so that post learns in the same step
// that stores a task whether the helper needs waking.
type helper[S any] struct {
	mail   atomic.Pointer[task[S]]
	parked task[S]
	wake   chan struct{}
}

// post hands t to the helper, waking it if it has parked. The owner posts
// a helper's next task only after the helper took its last one.
func (h *helper[S]) post(t *task[S]) {
	if h.mail.Swap(t) == &h.parked {
		h.wake <- struct{}{}
	}
}

// next waits for the helper's next task: it polls first when it holds a
// spin slot, or can take one, and parks after that.
func (h *helper[S]) next(holdsSlot bool) *task[S] {
	if holdsSlot || acquireSpin() {
		poll(func() bool { return h.mail.Load() != nil })
		releaseSpin()
	}
	if h.mail.CompareAndSwap(nil, &h.parked) {
		<-h.wake
	}
	return h.mail.Swap(nil)
}

// serve is helper w's goroutine: it runs its share of each task on its
// slot's state until it gets a stop task.
func (c *Crew[S]) serve(w int, h *helper[S]) {
	defer c.wg.Done()
	var s S
	opened := false
	defer func() {
		if opened && c.shut != nil {
			c.shut(s)
		}
	}()
	holdsSlot := false
	for {
		t := h.next(holdsSlot)
		if t.worker == nil {
			return
		}
		if !opened && c.open != nil {
			s = c.open()
			opened = true
		}
		t.worker(w, s, t.claim)
		holdsSlot = c.finish(t)
	}
}

// spinWindow bounds one poll. It covers the gap between back-to-back jobs
// of a one-shot engine, and the imbalance between the workers of one job,
// in all but their tail (DESIGN.md, "One fan-out").
const spinWindow = 100 * time.Microsecond

// spinners counts the waiters polling, across the process: CPUs are a
// process-wide resource, so the bound on them is one too.
var spinners atomic.Int32

// acquireSpin takes one of the GOMAXPROCS-1 spin slots, if one is free.
func acquireSpin() bool {
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		n := spinners.Load()
		if n >= limit {
			return false
		}
		if spinners.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func releaseSpin() { spinners.Add(-1) }

// poll calls ready until it reports true or spinWindow has passed. It
// yields the CPU between rounds, so a goroutine made runnable on this P (an
// owner the helper just woke) runs at once instead of waiting out the
// poll.
func poll(ready func() bool) {
	start := time.Now()
	for !ready() {
		if time.Since(start) > spinWindow {
			return
		}
		runtime.Gosched()
	}
}
