package sim

import (
	"container/heap"
	"time"

	"goconcbugs/internal/hb"
)

// Virtual time is discrete-event: it advances only when every goroutine is
// blocked or asleep, jumping to the earliest pending timer. This mirrors the
// paper's observation surface — what matters to the studied bugs is the
// *ordering* of timeouts against channel operations, which the seeded
// scheduler controls, not wall-clock accuracy.

// timerAction is what a timer entry does when it fires. A typed action
// rather than a closure lets entries be recycled with no allocation.
type timerAction uint8

const (
	timerWake   timerAction = iota // wake the sleeping goroutine g
	timerFire                      // fire the Timer tm
	timerTick                      // tick the Ticker tk
	timerExpire                    // expire the WithTimeout context ctx
)

// timerEntry is one armed timer. Entries come from the runtime's list in
// the order a run arms them and are reused only from the next reset on, so
// a Timer keeps its entry, fired or stopped, for Stop and Reset. vc is the
// clock the fire publishes (a Timer's, a Ticker's or WithTimeout's), owned
// by this entry alone: a Ticker's re-arm moves it to the next entry, and
// releaseClocks frees what the run's entries still own.
type timerEntry struct {
	when    int64
	seq     int64
	index   int
	stopped bool
	action  timerAction
	g       *G
	tm      *Timer
	tk      *Ticker
	ctx     *Context
	vc      hb.VC
}

type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	e := x.(*timerEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// scheduleTimer arms a timer entry at virtual time now+d (immediately for
// d <= 0, as time.NewTimer(0) fires at once — the Figure 12 bug). The
// caller sets the entry's action and its target.
func (rt *runtime) scheduleTimer(d time.Duration) *timerEntry {
	rt.timerSeq++
	when := rt.now
	if d > 0 {
		when += int64(d)
	}
	e := nextSlot(&rt.entries, &rt.entryNext)
	*e = timerEntry{when: when, seq: rt.timerSeq}
	heap.Push(&rt.timers, e)
	return e
}

// fire runs the entry's action.
func (e *timerEntry) fire(rt *runtime) {
	switch e.action {
	case timerWake:
		rt.unblock(e.g)
	case timerFire:
		e.tm.fired = true
		e.tm.C.core.trySendFromRuntime(e.vc, rt.now)
	case timerTick:
		e.tk.tick(e)
	case timerExpire:
		if ctx := e.ctx; ctx.err == nil {
			ctx.err = ErrDeadlineExceeded
			ctx.done.core.closeFromRuntime(e.vc)
		}
	}
}

// fireDueTimers advances the virtual clock to the next pending timer and
// fires everything due at that instant. It returns whether any timer fired.
func (rt *runtime) fireDueTimers() bool {
	for rt.timers.Len() > 0 && rt.timers[0].stopped {
		heap.Pop(&rt.timers)
	}
	if rt.timers.Len() == 0 {
		return false
	}
	rt.now = rt.timers[0].when
	fired := false
	for rt.timers.Len() > 0 && rt.timers[0].when <= rt.now {
		e := heap.Pop(&rt.timers).(*timerEntry)
		if e.stopped {
			continue
		}
		rt.touchOp(ObjWorld, 0, true)
		e.fire(rt)
		fired = true
	}
	return fired
}

// Sleep suspends the goroutine for d of virtual time, modeling both
// time.Sleep and a computation taking that long.
func (t *T) Sleep(d time.Duration) {
	t.touch(ObjWorld, 0, true)
	t.fault(SiteTimer, "sleep")
	e := t.rt.scheduleTimer(d)
	e.action, e.g = timerWake, t.g
	t.blockOn(blockInfo{kind: BlockSleep, sleep: d})
}

// Work is an alias for Sleep that reads better when modeling CPU-bound work
// (e.g. the fn() call in Figure 1's finishReq).
func (t *T) Work(d time.Duration) { t.Sleep(d) }

// Timer models time.Timer: created armed, delivering the fire time on C
// (capacity 1). "At the creation time of a Timer object, Go runtime
// (implicitly) starts a library-internal goroutine which starts timer
// countdown" (Section 6.1.2); here the runtime's timer heap plays that role,
// and NewTimer(0)'s immediate fire reproduces Figure 12.
type Timer struct {
	rt    *runtime
	C     Chan[int64]
	entry *timerEntry
	fired bool
}

// NewTimer creates and arms a timer.
func NewTimer(t *T, d time.Duration) *Timer {
	vc := t.g.vc.Clone()
	tm, _ := arenaGet[Timer](t.rt)
	*tm = Timer{rt: t.rt, C: Chan[int64]{core: t.rt.newChanCore(t.rt.nameOf(nameTimerC, int64(d)), 1)}}
	t.touch(ObjWorld, 0, true)
	t.fault(SiteTimer, tm.C.core.name)
	t.g.tick()
	tm.arm(d, vc)
	return tm
}

// arm schedules the timer's next fire, which publishes vc.
func (tm *Timer) arm(d time.Duration, vc hb.VC) {
	tm.fired = false
	tm.entry = tm.rt.scheduleTimer(d)
	tm.entry.action, tm.entry.tm, tm.entry.vc = timerFire, tm, vc
}

// Stop disarms the timer and reports whether it was still pending.
func (tm *Timer) Stop(t *T) bool {
	t.yield()
	t.touch(ObjWorld, 0, true)
	t.fault(SiteTimer, tm.C.core.name)
	if tm.entry == nil || tm.entry.stopped || tm.fired {
		return false
	}
	tm.entry.stopped = true
	return true
}

// Reset re-arms the timer for d, capturing the caller's clock for the
// happens-before edge to the eventual receive.
func (tm *Timer) Reset(t *T, d time.Duration) {
	t.yield()
	t.touch(ObjWorld, 0, true)
	t.fault(SiteTimer, tm.C.core.name)
	if tm.entry != nil {
		tm.entry.stopped = true
	}
	vc := t.g.vc.Clone()
	t.g.tick()
	tm.arm(d, vc)
}

// After returns a channel that delivers once after d, like time.After.
func After(t *T, d time.Duration) Chan[int64] {
	return NewTimer(t, d).C
}

// Ticker models time.Ticker: C delivers every interval; ticks are dropped
// when C is full, as in real Go.
type Ticker struct {
	rt       *runtime
	C        Chan[int64]
	interval time.Duration
	entry    *timerEntry
	stopped  bool
	// Fires bounds the number of ticks so server loops quiesce; 0 means
	// DefaultTickerFires.
	fires int
}

// DefaultTickerFires bounds how many times a Ticker fires in one run, so
// programs built around ticker loops reach quiescence.
const DefaultTickerFires = 32

// NewTicker creates a ticker firing every d.
func NewTicker(t *T, d time.Duration) *Ticker {
	return NewTickerN(t, d, 0)
}

// NewTickerN creates a ticker that fires at most n times (0 = default).
func NewTickerN(t *T, d time.Duration, n int) *Ticker {
	if d <= 0 {
		t.Panicf("non-positive interval for NewTicker")
	}
	if n <= 0 {
		n = DefaultTickerFires
	}
	vc := t.g.vc.Clone()
	tk, _ := arenaGet[Ticker](t.rt)
	*tk = Ticker{
		rt:       t.rt,
		C:        Chan[int64]{core: t.rt.newChanCore(t.rt.nameOf(nameTickerC, int64(d)), 1)},
		interval: d,
		fires:    n,
	}
	t.touch(ObjWorld, 0, true)
	t.fault(SiteTimer, tk.C.core.name)
	t.g.tick()
	tk.arm(vc)
	return tk
}

// arm schedules the ticker's next tick, which publishes vc.
func (tk *Ticker) arm(vc hb.VC) {
	tk.entry = tk.rt.scheduleTimer(tk.interval)
	tk.entry.action, tk.entry.tk, tk.entry.vc = timerTick, tk, vc
}

// tick delivers one tick from the fired entry e and re-arms, moving e's
// clock to the next entry.
func (tk *Ticker) tick(e *timerEntry) {
	if tk.stopped || tk.fires <= 0 {
		return
	}
	tk.fires--
	tk.C.core.trySendFromRuntime(e.vc, tk.rt.now)
	if tk.fires > 0 {
		vc := e.vc
		e.vc = hb.VC{}
		tk.arm(vc)
	}
}

// Stop stops the ticker.
func (tk *Ticker) Stop(t *T) {
	t.yield()
	t.touch(ObjWorld, 0, true)
	t.fault(SiteTimer, tk.C.core.name)
	tk.stopped = true
	if tk.entry != nil {
		tk.entry.stopped = true
	}
}
