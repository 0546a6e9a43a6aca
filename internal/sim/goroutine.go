package sim

import (
	"fmt"
	"iter"
	"sync"
	"time"

	"goconcbugs/internal/event"
	"goconcbugs/internal/hb"
)

// GState is the lifecycle state of a simulated goroutine.
type GState int

const (
	GRunnable GState = iota
	GRunning
	GBlocked
	GDone
	GPanicked
	// GAbandoned marks goroutines that were still live when the run was
	// torn down after a simulated crash.
	GAbandoned
	// GKilled marks goroutines terminated by an injected FaultKill: they
	// died mid-protocol, with any held locks left held and any pending
	// hand-offs never delivered. A killed goroutine is finished (not
	// blocked, not leaked); the damage it causes shows up in the
	// goroutines that waited on it.
	GKilled
)

// String implements fmt.Stringer.
func (s GState) String() string {
	switch s {
	case GRunnable:
		return "runnable"
	case GRunning:
		return "running"
	case GBlocked:
		return "blocked"
	case GDone:
		return "done"
	case GPanicked:
		return "panicked"
	case GAbandoned:
		return "abandoned"
	case GKilled:
		return "killed"
	default:
		return fmt.Sprintf("GState(%d)", int(s))
	}
}

// BlockKind identifies what a blocked goroutine is waiting on. The built-in
// deadlock detector model understands every kind except BlockExternal.
type BlockKind int

const (
	BlockNone BlockKind = iota
	BlockChanSend
	BlockChanRecv
	BlockSelect
	BlockMutex
	BlockRWMutexR
	BlockRWMutexW
	BlockWaitGroup
	BlockCond
	BlockOnce
	BlockSleep
	BlockPipe
	// BlockExternal models waiting for a resource outside the Go runtime
	// (network, another process); such waits are invisible to the
	// built-in detector (Section 5.3's second failure reason).
	BlockExternal
)

// String implements fmt.Stringer.
func (k BlockKind) String() string {
	switch k {
	case BlockNone:
		return "none"
	case BlockChanSend:
		return "chan send"
	case BlockChanRecv:
		return "chan receive"
	case BlockSelect:
		return "select"
	case BlockMutex:
		return "sync.Mutex.Lock"
	case BlockRWMutexR:
		return "sync.RWMutex.RLock"
	case BlockRWMutexW:
		return "sync.RWMutex.Lock"
	case BlockWaitGroup:
		return "sync.WaitGroup.Wait"
	case BlockCond:
		return "sync.Cond.Wait"
	case BlockOnce:
		return "sync.Once.Do"
	case BlockSleep:
		return "sleep"
	case BlockPipe:
		return "pipe"
	case BlockExternal:
		return "external resource"
	default:
		return fmt.Sprintf("BlockKind(%d)", int(k))
	}
}

// blockInfo is what a blocked goroutine waits on. It is a typed reason,
// not a rendered one: a sleep keeps its duration and renders "sleep <d>"
// only where a GoBlock sink, a GoroutineInfo or a deadlock report reads it
// (object), so a sleep nobody reports costs no formatting.
type blockInfo struct {
	kind  BlockKind
	obj   string        // the object waited on; empty for a sleep
	sleep time.Duration // a BlockSleep's duration
}

// object renders the block object, as GoroutineInfo.BlockObj shows it.
func (b *blockInfo) object() string {
	if b.kind == BlockSleep {
		return "sleep " + b.sleep.String()
	}
	return b.obj
}

// G is one simulated goroutine, run by the worker coroutine w. With run
// pooling (RunPool), a G is a long-lived slot: the same G — and its worker —
// is re-assigned a fresh identity by spawn on every run, so the worker,
// clock backing, held-locks backing, and name caches all survive across
// runs.
type G struct {
	id           int
	name         string
	state        GState
	finalState   GState
	block        blockInfo
	blockedSince int64
	createdStep  int64
	createdTime  int64
	endTime      int64
	w            *worker
	vc           hb.VC
	rt           *runtime
	// blockKindOverride relabels blocking inside library code built on
	// channels (Pipe) so reports attribute the wait to the library call.
	blockKindOverride BlockKind
	// held lists the lock names this goroutine currently holds, for
	// monitors that check channel-under-lock patterns.
	held []string
	// fn is the program body the worker loop runs when the first CPU token
	// arrives; t is the goroutine's embedded operation handle (one fewer
	// allocation per spawn, and a stable *T across pooled runs).
	fn Program
	t  T
	// childNames caches the auto-generated names T.Go hands to children,
	// keyed by the child's slot index; entry i is valid while the parent's
	// own name still matches parent. Across pooled runs of the same program
	// the spawn tree repeats exactly, so the Sprintf happens once ever.
	childNames []childName
}

type childName struct {
	parent string
	name   string
}

// holdLock records acquisition of a named lock.
func (g *G) holdLock(name string) { g.held = append(g.held, name) }

// releaseLock removes one occurrence of a named lock.
func (g *G) releaseLock(name string) {
	for i := len(g.held) - 1; i >= 0; i-- {
		if g.held[i] == name {
			g.held = append(g.held[:i], g.held[i+1:]...)
			return
		}
	}
}

func (g *G) info() GoroutineInfo {
	blockedSince := int64(-1)
	if g.finalState == GBlocked {
		blockedSince = g.blockedSince
	}
	// HeldLocks aliases g.held, which nothing changes until the slot's next
	// spawn: the Result is then already invalid (a pooled one lasts until
	// the next run; Clone copies the lists).
	var held []string
	if n := len(g.held); n > 0 {
		held = g.held[:n:n]
	}
	return GoroutineInfo{
		ID:           g.id,
		Name:         g.name,
		State:        g.finalState,
		BlockKind:    g.block.kind,
		BlockObj:     g.block.object(),
		CreatedStep:  g.createdStep,
		CreatedTime:  g.createdTime,
		EndTime:      g.endTime,
		BlockedSince: blockedSince,
		HeldLocks:    held,
	}
}

type killSentinelType struct{}

var killSentinel = killSentinelType{}

// simPanic is the panic value used for simulated runtime panics so the
// goroutine wrapper can distinguish them from host bugs.
type simPanic struct{ msg string }

// spawn creates (or, under run pooling, re-initializes) a simulated
// goroutine. The new goroutine is runnable but does not run until the
// scheduler picks it.
func (rt *runtime) spawn(name string, fn Program) *G {
	g := rt.allocG()
	g.id = len(rt.gs)
	g.name = name
	g.fn = fn
	g.state = GRunnable
	g.finalState = GRunnable
	g.block = blockInfo{}
	g.blockedSince = 0
	g.createdStep = rt.step
	g.createdTime = rt.now
	g.endTime = -1
	g.blockKindOverride = BlockNone
	g.held = g.held[:0]
	g.vc.Reset()
	g.vc.Tick(g.id)
	return g
}

// allocG returns the G for the next slot in rt.gs. Slot i of a pooled
// runtime always yields the same *G (and the same worker) run after run:
// reset trims rt.gs to length 0 but keeps the backing, so the pointers
// beyond the length survive and are picked back up here. A slot never
// recycles within one run — a finished goroutine keeps its record until
// finalize — so slot identity is exactly goroutine identity.
func (rt *runtime) allocG() *G {
	n := len(rt.gs)
	if n < cap(rt.gs) {
		rt.gs = rt.gs[:n+1]
		if g := rt.gs[n]; g != nil {
			return g
		}
	} else {
		rt.gs = append(rt.gs, nil)
	}
	g := &G{rt: rt, w: getWorker()}
	g.w.g = g
	g.t = T{rt: rt, g: g}
	rt.gs[n] = g
	return g
}

// worker is the coroutine behind one G slot. The Run caller's loop resumes
// it with the CPU token; it runs the slot's assignment (one run's goroutine
// body, or a teardown kill for a goroutine that never got to run), yields
// back to the loop whenever the goroutine parks, and yields again between
// assignments. A worker no runtime owns waits on the idle list.
type worker struct {
	g      *G   // the slot served; nil while idle
	busy   bool // inside an assignment, not parked between two
	yield  func(struct{}) bool
	resume func() (struct{}, bool)
	stop   func()
}

func newWorker() *worker {
	w := new(worker)
	w.resume, w.stop = iter.Pull(w.serve)
	return w
}

// serve is the worker's coroutine body: one assignment per resume, until
// stop makes a yield report false.
func (w *worker) serve(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.busy = true
		w.g.runAssigned()
		w.busy = false
		if !yield(struct{}{}) {
			return
		}
	}
}

// maxIdleWorkers bounds the idle list. Parallel sweep workers build fresh
// runtimes and pools all the time; the list lets them reuse coroutines (a
// new one costs about a dozen allocations) without keeping an unbounded
// number of parked goroutines alive.
const maxIdleWorkers = 128

// idle holds the workers no runtime owns, each parked between assignments:
// releaseWorkers fills it and allocG draws from it. It is not a sync.Pool
// because a coroutine is a parked goroutine, a GC root: a worker the pool
// dropped would stay parked, and allocated, for the life of the process.
var idle struct {
	sync.Mutex
	workers []*worker
}

// getWorker takes a worker off the idle list, or starts a new one.
func getWorker() *worker {
	idle.Lock()
	if n := len(idle.workers); n > 0 {
		w := idle.workers[n-1]
		idle.workers[n-1] = nil
		idle.workers = idle.workers[:n-1]
		idle.Unlock()
		return w
	}
	idle.Unlock()
	return newWorker()
}

// putWorker returns a worker parked between assignments to the idle list,
// or stops it when the list is full.
func putWorker(w *worker) {
	w.g = nil
	idle.Lock()
	if len(idle.workers) < maxIdleWorkers {
		idle.workers = append(idle.workers, w)
		idle.Unlock()
		return
	}
	idle.Unlock()
	w.stop()
}

// runAssigned executes the goroutine body assigned by spawn, reproducing the
// exit protocol: hand the CPU token onward on normal or killed completion,
// stop on a kill sentinel, and crash the simulated process on a simulated
// panic. It recovers panics from the body only: a panic raised by the exit
// path itself (a sink's GoExit handler, the dispatch that follows) escapes
// the worker and reaches the Run caller, which discards the runtime.
func (g *G) runAssigned() {
	rt := g.rt
	if rt.killing {
		g.finalState = GAbandoned
		return
	}
	defer func() {
		r := recover()
		switch v := r.(type) {
		case nil:
			g.state = GDone
			g.finalState = GDone
			g.endTime = rt.now
			if rt.wants(event.GoExit) {
				rt.emit(g, event.Event{Kind: event.GoExit})
			}
			// Hand the CPU token onward; this worker then yields until
			// its next assignment.
			if next := rt.dispatch(); next != nil {
				rt.wake(next)
			} else {
				rt.endRun()
			}
		case killSentinelType:
			g.finalState = g.block.preTeardownState()
		case *injectedKill:
			// An injected FaultKill: the goroutine dies silently
			// mid-protocol. Its held locks stay held and whatever
			// it was about to supply never arrives — the run
			// continues and the waiters' fate (deadlock, leak) is
			// the observation.
			g.state = GKilled
			g.finalState = GKilled
			g.endTime = rt.now
			if rt.wants(event.GoExit) {
				rt.emit(g, event.Event{Kind: event.GoExit, Obj: v.obj, Detail: "injected kill"})
			}
			if next := rt.dispatch(); next != nil {
				rt.wake(next)
			} else {
				rt.endRun()
			}
		case *simPanic:
			rt.panics = append(rt.panics, PanicInfo{
				G: g.id, Name: g.name, Msg: v.msg, Step: rt.step,
			})
			g.state = GPanicked
			g.finalState = GPanicked
			g.endTime = rt.now
			if rt.wants(event.GoPanic) {
				rt.emit(g, event.Event{Kind: event.GoPanic, Detail: v.msg})
			}
			// A simulated panic crashes the whole simulated
			// process, as an unrecovered panic would.
			rt.endRun()
		default:
			// A genuine bug in the harness or kernel code (a
			// non-simulated panic): record it and stop; Run
			// re-panics on the caller's goroutine so the host
			// test framework sees it in the right place.
			g.state = GPanicked
			g.finalState = GPanicked
			rt.hostPanic = r
			rt.endRun()
		}
	}()
	g.fn(&g.t)
}

// preTeardownState maps a block record to the state to report for a
// goroutine killed during teardown: blocked ones stay blocked (that is the
// observation we tore down around), runnable ones are abandoned.
func (b blockInfo) preTeardownState() GState {
	if b.kind != BlockNone {
		return GBlocked
	}
	return GAbandoned
}

// T is the per-goroutine handle every simulated operation takes, analogous
// to the implicit current-goroutine context in real Go.
type T struct {
	rt *runtime
	g  *G
}

// ID returns the simulated goroutine's id (main is 1).
func (t *T) ID() int { return t.g.id }

// Name returns the simulated goroutine's name.
func (t *T) Name() string { return t.g.name }

// Now returns the current virtual time in nanoseconds.
func (t *T) Now() int64 { return t.rt.now }

// Go spawns an anonymous simulated goroutine, mirroring `go func() {...}()`.
func (t *T) Go(fn Program) {
	// The generated name is a pure function of (parent name, child slot);
	// cache it on the parent so pooled re-runs of the same program skip the
	// Sprintf.
	idx := len(t.rt.gs)
	g := t.g
	for idx >= len(g.childNames) {
		g.childNames = append(g.childNames, childName{})
	}
	cn := &g.childNames[idx]
	if cn.parent != g.name || cn.name == "" {
		cn.parent = g.name
		cn.name = fmt.Sprintf("%s.child%d", g.name, idx)
	}
	t.GoNamed(cn.name, fn)
}

// GoNamed spawns a named simulated goroutine. The child inherits the
// parent's vector clock (the fork edge), so anything the parent did before
// the spawn happens-before everything the child does.
func (t *T) GoNamed(name string, fn Program) {
	child := t.rt.spawn(name, fn)
	// The spawn belongs to the transition in flight (the yield below opens
	// the next one); the footprint entry roots the child's causal clock.
	t.touch(ObjSpawn, child.id, true)
	child.vc.Join(t.g.vc)
	child.vc.Tick(child.id)
	t.g.vc.Tick(t.g.id)
	if t.rt.wants(event.GoSpawn) {
		t.rt.emit(t.g, event.Event{Kind: event.GoSpawn, Obj: name, Aux: child.id})
	}
	t.yield()
}

// park yields the CPU token back to the Run caller's loop and returns once
// the loop resumes this goroutine. Every suspension funnels through here so
// teardown, and the stop of a discarded runtime's workers, can unwind the
// goroutine with the kill sentinel.
func (t *T) park() {
	if !t.g.w.yield(struct{}{}) || t.rt.killing {
		panic(killSentinel)
	}
}

// reschedule runs one scheduler step on this goroutine's coroutine and
// hands the CPU token to whoever was picked. It returns when this goroutine
// is picked again (immediately, without any switch, when the pick continues
// the current goroutine).
func (t *T) reschedule() {
	next := t.rt.dispatch()
	if next == t.g {
		return // continue running; no coroutine switch
	}
	if next != nil {
		t.rt.wake(next)
	} else {
		t.rt.endRun()
	}
	t.park()
}

// yield is a preemption point: the goroutine stays runnable but lets the
// scheduler (re)choose. Every primitive operation starts with a yield, which
// is what exposes buggy interleavings deterministically.
func (t *T) yield() {
	t.g.state = GRunnable
	t.reschedule()
	t.g.state = GRunning
}

// Yield voluntarily reschedules, like runtime.Gosched.
func (t *T) Yield() { t.yield() }

// block parks the goroutine in a blocked state; it returns once some other
// party has called unblock and a dispatch has picked it again.
func (t *T) block(kind BlockKind, obj string) {
	t.blockOn(blockInfo{kind: kind, obj: obj})
}

// blockOn is block for a typed reason; the object is rendered only for a
// GoBlock sink.
func (t *T) blockOn(b blockInfo) {
	if t.g.blockKindOverride != BlockNone {
		b.kind = t.g.blockKindOverride
	}
	t.g.state = GBlocked
	t.g.block = b
	t.g.blockedSince = t.rt.step
	if t.rt.wants(event.GoBlock) {
		t.rt.emit(t.g, event.Event{Kind: event.GoBlock, Obj: b.object(), Detail: b.kind.String()})
	}
	t.reschedule()
	t.g.state = GRunning
	t.g.block = blockInfo{}
}

// blockForever parks the goroutine with no waker (nil-channel operations,
// BlockExternal). It never returns except during teardown.
func (t *T) blockForever(kind BlockKind, obj string) {
	t.g.state = GBlocked
	t.g.block = blockInfo{kind: kind, obj: obj}
	t.g.blockedSince = t.rt.step
	t.emitObjDetail(event.GoBlockForever, obj, kind.String())
	t.reschedule()
	// Only teardown resumes us, and park panics with killSentinel then.
	panic(&simPanic{msg: "resumed a goroutine blocked forever on " + obj})
}

// unblock makes g runnable again; the caller has already transferred
// whatever state the wake carries.
func (rt *runtime) unblock(g *G) {
	g.state = GRunnable
}

// BlockExternal blocks forever on a resource outside the runtime's view,
// e.g. a network peer that never answers. The built-in deadlock detector
// cannot see such waits.
func (t *T) BlockExternal(what string) {
	t.yield()
	t.blockForever(BlockExternal, what)
}

// Check records an invariant violation when cond is false. It is the oracle
// kernels use to make non-blocking misbehavior (wrong values, skipped work)
// observable in the Result.
func (t *T) Check(cond bool, msg string) {
	if !cond {
		t.rt.checkFail(t.g, msg)
	}
}

// Checkf is Check with formatting.
func (t *T) Checkf(cond bool, format string, args ...any) {
	if !cond {
		t.rt.checkFail(t.g, fmt.Sprintf(format, args...))
	}
}

// Fail unconditionally records an invariant violation.
func (t *T) Fail(msg string) { t.rt.checkFail(t.g, msg) }

// Panicf raises a simulated panic, crashing the simulated program.
func (t *T) Panicf(format string, args ...any) {
	panic(&simPanic{msg: fmt.Sprintf(format, args...)})
}

// Rand returns a deterministic pseudo-random int in [0, n), drawn from the
// run's seeded source, for workload generation inside programs.
func (t *T) Rand(n int) int {
	t.rt.randDraws++
	return t.rt.random().IntN(n)
}

// tick bumps the goroutine's own clock component; called after every
// release-type synchronization operation per the FastTrack discipline.
func (g *G) tick() { g.vc.Tick(g.id) }

// VCSnapshot returns a copy of the goroutine's current vector clock (for
// tests and detectors).
func (t *T) VCSnapshot() hb.VC { return t.g.vc.Clone() }
