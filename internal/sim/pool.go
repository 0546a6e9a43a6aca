package sim

// Run pooling: amortizing the per-run setup of the simulated runtime.
//
// Sweeps run the same program tens of thousands to millions of times with
// only the seed (or the schedule prefix) changing. A fresh Run pays for the
// whole world every time — the runtime struct, one G per simulated
// goroutine, every mutex/channel/variable the program constructs,
// vector-clock backings, and the Result — and takes its worker coroutines
// from the process-wide idle list. RunPool keeps all of that alive between
// runs and resets it instead:
//
//   - the runtime struct, its scratch buffers, event dispatch table
//     (rebuilt in place for each run's sinks), and seeded source are reused
//     (reset, not reallocated);
//   - goroutine slot i always maps to the same G and the same worker
//     coroutine (allocG), so spawning is a field reset and the first resume
//     re-enters a warm worker loop;
//   - primitives are recycled through a construction-order arena (arenaGet):
//     the i-th primitive constructed by a run gets the i-th arena slot, so
//     deterministic re-runs of one program hit the same object (same
//     backing queues, same auto-generated name) every time;
//   - timer entries, channel waiters and blocked selects come from
//     per-runtime lists (nextSlot): the i-th record a run makes takes slot
//     i. Reuse starts only at the next reset, never mid-run: a select's
//     losing cases stay queued, claimed, until some operation dequeues
//     them, and a Timer keeps its entry after it fires or stops, for Stop
//     and Reset;
//   - the Result and its slices are reused (finalize), valid until the next
//     Run on the pool — Clone to retain one; the Blocked and Leaked backings
//     stay on the runtime while a run's Result shows them as nil;
//   - timer-channel and context names are formatted once (nameOf).
//
// When a run ends, the clock backings that one record owns alone go back
// to hb's pool (releaseClocks).
//
// Everything above is guarded by the simulator's single-CPU-token
// discipline: exactly one party (the Run caller or one simulated goroutine)
// touches runtime state at any moment, so the pool needs no locks — and,
// for the same reason, a RunPool must NOT be shared between concurrent host
// goroutines. Give each sweep worker its own pool. (Only the idle list is
// shared, under its own lock, and a pool touches it only when it grows a
// slot and in Close.)
//
// Equivalence: a pooled run is observably identical to a fresh Run — same
// Result, same event stream, same Chooser/Injector consultation sequence —
// because every piece of state a run can observe is reset on reuse
// (sim_pool_differential_test.go pins this bit-for-bit).

import (
	"fmt"
	"time"
)

// RunPool executes runs back-to-back on one recycled runtime. The zero
// value is ready to use. Not safe for concurrent use.
type RunPool struct {
	rt *runtime
}

// NewRunPool returns an empty pool. The first Run populates it.
func NewRunPool() *RunPool { return &RunPool{} }

// Run executes main under cfg exactly like the package-level Run, reusing
// the pool's runtime. The returned Result (and everything it references) is
// valid only until the next call to Run on this pool; use Result.Clone to
// retain it.
func (p *RunPool) Run(cfg Config, main Program) *Result {
	rt := p.rt
	if rt == nil {
		rt = newRuntime(cfg)
		rt.pooled = true
	} else {
		rt.reset(cfg)
	}
	// A panic out of execute discards the runtime; the pool then starts
	// from scratch on its next Run.
	p.rt = nil
	rt.execute(main)
	p.rt = rt
	if rt.hostPanic != nil {
		// Propagate host bugs like Run does; the pool stays usable (the
		// next reset clears the wreckage).
		hp := rt.hostPanic
		rt.hostPanic = nil
		panic(hp)
	}
	return rt.finalize()
}

// Close returns the pool's worker coroutines to the idle list, which keeps
// a bounded number for later runtimes and stops the rest. The pool itself
// remains usable — the next Run simply starts from scratch — but Close must
// be called before dropping the pool: a worker is a parked goroutine, which
// the GC never collects, so an unclosed pool's workers live as long as the
// process.
func (p *RunPool) Close() {
	if p.rt != nil {
		p.rt.releaseWorkers()
		p.rt = nil
	}
}

// arenaGet returns the next primitive slot as a *T, recycling the previous
// run's object when the slot already holds that exact type (the common case:
// deterministic programs construct the same primitives in the same order
// every run). The second result reports recycling: the caller owns the full
// reset of a recycled object's fields. On a type mismatch — or on a fresh
// runtime — the slot is (re)filled with a zero value, so partial arena
// coverage and cross-program pool reuse are both safe.
func arenaGet[T any](rt *runtime) (*T, bool) {
	i := rt.arenaNext
	rt.arenaNext++
	if i < len(rt.arena) {
		if p, ok := rt.arena[i].(*T); ok {
			return p, true
		}
		p := new(T)
		rt.arena[i] = p
		return p, false
	}
	p := new(T)
	rt.arena = append(rt.arena, p)
	return p, false
}

// nextSlot returns the next of a run's recycled operation records (timer
// entries, waiters, selects), advancing *next; the caller resets it. An
// exhausted list grows by a block of as many fresh records as it holds
// (at least four), so a fresh runtime pays one allocation per block, not
// per record, and a pooled one stops allocating once the list covers its
// largest run.
func nextSlot[T any](list *[]*T, next *int) *T {
	if *next == len(*list) {
		block := make([]T, max(len(*list), 4))
		for i := range block {
			*list = append(*list, &block[i])
		}
	}
	p := (*list)[*next]
	*next++
	return p
}

// nameKind selects the format of a cached name (see runtime.nameOf).
type nameKind uint8

const (
	nameTimerC        nameKind = iota // timer.C(<d>)
	nameTickerC                       // ticker.C(<d>)
	nameContext                       // context#<id>
	nameContextDone                   // ctx#<id>.done
	nameContextCancel                 // context#<id>.cancel
	nameContextProp                   // context#<id>.propagate
)

type nameKey struct {
	kind nameKind
	n    int64
}

// nameOf returns the name of kind for n (a duration or a sync ID). The
// name is a pure function of the two, so a pooled runtime formats each
// once and serves later runs, of any program, from its cache; a fresh
// runtime formats every time, since it serves one run.
func (rt *runtime) nameOf(kind nameKind, n int64) string {
	key := nameKey{kind, n}
	if name, ok := rt.names[key]; ok {
		return name
	}
	var name string
	switch kind {
	case nameTimerC:
		name = fmt.Sprintf("timer.C(%v)", time.Duration(n))
	case nameTickerC:
		name = fmt.Sprintf("ticker.C(%v)", time.Duration(n))
	case nameContext:
		name = fmt.Sprintf("context#%d", n)
	case nameContextDone:
		name = fmt.Sprintf("ctx#%d.done", n)
	case nameContextCancel:
		name = fmt.Sprintf("context#%d.cancel", n)
	case nameContextProp:
		name = fmt.Sprintf("context#%d.propagate", n)
	}
	if rt.pooled {
		if rt.names == nil {
			rt.names = make(map[nameKey]string)
		}
		rt.names[key] = name
	}
	return name
}
