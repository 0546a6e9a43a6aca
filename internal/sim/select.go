package sim

import "goconcbugs/internal/event"

// Select semantics follow Section 2.3: a select blocks until one of its
// cases can make progress or a default branch exists; when more than one
// case is ready the runtime chooses uniformly at random — the source of the
// non-determinism bugs in Section 6.1.2 (Figure 11).

// selectOp is one blocked select; the case that completes it records its
// waiter in w.
type selectOp struct {
	done bool
	w    *waiter
}

// newSelect returns the run's next select slot, reset; slots are reused
// like waiters, from the next reset on.
func (rt *runtime) newSelect() *selectOp {
	sel := nextSlot(&rt.selects, &rt.selectNext)
	*sel = selectOp{}
	return sel
}

// recvCallback is a receive case's callback; recvFunc adapts a typed one.
// A func value is pointer-shaped, so storing it in the interface costs no
// allocation, where a wrapping closure would.
type recvCallback interface {
	call(v any, ok bool)
}

type recvFunc[V any] func(v V, ok bool)

func (f recvFunc[V]) call(v any, ok bool) {
	if !ok || v == nil {
		var zero V
		f(zero, ok)
		return
	}
	f(v.(V), ok)
}

// Case is one arm of a Select. Build cases with OnRecv, OnSend, and Default.
type Case struct {
	core      *chanCore
	dir       int
	val       any
	onRecv    recvCallback
	onSend    func()
	isDefault bool
	onDefault func()
	name      string
}

// OnRecv builds a receive case; fn (optional) runs with the received value
// when this case is chosen.
func OnRecv[V any](ch Chan[V], fn func(v V, ok bool)) Case {
	c := Case{core: ch.core, dir: dirRecv, name: ch.Name()}
	if fn != nil {
		c.onRecv = recvFunc[V](fn)
	}
	return c
}

// OnSend builds a send case; fn (optional) runs after the send when this
// case is chosen.
func OnSend[V any](ch Chan[V], v V, fn func()) Case {
	return Case{core: ch.core, dir: dirSend, val: v, onSend: fn, name: ch.Name()}
}

// Default builds a default case, making the select non-blocking.
func Default(fn func()) Case {
	return Case{isDefault: true, onDefault: fn}
}

// Select executes a select statement over the cases and returns the index
// of the case that ran.
func Select(t *T, cases ...Case) int {
	t.yield()
	// The whole select — readiness checks, completing the chosen case, or
	// registering on every case channel — is one transition touching every
	// case's channel (conservatively: the chosen case's effect is on one of
	// them, and a blocked select mutates all their wait queues).
	for _, c := range cases {
		if c.core != nil {
			t.touch(ObjChan, c.core.id, true)
		}
	}
	t.fault(SiteSelect, "select")
	// Gather ready cases (nil-channel cases are never ready).
	var readyBuf [8]int
	ready := readyBuf[:0]
	defaultIdx := -1
	for i, c := range cases {
		if c.isDefault {
			defaultIdx = i
			continue
		}
		if c.core == nil {
			continue
		}
		if c.dir == dirSend && c.core.sendReady() {
			ready = append(ready, i)
		}
		if c.dir == dirRecv && c.core.recvReady() {
			ready = append(ready, i)
		}
	}
	if len(ready) > 0 {
		// Uniform random choice among ready cases, as in real Go.
		pick := t.rt.choose(len(ready), -1)
		t.selectReady(t.rt.lastDecision, len(ready))
		idx := ready[pick]
		runCase(t, cases[idx])
		return idx
	}
	if defaultIdx >= 0 {
		if cases[defaultIdx].onDefault != nil {
			cases[defaultIdx].onDefault()
		}
		return defaultIdx
	}
	// Nothing ready and no default: park on every (non-nil) channel.
	t.emitObj(event.SelectBlocking, "select")
	sel := t.rt.newSelect()
	registered := false
	for i, c := range cases {
		if c.isDefault || c.core == nil {
			continue
		}
		w := t.rt.newWaiter(t.g, c.dir)
		w.sel, w.caseIdx = sel, i
		if c.dir == dirSend {
			w.val = c.val
			w.vcSnap = t.g.vc.Clone()
			c.core.sendq = append(c.core.sendq, w)
		} else {
			c.core.recvq = append(c.core.recvq, w)
		}
		registered = true
	}
	if !registered {
		// Every case is on a nil channel: block forever.
		t.blockForever(BlockSelect, "select on nil channels only")
	}
	t.block(BlockSelect, "select")
	w := sel.w
	idx := w.caseIdx
	if w.panicMsg != "" {
		t.Panicf("%s", w.panicMsg)
	}
	c := cases[idx]
	if c.dir == dirSend {
		// The receiver already took our value and joined clocks.
		t.g.tick()
		if c.onSend != nil {
			c.onSend()
		}
	} else {
		if c.onRecv != nil {
			c.onRecv.call(w.recvVal, w.recvOK)
		}
	}
	return idx
}

// runCase executes a case known to be ready.
func runCase(t *T, c Case) {
	if c.dir == dirSend {
		c.core.completeSend(t, c.val)
		if c.onSend != nil {
			c.onSend()
		}
		return
	}
	v, ok := c.core.completeRecv(t)
	if c.onRecv != nil {
		c.onRecv.call(v, ok)
	}
}
