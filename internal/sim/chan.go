package sim

import (
	"fmt"

	"goconcbugs/internal/event"
	"goconcbugs/internal/hb"
)

// Channel semantics implemented here follow Section 2.3 of the paper:
//
//   - send/receive on an unbuffered channel blocks until the rendezvous;
//   - send on a buffered channel blocks only when the buffer is full;
//   - send or receive on a nil channel blocks the goroutine forever;
//   - send on a closed channel and closing a closed (or nil) channel panic;
//   - receive on a closed channel drains the buffer then yields zero, false.

const (
	dirSend = iota
	dirRecv
)

// waiter represents a goroutine parked on a channel operation, either a
// direct send/receive or one case of a blocked select.
type waiter struct {
	g       *G
	dir     int
	val     any   // value being sent (dir == dirSend)
	vcSnap  hb.VC // sender's clock at enqueue time
	sel     *selectOp
	caseIdx int
	// Filled by the party completing the operation:
	recvVal  any
	recvOK   bool
	panicMsg string
}

// newWaiter returns the run's next waiter slot, reset for g parking in
// direction dir. Slots are reused only from the next reset on (see the
// runtime's entries field): a claimed select case stays queued until some
// operation dequeues it.
func (rt *runtime) newWaiter(g *G, dir int) *waiter {
	w := nextSlot(&rt.waiters, &rt.waiterNext)
	*w = waiter{g: g, dir: dir}
	return w
}

// claimed reports whether this waiter can no longer be matched because its
// select already completed through another case.
func (w *waiter) claimed() bool { return w.sel != nil && w.sel.done }

// claim marks the waiter's select as completed via this case.
func (w *waiter) claim() {
	if w.sel != nil {
		w.sel.done = true
		w.sel.w = w
	}
}

type bufItem struct {
	val any
	vc  hb.VC
}

// chanCore is the untyped channel implementation shared by Chan[V] and the
// context/timer/pipe libraries built on top of it.
type chanCore struct {
	rt     *runtime
	id     int
	autoID int
	name   string
	cap    int
	buf    []bufItem
	closed bool
	// closeVC is the closing goroutine's clock; receivers observing the
	// close acquire it.
	closeVC hb.VC
	sendq   []*waiter
	recvq   []*waiter
}

func (rt *runtime) newChanCore(name string, capacity int) *chanCore {
	rt.nextChanID++
	id := rt.nextChanID
	c, recycled := arenaGet[chanCore](rt)
	if recycled {
		for i := range c.buf {
			c.buf[i].vc.Free() // leftover buffered snapshots are solely ours
			c.buf[i] = bufItem{}
		}
		c.buf = c.buf[:0]
		c.closed = false
		c.closeVC.Free()
		c.sendq = c.sendq[:0]
		c.recvq = c.recvq[:0]
	}
	if name == "" {
		if !recycled || c.autoID != id {
			c.name = fmt.Sprintf("chan#%d", id)
		}
		c.autoID = id
	} else {
		c.name = name
		c.autoID = 0
	}
	c.rt, c.id, c.cap = rt, id, capacity
	return c
}

// dequeue pops the first live waiter from q, skipping claimed select cases.
// Pops copy down rather than re-slice from the front, so the queue's backing
// keeps its capacity for the next enqueue (and for pooled reuse).
func dequeue(q *[]*waiter) *waiter {
	for len(*q) > 0 {
		w := (*q)[0]
		n := copy(*q, (*q)[1:])
		(*q)[n] = nil
		*q = (*q)[:n]
		if w.claimed() {
			continue
		}
		return w
	}
	return nil
}

// liveWaiter reports whether q holds at least one unclaimed waiter.
func liveWaiter(q []*waiter) bool {
	for _, w := range q {
		if !w.claimed() {
			return true
		}
	}
	return false
}

// sendReady reports whether a send would complete (or panic) immediately.
func (c *chanCore) sendReady() bool {
	if c == nil {
		return false
	}
	return c.closed || len(c.buf) < c.cap || liveWaiter(c.recvq)
}

// recvReady reports whether a receive would complete immediately.
func (c *chanCore) recvReady() bool {
	if c == nil {
		return false
	}
	return c.closed || len(c.buf) > 0 || liveWaiter(c.sendq)
}

// completeSend performs a send that is known to be ready. t is the sender.
func (c *chanCore) completeSend(t *T, v any) {
	if c.closed {
		t.Panicf("send on closed channel %s", c.name)
	}
	if w := dequeue(&c.recvq); w != nil {
		// Direct handoff to a parked receiver (or select case).
		w.claim()
		w.recvVal, w.recvOK = v, true
		w.g.vc.Join(t.g.vc)
		if c.cap == 0 {
			// An unbuffered rendezvous synchronizes both ways.
			t.g.vc.Join(w.g.vc)
			w.g.tick()
		}
		t.g.tick()
		c.rt.unblock(w.g)
		if c.rt.wants(event.ChanSendDone) {
			// Aux carries the receiver's goroutine id; sinks that need the
			// "handoff to gN" rendering derive it from Aux.
			c.rt.emit(t.g, event.Event{Kind: event.ChanSendDone, Obj: c.name, ObjID: c.id, Aux: w.g.id})
		}
		return
	}
	// Buffer space is available.
	c.buf = append(c.buf, bufItem{val: v, vc: t.g.vc.Clone()})
	t.g.tick()
	if c.rt.wants(event.ChanSendDone) {
		c.rt.emit(t.g, event.Event{Kind: event.ChanSendDone, Obj: c.name, ObjID: c.id, Detail: "buffered"})
	}
}

// completeRecv performs a receive that is known to be ready.
func (c *chanCore) completeRecv(t *T) (any, bool) {
	if len(c.buf) > 0 {
		item := c.buf[0]
		n := copy(c.buf, c.buf[1:])
		c.buf[n] = bufItem{}
		c.buf = c.buf[:n]
		t.g.vc.Join(item.vc)
		item.vc.Free() // the dequeued snapshot has no other owner
		// A sender may be parked waiting for buffer space; admit it.
		if w := dequeue(&c.sendq); w != nil {
			w.claim()
			// The snapshot moves to the buffered item, which frees it.
			c.buf = append(c.buf, bufItem{val: w.val, vc: w.vcSnap})
			w.vcSnap = hb.VC{}
			c.rt.unblock(w.g)
		}
		if c.rt.wants(event.ChanRecvDone) {
			c.rt.emit(t.g, event.Event{Kind: event.ChanRecvDone, Obj: c.name, ObjID: c.id, Detail: "buffered"})
		}
		return item.val, true
	}
	if w := dequeue(&c.sendq); w != nil {
		// Unbuffered rendezvous with a parked sender.
		w.claim()
		t.g.vc.Join(w.vcSnap)
		w.vcSnap.Free() // rendezvous consumed the parked sender's snapshot
		w.g.vc.Join(t.g.vc)
		t.g.tick()
		w.g.tick()
		c.rt.unblock(w.g)
		if c.rt.wants(event.ChanRecvDone) {
			// Aux carries the matched sender's goroutine id ("rendezvous
			// with gN" in trace renderings).
			c.rt.emit(t.g, event.Event{Kind: event.ChanRecvDone, Obj: c.name, ObjID: c.id, Aux: w.g.id})
		}
		return w.val, true
	}
	// Closed and drained.
	t.g.vc.Join(c.closeVC)
	if c.rt.wants(event.ChanRecvDone) {
		c.rt.emit(t.g, event.Event{Kind: event.ChanRecvDone, Obj: c.name, ObjID: c.id, Detail: "closed"})
	}
	return nil, false
}

// send implements the blocking send.
func (c *chanCore) send(t *T, v any) {
	t.yield()
	if c == nil {
		t.touch(ObjChan, 0, true)
		t.emitObj(event.ChanNil, "nil channel (send)")
		t.blockForever(BlockChanSend, "nil channel")
	}
	t.touch(ObjChan, c.id, true)
	if t.fault(SiteChanSend, c.name) == FaultClose {
		// Injected close-on-error-path: the channel is closed out from
		// under the send, which is about to panic.
		c.closeFromRuntime(t.g.vc)
	}
	if c.closed {
		t.emitObj(event.ChanSendClosed, c.name)
	} else if t.rt.wants(event.ChanSend) {
		t.rt.emit(t.g, event.Event{Kind: event.ChanSend, Obj: c.name, ObjID: c.id})
	}
	if c.sendReady() {
		c.completeSend(t, v)
		return
	}
	w := t.rt.newWaiter(t.g, dirSend)
	w.val, w.vcSnap = v, t.g.vc.Clone()
	c.sendq = append(c.sendq, w)
	t.block(BlockChanSend, c.name)
	if w.panicMsg != "" {
		t.Panicf("%s", w.panicMsg)
	}
	// A receiver matched us; it already did the clock transfer.
	t.g.tick()
}

// recv implements the blocking receive.
func (c *chanCore) recv(t *T) (any, bool) {
	t.yield()
	if c == nil {
		t.touch(ObjChan, 0, true)
		t.emitObj(event.ChanNil, "nil channel (recv)")
		t.blockForever(BlockChanRecv, "nil channel")
	}
	t.touch(ObjChan, c.id, true)
	if t.fault(SiteChanRecv, c.name) == FaultClose {
		// Injected close: the receive observes it (drains the buffer,
		// then yields zero, false).
		c.closeFromRuntime(t.g.vc)
	}
	if t.rt.wants(event.ChanRecv) {
		t.rt.emit(t.g, event.Event{Kind: event.ChanRecv, Obj: c.name, ObjID: c.id})
	}
	if c.recvReady() {
		return c.completeRecv(t)
	}
	w := t.rt.newWaiter(t.g, dirRecv)
	c.recvq = append(c.recvq, w)
	t.block(BlockChanRecv, c.name)
	return w.recvVal, w.recvOK
}

// close implements the close builtin.
func (c *chanCore) close(t *T) {
	t.yield()
	if c == nil {
		t.touch(ObjChan, 0, true)
		t.emitObj(event.ChanNil, "nil channel (close)")
		t.Panicf("close of nil channel")
	}
	t.touch(ObjChan, c.id, true)
	t.fault(SiteChanClose, c.name)
	if c.closed {
		t.emitObj(event.ChanCloseClosed, c.name)
		t.Panicf("close of closed channel %s", c.name)
	}
	// One merged event: the legacy monitor saw the closing goroutine's
	// pre-tick clock, and the trace line carries no clock, so emitting here
	// (before the close takes effect) serves both.
	if t.rt.wants(event.ChanClose) {
		t.rt.emit(t.g, event.Event{Kind: event.ChanClose, Obj: c.name, ObjID: c.id})
	}
	c.closed = true
	c.closeVC = t.g.vc.Clone()
	t.g.tick()
	// Every parked receiver observes the close.
	for {
		w := dequeue(&c.recvq)
		if w == nil {
			break
		}
		w.claim()
		w.recvVal, w.recvOK = nil, false
		w.g.vc.Join(c.closeVC)
		c.rt.unblock(w.g)
	}
	// Parked senders panic, as in real Go.
	for {
		w := dequeue(&c.sendq)
		if w == nil {
			break
		}
		w.claim()
		w.panicMsg = fmt.Sprintf("send on closed channel %s", c.name)
		c.rt.unblock(w.g)
	}
}

// trySendFromRuntime delivers a value from scheduler context (timer fires)
// without blocking: parked receiver first, then buffer space, else dropped.
// It returns whether the value was delivered.
func (c *chanCore) trySendFromRuntime(vc hb.VC, v any) bool {
	c.rt.touchOp(ObjChan, c.id, true)
	if c.closed {
		return false
	}
	if w := dequeue(&c.recvq); w != nil {
		w.claim()
		w.recvVal, w.recvOK = v, true
		w.g.vc.Join(vc)
		c.rt.unblock(w.g)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, bufItem{val: v, vc: vc.Clone()})
		return true
	}
	return false
}

// closeFromRuntime closes the channel from scheduler context (context
// cancellation driven by a timer). Closing an already-closed channel is a
// no-op here because the runtime uses it idempotently.
func (c *chanCore) closeFromRuntime(vc hb.VC) {
	c.rt.touchOp(ObjChan, c.id, true)
	if c.closed {
		return
	}
	c.closed = true
	c.closeVC = vc.Clone()
	for {
		w := dequeue(&c.recvq)
		if w == nil {
			break
		}
		w.claim()
		w.recvVal, w.recvOK = nil, false
		w.g.vc.Join(c.closeVC)
		c.rt.unblock(w.g)
	}
	for {
		w := dequeue(&c.sendq)
		if w == nil {
			break
		}
		w.claim()
		w.panicMsg = fmt.Sprintf("send on closed channel %s", c.name)
		c.rt.unblock(w.g)
	}
}

// Chan is a typed simulated channel. The zero value behaves like a nil
// channel: sends and receives block forever, close panics.
type Chan[V any] struct {
	core *chanCore
}

// NewChan makes a channel with the given capacity (0 = unbuffered),
// mirroring make(chan V, capacity).
func NewChan[V any](t *T, capacity int) Chan[V] {
	return Chan[V]{core: t.rt.newChanCore("", capacity)}
}

// NewChanNamed makes a named channel for more readable reports.
func NewChanNamed[V any](t *T, name string, capacity int) Chan[V] {
	return Chan[V]{core: t.rt.newChanCore(name, capacity)}
}

// NilChan returns the nil channel of type V.
func NilChan[V any]() Chan[V] { return Chan[V]{} }

// IsNil reports whether the channel is nil.
func (c Chan[V]) IsNil() bool { return c.core == nil }

// Send sends v, blocking per Go channel semantics.
func (c Chan[V]) Send(t *T, v V) { c.core.send(t, v) }

// Recv receives a value; ok is false when the channel is closed and
// drained.
func (c Chan[V]) Recv(t *T) (V, bool) {
	v, ok := c.core.recv(t)
	if !ok || v == nil {
		var zero V
		return zero, ok
	}
	return v.(V), ok
}

// Close closes the channel, panicking on double close or nil channel.
func (c Chan[V]) Close(t *T) { c.core.close(t) }

// Len returns the number of buffered values.
func (c Chan[V]) Len() int {
	if c.core == nil {
		return 0
	}
	return len(c.core.buf)
}

// Cap returns the channel capacity.
func (c Chan[V]) Cap() int {
	if c.core == nil {
		return 0
	}
	return c.core.cap
}

// Name returns the channel's report name.
func (c Chan[V]) Name() string {
	if c.core == nil {
		return "nil"
	}
	return c.core.name
}
