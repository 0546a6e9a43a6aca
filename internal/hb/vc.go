// Package hb provides the happens-before machinery shared by the simulated
// runtime and the data race detector: vector clocks and epochs.
//
// The representation follows the FastTrack/ThreadSanitizer model the paper's
// Section 6.3 describes: every goroutine carries a vector clock, every
// synchronization object carries the join of the clocks published into it,
// and individual memory accesses are summarized as epochs (goroutine id @
// scalar clock) so a detector can store them compactly in shadow words.
//
// # Representation
//
// A VC is backed by a dense []uint64 indexed by goroutine id. Simulated
// goroutine ids are small consecutive integers (main is 1), so the dense
// layout makes Get/Set/Tick a bounds-checked array access and Join a single
// linear pass with no hashing, no map iteration, and — when the receiver
// already spans the argument — no allocation at all. Backings are recycled
// through a sync.Pool: call Free on clocks whose lifetime provably ends
// (e.g. a buffered channel item after its receiver has joined it) to return
// the backing for reuse. A component that was never set reads as 0, which by
// construction means "never synchronized with": the zero value of VC is the
// empty clock and is ready to use.
package hb

import (
	"fmt"
	"strings"
	"sync"
)

// VC is a vector clock mapping goroutine id -> logical clock. The zero value
// is the empty clock and is ready to use. Reading methods (Get, Leq,
// HappensBefore, ...) take value receivers and never mutate; mutating
// methods (Set, Tick, Join) take pointer receivers because they may grow the
// backing.
type VC struct {
	c []uint64 // c[g] is goroutine g's component; ids start at 1
}

// minPooledCap is the smallest backing worth recycling; anything at least
// this large round-trips through the pool.
const minPooledCap = 8

// backingPool holds recycled backings; boxPool holds the empty *[]uint64
// boxes they travel in, so neither Free nor newBacking allocates a box in
// steady state (a slice passed to Put directly would be boxed into an
// interface — a fresh allocation per call). Neither pool has a New: a miss
// reads nil, so a backing-pool miss costs only the backing it then makes,
// and a box is made only when Free finds none to reuse.
var backingPool, boxPool sync.Pool

// newBacking returns a length-n slice with undefined contents, reusing a
// pooled backing when one is large enough. Callers must overwrite or zero
// all n components.
func newBacking(n int) []uint64 {
	if bp, _ := backingPool.Get().(*[]uint64); bp != nil {
		b := *bp
		*bp = nil
		boxPool.Put(bp)
		if cap(b) >= n {
			return b[:n]
		}
	}
	capacity := max(n, minPooledCap)
	return make([]uint64, n, capacity)
}

// New returns an empty vector clock.
func New() VC { return VC{} }

// Get returns the clock component for goroutine g (0 when absent).
func (vc VC) Get(g int) uint64 {
	if g < 0 || g >= len(vc.c) {
		return 0
	}
	return vc.c[g]
}

// grow extends the backing to cover component g, preserving existing
// components and zeroing the new ones.
func (vc *VC) grow(n int) {
	if n <= len(vc.c) {
		return
	}
	if n <= cap(vc.c) {
		old := len(vc.c)
		vc.c = vc.c[:n]
		clear(vc.c[old:])
		return
	}
	b := newBacking(max(n, 2*len(vc.c)))
	copy(b, vc.c)
	clear(b[len(vc.c):])
	vc.free()
	vc.c = b[:n]
}

// Set assigns the clock component for goroutine g.
func (vc *VC) Set(g int, v uint64) {
	if g < 0 {
		return
	}
	vc.grow(g + 1)
	vc.c[g] = v
}

// Tick increments goroutine g's own component and returns the new value.
func (vc *VC) Tick(g int) uint64 {
	if g < 0 {
		return 0
	}
	if g < len(vc.c) {
		vc.c[g]++
		return vc.c[g]
	}
	vc.grow(g + 1)
	vc.c[g] = 1
	return 1
}

// Join merges other into vc, taking the component-wise maximum. When vc
// already spans other (the dominated-clock fast path: every synchronization
// after the first between a pair of goroutines), Join performs no
// allocation.
func (vc *VC) Join(other VC) {
	o := other.c
	if len(o) > len(vc.c) {
		// Trim components that are zero in other; they cannot raise vc.
		for len(o) > len(vc.c) && o[len(o)-1] == 0 {
			o = o[:len(o)-1]
		}
		vc.grow(len(o))
	}
	c := vc.c
	if len(o) > len(c) {
		o = o[:len(c)] // unreachable after grow; keeps bounds checks out of the loop
	}
	for i, v := range o {
		if v > c[i] {
			c[i] = v
		}
	}
}

// Clone returns a deep copy of vc, drawing its backing from the pool.
func (vc VC) Clone() VC {
	n := len(vc.c)
	// Trim trailing zeros so pooled clones stay as small as the clock's
	// live span.
	for n > 0 && vc.c[n-1] == 0 {
		n--
	}
	if n == 0 {
		return VC{}
	}
	b := newBacking(n)
	copy(b, vc.c[:n])
	return VC{c: b}
}

// Reset empties the clock while keeping its backing for reuse. The result
// is semantically a fresh clock: grow zero-fills reclaimed components before
// they become visible, so a Reset clock and a New clock are indistinguishable.
// Use it for clocks embedded in pooled structures (sim's run pooling), where
// Free's backing hand-off would just churn the pool.
func (vc *VC) Reset() {
	vc.c = vc.c[:0]
}

// Free returns the clock's backing to the pool and resets vc to the empty
// clock. Only call it when vc is the sole owner of its backing (clones and
// freshly grown clocks are; aliases of a live clock are not). Using vc after
// Free is safe — it is simply empty again.
func (vc *VC) Free() {
	vc.free()
	vc.c = nil
}

func (vc *VC) free() {
	if cap(vc.c) < minPooledCap {
		return
	}
	bp, _ := boxPool.Get().(*[]uint64)
	if bp == nil {
		bp = new([]uint64)
	}
	*bp = vc.c[:0]
	backingPool.Put(bp)
}

// HappensBefore reports whether an event stamped with epoch e is ordered
// before the point in time described by vc: that is, whether vc has already
// observed e.
func (vc VC) HappensBefore(e Epoch) bool { return vc.Get(e.G) >= e.C }

// Leq reports whether vc <= other component-wise, i.e. every event vc knows
// about is also known to other.
func (vc VC) Leq(other VC) bool {
	n := min(len(vc.c), len(other.c))
	for i, v := range vc.c[:n] {
		if v > other.c[i] {
			return false
		}
	}
	for _, v := range vc.c[n:] {
		if v > 0 {
			return false
		}
	}
	return true
}

// Concurrent reports whether the two clocks are incomparable.
func Concurrent(a, b VC) bool { return !a.Leq(b) && !b.Leq(a) }

// Span returns the length of the clock's live prefix: one past the highest
// goroutine id with a nonzero component. Two clocks with equal Span and
// equal components over it are semantically equal — trailing zeros never
// matter — so Span is the canonical length for serializing a clock
// (package trace encodes exactly Span components).
func (vc VC) Span() int {
	n := len(vc.c)
	for n > 0 && vc.c[n-1] == 0 {
		n--
	}
	return n
}

// Len returns the number of nonzero components.
func (vc VC) Len() int {
	n := 0
	for _, v := range vc.c {
		if v > 0 {
			n++
		}
	}
	return n
}

// String renders the clock deterministically, e.g. "{1:3 2:7}".
func (vc VC) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for g, v := range vc.c {
		if v == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", g, v)
	}
	b.WriteByte('}')
	return b.String()
}

// Epoch summarizes a single event as goroutine G at scalar clock C. This is
// the compact per-access stamp a shadow word stores.
type Epoch struct {
	G int
	C uint64
}

// EpochOf returns the current epoch of goroutine g under clock vc.
func EpochOf(vc VC, g int) Epoch { return Epoch{G: g, C: vc.Get(g)} }

// String renders the epoch as "g@c".
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.G, e.C) }
