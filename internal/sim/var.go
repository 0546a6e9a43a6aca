package sim

import (
	"fmt"

	"goconcbugs/internal/event"
)

// Instrumented shared variables. Every Load/Store emits a MemRead/MemWrite
// event carrying the accessing goroutine's vector clock, which is all a
// happens-before race detector needs. The value semantics are those of the
// chosen interleaving (the scheduler serializes everything), so order
// violations also manifest as wrong values that kernels can Check.

// VarMeta identifies an instrumented variable in access reports.
type VarMeta = event.VarMeta

// Var is an instrumented, unsynchronized shared variable of type V —
// the moral equivalent of a plain Go variable shared across goroutines.
type Var[V any] struct {
	meta   *VarMeta
	rt     *runtime
	autoID int
	val    V
}

// NewVar creates an instrumented variable with the given report name,
// recycling a pooled one when available.
func NewVar[V any](t *T, name string) *Var[V] {
	rt := t.rt
	rt.nextVarID++
	id := rt.nextVarID
	v, recycled := arenaGet[Var[V]](rt)
	if recycled {
		var zero V
		v.val = zero
	} else {
		v.meta = &VarMeta{}
	}
	if name == "" {
		if !recycled || v.autoID != id {
			v.meta.Name = fmt.Sprintf("var#%d", id)
		}
		v.autoID = id
	} else {
		v.meta.Name = name
		v.autoID = 0
	}
	v.meta.ID = id
	v.meta.CreatedBy = t.g.id
	v.rt = rt
	return v
}

// NewVarInit creates an instrumented variable with an initial value.
func NewVarInit[V any](t *T, name string, init V) *Var[V] {
	v := NewVar[V](t, name)
	v.val = init
	return v
}

// Load reads the variable (a preemption point, like any real memory access
// between synchronization operations).
func (v *Var[V]) Load(t *T) V {
	t.yield()
	t.touch(ObjVar, v.meta.ID, false)
	t.fault(SiteVar, v.meta.Name)
	if t.rt.wants(event.MemRead) {
		t.rt.emit(t.g, event.Event{Kind: event.MemRead, Obj: v.meta.Name, ObjID: v.meta.ID, Var: v.meta})
	}
	return v.val
}

// Store writes the variable.
func (v *Var[V]) Store(t *T, x V) {
	t.yield()
	t.touch(ObjVar, v.meta.ID, true)
	t.fault(SiteVar, v.meta.Name)
	if t.rt.wants(event.MemWrite) {
		t.rt.emit(t.g, event.Event{Kind: event.MemWrite, Obj: v.meta.Name, ObjID: v.meta.ID, Var: v.meta})
	}
	v.val = x
}

// Name returns the variable's report name.
func (v *Var[V]) Name() string { return v.meta.Name }

// Peek returns the variable's current value without a scheduling point or an
// access report. It exists for post-run inspection: harnesses (the
// conformance oracle) read terminal program state through it after sim.Run
// has returned. It must not be called from inside a running program — use
// Load there, so the access participates in scheduling and race detection.
func (v *Var[V]) Peek() V { return v.val }

// IntVar is a convenience wrapper for the common int case with
// read-modify-write helpers (each a classic atomicity-violation site).
type IntVar struct{ *Var[int] }

// NewIntVar creates an instrumented int variable.
func NewIntVar(t *T, name string) IntVar { return IntVar{NewVar[int](t, name)} }

// Incr performs the non-atomic v = v + delta read-modify-write.
func (v IntVar) Incr(t *T, delta int) int {
	x := v.Load(t) + delta
	v.Store(t, x)
	return x
}
