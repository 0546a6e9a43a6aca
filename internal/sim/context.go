package sim

import (
	"errors"
	"time"
)

// Context models the context package, which "Go introduces ... to carry
// request-specific data or metadata across goroutines" (Section 2.3).
// Misuse causes both blocking bugs (Figure 6: a re-assigned context object
// whose attached goroutine can no longer be reached) and non-blocking bugs
// (etcd#7816: a data race on a field shared through a context).
//
// As in real Go, WithCancel attaches a propagation goroutine when the parent
// is cancellable; that goroutine is exactly the one leaked in Figure 6 when
// nothing ever cancels the context.

// Context errors, mirroring the context package.
var (
	ErrCanceled         = errors.New("context canceled")
	ErrDeadlineExceeded = errors.New("context deadline exceeded")
)

// Context is a simulated context.Context.
type Context struct {
	rt     *runtime
	name   string
	done   Chan[struct{}]
	err    error
	parent *Context
	// Values carries request-scoped data; the paper notes context
	// objects "are designed to be accessed by multiple goroutines that
	// are attached to the context", which is how etcd#7816 raced.
	values map[string]any
}

// CancelFunc cancels a context.
type CancelFunc func(t *T)

// Background returns an empty root context that is never canceled.
func Background(t *T) *Context {
	return &Context{rt: t.rt, name: "context.Background"}
}

// Done returns the channel closed on cancellation (nil channel for roots,
// as in real Go).
func (c *Context) Done() Chan[struct{}] { return c.done }

// Err returns the cancellation cause, nil while the context is live.
func (c *Context) Err() error { return c.err }

// Value looks up a request-scoped value, walking up the parent chain.
func (c *Context) Value(key string) any {
	for ctx := c; ctx != nil; ctx = ctx.parent {
		if v, ok := ctx.values[key]; ok {
			return v
		}
	}
	return nil
}

// WithValue derives a context carrying key=value.
func WithValue(t *T, parent *Context, key string, value any) *Context {
	return &Context{
		rt: t.rt, name: parent.name + "+value", parent: parent,
		done: parent.done, values: map[string]any{key: value},
	}
}

// WithCancel derives a cancellable context. When the parent is itself
// cancellable, a propagation goroutine is spawned that waits for either the
// parent's or the child's cancellation — the goroutine that Figure 6's bug
// orphans.
func WithCancel(t *T, parent *Context) (*Context, CancelFunc) {
	t.rt.nextSyncID++
	id := int64(t.rt.nextSyncID)
	ctx := &Context{
		rt:     t.rt,
		name:   t.rt.nameOf(nameContext, id),
		done:   Chan[struct{}]{core: t.rt.newChanCore(t.rt.nameOf(nameContextDone, id), 0)},
		parent: parent,
	}
	cancelled := Chan[struct{}]{core: t.rt.newChanCore(t.rt.nameOf(nameContextCancel, id), 0)}
	cancel := func(ct *T) {
		ct.yield()
		ct.touch(ObjChan, ctx.done.core.id, true)
		ct.touch(ObjChan, cancelled.core.id, true)
		if ctx.err == nil {
			ctx.err = ErrCanceled
			ctx.done.core.closeFromRuntime(ct.g.vc)
			ct.g.tick()
		}
		cancelled.core.closeFromRuntime(ct.g.vc)
	}
	if !parent.done.IsNil() {
		t.GoNamed(t.rt.nameOf(nameContextProp, id), func(pt *T) {
			Select(pt,
				OnRecv(parent.done, func(struct{}, bool) {
					if ctx.err == nil {
						ctx.err = parent.err
						ctx.done.core.closeFromRuntime(pt.g.vc)
					}
				}),
				OnRecv(cancelled, nil),
				OnRecv(ctx.done, nil),
			)
		})
	}
	return ctx, cancel
}

// WithTimeout derives a context that is cancelled automatically after d.
func WithTimeout(t *T, parent *Context, d time.Duration) (*Context, CancelFunc) {
	ctx, cancel := WithCancel(t, parent)
	vc := t.g.vc.Clone()
	t.g.tick()
	entry := t.rt.scheduleTimer(d)
	entry.action, entry.ctx, entry.vc = timerExpire, ctx, vc
	return ctx, func(ct *T) {
		entry.stopped = true
		cancel(ct)
	}
}

// Name returns the context's report name.
func (c *Context) Name() string { return c.name }
