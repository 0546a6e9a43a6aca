// Package vet implements the dynamic rule-enforcement monitor the paper's
// Section 7 proposes: "Our study also found the violation of rules Go
// enforces with its concurrency primitives is one major reason for
// concurrency bugs. A novel dynamic technique can try to enforce such rules
// and detect violation at runtime."
//
// The monitor attaches to a simulated run as an event sink (sim.Config.Sinks)
// subscribed to exactly the rule-relevant kinds, and checks, at every
// synchronization event:
//
//   - RuleDoubleClose — a channel may only be closed once (Figure 10 /
//     Docker#24007). Flagged at the violating close, before the panic.
//   - RuleSendOnClosed — sends to closed channels panic.
//   - RuleNilChannel — operations on nil channels block forever.
//   - RuleNegativeWaitGroup — the counter must never go negative.
//   - RuleAddAfterWait — "Add has to be invoked before Wait"
//     (Section 6.1.1, Figure 9 / the etcd order violation): an Add that is
//     not happens-before-ordered after some Wait's completion, executed
//     once that Wait has begun, is flagged.
//   - RuleChanInCritical — a potentially blocking channel operation (or a
//     default-less select) executed while holding a lock, the Figure 7 /
//     BoltDB#240 "Chan w/" pattern. Reported as a warning: it is a
//     heuristic for bug-prone structure, not a certain bug.
//
// The value of this monitor is exactly the gap the paper documents: the
// race detector cannot see the Figure 9 and Figure 10 bugs (they are not
// data races) and the built-in deadlock detector cannot see Figure 7 when
// the rest of the process stays busy; the rule checker catches all three
// classes at their first occurrence.
package vet

import (
	"fmt"

	"goconcbugs/internal/event"
	"goconcbugs/internal/hb"
	"goconcbugs/internal/sim"
)

// Rule identifies a checked usage rule.
type Rule string

// The checked rules.
const (
	RuleDoubleClose       Rule = "double-close"
	RuleSendOnClosed      Rule = "send-on-closed"
	RuleNilChannel        Rule = "nil-channel"
	RuleNegativeWaitGroup Rule = "negative-waitgroup"
	RuleAddAfterWait      Rule = "add-after-wait"
	RuleChanInCritical    Rule = "chan-in-critical-section"
)

// Violation is one detected rule violation.
type Violation struct {
	Rule    Rule
	G       int
	GName   string
	Obj     string
	Step    int64
	Warning bool // heuristic finding rather than a certain bug
	Msg     string
}

// String renders the violation like a diagnostic line.
func (v Violation) String() string {
	kind := "violation"
	if v.Warning {
		kind = "warning"
	}
	return fmt.Sprintf("vet %s [%s] g%d(%s) on %s at step %d: %s",
		kind, v.Rule, v.G, v.GName, v.Obj, v.Step, v.Msg)
}

// waitRecord tracks one WaitGroup.Wait for the Add-before-Wait rule.
type waitRecord struct {
	ended bool
	endVC hb.VC
	next  *waitRecord // the next record in the monitor's list
}

// Monitor is the rule checker. It holds one run's state (no locking
// needed: the simulated runtime is sequential): create one per run, or
// Reset it between the runs of one host goroutine.
type Monitor struct {
	violations []Violation
	// waits and openWait map a WaitGroup name to the waits seen and to
	// those currently blocked. Reset truncates their slices rather than
	// clearing the maps: nothing ranges over them but Reset, and an empty
	// slice reads like an absent key.
	waits    map[string][]*waitRecord
	openWait map[string][]*waitRecord
	reported map[string]bool
	// waitList links every wait record this monitor has made, and free is
	// the part of it the current run has not yet reused. Reset rewinds
	// free, so each run reuses the records of earlier runs, with their
	// clock backings.
	waitList, free *waitRecord
}

// New creates a monitor.
func New() *Monitor {
	return &Monitor{
		waits:    map[string][]*waitRecord{},
		openWait: map[string][]*waitRecord{},
		reported: map[string]bool{},
	}
}

// Reset forgets everything the previous run recorded, so the monitor
// judges its next run exactly as a New one would. Violations returned
// before the reset are overwritten by later ones.
func (m *Monitor) Reset() {
	for k, v := range m.waits {
		m.waits[k] = v[:0]
	}
	for k, v := range m.openWait {
		m.openWait[k] = v[:0]
	}
	clear(m.reported)
	m.violations = m.violations[:0]
	m.free = m.waitList
}

// newWait returns a cleared wait record, reusing one from an earlier run
// when there is one.
func (m *Monitor) newWait() *waitRecord {
	rec := m.free
	if rec == nil {
		rec = &waitRecord{next: m.waitList}
		m.waitList = rec
		return rec
	}
	m.free = rec.next
	rec.ended = false
	rec.endVC.Reset()
	return rec
}

var _ event.Sink = (*Monitor)(nil)

// kinds is the monitor's subscription, shared by every Monitor.
var kinds = []event.Kind{
	event.ChanSend, event.ChanRecv, event.ChanCloseClosed, event.ChanSendClosed,
	event.ChanNil, event.SelectBlocking,
	event.WGAdd, event.WGNegative, event.WGWaitStart, event.WGWaitEnd,
}

// Kinds implements event.Sink: only the rule-relevant kinds, so a vetted
// run pays nothing for memory accesses, lock traffic, or scheduling events.
// The slice is shared; callers must not modify it.
func (m *Monitor) Kinds() []event.Kind { return kinds }

// Violations returns everything found, in detection order.
func (m *Monitor) Violations() []Violation { return m.violations }

// Errors returns only the non-warning violations.
func (m *Monitor) Errors() []Violation {
	var out []Violation
	for _, v := range m.violations {
		if !v.Warning {
			out = append(out, v)
		}
	}
	return out
}

// Warnings returns only the heuristic findings.
func (m *Monitor) Warnings() []Violation {
	var out []Violation
	for _, v := range m.violations {
		if v.Warning {
			out = append(out, v)
		}
	}
	return out
}

// HasRule reports whether any finding matches the rule.
func (m *Monitor) HasRule(r Rule) bool {
	for _, v := range m.violations {
		if v.Rule == r {
			return true
		}
	}
	return false
}

func (m *Monitor) report(ev *event.Event, rule Rule, warning bool, format string, args ...any) {
	key := string(rule) + "/" + ev.Obj + "/" + fmt.Sprint(ev.G)
	if m.reported[key] {
		return
	}
	m.reported[key] = true
	m.violations = append(m.violations, Violation{
		Rule: rule, G: ev.G, GName: ev.GName, Obj: ev.Obj, Step: ev.Step,
		Warning: warning, Msg: fmt.Sprintf(format, args...),
	})
}

// Event implements event.Sink: the rule checks for one event. The live VC
// and HeldLocks slices are only read during the call; a Wait's clock is
// copied before it is retained.
func (m *Monitor) Event(ev *event.Event) {
	switch ev.Kind {
	case event.ChanCloseClosed:
		m.report(ev, RuleDoubleClose, false, "channel closed twice")
	case event.ChanSendClosed:
		m.report(ev, RuleSendOnClosed, false, "send on closed channel")
	case event.ChanNil:
		m.report(ev, RuleNilChannel, false, "operation on nil channel blocks forever")
	case event.WGNegative:
		m.report(ev, RuleNegativeWaitGroup, false, "counter dropped to %d", ev.Counter)
	case event.WGWaitStart:
		rec := m.newWait()
		m.waits[ev.Obj] = append(m.waits[ev.Obj], rec)
		m.openWait[ev.Obj] = append(m.openWait[ev.Obj], rec)
	case event.WGWaitEnd:
		open := m.openWait[ev.Obj]
		if len(open) > 0 {
			rec := open[len(open)-1]
			rec.ended = true
			// newWait emptied the clock but kept its backing, so
			// the join copies into that backing.
			rec.endVC.Join(ev.VC)
			m.openWait[ev.Obj] = open[:len(open)-1]
		}
	case event.WGAdd:
		if ev.Delta <= 0 {
			return
		}
		for _, rec := range m.waits[ev.Obj] {
			if !rec.ended {
				// A Wait is in flight and this Add is, by
				// construction, not ordered before it.
				m.report(ev, RuleAddAfterWait, false,
					"Add(%d) raced an in-flight Wait; 'Add has to be invoked before Wait'", ev.Delta)
				return
			}
			if !rec.endVC.Leq(ev.VC) {
				// The Wait completed but nothing orders its
				// completion before this Add: the Add could
				// equally have landed during the Wait.
				m.report(ev, RuleAddAfterWait, false,
					"Add(%d) unordered with an earlier Wait; 'Add has to be invoked before Wait'", ev.Delta)
				return
			}
		}
	case event.ChanSend, event.ChanRecv, event.SelectBlocking:
		if len(ev.HeldLocks) > 0 {
			m.report(ev, RuleChanInCritical, true,
				"potentially blocking channel operation while holding %v (the Figure 7 pattern)", ev.HeldLocks)
		}
	}
}

// Check runs prog under a fresh monitor and returns it along with the run
// result — the one-call entry point.
func Check(cfg sim.Config, prog sim.Program) (*Monitor, *sim.Result) {
	m := New()
	cfg.Sinks = append(cfg.Sinks[:len(cfg.Sinks):len(cfg.Sinks)], m)
	res := sim.Run(cfg, prog)
	return m, res
}
