// Package deadlock provides the two blocking-bug detectors the paper
// evaluates and proposes.
//
// Builtin models Go's runtime deadlock detector (Section 5.3): "implemented
// in the goroutine scheduler ... it reports deadlock when no goroutines in a
// running process can make progress." Its two documented blind spots are
// reproduced by the simulated runtime: it stays silent while any goroutine
// is still runnable, and it does not understand waits on non-primitive
// resources (sim.BlockExternal).
//
// Leak is the detector the paper's Implication 4 calls for: it flags
// goroutines blocked beyond any possibility (or reasonable likelihood) of
// progress — the paper's broader blocking-bug definition, which "include[s]
// situations where there is no circular wait but one (or more) goroutines
// wait for resources that no other goroutines supply."
package deadlock

import (
	"strconv"

	"goconcbugs/internal/sim"
)

// Verdict is a detector's judgement of one run.
type Verdict struct {
	Detector string
	Detected bool
	Message  string
	// Goroutines lists the blocked goroutines implicated, when detected.
	Goroutines []sim.GoroutineInfo
}

// Builtin is the model of Go's built-in global deadlock detector.
type Builtin struct{}

// Detect inspects a finished run. The heavy lifting happened inside the
// scheduler (only it can observe "no goroutine can make progress"); the
// verdict surfaces that observation.
func (Builtin) Detect(res *sim.Result) Verdict {
	v := Verdict{Detector: "builtin"}
	if res.Outcome == sim.OutcomeBuiltinDeadlock {
		v.Detected = true
		v.Message = res.DeadlockReport
		v.Goroutines = res.Blocked
	}
	return v
}

// Leak is the goroutine-leak (partial deadlock) detector.
type Leak struct{}

// Detect flags any goroutine judged blocked forever. The message is
// rendered into a stack buffer, so a detected run costs one string.
func (Leak) Detect(res *sim.Result) Verdict {
	v := Verdict{Detector: "leak"}
	if len(res.Leaked) == 0 {
		return v
	}
	v.Detected = true
	v.Goroutines = res.Leaked
	var buf [512]byte
	v.Message = string(appendLeak(buf[:0], res.Leaked))
	return v
}

// appendLeak renders the leak message for leaked onto b.
func appendLeak(b []byte, leaked []sim.GoroutineInfo) []byte {
	b = append(b, "goroutine leak: "...)
	b = strconv.AppendInt(b, int64(len(leaked)), 10)
	b = append(b, " goroutine(s) blocked forever"...)
	for _, g := range leaked {
		b = append(b, "\n  g"...)
		b = strconv.AppendInt(b, int64(g.ID), 10)
		b = append(b, '(')
		b = append(b, g.Name...)
		b = append(b, ") blocked on "...)
		b = append(b, g.BlockKind.String()...)
		b = append(b, " ("...)
		b = append(b, g.BlockObj...)
		b = append(b, ") since step "...)
		b = strconv.AppendInt(b, g.BlockedSince, 10)
	}
	return b
}

// BlockClass matches Table 6/8's root-cause columns for blocking bugs.
type BlockClass string

// Blocking root-cause classes (Table 6).
const (
	ClassNone         BlockClass = "none"
	ClassMutex        BlockClass = "Mutex"
	ClassRWMutex      BlockClass = "RWMutex"
	ClassWait         BlockClass = "Wait"
	ClassChan         BlockClass = "Chan"
	ClassChanWith     BlockClass = "Chan w/"
	ClassMessagingLib BlockClass = "Messaging libraries"
)

// Classify maps the blocked goroutines of a manifested blocking bug onto the
// paper's root-cause taxonomy, from what each goroutine is stuck on:
// pure lock waits, Go's priority-inverted RWMutex, condition/WaitGroup
// waits, pure channel operations, channels mixed with other primitives
// ("Chan w/"), or message-passing library calls.
func Classify(blocked []sim.GoroutineInfo) BlockClass {
	if len(blocked) == 0 {
		return ClassNone
	}
	var hasChan, hasMutex, hasRW, hasWait, hasLib bool
	for _, g := range blocked {
		switch g.BlockKind {
		case sim.BlockChanSend, sim.BlockChanRecv, sim.BlockSelect:
			hasChan = true
		case sim.BlockMutex:
			hasMutex = true
		case sim.BlockRWMutexR, sim.BlockRWMutexW:
			hasRW = true
		case sim.BlockWaitGroup, sim.BlockCond:
			hasWait = true
		case sim.BlockPipe, sim.BlockExternal:
			hasLib = true
		}
	}
	switch {
	case hasChan && (hasMutex || hasRW || hasWait || hasLib):
		return ClassChanWith
	case hasChan:
		return ClassChan
	case hasLib:
		return ClassMessagingLib
	case hasRW:
		return ClassRWMutex
	case hasWait:
		return ClassWait
	case hasMutex:
		return ClassMutex
	default:
		return ClassNone
	}
}
