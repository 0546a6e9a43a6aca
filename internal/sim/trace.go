package sim

import (
	"io"
	"strconv"

	"goconcbugs/internal/event"
)

// Execution tracing. Two streaming sinks render the same traced kinds
// straight from event.Event: TextTraceSink writes one human-readable line
// per event, and ChromeTraceSink (chrometrace.go) writes the Chrome Trace
// Event Format. Both name an event by traceOps and annotate it with
// appendDetail, and both render into a reused byte buffer that drains to
// the writer whenever it fills, so neither holds a run's trace in memory.

const traceFlushSize = 32 << 10

// traceOps names each traced kind. Kinds left empty (map accesses, attempt
// kinds, scheduling) are not traced.
var traceOps = [event.NumKinds]string{
	event.MemRead:        "read",
	event.MemWrite:       "write",
	event.ChanSendDone:   "send",
	event.ChanRecvDone:   "recv",
	event.ChanClose:      "close",
	event.MutexLock:      "lock",
	event.MutexUnlock:    "unlock",
	event.MutexTryLock:   "trylock",
	event.RWRLock:        "rlock",
	event.RWRUnlock:      "runlock",
	event.RWWLock:        "wlock",
	event.RWWUnlock:      "wunlock",
	event.WGAdd:          "wg-add",
	event.WGDone:         "wg-done",
	event.WGWaitEnd:      "wg-wait",
	event.OnceDo:         "once-do",
	event.CondSignal:     "cond-signal",
	event.CondBroadcast:  "cond-broadcast",
	event.GoSpawn:        "go",
	event.GoExit:         "exit",
	event.GoPanic:        "panic",
	event.GoBlock:        "block",
	event.GoBlockForever: "block-forever",
}

// traceKinds is the subscription of both trace sinks, every kind with an
// op: one shared slice, since a pooled runtime asks for it on every run.
var traceKinds = func() []event.Kind {
	var out []event.Kind
	for k, op := range traceOps {
		if op != "" {
			out = append(out, event.Kind(k))
		}
	}
	return out
}()

// appendDetail appends ev's trace annotation to buf and reports whether it
// has one. Channel completions name their hand-off or rendezvous partner, a
// TryLock notes that it acquired, and WaitGroup changes show their
// arithmetic; any other event shows its own Detail, passed through esc. The
// derived annotations never need escaping.
func appendDetail(buf []byte, ev *event.Event, esc func([]byte, string) []byte) ([]byte, bool) {
	switch {
	case ev.Kind == event.ChanSendDone && ev.Aux != 0:
		buf = append(buf, "handoff to g"...)
		buf = strconv.AppendInt(buf, int64(ev.Aux), 10)
	case ev.Kind == event.ChanRecvDone && ev.Aux != 0:
		buf = append(buf, "rendezvous with g"...)
		buf = strconv.AppendInt(buf, int64(ev.Aux), 10)
	case ev.Kind == event.MutexTryLock:
		buf = append(buf, "acquired"...)
	case ev.Kind == event.WGAdd:
		if ev.Delta >= 0 {
			buf = append(buf, '+')
		}
		buf = strconv.AppendInt(buf, int64(ev.Delta), 10)
		buf = append(buf, " -> "...)
		buf = strconv.AppendInt(buf, int64(ev.Counter), 10)
	case ev.Kind == event.WGDone:
		buf = append(buf, "-> "...)
		buf = strconv.AppendInt(buf, int64(ev.Counter), 10)
	case ev.Detail != "":
		buf = esc(buf, ev.Detail)
	default:
		return buf, false
	}
	return buf, true
}

// traceWriter is the output buffer both trace sinks render into. It drains
// to w once it holds traceFlushSize bytes and goes quiet after the first
// write error, which Err reports.
type traceWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newTraceWriter(w io.Writer) traceWriter {
	return traceWriter{w: w, buf: make([]byte, 0, traceFlushSize+1024)}
}

// Err returns the first write error, if any.
func (tw *traceWriter) Err() error { return tw.err }

func (tw *traceWriter) flushIfFull() {
	if len(tw.buf) >= traceFlushSize {
		tw.flush()
	}
}

func (tw *traceWriter) flush() {
	if len(tw.buf) == 0 {
		return
	}
	if _, err := tw.w.Write(tw.buf); err != nil {
		tw.err = err
	}
	tw.buf = tw.buf[:0]
}

// TextTraceSink writes a run as a human-readable trace, one line per traced
// event:
//
//	step=4      t=0        g3(inspect) lock container.mu
//
// followed by " [annotation]" when the event has one. The last lines are
// flushed by RunEnd. Check Err after the run; write failures make the sink
// go quiet rather than disturb the simulation.
type TextTraceSink struct {
	traceWriter
}

// NewTextTraceSink creates a streaming text trace sink writing to w.
func NewTextTraceSink(w io.Writer) *TextTraceSink {
	return &TextTraceSink{newTraceWriter(w)}
}

// Kinds implements event.Sink.
func (s *TextTraceSink) Kinds() []event.Kind { return traceKinds }

// Event implements event.Sink.
func (s *TextTraceSink) Event(ev *event.Event) {
	if s.err != nil {
		return
	}
	s.buf = append(s.buf, "step="...)
	s.buf = appendPadded(s.buf, ev.Step, 6)
	s.buf = append(s.buf, " t="...)
	s.buf = appendPadded(s.buf, ev.Time, 8)
	s.buf = append(s.buf, " g"...)
	s.buf = strconv.AppendInt(s.buf, int64(ev.G), 10)
	s.buf = append(s.buf, '(')
	s.buf = append(s.buf, ev.GName...)
	s.buf = append(s.buf, ") "...)
	s.buf = append(s.buf, traceOps[ev.Kind]...)
	s.buf = append(s.buf, ' ')
	s.buf = append(s.buf, ev.Obj...)
	n := len(s.buf)
	s.buf = append(s.buf, " ["...)
	var ok bool
	if s.buf, ok = appendDetail(s.buf, ev, appendRaw); ok {
		s.buf = append(s.buf, ']')
	} else {
		s.buf = s.buf[:n]
	}
	s.buf = append(s.buf, '\n')
	s.flushIfFull()
}

// RunEnd implements event.RunEnder: it flushes everything buffered.
func (s *TextTraceSink) RunEnd() {
	if s.err == nil {
		s.flush()
	}
}

// appendPadded appends n left-justified in a field of width bytes.
func appendPadded(buf []byte, n int64, width int) []byte {
	start := len(buf)
	buf = strconv.AppendInt(buf, n, 10)
	for len(buf)-start < width {
		buf = append(buf, ' ')
	}
	return buf
}

func appendRaw(buf []byte, s string) []byte { return append(buf, s...) }
