package sim

import (
	"io"
	"strconv"

	"goconcbugs/internal/event"
)

// Chrome-trace export: runs render in chrome://tracing (or Perfetto) as one
// row per goroutine, which is how hard-to-read interleavings — the
// etcd#7816-style tangles the paper describes reproducing with inserted
// sleeps — become visible at a glance.
//
// ChromeTraceSink streams the Trace Event Format as the run executes: each
// event is rendered straight into the shared trace buffer (no intermediate
// strings, no reflection-based JSON encoding), so a run's peak memory does
// not scale with its trace length.

// ChromeTraceSink writes a run incrementally in the Chrome Trace Event
// Format. Steps are used as the time axis — virtual time stalls while
// goroutines compute, but every event occupies one step, which draws a
// readable staircase of the interleaving. Check Err after the run; write
// failures make the sink go quiet rather than disturb the simulation.
type ChromeTraceSink struct {
	traceWriter
	wrote bool   // at least one record emitted: the next needs a comma
	named []bool // goroutine ids that already got a thread_name record
}

// NewChromeTraceSink creates a streaming sink writing to w. The JSON
// document is completed and flushed by RunEnd.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	s := &ChromeTraceSink{traceWriter: newTraceWriter(w)}
	s.buf = append(s.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	return s
}

// Kinds implements event.Sink: the same kinds TextTraceSink renders.
func (s *ChromeTraceSink) Kinds() []event.Kind { return traceKinds }

// Event implements event.Sink.
func (s *ChromeTraceSink) Event(ev *event.Event) {
	if s.err != nil {
		return
	}
	s.thread(ev.G, ev.GName)
	if ev.Kind == event.GoSpawn {
		// Name the child's row up front; its first own event may be late.
		s.thread(ev.Aux, ev.Obj)
	}
	s.sep()
	s.buf = append(s.buf, `{"name":"`...)
	s.buf = appendJSONChars(s.buf, traceOps[ev.Kind])
	s.buf = append(s.buf, ' ')
	s.buf = appendJSONChars(s.buf, ev.Obj)
	s.buf = append(s.buf, `","cat":"sim","ph":"X","ts":`...)
	s.buf = strconv.AppendInt(s.buf, ev.Step, 10)
	s.buf = append(s.buf, `,"dur":1,"pid":1,"tid":`...)
	s.buf = strconv.AppendInt(s.buf, int64(ev.G), 10)
	s.appendArgs(ev)
	s.buf = append(s.buf, '}')
	s.flushIfFull()
}

// appendArgs renders the args object when the event has an annotation.
func (s *ChromeTraceSink) appendArgs(ev *event.Event) {
	n := len(s.buf)
	s.buf = append(s.buf, `,"args":{"detail":"`...)
	var ok bool
	if s.buf, ok = appendDetail(s.buf, ev, appendJSONChars); !ok {
		s.buf = s.buf[:n]
		return
	}
	s.buf = append(s.buf, `","vtime":`...)
	s.buf = strconv.AppendInt(s.buf, ev.Time, 10)
	s.buf = append(s.buf, '}')
}

// RunEnd implements event.RunEnder: it closes the JSON document and flushes
// everything buffered.
func (s *ChromeTraceSink) RunEnd() {
	if s.err != nil {
		return
	}
	s.buf = append(s.buf, "]}\n"...)
	s.flush()
}

// thread emits the one-time thread_name metadata record for a goroutine row.
func (s *ChromeTraceSink) thread(tid int, name string) {
	for len(s.named) <= tid {
		s.named = append(s.named, false)
	}
	if s.named[tid] {
		return
	}
	s.named[tid] = true
	s.sep()
	s.buf = append(s.buf, `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
	s.buf = strconv.AppendInt(s.buf, int64(tid), 10)
	s.buf = append(s.buf, `,"args":{"name":"`...)
	s.buf = appendJSONChars(s.buf, name)
	s.buf = append(s.buf, `"}}`...)
}

func (s *ChromeTraceSink) sep() {
	if s.wrote {
		s.buf = append(s.buf, ',')
	}
	s.wrote = true
}

// appendJSONChars appends str with JSON string escaping (quotes,
// backslashes, control characters); the caller supplies the surrounding
// quotes.
func appendJSONChars(buf []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		c := str[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return buf
}
