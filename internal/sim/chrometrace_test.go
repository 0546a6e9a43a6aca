package sim

import (
	"bytes"
	"encoding/json"
	"io"
	gort "runtime"
	"testing"

	"goconcbugs/internal/event"
)

func TestChromeTraceSink(t *testing.T) {
	var buf bytes.Buffer
	cts := NewChromeTraceSink(&buf)
	Run(Config{Seed: 1, Sinks: []event.Sink{cts}}, func(tt *T) {
		ch := NewChanNamed[int](tt, "ch", 0)
		tt.GoNamed("sender", func(ct *T) { ch.Send(ct, 1) })
		ch.Recv(tt)
	})
	if err := cts.Err(); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	var sawThreadName, sawChanOp bool
	for _, e := range decoded.TraceEvents {
		if e["ph"] == "M" && e["name"] == "thread_name" {
			sawThreadName = true
		}
		if name, _ := e["name"].(string); name == "send ch" || name == "recv ch" {
			sawChanOp = true
		}
	}
	if !sawThreadName || !sawChanOp {
		t.Fatalf("trace missing expected records (thread_name=%v chanOp=%v)", sawThreadName, sawChanOp)
	}
}

func TestChromeTraceSinkEmptyRun(t *testing.T) {
	var buf bytes.Buffer
	cts := NewChromeTraceSink(&buf)
	Run(Config{Seed: 1, Sinks: []event.Sink{cts}}, func(tt *T) {})
	if err := cts.Err(); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
}

// longTraceProgram produces tens of thousands of trace events.
func longTraceProgram(tt *T) {
	mu := NewMutex(tt, "mu")
	v := NewIntVar(tt, "v")
	for i := 0; i < 10_000; i++ {
		mu.Lock(tt)
		v.Incr(tt, 1)
		mu.Unlock(tt)
	}
}

// allocDuring returns the bytes allocated while fn runs (TotalAlloc is
// monotonic, so the delta is GC-independent).
func allocDuring(fn func()) uint64 {
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	fn()
	gort.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestChromeTraceStreamingAllocation is the regression test for streaming
// export, run for both trace sinks: a sink must not materialize the run, so
// on a trace of over a MB it allocates little beyond what the same run costs
// with no sink attached.
func TestChromeTraceStreamingAllocation(t *testing.T) {
	cfg := Config{Seed: 1, MaxSteps: 1 << 22}
	bare := allocDuring(func() { Run(cfg, longTraceProgram) })
	for name, newSink := range map[string]func(io.Writer) event.Sink{
		"chrome": func(w io.Writer) event.Sink { return NewChromeTraceSink(w) },
		"text":   func(w io.Writer) event.Sink { return NewTextTraceSink(w) },
	} {
		var out countingWriter
		streaming := allocDuring(func() {
			c := cfg
			c.Sinks = []event.Sink{newSink(&out)}
			Run(c, longTraceProgram)
		})
		if out.n < 1<<20 {
			t.Fatalf("%s: expected a trace of over a MB, got %d bytes", name, out.n)
		}
		if extra := int64(streaming) - int64(bare); extra > 256<<10 {
			t.Fatalf("%s sink allocated %d bytes beyond a no-sink run for a %d-byte trace; it must not hold the trace",
				name, extra, out.n)
		}
	}
}
