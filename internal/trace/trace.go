// Package trace is the durable form of the unified event stream: a
// compact, versioned binary codec ("trace/v1") that archives simulated
// runs — every event of package event's 37-kind taxonomy plus the run's
// final sim.Result — so sweeps can be stored, replayed, and re-judged by
// detectors that did not exist when the run executed.
//
// The paper's own methodology is post-hoc: bugs were studied from recorded
// histories, not live executions. The codec is that decoupling for this
// repository — observation (a live sim.Run with a Recorder attached) and
// detection (detect.RunAllTrace over the archived stream) become separate
// phases, and an archive is a corpus any future detector can be run over.
//
// # File format (trace/v1)
//
// A trace file is a magic header followed by zero or more self-contained
// run frames:
//
//	file   := magic("gocbtrc1") version(uvarint, =1) run*
//	run    := tagRun(0x01) header event* tagEnd(0x00) trailer
//	header := fingerprint name (raw strings) run runs baseSeed seed
//	          maxSteps leakThreshold faultPlan(len-prefixed bytes)
//	event  := kind(byte, 1..NumKinds-1) g gname dStep dTime flags payload…
//
// Integers are LEB128 varints, signed values zigzag-encoded. Strings after
// the run header go through a per-run interning table: a reference is the
// string's 1-based id, or 0 followed by the literal bytes, which assigns
// the next id — so the table is rebuilt deterministically on decode and
// never stored. Steps and times are delta-encoded against the previous
// event; vector clocks are delta-encoded component-wise against the same
// goroutine's previously recorded clock. The trailer carries the complete
// sim.Result (outcomes, goroutine records, panics, check failures) so
// Result-only detectors re-judge an archived run exactly, plus the
// recorded fault plan when the run was fault-injected.
//
// Because the intern table, delta state, and scratch buffers are per-run,
// every frame is position-independent: frames recorded by different shard
// processes concatenate (or sit in per-run files) and replay identically
// to a serial recording.
//
// # Stability
//
// The numeric values of event.Kind and of sim's Outcome/GState/BlockKind
// enums are part of this wire format. They are append-only: inserting or
// reordering values breaks every archived trace, which the golden-file and
// kind-pinning tests under this package fail loudly on. Format changes
// bump the version; NewReader rejects unknown versions with a
// *VersionError rather than misreading data.
package trace

import (
	"fmt"
	"io"

	"goconcbugs/internal/event"
	"goconcbugs/internal/sim"
)

// Magic begins every trace file; the trailing '1' is the human-readable
// echo of the format major version.
const Magic = "gocbtrc1"

// Version is the codec version this package writes and the only one it
// reads.
const Version = 1

// Frame tags. Event kinds 1..NumKinds-1 double as in-run record tags, so
// the end-of-events marker reuses Kind 0 (KindInvalid, never emitted).
const (
	tagEnd = 0x00
	tagRun = 0x01
)

// Decode limits: corrupt length prefixes fail with a *FormatError instead
// of attempting a multi-gigabyte allocation.
const (
	maxStringLen = 1 << 20
	maxSliceLen  = 1 << 20
	maxVCLen     = 1 << 16
	maxBlobLen   = 1 << 24
)

// flushSize is the write-buffer threshold, the same streaming discipline
// as sim.ChromeTraceSink: O(1) memory regardless of trace length.
const flushSize = 32 << 10

// RunMeta is a run frame's header: everything needed to attribute the
// archived run and re-execute it bit-identically.
type RunMeta struct {
	// Fingerprint identifies the producer (kernel/config/sweep options,
	// detector-set excluded — re-judging with new detectors is the point).
	// Replay paths compare it before trusting an archive.
	Fingerprint string
	// Name is the run's sim.Config.Name (the kernel id).
	Name string
	// Run and Runs place the frame in its sweep: run index and sweep
	// length (0 and 1 for a standalone recording).
	Run  int
	Runs int
	// BaseSeed is the sweep's first seed; Seed the run's own.
	BaseSeed int64
	Seed     int64
	// MaxSteps and LeakThreshold mirror sim.Config.
	MaxSteps      int64
	LeakThreshold int64
	// FaultPlan is the fault injector's pre-run plan specification as
	// JSON (package inject's Plan with seed/budget/mode and no recorded
	// faults yet); nil when the run was not injected. The post-run plan,
	// faults included, lives in the trailer (Reader.FaultPlan).
	FaultPlan []byte
}

// Writer streams trace frames to w. Create one per output file; BeginRun
// opens each run frame. Like the Chrome-trace sink, write failures make
// the writer go quiet rather than disturb the simulation — check Err (or
// the error from FinishRun/Flush) after the run.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWriter starts a trace file on w (the magic header is buffered
// immediately).
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{w: w, buf: make([]byte, 0, flushSize+1024)}
	tw.buf = append(tw.buf, Magic...)
	tw.buf = appendUvarint(tw.buf, Version)
	return tw
}

// Err returns the first write error, if any.
func (tw *Writer) Err() error { return tw.err }

// Flush drains the buffer to the underlying writer.
func (tw *Writer) Flush() error {
	if tw.err == nil && len(tw.buf) > 0 {
		if _, err := tw.w.Write(tw.buf); err != nil {
			tw.err = err
		}
		tw.buf = tw.buf[:0]
	}
	return tw.err
}

func (tw *Writer) maybeFlush() {
	if len(tw.buf) >= flushSize {
		_ = tw.Flush()
	}
}

// BeginRun writes a run frame header and returns the Recorder that encodes
// the run's event stream. The Recorder is an event.Sink subscribing to
// every kind — attach it to sim.Config.Sinks — and the caller must close
// the frame with FinishRun after the run returns. One run at a time per
// Writer.
func (tw *Writer) BeginRun(meta RunMeta) *Recorder {
	tw.buf = append(tw.buf, tagRun)
	tw.buf = appendRawString(tw.buf, meta.Fingerprint)
	tw.buf = appendRawString(tw.buf, meta.Name)
	tw.buf = appendUvarint(tw.buf, uint64(meta.Run))
	tw.buf = appendUvarint(tw.buf, uint64(meta.Runs))
	tw.buf = appendVarint(tw.buf, meta.BaseSeed)
	tw.buf = appendVarint(tw.buf, meta.Seed)
	tw.buf = appendVarint(tw.buf, meta.MaxSteps)
	tw.buf = appendVarint(tw.buf, meta.LeakThreshold)
	tw.buf = appendBlob(tw.buf, meta.FaultPlan)
	tw.maybeFlush()
	return &Recorder{tw: tw, strs: map[string]uint64{}}
}

// Recorder encodes one run's event stream into its Writer's frame. It is
// an event.Sink (plus RunEnder); everything it reads from an Event is
// copied into the output during the callback, honoring package event's
// ownership rules.
type Recorder struct {
	tw                 *Writer
	strs               map[string]uint64 // intern table: string -> 1-based id
	prevStep, prevTime int64
	vcs                [][]uint64 // per-goroutine previously recorded clock
	ended              bool
}

// allKinds is every recorder's subscription, shared: a pooled runtime asks
// for it on every run.
var allKinds = event.AllKinds()

// Kinds implements event.Sink: a recorder archives the full stream.
func (r *Recorder) Kinds() []event.Kind { return allKinds }

// Flag bits selecting which optional payload fields an event carries.
const (
	flagVC = 1 << iota
	flagHeld
	flagObj
	flagVar
	flagCounter
	flagDelta
	flagAux
	flagDec
	flagDetail
	flagSched
)

// Event implements event.Sink.
func (r *Recorder) Event(ev *event.Event) {
	tw := r.tw
	if tw.err != nil {
		return
	}
	var flags uint64
	vcSpan := ev.VC.Span()
	if vcSpan > 0 {
		flags |= flagVC
	}
	if len(ev.HeldLocks) > 0 {
		flags |= flagHeld
	}
	if ev.Obj != "" || ev.ObjID != 0 {
		flags |= flagObj
	}
	if ev.Var != nil {
		flags |= flagVar
	}
	if ev.Counter != 0 {
		flags |= flagCounter
	}
	if ev.Delta != 0 {
		flags |= flagDelta
	}
	if ev.Aux != 0 {
		flags |= flagAux
	}
	if ev.Dec != 0 {
		flags |= flagDec
	}
	if ev.Detail != "" {
		flags |= flagDetail
	}
	if ev.Sched != nil {
		flags |= flagSched
	}

	b := tw.buf
	b = append(b, byte(ev.Kind))
	b = appendUvarint(b, uint64(ev.G))
	b = r.ref(b, ev.GName)
	b = appendVarint(b, ev.Step-r.prevStep)
	b = appendVarint(b, ev.Time-r.prevTime)
	r.prevStep, r.prevTime = ev.Step, ev.Time
	b = appendUvarint(b, flags)

	if flags&flagVC != 0 {
		b = r.appendVC(b, ev.G, vcSpan, ev.VC.Get)
	}
	if flags&flagHeld != 0 {
		b = appendUvarint(b, uint64(len(ev.HeldLocks)))
		for _, l := range ev.HeldLocks {
			b = r.ref(b, l)
		}
	}
	if flags&flagObj != 0 {
		b = r.ref(b, ev.Obj)
		b = appendVarint(b, int64(ev.ObjID))
	}
	if flags&flagVar != 0 {
		b = appendVarint(b, int64(ev.Var.ID))
		b = r.ref(b, ev.Var.Name)
		b = appendVarint(b, int64(ev.Var.CreatedBy))
	}
	if flags&flagCounter != 0 {
		b = appendVarint(b, int64(ev.Counter))
	}
	if flags&flagDelta != 0 {
		b = appendVarint(b, int64(ev.Delta))
	}
	if flags&flagAux != 0 {
		b = appendUvarint(b, uint64(ev.Aux))
	}
	if flags&flagDec != 0 {
		b = appendVarint(b, int64(ev.Dec))
	}
	if flags&flagDetail != 0 {
		b = r.ref(b, ev.Detail)
	}
	if flags&flagSched != 0 {
		s := ev.Sched
		b = appendUvarint(b, uint64(s.G))
		b = appendVarint(b, int64(s.Decision))
		b = appendVarint(b, int64(s.Preferred))
		b = appendUvarint(b, uint64(len(s.OptionGs)))
		for _, g := range s.OptionGs {
			b = appendUvarint(b, uint64(g))
		}
		b = appendUvarint(b, uint64(len(s.Ops)))
		for _, op := range s.Ops {
			cb := byte(op.Class) << 1
			if op.Write {
				cb |= 1
			}
			b = append(b, cb)
			b = appendVarint(b, int64(op.ID))
		}
	}
	tw.buf = b
	tw.maybeFlush()
}

// appendVC delta-encodes an n-component clock against goroutine g's
// previously recorded clock, then remembers the new one.
func (r *Recorder) appendVC(b []byte, g, n int, get func(int) uint64) []byte {
	for len(r.vcs) <= g {
		r.vcs = append(r.vcs, nil)
	}
	prev := r.vcs[g]
	b = appendUvarint(b, uint64(n))
	if cap(prev) < n {
		np := make([]uint64, n)
		copy(np, prev)
		prev = np
	} else {
		for i := len(prev); i < n; i++ {
			prev = prev[:i+1]
			prev[i] = 0
		}
		prev = prev[:n]
	}
	for i := 0; i < n; i++ {
		c := get(i)
		b = appendVarint(b, int64(c-prev[i]))
		prev[i] = c
	}
	r.vcs[g] = prev
	return b
}

// RunEnd implements event.RunEnder: it marks the end of the event section.
// The frame stays open until FinishRun supplies the run's Result.
func (r *Recorder) RunEnd() {
	if r.ended || r.tw.err != nil {
		return
	}
	r.ended = true
	r.tw.buf = append(r.tw.buf, tagEnd)
}

// FinishRun closes the frame with the run's Result and, when the run was
// fault-injected, the recorded plan (JSON, faults included) — then flushes.
// It writes the end-of-events marker itself if no RunEnd was delivered
// (a run that panicked on the host side never reaches the mux's RunEnd).
func (r *Recorder) FinishRun(res *sim.Result, faultPlan []byte) error {
	r.RunEnd()
	tw := r.tw
	if tw.err != nil {
		return tw.err
	}
	b := tw.buf
	b = r.ref(b, res.Name)
	b = appendVarint(b, res.Seed)
	b = append(b, byte(res.Outcome))
	b = appendVarint(b, res.Steps)
	b = appendVarint(b, res.VirtualTime)
	b = appendUvarint(b, uint64(res.GoroutinesCreated))
	b = appendUvarint(b, uint64(res.RandDraws))
	b = r.ref(b, res.DeadlockReport)
	b = r.appendGoroutines(b, res.Goroutines)
	b = r.appendGoroutines(b, res.Leaked)
	b = r.appendGoroutines(b, res.Blocked)
	b = appendUvarint(b, uint64(len(res.Panics)))
	for _, p := range res.Panics {
		b = appendUvarint(b, uint64(p.G))
		b = r.ref(b, p.Name)
		b = r.ref(b, p.Msg)
		b = appendVarint(b, p.Step)
	}
	b = appendUvarint(b, uint64(len(res.CheckFailures)))
	for _, f := range res.CheckFailures {
		b = r.ref(b, f)
	}
	b = appendBlob(b, faultPlan)
	tw.buf = b
	return tw.Flush()
}

func (r *Recorder) appendGoroutines(b []byte, gs []sim.GoroutineInfo) []byte {
	b = appendUvarint(b, uint64(len(gs)))
	for _, g := range gs {
		b = appendUvarint(b, uint64(g.ID))
		b = r.ref(b, g.Name)
		b = append(b, byte(g.State), byte(g.BlockKind))
		b = r.ref(b, g.BlockObj)
		b = appendVarint(b, g.CreatedStep)
		b = appendVarint(b, g.CreatedTime)
		b = appendVarint(b, g.EndTime)
		b = appendVarint(b, g.BlockedSince)
		b = appendUvarint(b, uint64(len(g.HeldLocks)))
		for _, l := range g.HeldLocks {
			b = r.ref(b, l)
		}
	}
	return b
}

// ref appends an interned string reference: the known 1-based id, or 0
// followed by the literal, which assigns the next id (decode mirrors this).
func (r *Recorder) ref(b []byte, s string) []byte {
	if id, ok := r.strs[s]; ok {
		return appendUvarint(b, id)
	}
	r.strs[s] = uint64(len(r.strs)) + 1
	b = appendUvarint(b, 0)
	return appendRawString(b, s)
}

// Record archives one live run: it runs prog under cfg with a streaming
// Recorder appended to cfg.Sinks, writing a single-frame trace/v1 file to
// w, and returns the run's Result. Meta's Name/Seed/MaxSteps/LeakThreshold
// are filled from cfg when zero. Fault-injected runs that need the
// recorded plan in the trailer should drive Writer/BeginRun/FinishRun
// directly (detect's sweep recorder does).
func Record(w io.Writer, meta RunMeta, cfg sim.Config, prog sim.Program) (*sim.Result, error) {
	if meta.Name == "" {
		meta.Name = cfg.Name
	}
	if meta.Seed == 0 {
		meta.Seed = cfg.Seed
	}
	if meta.MaxSteps == 0 {
		meta.MaxSteps = cfg.MaxSteps
	}
	if meta.LeakThreshold == 0 {
		meta.LeakThreshold = cfg.LeakThreshold
	}
	if meta.Runs == 0 {
		meta.Runs = 1
	}
	if meta.Fingerprint == "" {
		meta.Fingerprint = fmt.Sprintf("run/v1 prog=%s seed=%d", meta.Name, meta.Seed)
	}
	tw := NewWriter(w)
	rec := tw.BeginRun(meta)
	cfg.Sinks = append(cfg.Sinks[:len(cfg.Sinks):len(cfg.Sinks)], rec)
	res := sim.Run(cfg, prog)
	if err := rec.FinishRun(res, nil); err != nil {
		return res, err
	}
	return res, nil
}

// appendUvarint appends v as an unsigned LEB128 varint.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendVarint appends v zigzag-encoded.
func appendVarint(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// appendRawString appends a length-prefixed literal string (header fields
// and intern-table definitions).
func appendRawString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBlob appends a length-prefixed byte blob; nil and empty both encode
// as length 0 and decode as nil.
func appendBlob(b, blob []byte) []byte {
	b = appendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}
