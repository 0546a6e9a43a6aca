package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"goconcbugs/internal/event"
	"goconcbugs/internal/hb"
	"goconcbugs/internal/sim"
)

// FormatError reports a malformed or truncated trace file. It is the
// structured decode failure: corrupt archives produce one of these (never
// a panic), with the byte offset of the first inconsistency.
type FormatError struct {
	Offset int64
	Reason string
	Err    error // wrapped cause (io.ErrUnexpectedEOF for truncation), may be nil
}

func (e *FormatError) Error() string {
	msg := fmt.Sprintf("trace: corrupt trace at byte %d: %s", e.Offset, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *FormatError) Unwrap() error { return e.Err }

// VersionError reports a trace written by a codec version this package
// does not read.
type VersionError struct {
	Version uint64
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("trace: version %d not supported (this reader speaks trace/v%d)", e.Version, Version)
}

// FingerprintError reports an archive whose recorded identity does not
// match what the replaying caller expected — replaying it would attribute
// verdicts to the wrong program or options.
type FingerprintError struct {
	Have, Want string
}

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("trace: fingerprint mismatch:\n  archive: %q\n  want:    %q", e.Have, e.Want)
}

// Reader decodes a trace/v1 file run frame by run frame. Typical use:
//
//	tr, err := trace.NewReader(f)
//	for {
//		meta, err := tr.NextRun()   // io.EOF after the last frame
//		res, err := tr.Replay(mux)  // dispatch the archived stream
//	}
//
// The events delivered during Replay follow package event's ownership
// rules: the *Event and its slices are reused across emissions.
type Reader struct {
	br  *bufio.Reader
	off int64
	err error

	inRun              bool
	meta               RunMeta
	strs               []string
	prevStep, prevTime int64
	vcs                [][]uint64

	// Reused event scratch state.
	ev    event.Event
	vc    hb.VC
	held  []string
	sched event.SchedStep
	vmeta event.VarMeta

	faultPlan []byte
}

// NewReader begins decoding a trace file, validating the magic and
// version. It returns *FormatError for a non-trace file and *VersionError
// for an unknown codec version.
func NewReader(r io.Reader) (*Reader, error) {
	d := &Reader{br: bufio.NewReaderSize(r, flushSize)}
	var m [len(Magic)]byte
	if _, err := io.ReadFull(d.br, m[:]); err != nil {
		return nil, &FormatError{Offset: 0, Reason: "missing magic header", Err: unexpectEOF(err)}
	}
	d.off = int64(len(Magic))
	if string(m[:]) != Magic {
		return nil, &FormatError{Offset: 0, Reason: fmt.Sprintf("bad magic %q (not a trace/v1 file)", m[:])}
	}
	v := d.uvarint("version")
	if d.err != nil {
		return nil, d.err
	}
	if v != Version {
		return nil, &VersionError{Version: v}
	}
	return d, nil
}

// NextRun advances to the next run frame and returns its header. It
// returns io.EOF after the last frame; any other error is structural. If
// the previous frame's events were not consumed, they are skipped.
func (d *Reader) NextRun() (*RunMeta, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.inRun {
		if _, err := d.Replay(nil); err != nil {
			return nil, err
		}
	}
	tag, err := d.br.ReadByte()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, d.fail("reading frame tag", err)
	}
	d.off++
	if tag != tagRun {
		return nil, d.corrupt(fmt.Sprintf("unexpected frame tag 0x%02x (want run frame 0x%02x)", tag, tagRun))
	}
	d.meta = RunMeta{
		Fingerprint:   d.rawString("fingerprint"),
		Name:          d.rawString("name"),
		Run:           int(d.uvarint("run")),
		Runs:          int(d.uvarint("runs")),
		BaseSeed:      d.varint("base seed"),
		Seed:          d.varint("seed"),
		MaxSteps:      d.varint("max steps"),
		LeakThreshold: d.varint("leak threshold"),
		FaultPlan:     d.blob("header fault plan"),
	}
	if d.err != nil {
		return nil, d.err
	}
	// Per-run decode state: frames are position-independent.
	d.strs = d.strs[:0]
	d.prevStep, d.prevTime = 0, 0
	for i := range d.vcs {
		d.vcs[i] = d.vcs[i][:0]
	}
	d.faultPlan = nil
	d.inRun = true
	return &d.meta, nil
}

// Replay decodes the current frame's event stream, dispatching each event
// through mux (nil skips dispatch but still consumes the frame), fires
// mux.RunEnd after the final event, and returns the archived sim.Result.
// Call it once per NextRun.
func (d *Reader) Replay(mux *event.Mux) (*sim.Result, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.inRun {
		return nil, d.corrupt("Replay called outside a run frame (call NextRun first)")
	}
	for {
		tag, err := d.br.ReadByte()
		if err != nil {
			return nil, d.fail("reading event kind", err)
		}
		d.off++
		if tag == tagEnd {
			break
		}
		if tag >= byte(event.NumKinds) {
			return nil, d.corrupt(fmt.Sprintf("unknown event kind %d (this reader knows %d kinds)", tag, event.NumKinds-1))
		}
		d.decodeEvent(event.Kind(tag))
		if d.err != nil {
			return nil, d.err
		}
		if mux != nil {
			mux.Emit(&d.ev)
		}
	}
	if mux != nil {
		mux.RunEnd()
	}
	res := d.decodeResult()
	d.faultPlan = d.blob("trailer fault plan")
	if d.err != nil {
		return nil, d.err
	}
	d.inRun = false
	return res, nil
}

// FaultPlan returns the fault plan recorded with the most recently
// replayed run (JSON, injected faults included), nil when the run was not
// injected. Valid after Replay returns.
func (d *Reader) FaultPlan() []byte { return d.faultPlan }

func (d *Reader) decodeEvent(kind event.Kind) {
	d.ev = event.Event{Kind: kind}
	d.ev.G = int(d.uvarint("event goroutine"))
	d.ev.GName = d.ref("event goroutine name")
	d.ev.Step = d.prevStep + d.varint("event step delta")
	d.ev.Time = d.prevTime + d.varint("event time delta")
	d.prevStep, d.prevTime = d.ev.Step, d.ev.Time
	flags := d.uvarint("event flags")
	if d.err != nil {
		return
	}
	if flags&flagVC != 0 {
		d.ev.VC = d.decodeVC(d.ev.G)
	}
	if flags&flagHeld != 0 {
		n := d.length("held locks", maxSliceLen)
		d.held = d.held[:0]
		for i := 0; i < n && d.err == nil; i++ {
			d.held = append(d.held, d.ref("held lock"))
		}
		d.ev.HeldLocks = d.held
	}
	if flags&flagObj != 0 {
		d.ev.Obj = d.ref("object name")
		d.ev.ObjID = int(d.varint("object id"))
	}
	if flags&flagVar != 0 {
		d.vmeta = event.VarMeta{
			ID:        int(d.varint("var id")),
			Name:      d.ref("var name"),
			CreatedBy: int(d.varint("var creator")),
		}
		d.ev.Var = &d.vmeta
	}
	if flags&flagCounter != 0 {
		d.ev.Counter = int(d.varint("counter"))
	}
	if flags&flagDelta != 0 {
		d.ev.Delta = int(d.varint("delta"))
	}
	if flags&flagAux != 0 {
		d.ev.Aux = int(d.uvarint("aux goroutine"))
	}
	if flags&flagDec != 0 {
		d.ev.Dec = int(d.varint("decision index"))
	}
	if flags&flagDetail != 0 {
		d.ev.Detail = d.ref("detail")
	}
	if flags&flagSched != 0 {
		d.sched.G = int(d.uvarint("sched goroutine"))
		d.sched.Decision = int(d.varint("sched decision"))
		d.sched.Preferred = int(d.varint("sched preferred"))
		n := d.length("sched options", maxSliceLen)
		d.sched.OptionGs = d.sched.OptionGs[:0]
		for i := 0; i < n && d.err == nil; i++ {
			d.sched.OptionGs = append(d.sched.OptionGs, int(d.uvarint("sched option")))
		}
		n = d.length("sched ops", maxSliceLen)
		d.sched.Ops = d.sched.Ops[:0]
		for i := 0; i < n && d.err == nil; i++ {
			cb := d.byte("sched op class")
			d.sched.Ops = append(d.sched.Ops, event.OpRef{
				Class: event.ObjClass(cb >> 1),
				Write: cb&1 != 0,
				ID:    int(d.varint("sched op id")),
			})
		}
		d.ev.Sched = &d.sched
	}
}

// decodeVC rebuilds goroutine g's clock from the component deltas,
// mirroring Recorder.appendVC, into the reader's reused scratch clock.
func (d *Reader) decodeVC(g int) hb.VC {
	if g < 0 || g >= maxVCLen {
		d.corrupt(fmt.Sprintf("vector clock on out-of-range goroutine %d", g))
		return hb.VC{}
	}
	n := d.length("vector clock", maxVCLen)
	if d.err != nil {
		return hb.VC{}
	}
	for len(d.vcs) <= g {
		d.vcs = append(d.vcs, nil)
	}
	prev := d.vcs[g]
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
	d.vc.Reset()
	for i := 0; i < n; i++ {
		prev[i] += uint64(d.varint("clock component"))
		d.vc.Set(i, prev[i])
	}
	d.vcs[g] = prev
	return d.vc
}

func (d *Reader) decodeResult() *sim.Result {
	res := &sim.Result{
		Name:              d.ref("result name"),
		Seed:              d.varint("result seed"),
		Outcome:           sim.Outcome(d.byte("result outcome")),
		Steps:             d.varint("result steps"),
		VirtualTime:       d.varint("result virtual time"),
		GoroutinesCreated: int(d.uvarint("result goroutine count")),
		RandDraws:         int64(d.uvarint("result rand draws")),
		DeadlockReport:    d.ref("deadlock report"),
	}
	res.Goroutines = d.decodeGoroutines("goroutines")
	res.Leaked = d.decodeGoroutines("leaked")
	res.Blocked = d.decodeGoroutines("blocked")
	n := d.length("panics", maxSliceLen)
	for i := 0; i < n && d.err == nil; i++ {
		res.Panics = append(res.Panics, sim.PanicInfo{
			G:    int(d.uvarint("panic goroutine")),
			Name: d.ref("panic goroutine name"),
			Msg:  d.ref("panic message"),
			Step: d.varint("panic step"),
		})
	}
	n = d.length("check failures", maxSliceLen)
	for i := 0; i < n && d.err == nil; i++ {
		res.CheckFailures = append(res.CheckFailures, d.ref("check failure"))
	}
	return res
}

func (d *Reader) decodeGoroutines(what string) []sim.GoroutineInfo {
	n := d.length(what, maxSliceLen)
	var out []sim.GoroutineInfo
	for i := 0; i < n && d.err == nil; i++ {
		g := sim.GoroutineInfo{
			ID:   int(d.uvarint("goroutine id")),
			Name: d.ref("goroutine name"),
		}
		g.State = sim.GState(d.byte("goroutine state"))
		g.BlockKind = sim.BlockKind(d.byte("goroutine block kind"))
		g.BlockObj = d.ref("block object")
		g.CreatedStep = d.varint("created step")
		g.CreatedTime = d.varint("created time")
		g.EndTime = d.varint("end time")
		g.BlockedSince = d.varint("blocked since")
		nl := d.length("goroutine held locks", maxSliceLen)
		for j := 0; j < nl && d.err == nil; j++ {
			g.HeldLocks = append(g.HeldLocks, d.ref("goroutine held lock"))
		}
		out = append(out, g)
	}
	return out
}

// --- primitive decoders; the first failure latches into d.err and every
// later call returns a zero value, so decode paths need no per-field error
// plumbing.

func (d *Reader) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	b, err := d.br.ReadByte()
	if err != nil {
		d.fail("reading "+what, err)
		return 0
	}
	d.off++
	return b
}

func (d *Reader) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	for shift := 0; ; shift += 7 {
		if shift >= 64 {
			d.corrupt("varint overflow in " + what)
			return 0
		}
		b, err := d.br.ReadByte()
		if err != nil {
			d.fail("reading "+what, err)
			return 0
		}
		d.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
}

func (d *Reader) varint(what string) int64 {
	u := d.uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

// length decodes a slice length and bounds it.
func (d *Reader) length(what string, limit int) int {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return 0
	}
	if n > uint64(limit) {
		d.corrupt(fmt.Sprintf("%s length %d exceeds limit %d", what, n, limit))
		return 0
	}
	return int(n)
}

func (d *Reader) rawString(what string) string {
	n := d.length(what, maxStringLen)
	if d.err != nil || n == 0 {
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.br, buf); err != nil {
		d.fail("reading "+what, err)
		return ""
	}
	d.off += int64(n)
	return string(buf)
}

func (d *Reader) blob(what string) []byte {
	n := d.length(what, maxBlobLen)
	if d.err != nil || n == 0 {
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.br, buf); err != nil {
		d.fail("reading "+what, err)
		return nil
	}
	d.off += int64(n)
	return buf
}

// ref decodes an interned string reference, mirroring Recorder.ref.
func (d *Reader) ref(what string) string {
	id := d.uvarint(what + " ref")
	if d.err != nil {
		return ""
	}
	if id == 0 {
		s := d.rawString(what)
		if d.err != nil {
			return ""
		}
		d.strs = append(d.strs, s)
		return s
	}
	if id > uint64(len(d.strs)) {
		d.corrupt(fmt.Sprintf("%s references undefined string %d (table has %d)", what, id, len(d.strs)))
		return ""
	}
	return d.strs[id-1]
}

func (d *Reader) corrupt(reason string) error {
	if d.err == nil {
		d.err = &FormatError{Offset: d.off, Reason: reason}
	}
	return d.err
}

func (d *Reader) fail(reason string, err error) error {
	if d.err == nil {
		d.err = &FormatError{Offset: d.off, Reason: reason, Err: unexpectEOF(err)}
	}
	return d.err
}

// unexpectEOF maps a mid-record io.EOF to io.ErrUnexpectedEOF: clean EOF is
// only legal between frames, so inside one it means truncation.
func unexpectEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
