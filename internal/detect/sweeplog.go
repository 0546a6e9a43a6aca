// The sweep record log: the one on-disk form of a sweep's per-run records,
// behind checkpoints, shard files, inline shard bytes and fleet folds.
//
// A log is a header frame holding the sweep's identity, then one frame per
// run in ascending run order; frames are internal/frame's CRC-guarded
// u32-length/u32-CRC framing. A sweep appends its records as they complete,
// so each record is encoded and written once, and a crash mid-append leaves
// a torn tail that resume truncates. The canonical bytes of a set of
// records are the header followed by their frames sorted by run: a serial
// sweep, a resumed sweep, a merge of shard logs and an offline replay of
// the same options all write exactly those bytes.

package detect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"goconcbugs/internal/frame"
	"goconcbugs/internal/harness"
)

// sweepIdentity is a log's header: everything a sweep's per-run records
// depend on besides the program itself — the seed range, the program name,
// the step budget and leak threshold, the detector set, and the fault
// parameters. Resume reuses a log only under an equal identity and merge
// rejects shards whose identity differs. The fault parameters come from run
// 0's pre-run plan (InjectorFor is a pure function of run and seed); an
// injector that exposes no plan is recorded only as present.
//
// With nil dets it is a trace archive's fingerprint: what produced the
// events, without the detectors that judged them, since re-judging an
// archive with other detectors is the point of replay.
func sweepIdentity(opts SweepOptions, dets []Detector) string {
	names := make([]string, len(dets))
	for i, d := range dets {
		names[i] = d.Name
	}
	faults := "off"
	if opts.InjectorFor != nil {
		faults = "on"
		if p, ok := opts.InjectorFor(0, opts.BaseSeed).(planner); ok {
			plan := p.Plan()
			mode := "benign"
			if plan.Aggressive {
				mode = "aggressive"
			}
			faults = fmt.Sprintf("seed=%d budget=%d mode=%s", plan.Seed, plan.Budget, mode)
		}
	}
	return fmt.Sprintf("sweep/v2 runs=%d base=%d prog=%s maxsteps=%d leak=%d dets=%s faults=%s",
		opts.Runs, opts.BaseSeed, opts.Config.Name, opts.Config.MaxSteps, opts.Config.LeakThreshold,
		strings.Join(names, ","), faults)
}

// Log decoding failures below the frame layer. MergeSweepCheckpoints wraps
// each in ErrShardUnreadable; resume truncates the log where one occurs.
var (
	errLogHeader = errors.New("missing or unreadable sweep log header")
	errLogRecord = errors.New("undecodable sweep record")
	errLogRange  = errors.New("sweep record run out of range")
	errLogOrder  = errors.New("sweep record out of run order")
)

// appendRecord appends rec's payload to dst. The payload holds exactly what
// foldSweep reads: run and seed (uvarint, zigzag varint), a panic flag,
// then either the panic value or, per detector, the detected flag, the
// message, the rules and the event count. Strings are a uvarint length and
// the bytes.
func appendRecord(dst []byte, rec *sweepRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(rec.Run))
	dst = binary.AppendVarint(dst, rec.Seed)
	if rec.Err != nil {
		dst = append(dst, 1)
		return appendString(dst, rec.Err.PanicValue)
	}
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Verdicts)))
	for di, v := range rec.Verdicts {
		detected := byte(0)
		if v.Detected {
			detected = 1
		}
		dst = append(dst, detected)
		dst = appendString(dst, v.Message)
		dst = binary.AppendUvarint(dst, uint64(len(v.Rules)))
		for _, r := range v.Rules {
			dst = appendString(dst, r)
		}
		dst = binary.AppendUvarint(dst, uint64(rec.Events[di]))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// recordDecoder decodes record payloads for one detector set. Messages and
// rules repeat across nearly every run of a sweep, so it interns them: a
// decoded log holds one copy of each distinct string.
type recordDecoder struct {
	dets   []Detector
	intern map[string]string
	b      []byte // the unread rest of the payload being decoded
	bad    bool
}

func newRecordDecoder(dets []Detector) *recordDecoder {
	return &recordDecoder{dets: dets, intern: map[string]string{}}
}

// decode parses one record payload. Any malformation — a truncated field,
// a detector count that does not match the log's detector set, a flag
// byte other than 0 or 1, trailing bytes — is errLogRecord.
func (d *recordDecoder) decode(payload []byte) (*sweepRecord, error) {
	d.b, d.bad = payload, false
	rec := &sweepRecord{Run: int(d.uvarint()), Seed: d.varint()}
	switch d.flag() {
	case 0:
		if n := d.uvarint(); n != uint64(len(d.dets)) {
			return nil, fmt.Errorf("%w: %d detector verdicts, want %d", errLogRecord, n, len(d.dets))
		}
		rec.Verdicts = make([]Verdict, len(d.dets))
		rec.Events = make([]int64, len(d.dets))
		for di, det := range d.dets {
			v := &rec.Verdicts[di]
			v.Detector = det.Name
			switch d.flag() {
			case 0:
			case 1:
				v.Detected = true
			default:
				d.bad = true
			}
			v.Message = d.str()
			// Every rule takes at least one byte, which bounds the
			// allocation a corrupt count can ask for.
			if n := d.uvarint(); n > 0 && n <= uint64(len(d.b)) {
				v.Rules = make([]string, n)
				for ri := range v.Rules {
					v.Rules[ri] = d.str()
				}
			} else if n > 0 {
				d.bad = true
			}
			rec.Events[di] = int64(d.uvarint())
		}
	case 1:
		rec.Err = &harness.RunError{Run: rec.Run, Seed: rec.Seed, PanicValue: d.str()}
	default:
		d.bad = true
	}
	if d.bad || len(d.b) != 0 {
		return nil, errLogRecord
	}
	return rec, nil
}

func (d *recordDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *recordDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *recordDecoder) flag() byte {
	if len(d.b) == 0 {
		d.bad = true
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *recordDecoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.bad, d.b = true, nil
		return ""
	}
	raw := d.b[:n]
	d.b = d.b[n:]
	s, ok := d.intern[string(raw)]
	if !ok {
		s = string(raw)
		d.intern[s] = s
	}
	return s
}

// readLogHeader splits a log's header frame off data and returns the
// identity it holds and the record frames after it.
func readLogHeader(data []byte) (ident string, body []byte, err error) {
	payload, size, err := frame.Next(data, 1)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %w", errLogHeader, err)
	}
	return string(payload), data[size:], nil
}

// scanRecords decodes the record frames of a log body in order, calling fn
// with each record and its raw frame bytes. It stops at the first frame
// that is torn, fails its CRC, does not decode, names a run outside
// [0, opts.Runs) or a seed other than that run's, or does not follow the
// previous run, and returns the byte length of the valid prefix before it
// along with the reason (nil when the whole body is valid). An error from
// fn stops the scan and is returned.
func scanRecords(body []byte, opts SweepOptions, d *recordDecoder, fn func(rec *sweepRecord, raw []byte) error) (int, error) {
	off, last := 0, -1
	for off < len(body) {
		payload, size, err := frame.Next(body[off:], 1)
		if err != nil {
			return off, fmt.Errorf("record frame at byte %d: %w", off, err)
		}
		rec, err := d.decode(payload)
		switch {
		case err != nil:
			return off, fmt.Errorf("record frame at byte %d: %w", off, err)
		case rec.Run < 0 || rec.Run >= opts.Runs || rec.Seed != opts.BaseSeed+int64(rec.Run):
			return off, fmt.Errorf("%w: run %d (seed %d) in a %d-run sweep from seed %d", errLogRange, rec.Run, rec.Seed, opts.Runs, opts.BaseSeed)
		case rec.Run <= last:
			return off, fmt.Errorf("%w: run %d after run %d", errLogOrder, rec.Run, last)
		}
		if err := fn(rec, body[off:off+size]); err != nil {
			return off, err
		}
		off += size
		last = rec.Run
	}
	return off, nil
}

// appendLog appends the canonical log of records to dst: the header frame,
// then one frame per present record in run order.
func appendLog(dst []byte, ident string, records []*sweepRecord) []byte {
	dst = frame.Append(dst, []byte(ident))
	var payload []byte
	for _, rec := range records {
		if rec != nil {
			payload = appendRecord(payload[:0], rec)
			dst = frame.Append(dst, payload)
		}
	}
	return dst
}

// writeFileAtomic writes data to path through a synced temp file in the
// same directory renamed over path, so a reader (or a resume after a crash)
// sees either the old file or the whole new one.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("detect: creating %s temp: %w", path, err)
	}
	_, werr := tmp.Write(data)
	// Sync before the rename publishes the name: without it a power cut can
	// leave the name pointing at never-flushed bytes.
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("detect: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("detect: publishing %s: %w", path, err)
	}
	return nil
}

// sweepLog appends one sweep's records to its checkpoint file. Workers
// finish runs out of order, so records pass through a reorder buffer — the
// sweep's records slice plus a cursor into the ascending list of runs this
// sweep executes — and reach the file in run order. Appends are buffered
// and fsynced every `every` records. Checkpointing is best-effort: a write
// error costs resumability, never the sweep, so it stops further writes
// and is otherwise dropped.
type sweepLog struct {
	f       *os.File
	path    string
	ident   string
	buf     []byte // frames not yet written
	payload []byte // scratch for one record's payload
	order   []int  // runs this sweep executes, ascending
	next    int    // index in order of the next run to append
	last    int    // highest run in the file, -1 if none
	sorted  bool   // false once a run is appended below one already in the file
	every   int
	pending int // records in buf
	failed  bool
}

// openSweepLog opens opts.Checkpoint for a sweep of opts. A log whose
// header carries the sweep's identity is resumed: its records from the
// valid prefix are loaded into records, and anything after that prefix — a
// torn tail, a bit flip, a frame out of run order — is truncated away. Any
// other file (missing, foreign, or written under a different identity) is
// replaced by a fresh log. It returns nil if the file cannot be opened.
func openSweepLog(opts SweepOptions, dets []Detector, records []*sweepRecord) *sweepLog {
	l := &sweepLog{
		path: opts.Checkpoint, ident: sweepIdentity(opts, dets),
		last: -1, sorted: true, every: max(opts.Runs/50, 10),
	}
	good := 0
	if data, err := os.ReadFile(l.path); err == nil {
		if have, body, err := readLogHeader(data); err == nil && have == l.ident {
			n, _ := scanRecords(body, opts, newRecordDecoder(dets), func(rec *sweepRecord, _ []byte) error {
				records[rec.Run] = rec
				l.last = rec.Run
				return nil
			})
			good = len(data) - len(body) + n
		}
	}
	if good == 0 {
		f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
		if err != nil {
			return nil
		}
		l.f = f
		l.buf = frame.Append(nil, []byte(l.ident))
		return l
	}
	// O_APPEND: every write lands after the recovered prefix.
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil
	}
	l.f = f
	return l
}

// advance appends every record that is next in run order, flushing at the
// fsync cadence. Called with the sweep's mutex held.
func (l *sweepLog) advance(records []*sweepRecord) {
	for l.next < len(l.order) {
		rec := records[l.order[l.next]]
		if rec == nil {
			return
		}
		l.next++
		if rec.Run < l.last {
			l.sorted = false
		}
		l.last = max(l.last, rec.Run)
		l.payload = appendRecord(l.payload[:0], rec)
		l.buf = frame.Append(l.buf, l.payload)
		if l.pending++; l.pending >= l.every {
			l.flush()
		}
	}
}

// flush writes and fsyncs the buffered frames.
func (l *sweepLog) flush() {
	if !l.failed && len(l.buf) > 0 {
		_, werr := l.f.Write(l.buf)
		l.failed = errors.Join(werr, l.f.Sync()) != nil
	}
	l.buf, l.pending = l.buf[:0], 0
}

// close flushes what is buffered and closes the file. A resumed log with
// holes below its last run (say, a merge that lacked a shard) had runs
// appended out of order; it is rewritten in canonical order from records.
func (l *sweepLog) close(records []*sweepRecord) {
	l.flush()
	l.failed = l.f.Close() != nil || l.failed
	if !l.sorted && !l.failed {
		_ = writeFileAtomic(l.path, appendLog(nil, l.ident, records))
	}
}
