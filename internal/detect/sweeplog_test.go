package detect

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"goconcbugs/internal/frame"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/sim"
)

// splitFrames cuts a log body into its raw record frames.
func splitFrames(t testing.TB, body []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(body) > 0 {
		_, size, err := frame.Next(body, 1)
		if err != nil {
			t.Fatalf("splitting frames: %v", err)
		}
		out = append(out, body[:size])
		body = body[size:]
	}
	return out
}

// hookedInstance calls onFinish before every Finish of the instance it
// wraps.
type hookedInstance struct {
	Instance
	onFinish func()
}

func (h hookedInstance) Finish(res *sim.Result) Verdict {
	h.onFinish()
	return h.Instance.Finish(res)
}

// finishHook wraps d so onFinish runs at every Finish: once per executed
// run, however many runs one instance serves.
func finishHook(d Detector, onFinish func()) Detector {
	return Detector{Name: d.Name, Desc: d.Desc, New: func() Instance {
		return hookedInstance{Instance: d.New(), onFinish: onFinish}
	}}
}

// countingDets wraps dets so every Finish of the first detector is
// counted: one count per executed run.
func countingDets(n *atomic.Int64, dets ...Detector) []Detector {
	out := append([]Detector(nil), dets...)
	out[0] = finishHook(out[0], func() { n.Add(1) })
	return out
}

func TestSweepRecordRoundTrip(t *testing.T) {
	dets := []Detector{MustLookup("race"), MustLookup("vet")}
	recs := []*sweepRecord{
		{Run: 0, Seed: -3, Verdicts: []Verdict{
			{Detector: "race", Detected: true, Message: "DATA RACE on x"},
			{Detector: "vet", Detected: true, Message: "double close", Rules: []string{"R1", "R7"}},
		}, Events: []int64{12, 300}},
		{Run: 1 << 20, Seed: 1 << 40, Verdicts: []Verdict{{Detector: "race"}, {Detector: "vet"}}, Events: []int64{0, 0}},
		{Run: 5, Seed: 8, Err: &harness.RunError{Run: 5, Seed: 8, PanicValue: "detector bug"}},
	}
	d := newRecordDecoder(dets)
	for _, want := range recs {
		payload := appendRecord(nil, want)
		if n := recordLen(want); n != len(payload) {
			t.Errorf("run %d: recordLen = %d, the payload has %d bytes", want.Run, n, len(payload))
		}
		got := new(sweepRecord)
		if err := d.decode(payload, got); err != nil {
			t.Fatalf("decoding run %d: %v", want.Run, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of run %d:\n got  %+v\n want %+v", want.Run, got, want)
		}
	}
	// One scratch record decodes every payload in turn, each as a fresh
	// record would apart from the capacity it keeps.
	scratch := new(sweepRecord)
	for _, i := range []int{0, 2, 1, 0} {
		want := recs[i]
		if err := d.decode(appendRecord(nil, want), scratch); err != nil {
			t.Fatalf("scratch decode of run %d: %v", want.Run, err)
		}
		if scratch.Run != want.Run || scratch.Seed != want.Seed || !reflect.DeepEqual(scratch.Err, want.Err) {
			t.Errorf("scratch decode of run %d: got run %d seed %d err %v", want.Run, scratch.Run, scratch.Seed, scratch.Err)
		}
		if want.Err != nil {
			continue
		}
		for di, v := range want.Verdicts {
			g := scratch.Verdicts[di]
			if g.Detector != v.Detector || g.Detected != v.Detected || g.Message != v.Message ||
				!slices.Equal(g.Rules, v.Rules) || scratch.Events[di] != want.Events[di] {
				t.Errorf("scratch decode of run %d, detector %d: got %+v (%d events), want %+v (%d)", want.Run, di, g, scratch.Events[di], v, want.Events[di])
			}
		}
	}
	// The payload must name exactly the log's detector set.
	if err := newRecordDecoder(dets[:1]).decode(appendRecord(nil, recs[0]), new(sweepRecord)); !errors.Is(err, errLogRecord) {
		t.Errorf("record with 2 verdicts decoded under 1 detector: err = %v", err)
	}
	// Every strict prefix of a payload is malformed, never a panic.
	full := appendRecord(nil, recs[0])
	for cut := 0; cut < len(full); cut++ {
		if err := d.decode(full[:cut], new(sweepRecord)); err == nil {
			t.Errorf("payload cut to %d of %d bytes decoded", cut, len(full))
		}
	}
}

// TestSweepLogParallelWritesRunOrder: parallel workers finish runs out of
// order, but the reorder buffer must hand them to the log in run order, so
// the file is byte-identical to a serial sweep's.
func TestSweepLogParallelWritesRunOrder(t *testing.T) {
	dir := t.TempDir()
	dets := shardDets()
	opts := SweepOptions{Runs: 64, BaseSeed: 9, Config: sim.Config{Name: "shard-prog"}}
	serial, parallel := opts, opts
	serial.Workers, serial.Checkpoint = 1, filepath.Join(dir, "serial.ck")
	parallel.Workers, parallel.Checkpoint = 8, filepath.Join(dir, "parallel.ck")
	Sweep(shardProg, serial, dets...)
	Sweep(shardProg, parallel, dets...)
	if !bytes.Equal(readFile(t, serial.Checkpoint), readFile(t, parallel.Checkpoint)) {
		t.Fatal("a sweep with 8 workers wrote a different log than a serial sweep")
	}
}

// TestSweepLogResumeAfterTornWrite cuts a finished log at every byte — the
// torn tails a crash mid-append leaves — and resumes from each cut. The
// resumed sweep must re-execute exactly the runs whose frames the cut
// damaged, and leave a file byte-identical to the uninterrupted sweep's.
func TestSweepLogResumeAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	dets := shardDets()
	opts := SweepOptions{Runs: 6, BaseSeed: 4, Workers: 1, Config: sim.Config{Name: "shard-prog"}}
	full := opts
	full.Checkpoint = filepath.Join(dir, "full.ck")
	want := stripElapsed(Sweep(shardProg, full, dets...))
	whole := readFile(t, full.Checkpoint)
	_, body, err := readLogHeader(whole)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{len(whole) - len(body)} // byte offset where each record frame ends
	for _, f := range splitFrames(t, body) {
		ends = append(ends, ends[len(ends)-1]+len(f))
	}

	cutPath := filepath.Join(dir, "cut.ck")
	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(cutPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		kept := 0 // records wholly inside the cut
		for _, end := range ends[1:] {
			if end <= cut {
				kept++
			}
		}
		var executed atomic.Int64
		o := opts
		o.Checkpoint = cutPath
		got := stripElapsed(Sweep(shardProg, o, countingDets(&executed, dets...)...))
		if n := executed.Load(); n != int64(opts.Runs-kept) {
			t.Fatalf("cut at %d of %d bytes: resume executed %d runs, want the %d lost ones", cut, len(whole), n, opts.Runs-kept)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: resumed fold differs:\n got  %+v\n want %+v", cut, got, want)
		}
		if !bytes.Equal(readFile(t, cutPath), whole) {
			t.Fatalf("cut at %d: resumed log is not byte-identical to the uninterrupted sweep's", cut)
		}
	}
}

// TestSweepLogResumeFillsHoles resumes a serial sweep from a merged log
// that lacks a middle shard: the resumed sweep executes only the missing
// runs, appends them after higher runs, and must still leave the canonical
// run-ordered file.
func TestSweepLogResumeFillsHoles(t *testing.T) {
	dir := t.TempDir()
	dets := shardDets()
	opts := SweepOptions{Runs: 15, BaseSeed: 2, Workers: 1, Config: sim.Config{Name: "shard-prog"}}
	serial := opts
	serial.Checkpoint = filepath.Join(dir, "serial.ck")
	Sweep(shardProg, serial, dets...)

	var srcs []string
	for _, s := range []int{0, 2} {
		so := opts
		so.ShardCount, so.ShardIndex = 3, s
		so.Checkpoint = filepath.Join(dir, "shard"+string(rune('0'+s))+".ck")
		Sweep(shardProg, so, dets...)
		srcs = append(srcs, so.Checkpoint)
	}
	holed := filepath.Join(dir, "holed.ck")
	if _, err := MergeSweepCheckpoints(holed, srcs, opts, dets...); err != nil {
		t.Fatal(err)
	}

	var executed atomic.Int64
	resumed := opts
	resumed.Checkpoint = holed
	Sweep(shardProg, resumed, countingDets(&executed, dets...)...)
	lo, hi := harness.Shard(opts.Runs, 3, 1)
	if n := executed.Load(); n != int64(hi-lo) {
		t.Fatalf("resume executed %d runs, want the missing shard's %d", n, hi-lo)
	}
	if !bytes.Equal(readFile(t, holed), readFile(t, serial.Checkpoint)) {
		t.Fatal("log resumed across a hole is not the canonical serial log")
	}
}

// faultOpts is a fault-injected sweep under the given fault seed.
func faultOpts(faultSeed int64, checkpoint string) SweepOptions {
	inj := inject.Options{Seed: faultSeed, Budget: 3}
	return SweepOptions{
		Runs: 12, BaseSeed: 3, Workers: 1, Checkpoint: checkpoint,
		Config:      sim.Config{Name: "harden-prog"},
		InjectorFor: func(run int, seed int64) sim.Injector { return inject.ForRun(inj, run) },
	}
}

// TestSweepResumeIdentityCoversRunParameters: a log written under one fault
// seed, step budget or leak threshold must not be resumed under another —
// the old records would fold a verdict the new options never produced.
func TestSweepResumeIdentityCoversRunParameters(t *testing.T) {
	dets := []Detector{MustLookup("race"), MustLookup("leak")}
	base := faultOpts(5, "")
	cases := []struct {
		name   string
		change func(*SweepOptions)
	}{
		{"fault seed", func(o *SweepOptions) { o.InjectorFor = faultOpts(6, "").InjectorFor }},
		{"fault budget", func(o *SweepOptions) {
			o.InjectorFor = func(run int, seed int64) sim.Injector {
				return inject.ForRun(inject.Options{Seed: 5, Budget: 4}, run)
			}
		}},
		{"fault mode", func(o *SweepOptions) {
			o.InjectorFor = func(run int, seed int64) sim.Injector {
				return inject.ForRun(inject.Options{Seed: 5, Budget: 3, Aggressive: true}, run)
			}
		}},
		{"step budget", func(o *SweepOptions) { o.Config.MaxSteps = 5000 }},
		{"leak threshold", func(o *SweepOptions) { o.Config.LeakThreshold = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := filepath.Join(t.TempDir(), "sweep.ck")
			first := base
			first.Checkpoint = cp
			Sweep(hardenProg, first, dets...)

			changed := base
			tc.change(&changed)
			fresh := stripElapsed(Sweep(hardenProg, changed, dets...))
			changed.Checkpoint = cp
			var executed atomic.Int64
			resumed := stripElapsed(Sweep(hardenProg, changed, countingDets(&executed, dets...)...))
			if n := executed.Load(); n != int64(changed.Runs) {
				t.Fatalf("resume under a different %s executed %d of %d runs: it reused the old log", tc.name, n, changed.Runs)
			}
			if !reflect.DeepEqual(resumed, fresh) {
				t.Fatalf("resumed fold differs from a fresh sweep:\n got  %+v\n want %+v", resumed, fresh)
			}
		})
	}
}

// TestMergeRejectsMismatchedFaultSeed: shards swept under different fault
// seeds are different experiments and must not fold into one report.
func TestMergeRejectsMismatchedFaultSeed(t *testing.T) {
	dir := t.TempDir()
	dets := []Detector{MustLookup("race"), MustLookup("leak")}
	var srcs []string
	for s, faultSeed := range []int64{5, 6} {
		so := faultOpts(faultSeed, filepath.Join(dir, "shard"+string(rune('0'+s))+".ck"))
		so.ShardCount, so.ShardIndex = 2, s
		Sweep(hardenProg, so, dets...)
		srcs = append(srcs, so.Checkpoint)
	}
	_, err := MergeSweepCheckpoints("", srcs, faultOpts(5, ""), dets...)
	if !errors.Is(err, ErrShardFingerprint) {
		t.Fatalf("merging shards with fault seeds 5 and 6: err = %v, want ErrShardFingerprint", err)
	}
}

// fuzzLogOpts is the small sweep FuzzSweepLog resumes and merges.
func fuzzLogOpts() SweepOptions {
	return SweepOptions{Runs: 5, BaseSeed: 1, Workers: 1, Config: sim.Config{Name: "shard-prog"}}
}

// FuzzSweepLog feeds arbitrary bytes to the log decoder through both of its
// callers. Resume must never panic and must reuse exactly the records of the
// longest valid, run-ordered prefix (re-executing the rest and leaving a
// valid log); merge must either fold or fail with an ErrShard* error. The
// resumed log then merges to the very report the resumed sweep returned:
// the one fold, fed once from the sweep's record table and once from the
// merge's decoded frames.
func FuzzSweepLog(f *testing.F) {
	dets := shardDets()
	opts := fuzzLogOpts()
	dir := f.TempDir()
	seed := opts
	seed.Checkpoint = filepath.Join(dir, "seed.ck")
	Sweep(shardProg, seed, dets...)
	whole, err := os.ReadFile(seed.Checkpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-5])
	f.Add([]byte{})
	f.Add([]byte("gcbstor1"))

	ident := sweepIdentity(opts, dets)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The records a resume may reuse: the run-ordered, CRC-valid,
		// decodable prefix after a matching header.
		reusable := 0
		if have, body, err := readLogHeader(data); err == nil && have == ident {
			scanRecords(body, opts, newRecordDecoder(dets), func(*sweepRecord) { reusable++ })
		}

		path := filepath.Join(t.TempDir(), "log.ck")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := MergeSweepCheckpoints("", []string{path}, opts, dets...); err != nil &&
			!errors.Is(err, ErrShardUnreadable) && !errors.Is(err, ErrShardFingerprint) && !errors.Is(err, ErrShardOverlap) {
			t.Fatalf("merge failed with an unclassified error: %v", err)
		}

		var executed atomic.Int64
		o := opts
		o.Checkpoint = path
		rep := Sweep(shardProg, o, countingDets(&executed, dets...)...)
		if n := executed.Load(); n != int64(opts.Runs-reusable) {
			t.Fatalf("resume executed %d runs, want %d (reusable prefix holds %d)", n, opts.Runs-reusable, reusable)
		}
		if rep.Completed+len(rep.Incomplete) != opts.Runs {
			t.Fatalf("resumed fold accounts %d+%d runs of %d", rep.Completed, len(rep.Incomplete), opts.Runs)
		}
		merged, err := MergeSweepCheckpoints("", []string{path}, opts, dets...)
		if err != nil {
			t.Fatalf("resumed log does not merge cleanly: %v", err)
		}
		if want := stripElapsed(rep); !reflect.DeepEqual(merged, want) {
			t.Fatalf("resumed log merges to another report:\n merged  %+v\n resumed %+v", merged, want)
		}
	})
}
