package detect

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"goconcbugs/internal/frame"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/sim"
)

// shardProg has a real data race, so different seeds fold different verdicts
// — a merge that mixed up records would not go unnoticed.
func shardProg(tt *sim.T) {
	x := sim.NewVar[int](tt, "x")
	done := sim.NewChan[int](tt, 2)
	tt.Go(func(ct *sim.T) { x.Store(ct, 1); done.Send(ct, 1) })
	tt.Go(func(ct *sim.T) { x.Store(ct, 2); done.Send(ct, 2) })
	done.Recv(tt)
	done.Recv(tt)
}

func shardDets() []Detector {
	return []Detector{MustLookup("race"), MustLookup("leak")}
}

func zeroElapsed(r *SweepReport) {
	for i := range r.Detectors {
		r.Detectors[i].Elapsed = 0
	}
}

// TestShardedSweepFoldsIdenticalToSerial is the sharding contract: four
// shard processes, each sweeping its own contiguous seed block into its own
// checkpoint, merge into the byte-identical checkpoint file — and the
// identical report — a serial sweep of the same options produces.
func TestShardedSweepFoldsIdenticalToSerial(t *testing.T) {
	dir := t.TempDir()
	dets := shardDets()
	opts := SweepOptions{Runs: 23, BaseSeed: 5, Config: sim.Config{Name: "shard-prog"}}

	serialOpts := opts
	serialOpts.Checkpoint = filepath.Join(dir, "serial.ck")
	serial := Sweep(shardProg, serialOpts, dets...)
	if serial.Verdict.Status != harness.Confirmed {
		t.Fatalf("serial sweep verdict = %v, want confirmed (the program races)", serial.Verdict)
	}

	const shards = 4
	var srcs []string
	for s := 0; s < shards; s++ {
		so := opts
		so.ShardCount, so.ShardIndex = shards, s
		so.Checkpoint = filepath.Join(dir, "shard"+string(rune('0'+s))+".ck")
		so.Workers = 1 + s%2 // serial and parallel shards must fold the same
		srcs = append(srcs, so.Checkpoint)
		rep := Sweep(shardProg, so, dets...)
		lo, hi := harness.Shard(opts.Runs, shards, s)
		if rep.Runs != hi-lo || rep.Completed != hi-lo {
			t.Fatalf("shard %d: Runs=%d Completed=%d, want both %d", s, rep.Runs, rep.Completed, hi-lo)
		}
	}

	mergedPath := filepath.Join(dir, "merged.ck")
	merged, err := MergeSweepCheckpoints(mergedPath, srcs, opts, dets...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}

	serialBytes, err := os.ReadFile(serialOpts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	mergedBytes, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialBytes, mergedBytes) {
		t.Errorf("merged checkpoint differs from serial checkpoint:\n  serial: %d bytes\n  merged: %d bytes", len(serialBytes), len(mergedBytes))
	}

	zeroElapsed(serial)
	zeroElapsed(merged)
	if !reflect.DeepEqual(serial, merged) {
		t.Errorf("merged report differs from serial:\n  serial: %+v\n  merged: %+v", serial, merged)
	}
}

// TestMergeSweepCheckpointsRejectsMisuse: a checkpoint from different
// options, and overlapping shards, are partitioning bugs the merge must
// refuse rather than fold into a wrong verdict.
func TestMergeSweepCheckpointsRejectsMisuse(t *testing.T) {
	dir := t.TempDir()
	dets := shardDets()
	opts := SweepOptions{Runs: 8, BaseSeed: 1, Config: sim.Config{Name: "shard-prog"}}

	so := opts
	so.ShardCount, so.ShardIndex = 2, 0
	so.Checkpoint = filepath.Join(dir, "half.ck")
	Sweep(shardProg, so, dets...)

	other := opts
	other.BaseSeed = 99
	if _, err := MergeSweepCheckpoints("", []string{so.Checkpoint}, other, dets...); err == nil {
		t.Error("merging a checkpoint written under a different base seed did not fail")
	}
	if _, err := MergeSweepCheckpoints("", []string{so.Checkpoint, so.Checkpoint}, opts, dets...); err == nil {
		t.Error("merging the same shard twice (overlapping records) did not fail")
	}
	if _, err := MergeSweepCheckpoints("", []string{filepath.Join(dir, "absent.ck")}, opts, dets...); err == nil {
		t.Error("merging a missing checkpoint file did not fail")
	}
}

// TestMergeSweepCheckpointsAdversarial is the structured-error contract for
// the merge under adversarial inputs: overlapping shard ranges, a missing
// shard file, the same shard file listed twice, damaged logs (torn, bit
// flipped, reordered, out of range), and fingerprints from different
// options must all classify via the ErrShard* sentinels instead of folding
// a wrong verdict silently.
func TestMergeSweepCheckpointsAdversarial(t *testing.T) {
	dir := t.TempDir()
	dets := shardDets()
	opts := SweepOptions{Runs: 12, BaseSeed: 2, Config: sim.Config{Name: "shard-prog"}}

	// Honest 2-way sharding, plus a deliberately overlapping 3-way shard 0
	// (runs 0-3) that collides with 2-way shard 0 (runs 0-5).
	shardFile := func(count, index int) string {
		so := opts
		so.ShardCount, so.ShardIndex = count, index
		so.Checkpoint = filepath.Join(dir, fmt.Sprintf("s%d-of-%d.ck", index, count))
		Sweep(shardProg, so, dets...)
		return so.Checkpoint
	}
	half0, half1 := shardFile(2, 0), shardFile(2, 1)
	third0 := shardFile(3, 0)

	otherSeed := opts
	otherSeed.BaseSeed = 99
	otherSeedFile := filepath.Join(dir, "other-seed.ck")
	{
		so := otherSeed
		so.ShardCount, so.ShardIndex = 2, 0
		so.Checkpoint = otherSeedFile
		Sweep(shardProg, so, dets...)
	}

	shortRuns := opts
	shortRuns.Runs = 6
	shortFile := filepath.Join(dir, "short.ck")
	{
		so := shortRuns
		so.ShardCount, so.ShardIndex = 2, 0
		so.Checkpoint = shortFile
		Sweep(shardProg, so, dets...)
	}
	// Hand-damaged copies of the honest shard log: cut mid-record, one bit
	// flipped in a record, two records swapped, and a record moved past
	// the seed range. Each is a log no sweep writes, so each must be
	// refused as unreadable rather than folded.
	honest := readFile(t, half0)
	_, body, err := readLogHeader(honest)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := len(honest) - len(body)
	frames := splitFrames(t, body)
	damaged := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tornFile := damaged("torn.ck", honest[:len(honest)-3])
	flipped := append([]byte(nil), honest...)
	flipped[hdrLen+len(frames[0])+10] ^= 0x04
	flipFile := damaged("flip.ck", flipped)
	swapped := append([]byte(nil), honest[:hdrLen]...)
	swapped = append(append(append(swapped, frames[1]...), frames[0]...), bytes.Join(frames[2:], nil)...)
	swapFile := damaged("swap.ck", swapped)
	far := &sweepRecord{Run: opts.Runs, Seed: opts.BaseSeed + int64(opts.Runs), Err: &harness.RunError{PanicValue: "x"}}
	rangeFile := damaged("range.ck", frame.Append(append([]byte(nil), honest...), appendRecord(nil, far)))
	garbageFile := damaged("garbage.ck", []byte("not a sweep log"))

	cases := []struct {
		name string
		srcs []string
		want error
	}{
		{"overlapping shard ranges", []string{half0, third0}, ErrShardOverlap},
		{"same file listed twice", []string{half0, half0}, ErrShardOverlap},
		{"missing shard file", []string{half0, filepath.Join(dir, "absent.ck")}, ErrShardUnreadable},
		{"corrupt shard file", []string{garbageFile}, ErrShardUnreadable},
		{"mismatched fingerprint (base seed)", []string{otherSeedFile}, ErrShardFingerprint},
		{"mismatched fingerprint (runs)", []string{shortFile}, ErrShardFingerprint},
		{"torn tail", []string{tornFile}, ErrShardUnreadable},
		{"bit flip in a record", []string{flipFile}, ErrShardUnreadable},
		{"records out of run order", []string{swapFile}, ErrShardUnreadable},
		{"record past the seed range", []string{rangeFile}, ErrShardUnreadable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := filepath.Join(dir, "dst-"+tc.name+".ck")
			rep, err := MergeSweepCheckpoints(dst, tc.srcs, opts, dets...)
			if err == nil {
				t.Fatalf("merge folded silently: %+v", rep.Verdict)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}

	// The honest pair still folds — the adversarial rejections above are not
	// false positives from an over-strict merge.
	if _, err := MergeSweepCheckpoints("", []string{half0, half1}, opts, dets...); err != nil {
		t.Fatalf("honest merge failed: %v", err)
	}
}

// TestMergeSweepCheckpointsFoldsMissingShardAsIncomplete: when a shard never
// ran, its seeds fold as incomplete — the merge reports a partial campaign
// honestly instead of silently refuting on the seeds it happens to have.
func TestMergeSweepCheckpointsFoldsMissingShardAsIncomplete(t *testing.T) {
	dir := t.TempDir()
	dets := shardDets()
	opts := SweepOptions{Runs: 10, BaseSeed: 3, Config: sim.Config{Name: "shard-prog"}}

	so := opts
	so.ShardCount, so.ShardIndex = 2, 1
	so.Checkpoint = filepath.Join(dir, "only-half.ck")
	Sweep(shardProg, so, dets...)

	merged, err := MergeSweepCheckpoints("", []string{so.Checkpoint}, opts, dets...)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := harness.Shard(opts.Runs, 2, 1)
	if merged.Completed != hi-lo {
		t.Fatalf("Completed = %d, want the executed shard's %d runs", merged.Completed, hi-lo)
	}
	if len(merged.Incomplete) != lo {
		t.Fatalf("Incomplete = %d seeds, want the missing shard's %d", len(merged.Incomplete), lo)
	}
}
