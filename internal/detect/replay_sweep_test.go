package detect

// Sweep-level record/replay equivalence: a sweep archived via RecordDir and
// re-judged by ReplayDir must fold to the very checkpoint bytes the live
// sweep wrote — serial, sharded, fault-injected, and when the replay attaches
// detectors the recording never ran.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/trace"
)

func mustKernel(t *testing.T, id string) kernels.Kernel {
	t.Helper()
	k, ok := kernels.ByID(id)
	if !ok {
		t.Fatalf("kernel %q not registered", id)
	}
	return k
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return data
}

// diffSweepReports compares the deterministic content of two sweep reports
// (wall times are process-local, so zeroed first — shard_test's helper).
func diffSweepReports(t *testing.T, label string, live, rep *SweepReport) {
	t.Helper()
	zeroElapsed(live)
	zeroElapsed(rep)
	lj, _ := json.Marshal(live)
	rj, _ := json.Marshal(rep)
	if !bytes.Equal(lj, rj) {
		t.Errorf("%s: replayed sweep report differs:\n live:   %s\n replay: %s", label, lj, rj)
	}
}

// TestSweepReplayFoldsToLiveCheckpoint archives a full sweep of a kernel and
// asserts ReplayDir's checkpoint is byte-identical to the live sweep's.
func TestSweepReplayFoldsToLiveCheckpoint(t *testing.T) {
	k := mustKernel(t, "docker-abba-order")
	dets := All()
	dir := t.TempDir()
	cpLive := filepath.Join(t.TempDir(), "live.ckpt")
	cpReplay := filepath.Join(t.TempDir(), "replay.ckpt")

	opts := SweepOptions{
		Runs: 24, BaseSeed: 3, Config: k.Config(3), Workers: 4,
		RecordDir: dir, Checkpoint: cpLive,
	}
	live := Sweep(k.Buggy, opts, dets...)

	files, _ := filepath.Glob(filepath.Join(dir, "*.trace"))
	if len(files) != opts.Runs {
		t.Fatalf("archive holds %d trace files, want %d", len(files), opts.Runs)
	}

	ropts := opts
	ropts.RecordDir, ropts.Checkpoint = "", cpReplay
	rep, err := ReplayDir(dir, ropts, dets...)
	if err != nil {
		t.Fatalf("ReplayDir: %v", err)
	}
	diffSweepReports(t, "serial", live, rep)
	if !bytes.Equal(readFile(t, cpLive), readFile(t, cpReplay)) {
		t.Error("replay checkpoint is not byte-identical to the live sweep's")
	}
}

// TestShardedRecordingsReplayToSerialCheckpoint records a sweep as two shard
// processes would — two Sweeps, each archiving its contiguous block into the
// same directory — and asserts the assembled archive replays to the exact
// checkpoint a serial live sweep writes.
func TestShardedRecordingsReplayToSerialCheckpoint(t *testing.T) {
	k := mustKernel(t, "grpc-missing-send")
	dets := All()
	dir := t.TempDir()
	cpSerial := filepath.Join(t.TempDir(), "serial.ckpt")
	cpReplay := filepath.Join(t.TempDir(), "replay.ckpt")

	base := SweepOptions{Runs: 20, BaseSeed: 11, Config: k.Config(11), Workers: 2}
	for shard := 0; shard < 2; shard++ {
		opts := base
		opts.RecordDir = dir
		opts.ShardCount, opts.ShardIndex = 2, shard
		Sweep(k.Buggy, opts, dets...)
	}

	serialOpts := base
	serialOpts.Checkpoint = cpSerial
	live := Sweep(k.Buggy, serialOpts, dets...)

	ropts := base
	ropts.Checkpoint = cpReplay
	rep, err := ReplayDir(dir, ropts, dets...)
	if err != nil {
		t.Fatalf("ReplayDir: %v", err)
	}
	diffSweepReports(t, "sharded", live, rep)
	if !bytes.Equal(readFile(t, cpSerial), readFile(t, cpReplay)) {
		t.Error("replay of the sharded archive is not byte-identical to the serial live checkpoint")
	}
}

// TestFaultInjectedSweepReplaysIdentically archives a benign fault-injected
// sweep and asserts replay folds to the live checkpoint — injected runs are
// attributable (plan in the trailer) and re-judgeable like any other.
func TestFaultInjectedSweepReplaysIdentically(t *testing.T) {
	k := mustKernel(t, "docker-abba-order")
	dets := All()
	dir := t.TempDir()
	cpLive := filepath.Join(t.TempDir(), "live.ckpt")
	cpReplay := filepath.Join(t.TempDir(), "replay.ckpt")
	injectorFor := func(run int, seed int64) sim.Injector {
		return inject.ForRun(inject.Options{Seed: 9, Budget: 2}, run)
	}

	opts := SweepOptions{
		Runs: 20, BaseSeed: 1, Config: k.Config(1), Workers: 4,
		InjectorFor: injectorFor, RecordDir: dir, Checkpoint: cpLive,
	}
	live := Sweep(k.Buggy, opts, dets...)

	ropts := opts
	ropts.RecordDir, ropts.Checkpoint = "", cpReplay
	rep, err := ReplayDir(dir, ropts, dets...)
	if err != nil {
		t.Fatalf("ReplayDir: %v", err)
	}
	diffSweepReports(t, "fault-injected", live, rep)
	if !bytes.Equal(readFile(t, cpLive), readFile(t, cpReplay)) {
		t.Error("fault-injected replay checkpoint differs from the live sweep's")
	}

	// At least one frame must carry a recorded plan in its header — that is
	// the re-execution recipe for archived injected runs.
	found := false
	files, _ := filepath.Glob(filepath.Join(dir, "*.trace"))
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := tr.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if len(meta.FaultPlan) > 0 {
			if _, err := inject.DecodePlan(meta.FaultPlan); err != nil {
				t.Errorf("%s: header plan does not decode: %v", path, err)
			}
			found = true
		}
		f.Close()
	}
	if !found {
		t.Error("no archived frame carries a fault-plan header despite InjectorFor being set")
	}
}

// TestReplayWithDetectorsUnknownAtRecordTime records a sweep judged by the
// race detector alone, then replays the archive under the full registry and
// asserts the result equals a live sweep with the full registry — re-judging
// old archives with new detectors is the point of the archive.
func TestReplayWithDetectorsUnknownAtRecordTime(t *testing.T) {
	k := mustKernel(t, "kubernetes-map-race")
	dir := t.TempDir()
	cpLive := filepath.Join(t.TempDir(), "live.ckpt")
	cpReplay := filepath.Join(t.TempDir(), "replay.ckpt")

	opts := SweepOptions{Runs: 16, BaseSeed: 2, Config: k.Config(2), Workers: 2, RecordDir: dir}
	Sweep(k.Buggy, opts, MustLookup("race"))

	full := All()
	liveOpts := opts
	liveOpts.RecordDir, liveOpts.Checkpoint = "", cpLive
	live := Sweep(k.Buggy, liveOpts, full...)

	ropts := opts
	ropts.RecordDir, ropts.Checkpoint = "", cpReplay
	rep, err := ReplayDir(dir, ropts, full...)
	if err != nil {
		t.Fatalf("ReplayDir: %v", err)
	}
	diffSweepReports(t, "new-detectors", live, rep)
	if !bytes.Equal(readFile(t, cpLive), readFile(t, cpReplay)) {
		t.Error("replaying with detectors unknown at record time does not match the live full-registry sweep")
	}
}

// TestReplayDirStructuredErrors pins the failure modes: empty directories,
// archives recorded under different options, duplicated runs, frames whose
// seed is not their run's, and frames beyond the sweep's range all fail with
// structured errors, never panics.
func TestReplayDirStructuredErrors(t *testing.T) {
	k := mustKernel(t, "docker-abba-order")
	dets := []Detector{MustLookup("race")}
	dir := t.TempDir()
	opts := SweepOptions{Runs: 4, BaseSeed: 1, Config: k.Config(1), Workers: 1, RecordDir: dir}
	Sweep(k.Buggy, opts, dets...)

	t.Run("empty-dir", func(t *testing.T) {
		if _, err := ReplayDir(t.TempDir(), opts, dets...); err == nil {
			t.Error("want error for an archive-less directory")
		}
	})
	t.Run("fingerprint-mismatch", func(t *testing.T) {
		wrong := opts
		wrong.Config.Name = "some-other-kernel"
		_, err := ReplayDir(dir, wrong, dets...)
		var fe *trace.FingerprintError
		if !errors.As(err, &fe) {
			t.Errorf("want *trace.FingerprintError, got %v", err)
		}
	})
	t.Run("fault-seed-mismatch", func(t *testing.T) {
		rec := opts
		rec.RecordDir = t.TempDir()
		rec.InjectorFor = faultOpts(1, "").InjectorFor
		Sweep(k.Buggy, rec, dets...)
		wrong := rec
		wrong.RecordDir = ""
		wrong.InjectorFor = faultOpts(9, "").InjectorFor
		_, err := ReplayDir(rec.RecordDir, wrong, dets...)
		var fe *trace.FingerprintError
		if !errors.As(err, &fe) {
			t.Errorf("replaying a fault-seed-1 archive as fault seed 9: want *trace.FingerprintError, got %v", err)
		}
	})
	t.Run("duplicate-run", func(t *testing.T) {
		dup := filepath.Join(dir, "zz-dup.trace")
		data := readFile(t, filepath.Join(dir, "run-00000.trace"))
		if err := os.WriteFile(dup, data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(dup)
		if _, err := ReplayDir(dir, opts, dets...); err == nil {
			t.Error("want error for a run archived twice")
		}
	})
	t.Run("foreign-seed", func(t *testing.T) {
		// Run 3's frame, under the archive's own fingerprint, claims a
		// seed that is not run 3's.
		forged := t.TempDir()
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("run-%05d.trace", i)
			if err := os.WriteFile(filepath.Join(forged, name), readFile(t, filepath.Join(dir, name)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(forged, "run-00003.trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg := opts.Config
		cfg.Seed = 999
		rec := trace.NewWriter(f).BeginRun(trace.RunMeta{
			Fingerprint: sweepIdentity(opts, nil), Name: cfg.Name,
			Run: 3, Runs: opts.Runs, BaseSeed: opts.BaseSeed, Seed: cfg.Seed, MaxSteps: cfg.MaxSteps,
		})
		cfg.Sinks = []event.Sink{rec}
		if err := rec.FinishRun(sim.Run(cfg, k.Buggy), nil); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = ReplayDir(forged, opts, dets...)
		if err == nil {
			t.Fatal("want error for a frame whose seed is not its run's")
		}
		for _, want := range []string{path, "run 3", "seed 999", "seed 4"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	})
	t.Run("run-out-of-range", func(t *testing.T) {
		small := opts
		small.Runs = 2
		// Runs is part of the trace fingerprint, so shrinking it trips the
		// fingerprint check before the range check — both reject the
		// archive, which is what matters.
		if _, err := ReplayDir(dir, small, dets...); err == nil {
			t.Error("want error replaying a 4-run archive as a 2-run sweep")
		}
	})
	t.Run("no-frames", func(t *testing.T) {
		var hdr bytes.Buffer
		trace.NewWriter(&hdr).Flush()
		if _, err := RunAllTrace(bytes.NewReader(hdr.Bytes()), dets...); err == nil {
			t.Error("want error for a frame-less trace")
		}
	})
}
