package engine

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzJobDecode feeds arbitrary bytes to the daemon's job decoder and the
// checks every submission passes before it may execute — normalize,
// Validate and cacheKey — without ever running a job. Nothing may panic; an
// accepted job's counts stay within maxJobSize; and re-encoding an accepted
// job decodes to one that validates under the same cache key, so a job
// forwarded from one daemon to another keeps its identity.
func FuzzJobDecode(f *testing.F) {
	// The shapes the CLI (cmd/godetect/run.go), a fleet coordinator and the
	// benchmark's workloads submit.
	for _, job := range []Job{
		{Kind: KindRun, Kernel: "docker-abba-order", Runs: 100},
		{Kind: KindRun, Kernel: "cockroachdb-6111-status", Fixed: true, Runs: 100, Seed: 1,
			Faults: 3, FaultSeed: 7, Aggressive: true, Shadow: 4, Vet: true, Deadline: time.Minute},
		{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 20, Seed: 1, Detectors: []string{"leak", "cycle"},
			Checkpoint: "cp", RecordDir: "archive"},
		{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 20, Seed: 1, Detectors: []string{"race"}, ReplayDir: "archive"},
		{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 2000, Detectors: []string{"cycle"}, Checkpoint: "cp", Shards: 4, Shard: 2},
		{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 2000, Detectors: []string{"cycle"}, Checkpoint: "cp", Shards: 4, Fold: true},
		{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 20000, Seed: 1, Detectors: []string{"race", "vet", "leak", "cycle"},
			Shards: 4, Shard: 1, InlineShard: true, Deadline: time.Minute},
		{Kind: KindSweep, Kernel: "etcd-shutdown-flag", Fixed: true, Runs: 100, Seed: 123456,
			Detectors: []string{"race", "vet", "leak", "cycle"}},
		{Kind: KindSystematic, Kernel: "docker-abba-order", MaxRuns: 200_000, DPOR: true},
		{Kind: KindConformance, Programs: 200, Seed: 1, Families: "cond,timer", Deadline: time.Minute},
	} {
		raw, err := json.Marshal(job)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"kind":"sweep","kernel":"docker-abba-order","detectors":["cycle"],"runs":4611686018427387904}`))
	f.Add([]byte(`{"kind":"run","kernel":"docker-abba-order","runs":-5,"unknown":1}`))
	f.Add([]byte(`{"kind":"systematic","kernel":"docker-abba-order","runs":-5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := decodeJob(bytes.NewReader(data))
		if err != nil {
			return
		}
		job.normalize()
		if job.Validate() != nil {
			return
		}
		for _, n := range []int{job.Runs, job.Programs, job.Shards} {
			if n < 0 || n > maxJobSize {
				t.Fatalf("accepted job with count %d outside [0, %d]: %+v", n, maxJobSize, job)
			}
		}
		key, cacheable := job.cacheKey()

		raw, err := json.Marshal(job)
		if err != nil {
			t.Fatalf("re-encoding accepted job: %v", err)
		}
		again, err := decodeJob(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded job %s does not decode: %v", raw, err)
		}
		again.normalize()
		if err := again.Validate(); err != nil {
			t.Fatalf("re-encoded job %s no longer validates: %v", raw, err)
		}
		if key2, cacheable2 := again.cacheKey(); key2 != key || cacheable2 != cacheable {
			t.Fatalf("re-encoded job %s changed its cache key:\n  %+v (%v)\n  %+v (%v)", raw, key, cacheable, key2, cacheable2)
		}
	})
}
