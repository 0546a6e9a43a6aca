package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smoke runs one workload at tiny sizes through the command's entry point
// and returns its result line.
func smoke(t *testing.T, workload, trace string) result {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace}, tinySizes, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("checks failed: %+v\n%s", res, stdout.String())
	}
	if !strings.Contains(stdout.String(), "host: GOMAXPROCS=") {
		t.Errorf("no host facts line:\n%s", stdout.String())
	}
	return res
}

// wantMetrics checks that res carries exactly specs, units included.
func wantMetrics(t *testing.T, res result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		if !ok {
			t.Errorf("metric %s missing", s.name)
		} else if m.Unit != s.unit {
			t.Errorf("metric %s unit %q, want %q", s.name, m.Unit, s.unit)
		}
	}
}

// measured lists, per workload, the per-layer metrics its traced run must
// measure as non-zero: the layers the workload exercises.
var measured = map[string][]string{
	"kernel-mix": {
		"sim.us_per_run", "sim.steps_per_run", "sim.ns_per_step",
		"detect.race.us_per_run", "detect.vet.us_per_run", "detect.leak.us_per_run", "detect.cycle.us_per_run",
		"explore.us_per_run",
	},
	"fleet-sweep": {
		"sim.us_per_run", "sim.steps_per_run", "detect.vet.events_per_run",
		"harness.checkpoint_mb", "harness.merge_s",
		"fleet.shard_rpc_s", "fleet.shard_mb", "fleet.fold_s",
	},
	"serve-mix": {
		"sim.us_per_run", "detect.vet.us_per_run",
		"engine.hit_ratio", "engine.coalesced_frac", "store.get_us", "store.put_ms",
		"http.warm_rtt_us", "http.health_rtt_us",
	},
}

func TestSmoke(t *testing.T) {
	for _, w := range []string{"kernel-mix", "fleet-sweep", "serve-mix"} {
		t.Run(w, func(t *testing.T) {
			wantMetrics(t, smoke(t, w, "0"), endToEnd)
			res := smoke(t, w, "1")
			wantMetrics(t, res, perLayer)
			for _, name := range measured[w] {
				if res.Metrics[name].Value == 0 {
					t.Errorf("traced %s: %s is 0", w, name)
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json registers exactly the
// workloads and metrics the command runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not a workload", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, command %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
