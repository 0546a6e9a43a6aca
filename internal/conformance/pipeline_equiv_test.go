package conformance

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/explore"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/trace"
	"goconcbugs/internal/vet"
)

// Coverage of the unified event stream over the kernels and the generated
// IR corpus: attaching sinks must never perturb a run, and the DPOR
// explorer — fed by event.Sched — must keep its schedule counts
// deterministic.

const pipelinePrograms = 200

func pipelineModes(seed int64) Mode {
	if seed%2 == 0 {
		return ModeSafe
	}
	return ModeRacy
}

// renderTrace runs prog under a text trace sink plus extra and returns the
// rendered trace.
func renderTrace(cfg sim.Config, prog sim.Program, extra ...event.Sink) string {
	var b bytes.Buffer
	cfg.Sinks = append([]event.Sink{sim.NewTextTraceSink(&b)}, extra...)
	sim.Run(cfg, prog)
	return b.String()
}

// traceDiff locates the first difference between two rendered traces.
func traceDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d vs %d lines", len(al), len(bl))
}

// checkSinksDoNotPerturb requires the trace of prog rendered with the text
// sink alone to equal the trace rendered with the race detector, the rule
// monitor and a trace recorder also attached.
func checkSinksDoNotPerturb(t *testing.T, label string, cfg sim.Config, prog sim.Program) {
	t.Helper()
	alone := renderTrace(cfg, prog)
	var archive bytes.Buffer
	rec := trace.NewWriter(&archive).BeginRun(trace.RunMeta{Name: cfg.Name, Seed: cfg.Seed})
	if all := renderTrace(cfg, prog, race.New(0), vet.New(), rec); all != alone {
		t.Errorf("%s: the sink set perturbed the run; traces differ at %s", label, traceDiff(alone, all))
	}
}

// TestSinksDoNotPerturbKernelRuns pins that the sink set never changes a
// run of any kernel, buggy or fixed.
func TestSinksDoNotPerturbKernelRuns(t *testing.T) {
	for _, k := range kernels.All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			checkSinksDoNotPerturb(t, "buggy", k.Config(1), k.Buggy)
			checkSinksDoNotPerturb(t, "fixed", k.Config(1), k.Fixed)
		})
	}
}

// TestSinksDoNotPerturbGeneratedRuns pins the same over the generated
// corpus.
func TestSinksDoNotPerturbGeneratedRuns(t *testing.T) {
	n := pipelinePrograms
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < int64(n); seed++ {
		prog, _ := simProgram(Generate(seed, pipelineModes(seed)))
		checkSinksDoNotPerturb(t, fmt.Sprintf("seed %d", seed), sim.Config{Seed: seed, Name: "pipeline-equiv"}, prog)
	}
}

// TestDPORScheduleCountsDeterministicOnGeneratedPrograms re-runs the
// reduced exploration — whose race-reversal analysis is now fed purely by
// event.Sched / event.SelectReady events — and requires identical schedule
// and pruning counts, program by program.
func TestDPORScheduleCountsDeterministicOnGeneratedPrograms(t *testing.T) {
	n := pipelinePrograms
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < int64(n); seed += 10 {
		p := Generate(seed, pipelineModes(seed))
		prog, _ := simProgram(p)
		run := func() *explore.SystematicResult {
			return explore.Systematic(prog, explore.SystematicOptions{
				Config:    sim.Config{Name: "pipeline-dpor"},
				MaxRuns:   300,
				Reduction: true,
			})
		}
		a, b := run(), run()
		if a.Runs != b.Runs || a.SchedulesPruned != b.SchedulesPruned ||
			a.SleepSetHits != b.SleepSetHits || a.Complete != b.Complete ||
			a.Failures != b.Failures || !reflect.DeepEqual(a.FailureSchedule, b.FailureSchedule) {
			t.Errorf("seed %d: DPOR exploration not deterministic:\n  first:  runs=%d pruned=%d sleep=%d complete=%v failures=%d\n  second: runs=%d pruned=%d sleep=%d complete=%v failures=%d",
				seed, a.Runs, a.SchedulesPruned, a.SleepSetHits, a.Complete, a.Failures,
				b.Runs, b.SchedulesPruned, b.SleepSetHits, b.Complete, b.Failures)
		}
	}
}
