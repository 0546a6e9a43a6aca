package detect

// The differential replay suite: "trace-in, verdict-out" is only trustworthy
// if judging an archived stream is indistinguishable from judging the live
// run it recorded. These tests pin that equivalence at the pipeline level —
// verdicts, per-detector event counts, and the event ordering itself — over
// every kernel (buggy and fixed), a corpus of generated conformance-IR
// programs, a DPOR-discovered schedule, and fault-injected runs (whose
// FaultInject events must round-trip with site and action intact).

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"goconcbugs/internal/conformance"
	"goconcbugs/internal/event"
	"goconcbugs/internal/explore"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/trace"
)

// renderReplayEvent canonicalizes one event during the sink callback (the
// Event and its slices are runtime-owned and reused, so rendering doubles as
// the cloning step).
func renderReplayEvent(ev *event.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s step=%d time=%d g=%d gname=%q vc=%s held=%q obj=%q objid=%d",
		ev.Kind, ev.Step, ev.Time, ev.G, ev.GName, ev.VC.String(), ev.HeldLocks, ev.Obj, ev.ObjID)
	if ev.Var != nil {
		fmt.Fprintf(&b, " var={%d %q %d}", ev.Var.ID, ev.Var.Name, ev.Var.CreatedBy)
	}
	fmt.Fprintf(&b, " ctr=%d delta=%d aux=%d dec=%d detail=%q",
		ev.Counter, ev.Delta, ev.Aux, ev.Dec, ev.Detail)
	if s := ev.Sched; s != nil {
		fmt.Fprintf(&b, " sched={g=%d dec=%d pref=%d opts=%v nops=%d}",
			s.G, s.Decision, s.Preferred, s.OptionGs, len(s.Ops))
	}
	return b.String()
}

// streamSink captures the full rendered stream of a run, live or replayed.
type streamSink struct{ events []string }

func (s *streamSink) Kinds() []event.Kind   { return event.AllKinds() }
func (s *streamSink) Event(ev *event.Event) { s.events = append(s.events, renderReplayEvent(ev)) }

// recordJudged runs prog through RunAll with a trace Recorder and a stream
// capture attached, returning the single-frame archive, the live report, and
// the live stream. The injected fault plan (when cfg carries an injector)
// lands in the frame trailer exactly as the sweep recorder writes it.
func recordJudged(t testing.TB, cfg sim.Config, prog sim.Program, dets []Detector) ([]byte, *Report, []string) {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	var planSpec []byte
	if p, ok := cfg.Injector.(planner); ok {
		planSpec, _ = p.Plan().Encode()
	}
	rec := tw.BeginRun(trace.RunMeta{
		Name: cfg.Name, Runs: 1, Seed: cfg.Seed,
		MaxSteps: cfg.MaxSteps, LeakThreshold: cfg.LeakThreshold,
		FaultPlan: planSpec,
	})
	capt := &streamSink{}
	cfg.Sinks = append(cfg.Sinks[:len(cfg.Sinks):len(cfg.Sinks)], capt, rec)
	live := RunAll(cfg, prog, dets...)
	var plan []byte
	if p, ok := cfg.Injector.(planner); ok {
		plan, _ = p.Plan().Encode()
	}
	if err := rec.FinishRun(live.Result, plan); err != nil {
		t.Fatalf("FinishRun: %v", err)
	}
	return buf.Bytes(), live, capt.events
}

// replayedStream decodes the archive's event stream alone, for ordering
// comparisons against the live capture.
func replayedStream(t testing.TB, data []byte) []string {
	t.Helper()
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := tr.NextRun(); err != nil {
		t.Fatalf("NextRun: %v", err)
	}
	capt := &streamSink{}
	if _, err := tr.Replay(event.NewMux([]event.Sink{capt})); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return capt.events
}

// diffReports fails the test unless the replayed report matches the live one
// on everything deterministic: outcome, verdicts, and per-detector event
// counts (wall times are process wall-clock and excluded by design).
func diffReports(t *testing.T, label string, live, rep *Report) {
	t.Helper()
	if live.Result.Outcome != rep.Result.Outcome {
		t.Errorf("%s: outcome live=%v replay=%v", label, live.Result.Outcome, rep.Result.Outcome)
	}
	if !reflect.DeepEqual(live.Verdicts, rep.Verdicts) {
		t.Errorf("%s: verdicts differ:\n live:   %+v\n replay: %+v", label, live.Verdicts, rep.Verdicts)
	}
	for i := range live.Stats {
		if live.Stats[i].Events != rep.Stats[i].Events {
			t.Errorf("%s: %s consumed %d events live, %d on replay",
				label, live.Stats[i].Detector, live.Stats[i].Events, rep.Stats[i].Events)
		}
	}
}

func diffStreams(t *testing.T, label string, live, replayed []string) {
	t.Helper()
	if len(live) != len(replayed) {
		t.Fatalf("%s: replay delivered %d events, live %d", label, len(replayed), len(live))
	}
	for i := range live {
		if live[i] != replayed[i] {
			t.Fatalf("%s: event %d differs:\n live:   %s\n replay: %s", label, i, live[i], replayed[i])
		}
	}
}

// TestReplayMatchesLiveOnKernels records one live judged run per kernel and
// variant and asserts RunAllTrace over the archive is bit-identical to the
// live RunAll: same verdicts, same per-detector counts, same stream.
func TestReplayMatchesLiveOnKernels(t *testing.T) {
	dets := All()
	for _, k := range kernels.All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			for variant, prog := range map[string]sim.Program{"buggy": k.Buggy, "fixed": k.Fixed} {
				data, live, stream := recordJudged(t, k.Config(1), prog, dets)
				rep, err := RunAllTrace(bytes.NewReader(data), dets...)
				if err != nil {
					t.Fatalf("%s: RunAllTrace: %v", variant, err)
				}
				diffReports(t, variant, live, rep)
				diffStreams(t, variant, stream, replayedStream(t, data))
			}
		})
	}
}

// TestReplayMatchesLiveOnGeneratedPrograms is the same equivalence over 200
// conformance-IR programs — the full statement taxonomy (channels, select,
// mutexes, cond, timers, contexts, semaphores) flows through the codec, not
// just the kernels' shapes.
func TestReplayMatchesLiveOnGeneratedPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("200-program corpus; skipped in -short")
	}
	dets := All()
	for seed := int64(0); seed < 200; seed++ {
		p := conformance.Generate(seed, conformance.ModeSafe)
		cfg := sim.Config{Name: fmt.Sprintf("conformance-%d", seed), Seed: seed}
		data, live, stream := recordJudged(t, cfg, conformance.SimProgram(p), dets)
		rep, err := RunAllTrace(bytes.NewReader(data), dets...)
		if err != nil {
			t.Fatalf("seed %d: RunAllTrace: %v", seed, err)
		}
		label := fmt.Sprintf("seed %d", seed)
		diffReports(t, label, live, rep)
		diffStreams(t, label, stream, replayedStream(t, data))
	}
}

// TestReplayMatchesLiveOnDPORSchedule archives a run driven by a schedule
// that dynamic partial-order reduction discovered (the first failing decision
// sequence of a reduced exploration) and asserts offline replay reproduces
// the live verdicts on it — DPOR-found interleavings archive like any other.
func TestReplayMatchesLiveOnDPORSchedule(t *testing.T) {
	k, ok := kernels.ByID("docker-abba-order")
	if !ok {
		t.Fatal("kernel docker-abba-order not registered")
	}
	res := explore.Systematic(k.Buggy, explore.SystematicOptions{
		Config: k.Config(0), MaxRuns: 50_000, Reduction: true,
	})
	if res.FailureSchedule == nil {
		t.Fatal("DPOR exploration found no failing schedule for docker-abba-order/buggy")
	}
	cfg := k.Config(0)
	choose, check := explore.ScheduleChooser(res.FailureSchedule)
	cfg.Chooser = choose
	dets := All()
	data, live, stream := recordJudged(t, cfg, k.Buggy, dets)
	if err := check(); err != nil {
		t.Fatalf("DPOR schedule did not replay cleanly under the pipeline: %v", err)
	}
	if !live.Detected() {
		t.Fatal("the DPOR failing schedule fired no detector live — schedule not reproduced")
	}
	rep, err := RunAllTrace(bytes.NewReader(data), dets...)
	if err != nil {
		t.Fatalf("RunAllTrace: %v", err)
	}
	diffReports(t, "dpor-schedule", live, rep)
	diffStreams(t, "dpor-schedule", stream, replayedStream(t, data))
}

// TestReplayMatchesLiveOnFaultInjectedRun archives fault-injected runs and
// asserts (a) the FaultInject events round-trip with site and action intact,
// (b) verdicts and streams match live, and (c) the recorded fault plan in
// the frame trailer equals the injector's.
func TestReplayMatchesLiveOnFaultInjectedRun(t *testing.T) {
	k, ok := kernels.ByID("docker-abba-order")
	if !ok {
		t.Fatal("kernel docker-abba-order not registered")
	}
	dets := All()
	injected := false
	for seed := int64(0); seed < 50 && !injected; seed++ {
		inj := inject.New(inject.Options{Seed: seed, Budget: 3})
		cfg := k.Config(seed)
		cfg.Injector = inj
		data, live, stream := recordJudged(t, cfg, k.Buggy, dets)

		var liveFaults []string
		for _, e := range stream {
			if strings.HasPrefix(e, event.FaultInject.String()+" ") {
				liveFaults = append(liveFaults, e)
			}
		}
		if len(liveFaults) == 0 {
			continue
		}
		injected = true

		rep, err := RunAllTrace(bytes.NewReader(data), dets...)
		if err != nil {
			t.Fatalf("seed %d: RunAllTrace: %v", seed, err)
		}
		diffReports(t, "fault-injected", live, rep)
		replayed := replayedStream(t, data)
		diffStreams(t, "fault-injected", stream, replayed)
		// Stream identity already implies it, but pin the payload contract
		// explicitly: site (Counter) and action (Detail) survive the codec.
		var repFaults []string
		for _, e := range replayed {
			if strings.HasPrefix(e, event.FaultInject.String()+" ") {
				repFaults = append(repFaults, e)
			}
		}
		if !reflect.DeepEqual(liveFaults, repFaults) {
			t.Errorf("FaultInject events did not round-trip:\n live:   %v\n replay: %v", liveFaults, repFaults)
		}

		// The trailer's plan must be the injector's recorded plan, faults
		// included — that is what makes the archived run re-executable.
		tr, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.NextRun(); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Replay(nil); err != nil {
			t.Fatal(err)
		}
		want, _ := inj.Plan().Encode()
		if !bytes.Equal(tr.FaultPlan(), want) {
			t.Errorf("trailer fault plan differs:\n got:  %s\n want: %s", tr.FaultPlan(), want)
		}
		if gotPlan, err := inject.DecodePlan(tr.FaultPlan()); err != nil {
			t.Errorf("trailer plan does not decode: %v", err)
		} else if len(gotPlan.Faults) != len(inj.Plan().Faults) {
			t.Errorf("trailer plan has %d faults, injector recorded %d", len(gotPlan.Faults), len(inj.Plan().Faults))
		}
	}
	if !injected {
		t.Fatal("no seed in [0,50) drew a fault — injector or kernel changed shape")
	}
}
