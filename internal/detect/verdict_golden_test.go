package detect

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

// TestVerdictGolden pins what the Result-reading detectors and the Result
// itself say about a run: the outcome, step count, built-in deadlock
// report, check failures and panics; every blocked goroutine's identity,
// state, block kind and object, blocked-since step and held locks; and
// every registered detector's verdict (Detected, Message, Findings, Rules).
// It covers every kernel variant at seeds 0-9, seeds 0-4 under the benign
// and the aggressive fault injector (as `-faults 3` and `-faults 3
// -aggressive` build them), and sleepStraggler, whose goroutine sits in a
// long T.Sleep when the step limit ends the run, so a sleep's block object
// reaches BlockObj and the leak message. TestStreamGolden pins the event
// stream; this pins the rendering of block objects, leak and cycle
// messages that no event carries.
func TestVerdictGolden(t *testing.T) {
	var b strings.Builder
	dets := All()
	variants := []string{"buggy", "fixed"}
	faultModes := []struct {
		name string
		opts *inject.Options
	}{
		{"", nil},
		{" faults 3", &inject.Options{Seed: 1, Budget: 3}},
		{" faults 3 aggressive", &inject.Options{Seed: 1, Budget: 3, Aggressive: true}},
	}
	for _, k := range kernels.All() {
		for i, prog := range []sim.Program{k.Buggy, k.Fixed} {
			for _, fm := range faultModes {
				seeds := int64(10)
				if fm.opts != nil {
					seeds = 5
				}
				for seed := int64(0); seed < seeds; seed++ {
					cfg := k.Config(seed)
					if fm.opts != nil {
						cfg.Injector = inject.ForRun(*fm.opts, int(seed))
					}
					rep := RunAll(cfg, prog, dets...)
					writeVerdicts(&b, fmt.Sprintf("%s %s seed %d%s", k.ID, variants[i], seed, fm.name), rep)
				}
			}
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		cfg := sim.Config{Seed: seed, MaxSteps: 400, Name: "sleep-straggler"}
		writeVerdicts(&b, fmt.Sprintf("sleep-straggler seed %d", seed), RunAll(cfg, sleepStraggler, dets...))
	}

	path := filepath.Join("testdata", "verdict.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("verdict golden differs at line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("verdict golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// sleepStraggler runs into the step limit while one goroutine sleeps for an
// hour of virtual time (it is leaked: blocked far past the leak threshold)
// and another waits on a ticker it has already drained once.
func sleepStraggler(t *sim.T) {
	t.GoNamed("sleeper", func(t *sim.T) { t.Sleep(time.Hour) })
	t.GoNamed("ticked", func(t *sim.T) {
		tk := sim.NewTickerN(t, 5*time.Millisecond, 1)
		tk.C.Recv(t)
		tk.C.Recv(t)
	})
	for {
		t.Yield()
	}
}

// writeVerdicts appends one run's Result summary and verdicts under label.
func writeVerdicts(b *strings.Builder, label string, rep *Report) {
	res := rep.Result
	fmt.Fprintf(b, "== %s: %v steps %d\n", label, res.Outcome, res.Steps)
	if res.DeadlockReport != "" {
		fmt.Fprintf(b, "  deadlock %q\n", res.DeadlockReport)
	}
	for _, f := range res.CheckFailures {
		fmt.Fprintf(b, "  check %q\n", f)
	}
	for _, p := range res.Panics {
		fmt.Fprintf(b, "  panic g%d(%s) step %d %q\n", p.G, p.Name, p.Step, p.Msg)
	}
	for _, g := range res.Blocked {
		fmt.Fprintf(b, "  blocked g%d(%s) %v %v %q since %d held %q\n",
			g.ID, g.Name, g.State, g.BlockKind, g.BlockObj, g.BlockedSince, g.HeldLocks)
	}
	for _, v := range rep.Verdicts {
		if !v.Detected && v.Message == "" && len(v.Findings) == 0 && len(v.Rules) == 0 {
			continue
		}
		fmt.Fprintf(b, "  %s detected=%v %q\n", v.Detector, v.Detected, v.Message)
		for _, f := range v.Findings {
			fmt.Fprintf(b, "    finding %q\n", f)
		}
		if len(v.Rules) > 0 {
			fmt.Fprintf(b, "    rules %q\n", v.Rules)
		}
	}
}
