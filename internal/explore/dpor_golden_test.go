package explore_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goconcbugs/internal/explore"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/dpor.golden and testdata/dfs.golden")

// dporGoldenBudget bounds each reduced search; docker-apiversion is the one
// variant whose reduced space exceeds it.
const dporGoldenBudget = 20_000

// dfsGoldenBudget bounds each full search. It is small enough for the race
// lane and large enough that 13 of the 106 variants exhaust it, so their
// frontier counts are pinned too.
const dfsGoldenBudget = 5_000

// TestDPORGolden pins the reduced search's result on every kernel, buggy
// and fixed, as godetect -systematic -dpor runs it (seed 0): run count,
// completeness, depth, failures and the first failing schedule, both
// pruning counters, the frontier left by an exhausted budget, host errors
// and the verdict. Any change to how the search plans, prunes or orders
// schedules shows up here as a diff.
func TestDPORGolden(t *testing.T) {
	checkSearchGolden(t, "dpor.golden", true, dporGoldenBudget)
}

// TestDFSGolden pins the full depth-first search the same way, as
// godetect -systematic runs it. The result must not depend on the core
// count, so CI runs it under several -cpu values.
func TestDFSGolden(t *testing.T) {
	checkSearchGolden(t, "dfs.golden", false, dfsGoldenBudget)
}

// checkSearchGolden renders one line per kernel variant and compares the
// whole text with testdata/name, or rewrites that file under -update.
func checkSearchGolden(t *testing.T, name string, reduction bool, budget int) {
	t.Helper()
	var b strings.Builder
	for _, k := range kernels.All() {
		for _, v := range []struct {
			name string
			prog sim.Program
		}{{"buggy", k.Buggy}, {"fixed", k.Fixed}} {
			res := explore.Systematic(v.prog, explore.SystematicOptions{
				Config:    k.Config(0),
				MaxRuns:   budget,
				Reduction: reduction,
			})
			fmt.Fprintf(&b, "%s %s: runs %d complete %v depth %d failures %d schedule %v pruned %d sleep %d frontier %d errors %d: %s\n",
				k.ID, v.name, res.Runs, res.Complete, res.MaxDepth, res.Failures, res.FailureSchedule,
				res.SchedulesPruned, res.SleepSetHits, res.Frontier, len(res.Errors), res.Verdict)
		}
	}

	path := filepath.Join("testdata", name)
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
				t.Fatalf("%s differs at line %d:\n  got:  %q\n  want: %q", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", name, len(gl), len(wl))
	}
}
