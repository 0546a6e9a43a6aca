package detect

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/vet"
)

var update = flag.Bool("update", false, "rewrite testdata/stream.golden")

// TestStreamGolden pins everything the event-stream consumers derive from a
// run: for every kernel, buggy and fixed, at seed 1 the full text trace, the
// SHA-256 of the Chrome-trace JSON, the race reports and the vet violations;
// and the race and vet findings over seeds 0-9. Any change to how race, vet
// or either trace renderer reads events shows up here as a diff.
func TestStreamGolden(t *testing.T) {
	var b strings.Builder
	variants := []string{"buggy", "fixed"}
	for _, k := range kernels.All() {
		for i, prog := range []sim.Program{k.Buggy, k.Fixed} {
			var trace, chrome bytes.Buffer
			det, mon := race.New(0), vet.New()
			cfg := k.Config(1)
			cfg.Sinks = []event.Sink{sim.NewTextTraceSink(&trace), sim.NewChromeTraceSink(&chrome), det, mon}
			res := sim.Run(cfg, prog)
			fmt.Fprintf(&b, "== %s %s seed 1: %v\n", k.ID, variants[i], res.Outcome)
			for _, line := range strings.SplitAfter(trace.String(), "\n") {
				if line != "" {
					b.WriteString("  " + line)
				}
			}
			fmt.Fprintf(&b, "chrome sha256 %x\n", sha256.Sum256(chrome.Bytes()))
			writeFindings(&b, "", det, mon)
		}
	}
	b.WriteString("== findings over seeds 0-9\n")
	for _, k := range kernels.All() {
		for i, prog := range []sim.Program{k.Buggy, k.Fixed} {
			for seed := int64(0); seed < 10; seed++ {
				det, mon := race.New(0), vet.New()
				cfg := k.Config(seed)
				cfg.Sinks = []event.Sink{det, mon}
				sim.Run(cfg, prog)
				writeFindings(&b, fmt.Sprintf("%s %s seed %d ", k.ID, variants[i], seed), det, mon)
			}
		}
	}

	path := filepath.Join("testdata", "stream.golden")
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
				t.Fatalf("stream golden differs at line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stream golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// writeFindings appends one line per race report and vet violation.
func writeFindings(b *strings.Builder, prefix string, det *race.Detector, mon *vet.Monitor) {
	for _, r := range det.Reports() {
		fmt.Fprintf(b, "%srace %s\n", prefix, r)
	}
	for _, v := range mon.Violations() {
		fmt.Fprintf(b, "%svet %s\n", prefix, v)
	}
}
