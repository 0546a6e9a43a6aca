package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/trace.golden")

// TestTraceGolden pins the -trace output byte for byte: the header with the
// run's outcome, one indented line per traced event (trailing spaces
// included), then the detector messages and the sweep summary.
func TestTraceGolden(t *testing.T) {
	out, stderr, code := runCLI(t, "-kernel", "docker-abba-order", "-trace", "-runs", "1")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	path := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if out != string(want) {
		t.Fatalf("-trace output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out, want)
	}
}
