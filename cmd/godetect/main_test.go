package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// See cmd/gobugstudy/main_test.go for the exec-self pattern.
func TestMain(m *testing.M) {
	if os.Getenv("GODETECT_BE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GODETECT_BE_CLI=1")
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return stdout.String(), stderr.String(), code
}

func TestListKernels(t *testing.T) {
	out, _, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"boltdb-240-chan-mutex", "[study-set]", "non-blocking"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -list output", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 41 {
		t.Errorf("-list shows %d kernels, want at least the 41 study-set ones", lines)
	}
}

func TestRunOneKernel(t *testing.T) {
	out, _, code := runCLI(t, "-kernel", "boltdb-240-chan-mutex", "-fixed", "-runs", "5")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "boltdb-240-chan-mutex (fixed, 5 runs)") {
		t.Errorf("missing sweep line in:\n%s", out)
	}
}

func TestUnknownKernelExits1(t *testing.T) {
	_, stderr, code := runCLI(t, "-kernel", "no-such-kernel")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, `unknown kernel "no-such-kernel"`) {
		t.Errorf("stderr lacks diagnostic:\n%s", stderr)
	}
}

func TestNoArgsShowsUsage(t *testing.T) {
	_, stderr, code := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "Usage") {
		t.Errorf("stderr lacks usage text:\n%s", stderr)
	}
}

func TestConformanceSweep(t *testing.T) {
	out, _, code := runCLI(t, "-conformance", "-programs", "25", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"conformance: 25 programs from seed 1", "host outcomes:", "no divergences"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestConformanceEmitSrc(t *testing.T) {
	out, stderr, code := runCLI(t, "-conformance", "-emitsrc", "-seed", "4")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"package main", "func main() {", "CONFORMANCE-VARS"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in emitted source:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr, "program seed=4") {
		t.Errorf("stderr lacks the IR rendering:\n%s", stderr)
	}
}

// TestRecordThenReplaySweep archives a detector sweep with -record, re-judges
// it with -replay, and requires the offline checkpoint to be byte-identical
// to the live sweep's — the CLI face of the trace-in, verdict-out contract.
func TestRecordThenReplaySweep(t *testing.T) {
	dir := t.TempDir()
	arch := filepath.Join(dir, "archive")
	cpLive := filepath.Join(dir, "live.ckpt")
	cpReplay := filepath.Join(dir, "replay.ckpt")

	out, _, code := runCLI(t, "-kernel", "docker-abba-order", "-with", "race,leak",
		"-runs", "10", "-record", arch, "-resume", cpLive)
	if code != 0 {
		t.Fatalf("record sweep: exit %d:\n%s", code, out)
	}
	if traces, _ := filepath.Glob(filepath.Join(arch, "*.trace")); len(traces) != 10 {
		t.Fatalf("archive holds %d trace files, want 10", len(traces))
	}

	out, _, code = runCLI(t, "-kernel", "docker-abba-order", "-with", "race,leak",
		"-runs", "10", "-replay", arch, "-resume", cpReplay)
	if code != 0 {
		t.Fatalf("replay sweep: exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "offline replay") {
		t.Errorf("replay output lacks the offline-replay label:\n%s", out)
	}

	live, err := os.ReadFile(cpLive)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := os.ReadFile(cpReplay)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, replay) {
		t.Error("replay checkpoint is not byte-identical to the live sweep's")
	}
}

func TestRecordReplayFlagValidation(t *testing.T) {
	for _, tc := range [][]string{
		{"-kernel", "docker-abba-order", "-record", "x"},                                  // no -with
		{"-kernel", "docker-abba-order", "-replay", "x"},                                  // no -with
		{"-kernel", "docker-abba-order", "-with", "race", "-replay", "x", "-record", "y"}, // both
	} {
		if _, stderr, code := runCLI(t, tc...); code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr:\n%s", tc, code, stderr)
		}
	}
}
