package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"goconcbugs/internal/deadlock"
	"goconcbugs/internal/event"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
)

func variant(k kernels.Kernel, fixed bool) sim.Program {
	if fixed {
		return k.Fixed
	}
	return k.Buggy
}

// kernelDir places one kernel's archive under an -all record/replay base
// directory; an empty base stays empty (feature off).
func kernelDir(base, id string) string {
	if base == "" {
		return ""
	}
	return filepath.Join(base, id)
}

// writeChromeTrace runs the kernel once with the streaming Chrome-trace
// sink attached, writing the Trace Event Format rendering as it executes.
func writeChromeTrace(k kernels.Kernel, fixed bool, seed int64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cfg := k.Config(seed)
	cts := sim.NewChromeTraceSink(f)
	cfg.Sinks = []event.Sink{cts}
	sim.Run(cfg, variant(k, fixed))
	return cts.Err()
}

// printTrace runs the kernel once under the text trace sink and the race
// detector. The trace is buffered because its header names the run's
// outcome.
func printTrace(k kernels.Kernel, fixed bool, seed int64) {
	cfg := k.Config(seed)
	var trace bytes.Buffer
	det := race.New(0)
	cfg.Sinks = []event.Sink{sim.NewTextTraceSink(&trace), det}
	res := sim.Run(cfg, variant(k, fixed))
	fmt.Printf("--- trace of %s (seed %d, outcome %v) ---\n", k.ID, seed, res.Outcome)
	for _, line := range strings.SplitAfter(trace.String(), "\n") {
		if line != "" {
			fmt.Print("  ", line)
		}
	}
	builtin := deadlock.Builtin{}.Detect(res)
	leak := deadlock.Leak{}.Detect(res)
	if builtin.Detected {
		fmt.Println(builtin.Message)
	}
	if leak.Detected {
		fmt.Println(leak.Message)
	}
	for _, r := range det.Reports() {
		fmt.Println(" ", r)
	}
}
