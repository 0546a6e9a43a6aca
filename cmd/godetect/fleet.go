package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"goconcbugs/internal/engine"
	"goconcbugs/internal/fleet"
	"goconcbugs/internal/store"
)

// exitDegraded is the pinned exit code for a fleet sweep that completed
// only by falling back to local execution: the verdict is sound, the fleet
// is not. Scripts gate on it.
const exitDegraded = 3

// fleetFlags carries the fleet-only knobs from the flag set.
type fleetFlags struct {
	hosts         string
	leaseTimeout  time.Duration
	probeInterval time.Duration
	hedgeAfter    time.Duration
}

// runFleet fans the one-kernel sweep across the -fleet daemons. The
// canonical fold text goes to stdout — byte-comparable with a serial run —
// and the nondeterministic scheduling report goes to stderr as JSON.
func runFleet(ctx context.Context, ff fleetFlags, kernelID string, b engineJob, storePath string) int {
	hosts := splitHosts(ff.hosts)

	// The template must be a plain unsharded sweep: the fleet owns the
	// shard coordinates and checkpoint placement.
	tmpl := b
	tmpl.shards, tmpl.shardIdx, tmpl.fold = 1, 0, false
	resume := tmpl.resume
	tmpl.resume = ""
	job := tmpl.job(kernelID, false)

	local := engine.Options{Workers: 1}
	if storePath != "" {
		st, err := store.Open(storePath, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "godetect:", err)
			return 1
		}
		defer st.Close()
		local.Store = st
	}

	rep, err := fleet.Run(ctx, job, fleet.Options{
		Hosts:          hosts,
		Shards:         b.shards,
		CheckpointBase: resume,
		LeaseTimeout:   ff.leaseTimeout,
		ProbeInterval:  ff.probeInterval,
		HedgeAfter:     ff.hedgeAfter,
		LocalEngine:    local,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "godetect:", err)
		return 1
	}

	fmt.Print(rep.Result.Text)
	view := struct {
		Degraded    bool                 `json:"degraded"`
		LocalShards int                  `json:"localShards"`
		Shards      int                  `json:"shards"`
		Daemons     []fleet.DaemonReport `json:"daemons"`
	}{rep.Degraded, rep.LocalShards, rep.Shards, rep.Daemons}
	if raw, merr := json.MarshalIndent(view, "", "  "); merr == nil {
		fmt.Fprintln(os.Stderr, string(raw))
	}

	if rep.Degraded {
		return exitDegraded
	}
	return b.fireExit(rep.Result)
}

func splitHosts(s string) []string {
	var hosts []string
	for _, h := range strings.Split(s, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
	return hosts
}
