// Command godetect runs bug kernels under the reimplemented detectors.
//
// Usage:
//
//	godetect -list                        # list every kernel
//	godetect -kernel kubernetes-finishreq # run one kernel's buggy variant
//	godetect -kernel docker-apiversion -fixed -runs 100
//	godetect -all                         # sweep every kernel
//	godetect -kernel grpc-lost-update -trace -seed 3
//	godetect -kernel docker-abba-order -systematic -dpor
//	godetect -detectors                   # list the detector registry
//	godetect -kernel etcd-wal-doubleclose -with race,vet,leak
//	godetect -kernel docker-abba-order -with race -record archive/
//	godetect -kernel docker-abba-order -with race,vet,leak -replay archive/
//	godetect serve -addr unix:///tmp/godetect.sock -store verdicts.db
//	godetect -remote unix:///tmp/godetect.sock -kernel docker-abba-order -with cycle
//
// Every mode routes through internal/engine, so a verdict is computed (and
// rendered) by exactly one code path whether it runs in-process, is served
// warm from a -store verdict cache, or comes back from a daemon over
// -remote. The rendering is wall-time-free and deterministic: equal
// requests print equal bytes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"goconcbugs/internal/detect"
	"goconcbugs/internal/engine"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/store"
)

// verbs is the subcommand dispatch table: "godetect <verb> [flags]" routes
// here; anything else is the classic flag-driven one-shot mode. Verb files
// register themselves from init.
var verbs = map[string]func(args []string) int{}

func registerVerb(name string, fn func(args []string) int) { verbs[name] = fn }

func main() {
	if len(os.Args) > 1 {
		if fn, ok := verbs[os.Args[1]]; ok {
			os.Exit(fn(os.Args[2:]))
		}
	}
	os.Exit(oneShot(os.Args[1:]))
}

// oneShot is the default verb: parse the classic flag set, run one request
// (locally or against a daemon), print the canonical text, exit.
func oneShot(args []string) int {
	fs := flag.CommandLine
	list := fs.Bool("list", false, "list kernels")
	all := fs.Bool("all", false, "sweep every kernel")
	kernel := fs.String("kernel", "", "kernel id to run")
	fixed := fs.Bool("fixed", false, "run the fixed variant instead of the buggy one")
	runs := fs.Int("runs", 100, "number of seeded runs")
	seed := fs.Int64("seed", 0, "base seed")
	trace := fs.Bool("trace", false, "print the first run's event trace")
	shadow := fs.Int("shadow", 0, "race-detector shadow words (0 = Go's 4, negative = unbounded)")
	vetFlag := fs.Bool("vet", false, "also run the usage-rule checker (package vet)")
	catalog := fs.Bool("catalog", false, "emit the kernel catalog as Markdown (KERNELS.md)")
	chrome := fs.String("chrometrace", "", "write the first run's trace to this file in Chrome Trace Event Format")
	systematic := fs.Bool("systematic", false, "exhaustively explore every schedule instead of seeded sampling")
	dpor := fs.Bool("dpor", false, "with -systematic: prune equivalent interleavings via dynamic partial-order reduction")
	maxRuns := fs.Int("maxruns", 200_000, "with -systematic: schedule budget")
	conf := fs.Bool("conformance", false, "differentially test the sim against the real Go runtime on generated programs")
	programs := fs.Int("programs", 200, "with -conformance: number of generated programs")
	emitsrc := fs.Bool("emitsrc", false, "with -conformance: print the program generated for -seed as standalone Go source and exit")
	kinds := fs.String("kinds", "", "with -conformance: comma-separated primitive families to focus the generator on (cond,timer,ctx,sem); empty = all")
	detectorsFlag := fs.Bool("detectors", false, "list the detector registry")
	with := fs.String("with", "", "comma-separated detector set to sweep in one pass per run (see -detectors); non-zero exit if one fires on a -fixed kernel")
	faults := fs.Int("faults", 0, "inject up to this many scheduling faults per run (0 = off); non-zero exit if a -fixed kernel fires under injection")
	faultseed := fs.Int64("faultseed", 1, "base seed for the fault injector; run i perturbs with faultseed+i")
	aggressive := fs.Bool("aggressive", false, "with -faults: also inject program-changing faults (early timeouts, spurious wakeups, goroutine kills, panics, channel closes) — a correct program may legitimately fail under these")
	deadlineFlag := fs.Duration("deadline", 0, "wall-clock budget for sweeps and exploration; on expiry partial results are reported with an incomplete verdict")
	resume := fs.String("resume", "", "checkpoint file for -with sweeps: each run's record is appended there (fsynced every runs/50) and a restart with the same options resumes instead of re-running")
	faulttable := fs.Bool("faulttable", false, "emit the fault-injection experiment table (Markdown): schedules-to-first-detection with vs without benign injection, per study kernel")
	shards := fs.Int("shards", 1, "partition a -with sweep's seed range into this many contiguous shards, one process each (needs -resume for the shard checkpoints)")
	shardIdx := fs.Int("shard", 0, "with -shards: the 0-based shard this process sweeps")
	foldFlag := fs.Bool("fold", false, "with -shards: merge the shard checkpoints into the serial checkpoint and print the combined report instead of sweeping")
	record := fs.String("record", "", "with -with: archive every run of the sweep as trace/v1 files under this directory (re-judge offline with -replay); -all records into per-kernel subdirectories")
	replay := fs.String("replay", "", "re-judge a sweep archive recorded with -record instead of running live; pass the recording's -kernel/-all, -fixed, -with, -runs, -seed, -faults, -faultseed and -aggressive options (the detector set may differ — that is the point)")
	remote := fs.String("remote", "", "submit to a godetect daemon at this address (unix:///path/sock or host:port) instead of executing in-process")
	fleetHosts := fs.String("fleet", "", "comma-separated daemon addresses: fan a -with sweep's shards across them with retry, stealing, and local fallback (needs -kernel and -resume; composes with -shards); exit 3 if the sweep degraded to local execution")
	leaseTimeout := fs.Duration("lease-timeout", 10*time.Second, "with -fleet: how long a shard lease may run before another daemon may steal the shard")
	probeInterval := fs.Duration("probe-interval", 250*time.Millisecond, "with -fleet: daemon health probe cadence; two consecutive failures mark a daemon unhealthy")
	hedgeAfter := fs.Duration("hedge-after", 0, "with -fleet: duplicate a shard still running after this long onto an idle daemon, first finisher wins (0 = off)")
	storePath := fs.String("store", "", "persistent verdict cache file: equal requests are served from it instead of re-running")
	statsFlag := fs.Bool("stats", false, "print the engine's stats as JSON after the run (alone with -remote: just query the daemon)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of this invocation to the file")
	memprofile := fs.String("memprofile", "", "write a heap profile to the file at exit")
	fs.Parse(args)

	// Every long-running mode is interruptible: SIGINT/SIGTERM stop
	// dispatching new runs and the partial results fold, so a checkpointed
	// sweep can resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadlineFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadlineFlag)
		defer cancel()
	}
	var injOpts *inject.Options
	if *faults > 0 {
		injOpts = &inject.Options{Seed: *faultseed, Budget: *faults, Aggressive: *aggressive}
	}

	prof, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "godetect:", err)
		os.Exit(1)
	}

	// Every mode returns an exit code instead of calling os.Exit, so the
	// profile writers always flush no matter which path exits.
	code := func() int {
		if *faulttable {
			return runFaultTable(ctx, *runs, *faultseed)
		}
		if *detectorsFlag {
			for _, d := range detect.All() {
				fmt.Printf("%-8s %s\n", d.Name, d.Desc)
			}
			return 0
		}
		if *catalog {
			printCatalog()
			return 0
		}
		if *conf && *emitsrc {
			return runEmitSrc(*seed, *kinds)
		}

		var dets []detect.Detector
		if *with != "" {
			var err error
			if dets, err = detect.Parse(*with); err != nil {
				fmt.Fprintln(os.Stderr, "godetect:", err)
				return 1
			}
		}
		if (*record != "" || *replay != "") && dets == nil {
			fmt.Fprintln(os.Stderr, "godetect: -record/-replay archive detector sweeps; add -with (see -detectors)")
			return 2
		}
		if *replay != "" && (*record != "" || *shards > 1 || *foldFlag) {
			fmt.Fprintln(os.Stderr, "godetect: -replay re-judges an existing archive; it cannot be combined with -record, -shards, or -fold")
			return 2
		}
		if *fleetHosts != "" {
			if *kernel == "" || dets == nil || *resume == "" {
				fmt.Fprintln(os.Stderr, "godetect: -fleet needs -kernel, a -with detector sweep, and a -resume checkpoint base")
				return 2
			}
			if *all || *conf || *systematic || *replay != "" || *foldFlag || *remote != "" {
				fmt.Fprintln(os.Stderr, "godetect: -fleet runs one kernel's detector sweep; it cannot combine with -all, -conformance, -systematic, -replay, -fold, or -remote")
				return 2
			}
			ff := fleetFlags{hosts: *fleetHosts, leaseTimeout: *leaseTimeout,
				probeInterval: *probeInterval, hedgeAfter: *hedgeAfter}
			base := engineJob{
				fixed: *fixed, runs: *runs, seed: *seed, dets: detectorNames(dets),
				injOpts: injOpts, shards: *shards, resume: *resume,
			}
			return runFleet(ctx, ff, *kernel, base, *storePath)
		}
		if *shards > 1 || *foldFlag {
			if *shards <= 1 {
				fmt.Fprintln(os.Stderr, "godetect: -fold needs -shards N to know how many shard checkpoints to merge")
				return 2
			}
			if dets == nil || *resume == "" {
				fmt.Fprintln(os.Stderr, "godetect: -shards needs a -with detector sweep and a -resume checkpoint base")
				return 2
			}
			if !*foldFlag && (*shardIdx < 0 || *shardIdx >= *shards) {
				fmt.Fprintf(os.Stderr, "godetect: -shard %d out of range [0, %d)\n", *shardIdx, *shards)
				return 2
			}
		}

		// The submitter is where every remaining mode executes: a local
		// engine (optionally store-backed) or a daemon client. Jobs carry
		// the deadline themselves only on the remote path — locally the
		// engine context above already bounds them.
		sub, cleanup, err := newSubmitter(ctx, *remote, *storePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "godetect:", err)
			return 1
		}
		defer cleanup()
		var jobDeadline = *deadlineFlag
		if *remote == "" {
			jobDeadline = 0
		}

		base := engineJob{
			fixed: *fixed, runs: *runs, seed: *seed, dets: detectorNames(dets),
			injOpts: injOpts, shadow: *shadow, vet: *vetFlag,
			systematic: *systematic, dpor: *dpor, maxRuns: *maxRuns,
			shards: *shards, shardIdx: *shardIdx, fold: *foldFlag,
			record: *record, replay: *replay, resume: *resume,
			deadline: jobDeadline,
		}

		code := func() int {
			switch {
			case *statsFlag && *remote != "" && !*all && *kernel == "" && !*conf:
				// Bare stats query: -remote -stats with no job flags.
				return 0
			case *conf:
				return runConformanceJob(ctx, sub, *programs, *seed, *kinds, jobDeadline)
			case *list:
				listKernels()
				return 0
			case *all:
				return runAll(ctx, sub, base)
			case *kernel != "":
				k, ok := kernels.ByID(*kernel)
				if !ok {
					fmt.Fprintf(os.Stderr, "godetect: unknown kernel %q (try -list)\n", *kernel)
					return 1
				}
				if *trace {
					printTrace(k, *fixed, *seed)
				}
				if *chrome != "" {
					if err := writeChromeTrace(k, *fixed, *seed, *chrome); err != nil {
						fmt.Fprintln(os.Stderr, "godetect:", err)
						return 1
					}
					fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *chrome)
				}
				return runOne(ctx, sub, k.ID, base)
			default:
				fs.Usage()
				return 2
			}
		}()
		if *statsFlag && code != 2 {
			if err := printStats(ctx, sub); err != nil {
				fmt.Fprintln(os.Stderr, "godetect:", err)
				return 1
			}
		}
		return code
	}()
	prof()
	return code
}

// detectorNames maps a parsed detector set back to its registry names (the
// engine job carries names, not instances).
func detectorNames(dets []detect.Detector) []string {
	if dets == nil {
		return nil
	}
	names := make([]string, len(dets))
	for i, d := range dets {
		names[i] = d.Name
	}
	return names
}

// newSubmitter builds the execution backend: a daemon client when remote is
// set, otherwise an in-process engine, store-backed when storePath is set.
func newSubmitter(ctx context.Context, remote, storePath string) (submitter, func(), error) {
	if remote != "" {
		return remoteSubmitter{engine.NewClient(remote)}, func() {}, nil
	}
	var st *store.Store
	if storePath != "" {
		var err error
		if st, err = store.Open(storePath, store.Options{}); err != nil {
			return nil, nil, err
		}
	}
	// One job at a time, full fan-out inside it: the classic CLI profile.
	opts := engine.Options{Workers: 1, SweepWorkers: 0, Context: ctx}
	if st != nil {
		// Assigned conditionally: a typed-nil *store.Store inside the
		// VerdictStore interface would defeat the engine's nil checks.
		opts.Store = st
	}
	eng := engine.New(opts)
	cleanup := func() {
		eng.Close()
		if st != nil {
			st.Close()
		}
	}
	return localSubmitter{eng}, cleanup, nil
}
