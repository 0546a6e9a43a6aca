package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"goconcbugs/internal/detect"
	"goconcbugs/internal/engine"
	"goconcbugs/internal/fleet"
	"goconcbugs/internal/kernels"
)

// fleetKernel is the kernel fleet-sweep sweeps: the ABBA lock-order bug,
// whose runs are cheap, so checkpointing and the fold carry the time.
const fleetKernel = "docker-abba-order"

// fleetDaemons is nproc in-process daemons on unix sockets, each an engine
// with one worker running serial sweeps — the godetect serve defaults for a
// fleet member.
type fleetDaemons struct {
	engs   []*engine.Engine
	srvs   []*engine.Server
	served []chan error
	addrs  []string
}

func startFleetDaemons(dir string, n, gen int) (*fleetDaemons, error) {
	f := &fleetDaemons{}
	for i := 0; i < n; i++ {
		eng := engine.New(engine.Options{Workers: 1, SweepWorkers: 1})
		srv := engine.NewServer(eng)
		addr := sockPath(dir, fmt.Sprintf("fleet%d-%d.sock", gen, i))
		if err := srv.Listen(addr); err != nil {
			eng.Close()
			f.close()
			return nil, fmt.Errorf("daemon %d: %w", i, err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve() }()
		f.engs, f.srvs, f.served, f.addrs = append(f.engs, eng), append(f.srvs, srv), append(f.served, served), append(f.addrs, addr)
		c := engine.NewClient(addr)
		_, err := c.Health(context.Background())
		c.Close()
		if err != nil {
			f.close()
			return nil, fmt.Errorf("daemon %d health: %w", i, err)
		}
	}
	return f, nil
}

// close shuts every daemon down and waits for its server to return.
func (f *fleetDaemons) close() {
	for i, srv := range f.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
		<-f.served[i]
		f.engs[i].Close()
	}
}

// rpcSpan is one shard job seen through the Dial seam: Enqueue start to
// Result return on one daemon.
type rpcSpan struct {
	daemon     string
	start, end time.Time
	bytes      int
}

// rpcTrace collects the spans of one fleet run.
type rpcTrace struct {
	mu    sync.Mutex
	spans []rpcSpan
}

// tracedClient decorates a daemon client with span recording.
type tracedClient struct {
	fleet.Client
	host string
	tr   *rpcTrace

	mu      sync.Mutex
	started map[string]time.Time
}

func (c *tracedClient) Enqueue(ctx context.Context, job engine.Job) (string, error) {
	start := time.Now()
	id, err := c.Client.Enqueue(ctx, job)
	if err == nil {
		c.mu.Lock()
		c.started[id] = start
		c.mu.Unlock()
	}
	return id, err
}

func (c *tracedClient) Result(ctx context.Context, id string) (*engine.Result, error) {
	res, err := c.Client.Result(ctx, id)
	end := time.Now()
	c.mu.Lock()
	start := c.started[id]
	c.mu.Unlock()
	if err == nil && res != nil {
		c.tr.mu.Lock()
		c.tr.spans = append(c.tr.spans, rpcSpan{c.host, start, end, len(res.ShardCheckpoint)})
		c.tr.mu.Unlock()
	}
	return res, err
}

// dial is fleet.Run's default dialer wrapped in span recording.
func (tr *rpcTrace) dial(host string) fleet.Client {
	inner := engine.NewClientWith(host, engine.ClientOptions{ConnectTimeout: 5 * time.Second})
	return &tracedClient{Client: inner, host: host, tr: tr, started: map[string]time.Time{}}
}

// checkFleet is fleet-sweep's output check: the run is healthy — not
// degraded, no steal, retry or hedge, which would mean duplicated work —
// and its fold equals the serial reference.
func checkFleet(rep *fleet.Report, err error, ref *detect.SweepReport) string {
	if err != nil {
		return err.Error()
	}
	if rep.Degraded {
		return "fleet degraded to local execution"
	}
	for _, d := range rep.Daemons {
		if d.Stolen+d.Retried+d.Hedged > 0 {
			return fmt.Sprintf("daemon %s: %d steals, %d retries, %d hedges", d.Name, d.Stolen, d.Retried, d.Hedged)
		}
	}
	if rep.Result == nil || !reflect.DeepEqual(rep.Result.Sweep, ref) {
		return "fold differs from the serial sweep"
	}
	return ""
}

// runFleetSweep sweeps fleetKernel through fleet.Run over nproc daemons and
// 2×nproc shards, hedging off. The serial reference sweep is computed once,
// outside set-up and the timed region.
func runFleetSweep(p params) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	n := runtime.NumCPU()
	shards := 2 * n
	k, ok := kernels.ByID(fleetKernel)
	if !ok {
		return nil, fmt.Errorf("no kernel %s", fleetKernel)
	}
	runs := p.sizes.fleetRuns
	job := engine.Job{Kind: engine.KindSweep, Kernel: k.ID, Runs: runs, Seed: p.seed, Detectors: sweepDetectors}
	sweepOpts := detect.SweepOptions{Runs: runs, BaseSeed: p.seed, Config: k.Config(p.seed), Workers: 1}

	// Set-up starts the daemons and warms them with a tenth-size sweep of
	// another seed range through the fleet. Every sample gets fresh
	// daemons, set up the same way outside its timed region: a daemon keeps
	// each finished ticket, inline shard bytes included, so memory and GC
	// work would otherwise grow from sample to sample.
	warmJob := job
	warmJob.Runs, warmJob.Seed = max(runs/10, 2*shards), p.seed+int64(runs)
	var ds *fleetDaemons
	gen := 0
	setup := func() error {
		if ds != nil {
			ds.close()
			ds = nil
		}
		start := time.Now()
		d, err := startFleetDaemons(p.dir, n, gen)
		gen++
		if err != nil {
			return err
		}
		base := filepath.Join(p.dir, "warm.ck")
		fr, err := fleet.Run(ctx, warmJob, fleet.Options{Hosts: d.addrs, Shards: shards, CheckpointBase: base})
		if err == nil && fr.Degraded {
			err = errors.New("degraded")
		}
		if err == nil {
			err = removeCheckpoints(base, shards)
		}
		if err != nil {
			d.close()
			return fmt.Errorf("warm-up sweep: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(start))
		ds = d
		return nil
	}
	defer func() {
		if ds != nil {
			ds.close()
		}
	}()
	for i := 0; i < p.sizes.setups; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	ref := detect.Sweep(k.Buggy, sweepOpts, detectors()...)
	for i := range ref.Detectors {
		ref.Detectors[i].Elapsed = 0
	}

	var walls []time.Duration // traced sweeps
	var spans []rpcSpan
	var idles []float64 // per traced sweep: daemons' mean idle share of the dispatch window
	var foldTimes []time.Duration
	var steals, retries int
	err := rep.forSamples(p.seconds, p.minSamples(), func(i int) (sample, bool, error) {
		if i > 0 {
			if err := setup(); err != nil {
				return sample{}, false, err
			}
		}
		base := filepath.Join(p.dir, fmt.Sprintf("sweep%d.ck", i))
		opts := fleet.Options{Hosts: ds.addrs, Shards: shards, CheckpointBase: base}
		traced := p.trace && i%2 == 1
		tr := &rpcTrace{}
		if traced {
			opts.Dial = tr.dial
		}
		resetPeakRSS()
		start := time.Now()
		fr, err := fleet.Run(ctx, job, opts)
		wall := time.Since(start)
		rep.op(checkFleet(fr, err, ref))
		s := sample{wall: wall, runs: runs, lat: []time.Duration{wall}}
		if traced {
			walls = append(walls, wall)
			first, last := start.Add(wall), start
			for _, sp := range tr.spans {
				if sp.start.Before(first) {
					first = sp.start
				}
				if sp.end.After(last) {
					last = sp.end
				}
			}
			if len(tr.spans) > 0 {
				foldTimes = append(foldTimes, start.Add(wall).Sub(last))
				idles = append(idles, idleFrac(ds.addrs, tr.spans, last.Sub(first)))
			}
			spans = append(spans, tr.spans...)
			if err == nil {
				for _, d := range fr.Daemons {
					steals += d.Stolen
					retries += d.Retried
				}
			}
			if len(walls) == 1 && err == nil {
				if err := fleetCheckpointProbes(base, shards, sweepOpts, ref, rep); err != nil {
					return sample{}, false, err
				}
			}
		}
		return s, traced, removeCheckpoints(base, shards)
	})
	if err != nil {
		return nil, err
	}
	if p.trace {
		fleetProbes(p, k, n, shards, spans, median(idles), medianDur(foldTimes), medianDur(walls), steals, retries, rep)
	}
	return rep, nil
}

// fleetCheckpointProbes measures the harness layer on a traced sweep's
// files before they are removed: the folded checkpoint's size and a direct
// MergeSweepCheckpoints of the shard files, whose report must equal the
// serial reference too.
func fleetCheckpointProbes(base string, shards int, opts detect.SweepOptions, ref *detect.SweepReport, rep *report) error {
	fi, err := os.Stat(base)
	if err != nil {
		return fmt.Errorf("folded checkpoint: %w", err)
	}
	rep.layers["harness.checkpoint_mb"] = float64(fi.Size()) / 1e6
	srcs := make([]string, shards)
	for i := range srcs {
		srcs[i] = engine.ShardCheckpointName(base, i, shards)
	}
	dst := base + ".merge"
	defer os.Remove(dst)
	start := time.Now()
	sw, err := detect.MergeSweepCheckpoints(dst, srcs, opts, detectors()...)
	rep.layers["harness.merge_s"] = time.Since(start).Seconds()
	problem := ""
	if err != nil {
		problem = err.Error()
	} else if !reflect.DeepEqual(sw, ref) {
		problem = "direct merge differs from the serial sweep"
	}
	rep.op(problem)
	return nil
}

// fleetProbes fills the fleet, harness, engine, sim and detect metrics from
// the traced sweeps' spans and direct layer calls on one shard's seeds.
// idle is the traced sweeps' median daemon idle share, fold and wall their
// median fold time and wall time.
func fleetProbes(p params, k kernels.Kernel, daemons, shards int, spans []rpcSpan, idle float64, fold, wall time.Duration, steals, retries int, rep *report) {
	m := rep.layers
	runs := p.sizes.fleetRuns

	// Shard 0, swept serially as a daemon does, without and with its
	// checkpoint.
	lp := newLayerProbe()
	defer lp.close()
	shardOpts := detect.SweepOptions{
		Runs: runs, BaseSeed: p.seed, Config: k.Config(p.seed), Workers: 1, Pool: lp.pool,
		ShardCount: shards, ShardIndex: 0,
	}
	start := time.Now()
	detect.Sweep(k.Buggy, shardOpts, detectors()...)
	bare := time.Since(start)
	shardOpts.Checkpoint = filepath.Join(p.dir, "probe-shard.ck")
	start = time.Now()
	detect.Sweep(k.Buggy, shardOpts, detectors()...)
	withCk := time.Since(start)
	_ = os.Remove(shardOpts.Checkpoint)
	m["harness.checkpoint_s"] = (withCk - bare).Seconds()

	lp.sweep(k, false, p.seed, min(p.sizes.probeRuns, runs))
	lp.fill(m)

	var rpcTotal time.Duration
	bytes := 0
	for _, sp := range spans {
		rpcTotal += sp.end.Sub(sp.start)
		bytes += sp.bytes
	}
	meanRPC := rpcTotal / time.Duration(max(len(spans), 1))
	m["fleet.shard_rpc_s"] = meanRPC.Seconds()
	m["fleet.shard_mb"] = float64(bytes) / float64(max(len(spans), 1)) / 1e6
	m["fleet.fold_s"] = fold.Seconds()
	m["fleet.daemon_idle_frac"] = idle
	m["fleet.steals"] = float64(steals)
	m["fleet.retries"] = float64(retries)
	// A shard job's cost beyond the daemon's own checkpointed sweep:
	// queueing, HTTP and shipping the checkpoint inline.
	m["engine.overhead_us_per_job"] = us(meanRPC - withCk)
	m["trace_overhead_frac"] = traceOverhead(rep)

	// One traced sweep: the daemons work in parallel during dispatch, the
	// fold — mostly harness.merge_s — runs alone after the last shard.
	par := time.Duration(daemons)
	rpcPerSweep := rpcTotal / time.Duration(max(len(rep.traced), 1))
	rep.attribute(wall,
		share{"sim", perRun(lp.simUsPerRun(), runs) / par},
		share{"detect", perRun(lp.detectUsPerRun(), runs) / par},
		share{"harness", (withCk - bare) * time.Duration(shards) / par},
		share{"engine+http", (rpcPerSweep - withCk*time.Duration(shards)) / par},
		share{"fold", fold},
	)
}

// idleFrac is the daemons' mean share of one sweep's dispatch window —
// first Enqueue to last Result — not covered by their shard jobs.
func idleFrac(hosts []string, spans []rpcSpan, window time.Duration) float64 {
	busy := map[string]time.Duration{}
	for _, sp := range spans {
		busy[sp.daemon] += sp.end.Sub(sp.start)
	}
	idle := 0.0
	for _, h := range hosts {
		idle += 1 - busy[h].Seconds()/window.Seconds()
	}
	return idle / float64(len(hosts))
}

// removeCheckpoints deletes a sweep's folded and shard checkpoint files.
func removeCheckpoints(base string, shards int) error {
	var errs []error
	for i := 0; i < shards; i++ {
		if err := os.Remove(engine.ShardCheckpointName(base, i, shards)); err != nil && !os.IsNotExist(err) {
			errs = append(errs, err)
		}
	}
	if err := os.Remove(base); err != nil && !os.IsNotExist(err) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
