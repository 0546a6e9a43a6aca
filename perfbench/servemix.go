package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"goconcbugs/internal/engine"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/store"
)

// The serve-mix request mix: coldShare of each caller's requests are fresh
// 100-run sweeps (execute, then an fsynced put); every pairEvery-th position
// all callers send the same fresh sweep at once, so singleflight can coalesce
// it; the rest are warm hits on the pre-warmed hot set.
const (
	coldShare = 0.05
	pairEvery = 50
)

// timedStore decorates the verdict store with per-call timing — the
// engine.VerdictStore seam.
type timedStore struct {
	engine.VerdictStore

	mu   sync.Mutex
	gets []time.Duration
	puts []time.Duration
}

func (t *timedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	v, ok := t.VerdictStore.Get(key)
	d := time.Since(start)
	t.mu.Lock()
	t.gets = append(t.gets, d)
	t.mu.Unlock()
	return v, ok
}

func (t *timedStore) PutKey(k store.Key, val []byte) error {
	start := time.Now()
	err := t.VerdictStore.PutKey(k, val)
	d := time.Since(start)
	t.mu.Lock()
	t.puts = append(t.puts, d)
	t.mu.Unlock()
	return err
}

// reset drops the timings recorded so far and returns them.
func (t *timedStore) reset() (gets, puts []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	gets, puts = t.gets, t.puts
	t.gets, t.puts = nil, nil
	return gets, puts
}

// serveDaemon is a store-backed daemon on a unix socket plus one client per
// caller, each holding its own connection.
type serveDaemon struct {
	path    string      // store file, kept across restarts
	timed   *timedStore // nil unless traced
	st      *store.Store
	eng     *engine.Engine
	srv     *engine.Server
	served  chan error
	callers []*engine.Client
}

// startServeDaemon opens the store at path with fsync on and serves it on
// sock. A non-nil timed decorator is pointed at the opened store.
func startServeDaemon(path, sock string, callers int, timed *timedStore) (*serveDaemon, error) {
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, err
	}
	d := &serveDaemon{path: path, timed: timed, st: st}
	var vs engine.VerdictStore = st
	if timed != nil {
		timed.VerdictStore = st
		vs = timed
	}
	d.eng = engine.New(engine.Options{Workers: callers, SweepWorkers: 1, Store: vs})
	d.srv = engine.NewServer(d.eng)
	if err := d.srv.Listen(sock); err != nil {
		d.eng.Close()
		st.Close()
		return nil, err
	}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve() }()
	for i := 0; i < callers; i++ {
		c := engine.NewClient(sock)
		d.callers = append(d.callers, c)
		if _, err := c.Health(context.Background()); err != nil {
			d.close()
			return nil, fmt.Errorf("daemon health: %w", err)
		}
	}
	return d, nil
}

// close drains the server, then the engine, then the store.
func (d *serveDaemon) close() {
	for _, c := range d.callers {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = d.srv.Shutdown(ctx)
	cancel()
	<-d.served
	d.eng.Close()
	_ = d.st.Close()
}

// restart stops the daemon and starts a fresh one on the same store file
// and decorator, serving on sock.
func (d *serveDaemon) restart(sock string) (*serveDaemon, error) {
	d.close()
	return startServeDaemon(d.path, sock, len(d.callers), d.timed)
}

// serveReq is one planned request.
type serveReq struct {
	job  engine.Job
	cold bool
	pair bool
}

func jobKey(j engine.Job) string { return fmt.Sprintf("%s/%v/%d", j.Kernel, j.Fixed, j.Seed) }

// serveGen generates serve-mix jobs from the workload seed. Cold jobs take
// seeds from a counter above the hot range, so none repeats.
type serveGen struct {
	rng  *rand.Rand
	ks   []kernels.Kernel
	runs int
	cold int64
}

func (g *serveGen) job(seed int64) engine.Job {
	k := g.ks[g.rng.IntN(len(g.ks))]
	return engine.Job{Kind: engine.KindSweep, Kernel: k.ID, Fixed: g.rng.IntN(2) == 1,
		Runs: g.runs, Seed: seed, Detectors: sweepDetectors}
}

func (g *serveGen) coldJob() engine.Job {
	g.cold++
	return g.job(1<<41 + g.cold)
}

// plan lays out one sample: n requests per caller. Each caller gets the same
// number of cold requests, at seeded positions, so samples differ in which
// jobs they send but not in how much work they ask for.
func (g *serveGen) plan(hot []engine.Job, callers, n int) [][]serveReq {
	isPair := func(i int) bool { return i%pairEvery == pairEvery/2 }
	cold := make([][]bool, callers)
	for c := range cold {
		cold[c] = make([]bool, n)
		var free []int
		for i := 0; i < n; i++ {
			if !isPair(i) {
				free = append(free, i)
			}
		}
		g.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		for _, i := range free[:int(coldShare*float64(n))] {
			cold[c][i] = true
		}
	}
	out := make([][]serveReq, callers)
	for i := 0; i < n; i++ {
		if isPair(i) {
			j := g.coldJob()
			for c := range out {
				out[c] = append(out[c], serveReq{job: j, cold: true, pair: true})
			}
			continue
		}
		for c := range out {
			if cold[c][i] {
				out[c] = append(out[c], serveReq{job: g.coldJob(), cold: true})
			} else {
				out[c] = append(out[c], serveReq{job: hot[g.rng.IntN(len(hot))]})
			}
		}
	}
	return out
}

// refTexts holds the first reply text per job; every later reply for the
// job must match it byte for byte.
type refTexts struct {
	mu    sync.Mutex
	texts map[string]string
}

// check records or compares a reply and returns the problem, or "".
func (r *refTexts) check(job engine.Job, res *engine.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", jobKey(job), err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	want, ok := r.texts[jobKey(job)]
	if !ok {
		r.texts[jobKey(job)] = res.Text
		return ""
	}
	if res.Text != want {
		return fmt.Sprintf("%s: reply differs from the cold reply", jobKey(job))
	}
	return ""
}

// runSample drives one planned sample: each caller sends its requests back
// to back, waiting for each reply; at pair positions the callers meet first
// so their identical cold jobs arrive together.
func (d *serveDaemon) runSample(plan [][]serveReq, refs *refTexts, rep *report) sample {
	n := len(plan[0])
	meet := make([]sync.WaitGroup, n)
	for i := range plan[0] {
		if plan[0][i].pair {
			meet[i].Add(len(plan))
		}
	}
	lats := make([][]time.Duration, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := d.callers[c]
			for i, req := range plan[c] {
				if req.pair {
					meet[i].Done()
					meet[i].Wait()
				}
				t0 := time.Now()
				res, err := client.Submit(context.Background(), req.job)
				lats[c] = append(lats[c], time.Since(t0))
				rep.op(refs.check(req.job, res, err))
			}
		}(c)
	}
	wg.Wait()
	s := sample{wall: time.Since(start)}
	cold := map[string]bool{}
	for c := range plan {
		s.lat = append(s.lat, lats[c]...)
		for _, req := range plan[c] {
			if req.cold {
				cold[jobKey(req.job)] = true
			}
		}
	}
	s.runs = len(cold) * plan[0][0].job.Runs
	return s
}

// warm sends the hot set through the first caller, cold, and checks the
// replies against refs.
func (d *serveDaemon) warm(hot []engine.Job, refs *refTexts) error {
	for _, j := range hot {
		res, err := d.callers[0].Submit(context.Background(), j)
		if problem := refs.check(j, res, err); problem != "" {
			return fmt.Errorf("pre-warm: %s", problem)
		}
	}
	return nil
}

// serveCounts sums engine counter deltas over samples.
type serveCounts struct{ hits, lookups, coalesced, submitted, executed uint64 }

func (c *serveCounts) add(before, after engine.Stats) {
	c.hits += after.CacheHits - before.CacheHits
	c.lookups += after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses
	c.coalesced += after.Coalesced - before.Coalesced
	c.submitted += after.Submitted - before.Submitted
	c.executed += after.Executed - before.Executed
}

// runServeMix serves nproc closed-loop callers from a store-backed daemon:
// store.Open with fsync on, an engine with nproc workers running serial
// sweeps, the HTTP server on a unix socket. Set-up is opening the store,
// starting the daemon and pre-warming the hot set. Every sample gets a
// freshly restarted daemon on the same store file, outside its timed
// region: a daemon keeps every finished ticket, so memory would otherwise
// grow from sample to sample. A traced run alternates samples with a second
// daemon whose store is decorated.
func runServeMix(p params) (*report, error) {
	rep := newReport()
	sz := p.sizes
	callers := runtime.NumCPU()
	gen := &serveGen{rng: rand.New(rand.NewPCG(uint64(p.seed), 3)), ks: kernels.All(), runs: sz.runsPerJob}
	hot := make([]engine.Job, sz.serveHot)
	for i := range hot {
		hot[i] = gen.job(gen.rng.Int64N(1 << 40))
	}
	refs := &refTexts{texts: map[string]string{}}
	socks := 0
	nextSock := func() string {
		socks++
		return sockPath(p.dir, fmt.Sprintf("serve%d.sock", socks))
	}

	var d, td *serveDaemon
	defer func() {
		for _, dd := range []*serveDaemon{d, td} {
			if dd != nil {
				dd.close()
			}
		}
	}()
	for i := 0; i < sz.setups; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		start := time.Now()
		nd, err := startServeDaemon(filepath.Join(p.dir, fmt.Sprintf("serve%d.store", i)), nextSock(), callers, nil)
		if err != nil {
			return nil, err
		}
		d = nd
		if err := d.warm(hot, refs); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	if p.trace {
		var err error
		if td, err = startServeDaemon(filepath.Join(p.dir, "traced.store"), nextSock(), callers, &timedStore{}); err != nil {
			return nil, err
		}
		if err := td.warm(hot, refs); err != nil {
			return nil, err
		}
	}

	var counts serveCounts
	var gets, puts []time.Duration // store timings over the traced samples
	var lastCold []engine.Job
	err := rep.forSamples(p.seconds, p.minSamples(), func(i int) (sample, bool, error) {
		traced := td != nil && i%2 == 1
		target := &d
		if traced {
			target = &td
		}
		nd, err := (*target).restart(nextSock())
		*target = nd
		if err != nil {
			return sample{}, false, err
		}
		if traced {
			td.timed.reset()
		}
		plan := gen.plan(hot, callers, sz.serveRequests)
		before := nd.eng.Stats()
		resetPeakRSS()
		s := nd.runSample(plan, refs, rep)
		if !traced {
			return s, false, nil
		}
		counts.add(before, nd.eng.Stats())
		lastCold = lastCold[:0]
		for _, req := range plan[0] {
			if req.cold {
				lastCold = append(lastCold, req.job)
			}
		}
		g, pu := td.timed.reset()
		gets, puts = append(gets, g...), append(puts, pu...)
		return s, true, nil
	})
	if err != nil {
		return nil, err
	}
	if td != nil {
		serveProbes(p, td, hot, lastCold, counts, gets, puts, rep)
	}
	return rep, nil
}

// serveProbes fills the engine, store, http, sim and detect metrics from the
// traced daemon: its counters and store timings over the traced samples,
// warm round trips remote and in process, health round trips, and direct
// layer calls on one traced sample's cold jobs.
func serveProbes(p params, td *serveDaemon, hot, cold []engine.Job, counts serveCounts, gets, puts []time.Duration, rep *report) {
	m := rep.layers
	m["engine.hit_ratio"] = float64(counts.hits) / float64(max(counts.lookups, 1))
	m["engine.coalesced_frac"] = float64(counts.coalesced) / float64(max(counts.submitted, 1))
	m["store.get_us"] = us(sum(gets)) / float64(max(len(gets), 1))
	m["store.put_ms"] = ms(sum(puts)) / float64(max(len(puts), 1))

	// Warm hits on the same store, alternating remote and in process.
	ctx := context.Background()
	var remote, local []time.Duration
	for i := 0; i < p.sizes.warmRTTCalls; i++ {
		j := hot[i%len(hot)]
		t0 := time.Now()
		_, err := td.callers[0].Submit(ctx, j)
		remote = append(remote, time.Since(t0))
		rep.op(errString(err))
		t0 = time.Now()
		_, err = td.eng.Submit(ctx, j)
		local = append(local, time.Since(t0))
		rep.op(errString(err))
	}
	warmGets, _ := td.timed.reset()
	var health []time.Duration
	for i := 0; i < p.sizes.warmRTTCalls; i++ {
		t0 := time.Now()
		_, err := td.callers[0].Health(ctx)
		health = append(health, time.Since(t0))
		rep.op(errString(err))
	}
	m["http.warm_rtt_us"] = us(percentile(remote, 50) - percentile(local, 50))
	fmt.Fprintf(p.log, "warm hit: remote p50 %.1f us, in-process p50 %.1f us, HTTP share %.1f%%\n",
		us(percentile(remote, 50)), us(percentile(local, 50)), 100*m["http.warm_rtt_us"]/us(percentile(remote, 50)))
	m["http.health_rtt_us"] = us(percentile(health, 50))
	// A warm hit's engine cost beyond its store lookup.
	m["engine.overhead_us_per_job"] = us(percentile(local, 50) - percentile(warmGets, 50))

	lp := newLayerProbe()
	defer lp.close()
	for _, j := range cold[:min(len(cold), 40)] {
		k, _ := kernels.ByID(j.Kernel)
		lp.sweep(k, j.Fixed, j.Seed, j.Runs)
	}
	lp.fill(m)
	m["trace_overhead_frac"] = traceOverhead(rep)

	// Held against the traced samples' summed request latencies: what each
	// layer cost the requests it served.
	var budget time.Duration
	reqs := 0
	for _, s := range rep.traced {
		budget += sum(s.lat)
		reqs += len(s.lat)
	}
	executed := int(counts.executed)
	meanRemote, meanLocal := sum(remote)/time.Duration(len(remote)), sum(local)/time.Duration(len(local))
	meanGet := sum(gets) / time.Duration(max(len(gets), 1))
	rep.attribute(budget,
		share{"http", (meanRemote - meanLocal) * time.Duration(reqs)},
		share{"engine", (meanLocal - meanGet) * time.Duration(counts.hits)},
		share{"store", sum(gets) + sum(puts)},
		share{"sim", perRun(lp.simUsPerRun(), executed*p.sizes.runsPerJob)},
		share{"detect", perRun(lp.detectUsPerRun(), executed*p.sizes.runsPerJob)},
	)
}

func errString(err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}
