// Command perfbench is the repository's end-to-end benchmark. It drives one
// of three workloads against the system's public Go API from a single
// process, checks every output, and prints each metric by name and unit:
//
//   - kernel-mix: the one-shot CLI profile, every kernel as a run job and a
//     detector sweep on an in-process engine;
//   - fleet-sweep: one 20k-run sweep fanned over in-process daemons by
//     fleet.Run, folded and compared with a serial sweep;
//   - serve-mix: closed-loop clients against a store-backed daemon over
//     HTTP, mostly warm hits plus fsynced cold sweeps.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload kernel-mix --seed 1 --seconds 20 --trace 0
//
// The seed generates every job; the system only ever sees the generated
// jobs. With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the same generated inputs run again with the layer probes on —
// calls timed around the layers' public functions plus the two seams the
// code exposes (engine.VerdictStore and fleet.Options.Dial) — and the result
// carries the per-layer metrics. End-to-end timings are reported at a fixed
// reference host speed, read around every sample by calibrate (calib.go).
// The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics. README.md
// explains each workload and which layer metric moves which end-to-end one.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sizes is how much work one sample does. The benchmark runs fullSizes; the
// smoke test runs tinySizes through the same code. A full kernel-mix or
// serve-mix sample holds over 1000 ops, so at least ten lie beyond its p99,
// and is short enough that a run takes tens of samples to take medians over.
type sizes struct {
	runsPerJob    int // seeds per kernel-mix and serve-mix job (the paper's 100)
	kmRounds      int // kernel-mix rounds (all kernels, both kinds) per sample
	fleetRuns     int // seeds in the fleet-sweep sweep
	serveRequests int // serve-mix requests per caller per sample
	serveHot      int // serve-mix hot-set jobs, pre-warmed during set-up
	probeRuns     int // seeds per fleet-sweep sim/detect probe
	warmRTTCalls  int // serve-mix warm and health round trips in the probes
	setups        int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	runsPerJob: 100, kmRounds: 5, fleetRuns: 20_000, serveRequests: 1000,
	serveHot: 64, probeRuns: 2000, warmRTTCalls: 400, setups: 9,
}

var tinySizes = sizes{
	runsPerJob: 10, kmRounds: 1, fleetRuns: 400, serveRequests: 60,
	serveHot: 4, probeRuns: 50, warmRTTCalls: 20, setups: 2,
}

// params is one invocation's settings.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory: sockets, stores, checkpoints
	sizes   sizes
	log     io.Writer // human-readable report lines
}

// minSamples is the fewest samples a run takes: a traced run needs one
// with the seam decorators off and one with them on.
func (p params) minSamples() int {
	if p.trace {
		return 2
	}
	return 1
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(params) (*report, error){
	"kernel-mix":  runKernelMix,
	"fleet-sweep": runFleetSweep,
	"serve-mix":   runServeMix,
}

// peakSamples is how many leading samples peak_rss_mb takes the median of:
// a fixed amount of work, so a faster run that fits more samples, each
// adding to a store that keeps every entry in memory, does not read as a
// memory regression.
const peakSamples = 5

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 on every workload. An "op" is a job on kernel-mix, a request on
// serve-mix and a whole fleet sweep on fleet-sweep.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"op_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported with --trace 1. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricSpec{
	{"sim.us_per_run", "us"},
	{"sim.steps_per_run", "count"},
	{"sim.ns_per_step", "ns"},
	{"detect.race.us_per_run", "us"},
	{"detect.vet.us_per_run", "us"},
	{"detect.leak.us_per_run", "us"},
	{"detect.cycle.us_per_run", "us"},
	{"detect.race.events_per_run", "count"},
	{"detect.vet.events_per_run", "count"},
	{"detect.leak.events_per_run", "count"},
	{"detect.cycle.events_per_run", "count"},
	{"detect.dispatch.us_per_run", "us"},
	{"explore.us_per_run", "us"},
	{"harness.checkpoint_s", "s"},
	{"harness.checkpoint_mb", "MB"},
	{"harness.merge_s", "s"},
	{"engine.overhead_us_per_job", "us"},
	{"engine.hit_ratio", "ratio"},
	{"engine.coalesced_frac", "ratio"},
	{"store.get_us", "us"},
	{"store.put_ms", "ms"},
	{"http.warm_rtt_us", "us"},
	{"http.health_rtt_us", "us"},
	{"fleet.shard_rpc_s", "s"},
	{"fleet.daemon_idle_frac", "ratio"},
	{"fleet.shard_mb", "MB"},
	{"fleet.fold_s", "s"},
	{"fleet.steals", "count"},
	{"fleet.retries", "count"},
	{"unattributed_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// sample is one timed unit of work: a batch of jobs or requests, or one
// fleet sweep.
type sample struct {
	wall time.Duration
	runs int             // simulation runs executed
	lat  []time.Duration // per-operation latencies
	peak float64         // resident-set high-water mark, MB
	slow float64         // host slowness around the sample: 1 is the reference speed
}

// share is one layer's self time in an attribution.
type share struct {
	layer string
	self  time.Duration
}

// report is what a workload hands back: checked operation counts, the timed
// samples and, on traced runs, the per-layer metrics and time attribution.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string

	setups  []time.Duration
	samples []sample // untraced samples: the end-to-end metrics
	traced  []sample // samples with the seam decorators on (traced runs)

	layers    map[string]float64
	attrWall  time.Duration // the wall time the shares are held against
	attrShare []share
}

func newReport() *report {
	r := &report{layers: map[string]float64{}}
	for _, m := range perLayer {
		r.layers[m.name] = 0
	}
	return r
}

// op counts one attempted operation and, when problem is non-empty, its
// failure. Safe for concurrent callers.
func (r *report) op(problem string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if problem != "" {
		r.failed++
		if len(r.problems) < 5 {
			r.problems = append(r.problems, problem)
		}
	}
}

// forSamples calls one for sample 0, 1, ... until the measured time is
// spent, and files each sample one returns under r.traced when one says it
// ran traced, else under r.samples. A sample starts only while the time left
// covers the mean sample so far, and at least min samples run. one calls
// resetPeakRSS right before its timed region; the high-water mark read after
// it lands in the sample. The host is calibrated before the first sample and
// after each one; a sample's slow is the mean of the two calibrations around
// it over calRef.
func (r *report) forSamples(budget time.Duration, min int, one func(i int) (sample, bool, error)) error {
	var spent time.Duration
	cal, err := calibrate()
	if err != nil {
		return err
	}
	for i := 0; i < min || spent+spent/time.Duration(i) <= budget; i++ {
		s, traced, err := one(i)
		if err != nil {
			return err
		}
		if s.peak, err = peakRSSMB(); err != nil {
			return err
		}
		next, err := calibrate()
		if err != nil {
			return err
		}
		s.slow = float64(cal+next) / 2 / float64(calRef)
		cal = next
		if traced {
			r.traced = append(r.traced, s)
		} else {
			r.samples = append(r.samples, s)
		}
		spent += s.wall
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], fullSizes, os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the workload and prints the
// report, and returns the exit code.
func run(args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "kernel-mix, fleet-sweep or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed: every job is generated from it")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload kernel-mix|fleet-sweep|serve-mix and --trace 0|1\n")
		return 2
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	p := params{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, dir: dir, sizes: sz, log: stdout,
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintln(stdout, hostFacts(dir))
	rep, err := drive(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	metrics, err := summarize(p, rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	raw, err := json.Marshal(result{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize prints the human-readable report and returns the metrics for
// the result line: end-to-end ones on untraced runs, per-layer ones on
// traced runs.
func summarize(p params, rep *report) (map[string]metric, error) {
	if len(rep.samples) == 0 || len(rep.setups) == 0 {
		return nil, errors.New("no samples measured")
	}
	w := p.log
	frac := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(w, "checks: attempted %d, failed %d, failed_frac %g\n", rep.attempted, rep.failed, frac)
	for _, pr := range rep.problems {
		fmt.Fprintln(w, "  failure:", pr)
	}
	out := map[string]metric{}
	if p.trace {
		for _, sh := range rep.attrShare {
			fmt.Fprintf(w, "attribution: %-12s %9.3f ms  %6.1f%% of %.3f ms\n", sh.layer,
				ms(sh.self), 100*sh.self.Seconds()/rep.attrWall.Seconds(), ms(rep.attrWall))
		}
		for _, m := range perLayer {
			v := rep.layers[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("per-layer metric %s is %v", m.name, v)
			}
			out[m.name] = metric{v, m.unit}
			fmt.Fprintf(w, "layer: %-28s %14.6g %s\n", m.name, v, m.unit)
		}
		return out, nil
	}
	// Every figure is taken per sample, at the reference host speed — rates
	// times the sample's slowness, times divided by it — and the run reports
	// the median over its samples: a burst of load from elsewhere on the
	// host spoils a few short samples, not the run's figure.
	var wall time.Duration
	var runRate, opRate, p50, p99, peaks, slow []float64
	runs, ops := 0, 0
	for i, s := range rep.samples {
		fmt.Fprintf(w, "sample %d: wall %.1f ms, %d ops, %d runs, p50 %.3f ms, p99 %.3f ms, peak %.1f MB, host slowness %.3f\n",
			i, ms(s.wall), len(s.lat), s.runs, ms(percentile(s.lat, 50)), ms(percentile(s.lat, 99)), s.peak, s.slow)
		wall += s.wall
		runs += s.runs
		ops += len(s.lat)
		runRate = append(runRate, float64(s.runs)/s.wall.Seconds()*s.slow)
		opRate = append(opRate, float64(len(s.lat))/s.wall.Seconds()*s.slow)
		p50 = append(p50, ms(percentile(s.lat, 50))/s.slow)
		p99 = append(p99, ms(percentile(s.lat, 99))/s.slow)
		peaks = append(peaks, s.peak)
		slow = append(slow, s.slow)
	}
	// Set-up runs before the samples; the run's median slowness scales it.
	var setup []float64
	for _, d := range rep.setups {
		setup = append(setup, d.Seconds()/median(slow))
	}
	vals := map[string]float64{
		"setup_s":     median(setup),
		"runs_per_s":  median(runRate),
		"op_per_s":    median(opRate),
		"op_p50_ms":   median(p50),
		"op_p99_ms":   median(p99),
		"peak_rss_mb": median(peaks[:min(len(peaks), peakSamples)]),
	}
	n := len(rep.samples)
	fmt.Fprintf(w, "host: median slowness %.3f over %d samples (calibration %.1f ms against the reference %v)\n",
		median(slow), n, median(slow)*ms(calRef), calRef)
	ofSamples := fmt.Sprintf("median of %d samples at reference speed: %d ops, %d runs, %.1f s", n, ops, runs, wall.Seconds())
	note := map[string]string{
		"setup_s":     fmt.Sprintf("median of %d set-ups at reference speed", len(rep.setups)),
		"runs_per_s":  ofSamples,
		"op_per_s":    ofSamples,
		"op_p50_ms":   ofSamples,
		"op_p99_ms":   ofSamples,
		"peak_rss_mb": fmt.Sprintf("median VmHWM of the first %d samples", min(n, peakSamples)),
	}
	for _, m := range endToEnd {
		v := vals[m.name]
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("end-to-end metric %s is %v", m.name, v)
		}
		out[m.name] = metric{v, m.unit}
		fmt.Fprintf(w, "metric: %-12s %14.6g %-4s (%s)\n", m.name, v, m.unit, note[m.name])
	}
	return out, nil
}

// percentile is the nearest-rank p-th percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(median(fs))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// sampleWalls lists the wall times of samples.
func sampleWalls(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}

// traceOverhead is the traced samples' median wall over the untraced
// samples' median wall, minus one.
func traceOverhead(rep *report) float64 {
	if len(rep.traced) == 0 {
		return 0
	}
	return medianDur(sampleWalls(rep.traced)).Seconds()/medianDur(sampleWalls(rep.samples)).Seconds() - 1
}

// attribute records the layer self times held against wall and derives
// unattributed_frac, the share of wall no layer accounts for.
func (r *report) attribute(wall time.Duration, shares ...share) {
	r.attrWall = wall
	r.attrShare = shares
	var total time.Duration
	for _, s := range shares {
		total += s.self
	}
	r.attrShare = append(r.attrShare, share{"unattributed", wall - total})
	r.layers["unattributed_frac"] = 1 - total.Seconds()/wall.Seconds()
}

// resetPeakRSS collects the heap, returns the freed memory to the OS and
// restarts the kernel's high-water mark, so peakRSSMB covers only what
// follows.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Without clear_refs the mark also covers set-up; the metric is still
	// a peak, only a coarser one.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// hostFacts is the host line every result carries: fsync and scheduling
// costs depend on all of it.
func hostFacts(dir string) string {
	return fmt.Sprintf("host: GOMAXPROCS=%d nproc=%d cpu=%q go=%s tmpdir_fs=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), fsType(dir))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType is the type of the filesystem mounted at the longest mount point
// that contains dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), f[2]
		}
	}
	return typ
}

// sockPath places a unix socket in dir, relative to the working directory
// when the absolute path would pass the kernel's 108-byte limit.
func sockPath(dir, name string) string {
	abs := filepath.Join(dir, name)
	if len(abs) < 100 {
		return abs
	}
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, abs); err == nil && !strings.HasPrefix(rel, "..") {
			return "./" + rel
		}
	}
	return abs
}
