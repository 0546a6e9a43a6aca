package main

import (
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"
)

// calRef is what calibrate takes on the reference host (the 2-vCPU host of
// README.md's first readings, at its usual speed). The end-to-end timings are
// reported at that speed: a sample's figures are scaled by its calibrations
// over calRef.
const calRef = 50 * time.Millisecond

// calRounds, calTrips, calChase and calSteps size calibrate's three loads:
// about 20, 13 and 15 ms on the reference host.
const (
	calRounds = 60
	calTrips  = 2000
	calChase  = 1 << 21 // 8 MB of uint32 links
	calSteps  = 100_000
)

// calSink keeps the calibration results live.
var calSink []uint64

// calBufs are the CPU load's working sets, one per goroutine, made once.
var calBufs []*calBuf

type calBuf struct {
	pcg *rand.PCG
	rng *rand.Rand
	m   map[uint64]uint64
	xs  []uint64
}

// calibrate reads how fast the host runs right now. The measuring host is
// shared: from one minute to the next the same work takes up to 1.9 times as
// long, and a run's figures would follow. calibrate times three fixed loads
// that share no code with the repository and returns their summed wall time:
// map inserts and a sort on GOMAXPROCS goroutines at once; one byte bounced
// between two goroutines over a pair of pipes (system calls and wake-ups, as
// on the HTTP path); and a chase through an 8 MB random cycle (memory
// latency). Everything the loads use is allocated and a garbage collection
// finished before the clock starts, so the size of a workload's heap is not
// charged to the host.
func calibrate() (time.Duration, error) {
	n := runtime.GOMAXPROCS(0)
	for len(calBufs) < n {
		pcg := rand.NewPCG(0, 0)
		calBufs = append(calBufs, &calBuf{pcg: pcg, rng: rand.New(pcg), m: make(map[uint64]uint64, 1024), xs: make([]uint64, 2048)})
	}
	out := make([]uint64, n+1)
	chase := cycle(calChase)
	ar, aw, err := os.Pipe()
	if err != nil {
		return 0, err
	}
	defer ar.Close()
	defer aw.Close()
	br, bw, err := os.Pipe()
	if err != nil {
		return 0, err
	}
	defer br.Close()
	defer bw.Close()
	echoed := make(chan error, 1)
	runtime.GC()

	var wg sync.WaitGroup
	start := time.Now()
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = calWork(uint64(g), calBufs[g])
		}()
	}
	wg.Wait()

	// A side that fails closes its ends, so the other side's read sees EOF
	// and its write a closed pipe instead of waiting for ever.
	go func() {
		err := bounce(ar, bw, calTrips, false)
		if err != nil {
			bw.Close()
			ar.Close()
		}
		echoed <- err
	}()
	err = bounce(br, aw, calTrips, true)
	if err != nil {
		aw.Close()
		br.Close()
	}
	if eerr := <-echoed; err == nil {
		err = eerr
	}

	p := uint32(0)
	for range calSteps {
		p = chase[p]
	}
	d := time.Since(start)
	out[n] = uint64(p)
	calSink = out
	return d, err
}

// cycle is a fixed random cyclic permutation of [0, n) (Sattolo's
// algorithm): following it from any index visits every index once.
func cycle(n int) []uint32 {
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

// bounce passes one byte back and forth trips times: it reads from r and
// writes to w, writing first when first is set.
func bounce(r, w *os.File, trips int, first bool) error {
	b := []byte{1}
	for i := range trips {
		if first || i > 0 {
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
		if _, err := r.Read(b); err != nil {
			return err
		}
	}
	if !first {
		_, err := w.Write(b)
		return err
	}
	return nil
}

func calWork(seed uint64, b *calBuf) uint64 {
	b.pcg.Seed(seed, 1)
	var acc uint64
	for range calRounds {
		clear(b.m)
		for i := range b.xs {
			b.xs[i] = b.rng.Uint64()
			b.m[b.xs[i]&1023] += b.xs[i]
		}
		slices.Sort(b.xs)
		for k, v := range b.m {
			acc += k ^ v
		}
		acc += b.xs[len(b.xs)/2]
	}
	return acc
}
