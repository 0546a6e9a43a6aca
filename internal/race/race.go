// Package race implements a happens-before data race detector in the style
// of Go's built-in detector.
//
// Section 6.3 of the paper: "Go provides a data race detector which uses the
// same happen-before algorithm as ThreadSanitizer ... the race detector
// creates up to four shadow words for every memory object to store
// historical accesses of the object. It compares every new access with the
// stored shadow word values to detect possible races."
//
// This implementation attaches to the simulated runtime as an event sink
// (sim.Config.Sinks) subscribed to the four memory-access kinds. Every
// instrumented access is summarized as an epoch
// (goroutine @ clock, see package hb) and stored in a bounded ring of shadow
// words per variable. A new access races with a stored one when they touch
// the same variable, at least one is a write, they come from different
// goroutines, and neither happens-before the other. The bounded shadow ring
// reproduces the paper's third failure mode: "with only four shadow words
// for each memory object, the detector cannot keep a long history and may
// miss data races."
package race

import (
	"fmt"
	"sort"

	"goconcbugs/internal/event"
	"goconcbugs/internal/hb"
)

// DefaultShadowWords matches the Go race detector's per-object budget the
// paper describes.
const DefaultShadowWords = 4

// Report describes one detected data race.
type Report struct {
	Var        string
	FirstG     int
	FirstEpoch hb.Epoch
	FirstWrite bool
	SecondG    int
	SecondName string
	SecondWrit bool
	Step       int64
}

// String renders the report like a condensed `-race` diagnostic.
func (r Report) String() string {
	kind := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	return fmt.Sprintf("DATA RACE on %s: %s by g%d (epoch %s) vs %s by g%d(%s) at step %d",
		r.Var, kind(r.FirstWrite), r.FirstG, r.FirstEpoch,
		kind(r.SecondWrit), r.SecondG, r.SecondName, r.Step)
}

// shadowWord is one remembered access.
type shadowWord struct {
	epoch hb.Epoch
	write bool
}

type shadowState struct {
	words []shadowWord // ring, newest last
	// lastG/lastC cache the epoch of the most recently stored access.
	// When the same goroutine accesses again at the same clock value, no
	// synchronization happened in between, so the scan below would reach
	// exactly the same verdict as last time (FastTrack's same-epoch fast
	// path) and can be skipped.
	lastG     int
	lastC     uint64
	lastWrite bool
}

// pairKey dedups reports by variable and unordered goroutine pair without
// allocating a string per access.
type pairKey struct {
	varID    int
	gLo, gHi int
}

// Detector observes instrumented accesses and accumulates race reports. It
// is an event.Sink. A Detector holds one run's single-threaded state: create
// one per sim.Run, or Reset it between the runs of one host goroutine.
type Detector struct {
	shadowWords int
	vars        map[int]*shadowState
	reports     []Report
	reported    map[pairKey]bool
}

// New creates a detector with the given shadow-word budget per variable
// (0 means DefaultShadowWords; negative means unbounded, the ablation
// configuration).
func New(shadowWords int) *Detector {
	if shadowWords == 0 {
		shadowWords = DefaultShadowWords
	}
	return &Detector{
		shadowWords: shadowWords,
		vars:        make(map[int]*shadowState),
		reported:    make(map[pairKey]bool),
	}
}

// Reset forgets everything the previous run recorded, so the detector
// judges its next run exactly as a New one would: vector clocks from
// different runs are incomparable. Shadow rings are emptied in place, so a
// detector reset between runs of the same program stops allocating them.
// Reports returned before the reset are overwritten by later ones.
func (d *Detector) Reset() {
	for _, st := range d.vars {
		*st = shadowState{words: st.words[:0]}
	}
	clear(d.reported)
	d.reports = d.reports[:0]
}

var _ event.Sink = (*Detector)(nil)

// kinds is the detector's subscription, shared by every Detector.
var kinds = []event.Kind{event.MemRead, event.MemWrite, event.MapRead, event.MapWrite}

// Kinds implements event.Sink: the four memory-access kinds (plain Vars and
// MapVars), nothing else. The slice is shared; callers must not modify it.
func (d *Detector) Kinds() []event.Kind { return kinds }

// Event implements event.Sink: the FastTrack-style check of one access
// against every stored shadow word of its variable.
func (d *Detector) Event(ev *event.Event) {
	write := ev.Kind == event.MemWrite || ev.Kind == event.MapWrite
	st := d.vars[ev.Var.ID]
	if st == nil {
		st = &shadowState{}
		d.vars[ev.Var.ID] = st
	}
	c := ev.VC.Get(ev.G)
	// Same-epoch fast path: if the previous stored access came from this
	// goroutine at this clock value, no synchronization intervened, so the
	// scan below cannot produce a new report — vector clocks only grow
	// (ordered pairs stay ordered), the only word stored since is our own
	// (program order), and any racing pair was reported and deduped on the
	// previous scan. The one asymmetric case is a write following a read:
	// a write also races with stored reads the earlier read-check skipped,
	// so that combination still takes the scan.
	if ev.G == st.lastG && c == st.lastC && (st.lastWrite || !write) {
		st.store(shadowWord{epoch: hb.Epoch{G: ev.G, C: c}, write: write}, d.shadowWords)
		return
	}
	for _, w := range st.words {
		if w.epoch.G == ev.G {
			continue // same goroutine: program order
		}
		if !w.write && !write {
			continue // read/read never races
		}
		if ev.VC.HappensBefore(w.epoch) {
			continue // ordered by synchronization
		}
		key := pairKey{varID: ev.Var.ID, gLo: min(w.epoch.G, ev.G), gHi: max(w.epoch.G, ev.G)}
		if d.reported[key] {
			continue
		}
		d.reported[key] = true
		d.reports = append(d.reports, Report{
			Var:        ev.Var.Name,
			FirstG:     w.epoch.G,
			FirstEpoch: w.epoch,
			FirstWrite: w.write,
			SecondG:    ev.G,
			SecondName: ev.GName,
			SecondWrit: write,
			Step:       ev.Step,
		})
	}
	st.store(shadowWord{epoch: hb.Epoch{G: ev.G, C: c}, write: write}, d.shadowWords)
}

// store records a new access, evicting the oldest shadow word when the
// budget is exhausted (the detector's bounded history). The fast path skips
// the scan but never the store, so the ring's contents — and therefore which
// races the bounded history can still catch — are identical either way.
func (st *shadowState) store(word shadowWord, budget int) {
	st.lastG, st.lastC, st.lastWrite = word.epoch.G, word.epoch.C, word.write
	if budget > 0 && len(st.words) >= budget {
		copy(st.words, st.words[1:])
		st.words[len(st.words)-1] = word
		return
	}
	st.words = append(st.words, word)
}

// Reports returns the detected races in detection order.
func (d *Detector) Reports() []Report { return d.reports }

// RacyVars returns the distinct variable names involved in races, sorted.
func (d *Detector) RacyVars() []string {
	seen := map[string]bool{}
	for _, r := range d.reports {
		seen[r.Var] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
