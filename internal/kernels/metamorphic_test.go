package kernels

import (
	"testing"

	"goconcbugs/internal/corpus"
	"goconcbugs/internal/event"
	"goconcbugs/internal/explore"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
)

// perRunRace resets the detector at every schedule boundary (vector clocks
// from different runs are incomparable). Serial exploration only.
type perRunRace struct {
	det     *race.Detector
	reports int
}

func (o *perRunRace) Kinds() []event.Kind   { return o.det.Kinds() }
func (o *perRunRace) Event(ev *event.Event) { o.det.Event(ev) }

// TestFixedVariantsQuietOverSchedules is the metamorphic half of the
// conformance story: applying the landed patch must leave NO schedule in
// the (preemption-bounded) exploration space that deadlocks, panics, leaks,
// fails a check — or, for the non-blocking kernels, races. Random-seed
// sweeps (TestFixedVariantsClean) sample the space; this drives it
// systematically, so a fix that merely shrinks the buggy window would be
// caught.
//
// The race assertion is restricted to the non-blocking kernels because that
// is what their patch claims to fix; blocking-bug fixes restructure the
// blocking and make no data-race promise about incidental shared state.
func TestFixedVariantsQuietOverSchedules(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			cfg := k.Config(0)
			var obs *perRunRace
			if k.Behavior == corpus.NonBlocking {
				obs = &perRunRace{det: race.New(-1)}
				cfg.Sinks = []event.Sink{obs}
			}
			res := explore.Systematic(k.Fixed, explore.SystematicOptions{
				Config:          cfg,
				MaxRuns:         200,
				PreemptionBound: 2,
				OnRun: func(r *sim.Result, schedule []int) {
					if obs == nil {
						return
					}
					obs.reports += len(obs.det.Reports())
					obs.det = race.New(-1)
				},
			})
			if res.Failures > 0 {
				t.Errorf("fixed variant fails on %d/%d schedules; first: %v (schedule %v)",
					res.Failures, res.Runs, res.FirstFailure.Outcome, res.FailureSchedule)
			}
			if obs != nil && obs.reports > 0 {
				t.Errorf("fixed variant still races: %d reports across %d schedules", obs.reports, res.Runs)
			}
		})
	}
}
