package conformance

import (
	"bytes"
	"reflect"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/vet"
)

// TestPooledMatchesFreshOnGeneratedPrograms extends the RunPool
// differential (internal/sim/sim_pool_differential_test.go) to the
// generated IR corpus: 200 generator programs through ONE shared pool,
// each compared against a fresh sim.Run for Result, event stream, race
// reports, and vet violations. The generator's structural variety (chans,
// selects, locks, waitgroups, nested spawns) exercises arena recycling
// across wildly different object populations.
func TestPooledMatchesFreshOnGeneratedPrograms(t *testing.T) {
	n := pipelinePrograms
	if testing.Short() {
		n = 40
	}
	pool := sim.NewRunPool()
	defer pool.Close()
	for seed := int64(0); seed < int64(n); seed++ {
		p := Generate(seed, pipelineModes(seed))
		prog, _ := simProgram(p)
		cfg := sim.Config{Seed: seed, Name: "pool-equiv"}

		run := func(pooled bool) (*sim.Result, string, []string, []string) {
			var tr bytes.Buffer
			det := race.New(-1)
			vt := vet.New()
			c := cfg
			c.Sinks = []event.Sink{sim.NewTextTraceSink(&tr), det, vt}
			var res *sim.Result
			if pooled {
				res = pool.Run(c, prog).Clone()
			} else {
				res = sim.Run(c, prog)
			}
			var races, vets []string
			for _, r := range det.Reports() {
				races = append(races, r.String())
			}
			for _, v := range vt.Violations() {
				vets = append(vets, v.String())
			}
			return res, tr.String(), races, vets
		}

		fres, fev, frace, fvet := run(false)
		pres, pev, prace, pvet := run(true)

		if !reflect.DeepEqual(fres, pres) {
			t.Errorf("seed %d: Result differs\n  fresh:  %+v\n  pooled: %+v", seed, fres, pres)
		}
		if fev != pev {
			t.Fatalf("seed %d: trace differs fresh vs pooled at %s", seed, traceDiff(fev, pev))
		}
		if !reflect.DeepEqual(frace, prace) {
			t.Errorf("seed %d: race reports differ\n  fresh:  %v\n  pooled: %v", seed, frace, prace)
		}
		if !reflect.DeepEqual(fvet, pvet) {
			t.Errorf("seed %d: vet violations differ\n  fresh:  %v\n  pooled: %v", seed, fvet, pvet)
		}
	}
}
