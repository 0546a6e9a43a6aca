package detect

import (
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/vet"
)

// TestPipelineVerdictsMatchLegacyProtocolOnKernels checks the higher-level
// claim behind Tables 8 and 12: for each study kernel, the single-pass
// pipeline verdicts equal what the pre-pipeline per-detector runs produced.
func TestPipelineVerdictsMatchLegacyProtocolOnKernels(t *testing.T) {
	for _, k := range kernels.All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			rep := RunAll(k.Config(1), k.Buggy, All()...)

			// Legacy protocol: one isolated run per detector.
			soloRace := race.New(0)
			rc := k.Config(1)
			rc.Sinks = []event.Sink{soloRace}
			sim.Run(rc, k.Buggy)
			if got, want := rep.Verdict("race").Detected, len(soloRace.Reports()) > 0; got != want {
				t.Errorf("race: pipeline=%v isolated=%v", got, want)
			}

			soloVet, _ := vet.Check(k.Config(1), k.Buggy)
			if got, want := rep.Verdict("vet").Detected, len(soloVet.Violations()) > 0; got != want {
				t.Errorf("vet: pipeline=%v isolated=%v", got, want)
			}
		})
	}
}
