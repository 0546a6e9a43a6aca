package detect

import (
	"slices"

	"goconcbugs/internal/deadlock"
	"goconcbugs/internal/event"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/vet"
)

// The study's detector set. Registration order is the order the paper
// introduces them: the two it evaluates (builtin, race), then the two its
// Section 7 proposes (leak, vet), then the circular-wait analysis that
// draws Section 4's deadlock-vs-blocking line.
func init() {
	Register(Detector{
		Name: "builtin",
		Desc: "Go's global runtime deadlock detector (Section 5.3)",
		New:  func() Instance { return &resultOnly{name: "builtin", judge: builtinJudge} },
	})
	Register(Detector{
		Name: "race",
		Desc: "happens-before data race detector, Go's 4 shadow words (Section 5.3)",
		New:  func() Instance { return &raceInstance{det: race.New(0)} },
	})
	Register(Detector{
		Name: "leak",
		Desc: "goroutine-leak / partial-deadlock detector (Implication 4)",
		New:  func() Instance { return &resultOnly{name: "leak", judge: leakJudge} },
	})
	Register(Detector{
		Name: "vet",
		Desc: "dynamic misuse-rule checker (Section 7's rule enforcement)",
		New:  func() Instance { return &vetInstance{mon: vet.New()} },
	})
	Register(Detector{
		Name: "cycle",
		Desc: "lock wait-for-graph circular-wait analysis (Section 4)",
		New:  func() Instance { return &resultOnly{name: "cycle", judge: cycleJudge} },
	})
}

// resultOnly adapts a pure post-run analysis: no event kinds, all the work
// in Finish. judge reports whether the run is detected and its message; a
// detected run's one finding is that message.
type resultOnly struct {
	name  string
	judge func(*sim.Result) (bool, string)
	// findings is the unused rest of the chunk the verdicts' one-finding
	// slices are carved from (see carveFindings).
	findings []string
}

// carveFindings returns a length-n slice carved from the front of *rest,
// refilling *rest with a fresh chunk of at least 16 slots when it is too
// short. A slot is handed out once, so no two verdicts share one.
func carveFindings(rest *[]string, n int) []string {
	if len(*rest) < n {
		*rest = make([]string, max(16, n))
	}
	out := (*rest)[:n:n]
	*rest = (*rest)[n:]
	return out
}

func (*resultOnly) Kinds() []event.Kind { return nil }
func (*resultOnly) Event(*event.Event)  {}
func (*resultOnly) Reset()              {}

func (r *resultOnly) Finish(res *sim.Result) Verdict {
	detected, msg := r.judge(res)
	v := Verdict{Detector: r.name, Detected: detected, Message: msg}
	if detected {
		v.Findings = carveFindings(&r.findings, 1)
		v.Findings[0] = msg
	}
	return v
}

func builtinJudge(res *sim.Result) (bool, string) {
	d := deadlock.Builtin{}.Detect(res)
	return d.Detected, d.Message
}

func leakJudge(res *sim.Result) (bool, string) {
	d := deadlock.Leak{}.Detect(res)
	return d.Detected, d.Message
}

func cycleJudge(res *sim.Result) (bool, string) {
	c := deadlock.AnalyzeCircularity(res)
	return c.CircularWait, c.Description
}

// raceInstance wraps the happens-before detector (already a native sink).
type raceInstance struct {
	det *race.Detector
	// findings is the unused rest of the chunk the verdicts' Findings are
	// carved from (see carveFindings).
	findings []string
}

func (r *raceInstance) Kinds() []event.Kind   { return r.det.Kinds() }
func (r *raceInstance) Event(ev *event.Event) { r.det.Event(ev) }
func (r *raceInstance) Reset()                { r.det.Reset() }

func (r *raceInstance) Finish(*sim.Result) Verdict {
	v := Verdict{Detector: "race"}
	reps := r.det.Reports()
	if len(reps) == 0 {
		return v
	}
	v.Findings = carveFindings(&r.findings, len(reps))
	for i, rep := range reps {
		v.Findings[i] = rep.String()
	}
	v.Detected = true
	v.Message = v.Findings[0]
	return v
}

// vetInstance wraps the rule monitor (already a native sink).
type vetInstance struct {
	mon *vet.Monitor
	// findings and rules are the unused rests of the chunks the verdicts'
	// Findings and Rules are carved from (see carveFindings), and buf is
	// the scratch a finding renders into.
	findings, rules []string
	buf             []byte
}

func (m *vetInstance) Kinds() []event.Kind   { return m.mon.Kinds() }
func (m *vetInstance) Event(ev *event.Event) { m.mon.Event(ev) }
func (m *vetInstance) Reset()                { m.mon.Reset() }

func (m *vetInstance) Finish(*sim.Result) Verdict {
	v := Verdict{Detector: "vet"}
	viols := m.mon.Violations()
	if len(viols) == 0 {
		return v
	}
	v.Findings = carveFindings(&m.findings, len(viols))
	// The distinct rules in order of first appearance; vet has six, so
	// the scratch stays on the stack.
	rules := make([]string, 0, 8)
	for i, viol := range viols {
		m.buf = viol.AppendTo(m.buf[:0])
		v.Findings[i] = string(m.buf)
		if !slices.Contains(rules, string(viol.Rule)) {
			rules = append(rules, string(viol.Rule))
		}
	}
	v.Rules = carveFindings(&m.rules, len(rules))
	copy(v.Rules, rules)
	v.Detected = true
	v.Message = v.Findings[0]
	return v
}
