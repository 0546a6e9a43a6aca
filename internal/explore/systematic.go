package explore

import (
	"context"
	"fmt"

	"goconcbugs/internal/harness"
	"goconcbugs/internal/sim"
)

// Systematic schedule exploration: a stateless model checker over the
// simulated runtime's scheduling decisions.
//
// Random seeds (the paper's and Run's protocol) find bugs probabilistically;
// Section 4 notes some bugs needed many runs or hand-inserted sleeps.
// Systematic exploration goes further: because every interleaving of a
// simulated program is a pure function of the sequence of scheduling
// choices (which runnable goroutine next, which ready select case), a
// depth-first enumeration of those choice sequences covers *every* schedule
// of a small program — turning "we never saw it fail" into "it cannot fail
// within the bound". That is the strongest form of the detection direction
// the paper's Implication 4 asks for, and it verifies patches, not just
// finds bugs: a Fixed kernel that passes exhaustive exploration is correct
// for every interleaving, not just 100 sampled ones.
//
// Input randomness (T.Rand) stays fixed by the seed; the exploration is
// over scheduling only, as in stateless model checkers like CHESS.

// SystematicOptions bounds the exploration.
type SystematicOptions struct {
	// Config seeds input randomness and labels runs; its Chooser is
	// overwritten.
	Config sim.Config
	// Context, when non-nil, bounds the exploration's wall-clock: on
	// cancellation or deadline expiry the search stops between runs and
	// returns the partial result with an Incomplete verdict instead of
	// discarding the work done. Nil means no deadline.
	Context context.Context
	// MaxRuns bounds the number of schedules explored (default 10000).
	MaxRuns int
	// StopAtFirstFailure ends the search at the first failing schedule.
	StopAtFirstFailure bool
	// PreemptionBound, when > 0, explores only schedules with at most
	// that many preemptions (a context switch away from a goroutine that
	// could have kept running) — the CHESS insight that most concurrency
	// bugs need very few preemptions, which shrinks the schedule space by
	// orders of magnitude. Zero or negative means unbounded (full DFS).
	// With a bound, Complete means "complete within the preemption
	// bound".
	PreemptionBound int
	// Reduction enables dynamic partial-order reduction (see dpor.go):
	// the search skips schedules that only reorder independent
	// transitions, which is sound — every reachable outcome (failures,
	// terminal states, the conformance signature set) is still reached —
	// and typically shrinks the schedule count by orders of magnitude on
	// channel-heavy programs. Runs are pruned, so OnRun fires for fewer
	// schedules, and Runs/MaxDepth/FailureSchedule describe the reduced
	// search; SchedulesPruned and SleepSetHits report what was skipped.
	// Reduction reasons about unbounded dependence, not preemption
	// budgets, so it is ignored when PreemptionBound > 0 (the bound
	// already prunes far harder, at the cost of completeness).
	Reduction bool
	// OnRun, when non-nil, receives every executed schedule's result and
	// decision sequence as soon as the run finishes, serially and in
	// search order. This is how the conformance oracle collects the full
	// set of terminal states a program can reach. The slice is reused by
	// the search and the Result lives in a recycled run pool: clone either
	// (r.Clone, append) to retain it past the callback.
	OnRun func(r *sim.Result, schedule []int)
}

// maxChoices bounds the per-run decision depth that participates in
// backtracking; deeper decisions take the first option. Completeness is
// relative to this bound.
const maxChoices = 2000

// SystematicResult summarizes an exploration.
type SystematicResult struct {
	// Runs is the number of schedules executed.
	Runs int
	// Complete is true when every schedule within the depth bound was
	// covered (the search tree was exhausted rather than the run budget).
	Complete bool
	// Failures counts failing schedules; FirstFailure holds the first
	// failing run and FailureSchedule the decision sequence reproducing
	// it (feed it back via ReplaySchedule).
	Failures        int
	FirstFailure    *sim.Result
	FailureSchedule []int
	// MaxDepth is the deepest decision sequence seen.
	MaxDepth int
	// SchedulesPruned counts sibling subtrees the DPOR search proved
	// redundant and never entered (one per unexplored option at each
	// exhausted decision node); zero without Reduction. The number of
	// full schedules avoided is typically far larger — each pruned
	// subtree holds many.
	SchedulesPruned int
	// SleepSetHits counts backtrack candidates skipped because their
	// pending transition was asleep (already explored from an equivalent
	// state); zero without Reduction.
	SleepSetHits int
	// Verdict is the structured outcome: Confirmed when at least one
	// schedule failed, Refuted when the search exhausted the tree with no
	// failure, and Incomplete (with a reason) when it ran out of budget,
	// deadline, or context before either — in which case "no failures so
	// far" is NOT verification.
	Verdict harness.Verdict
	// Frontier sizes the unexplored remainder when the search stopped
	// early: the number of known-untried sibling options. Zero when
	// Complete.
	Frontier int
	// Errors records schedules whose execution panicked on the host side
	// (a detector sink or kernel bug); such runs are isolated, counted
	// here, and the search continues past them.
	Errors []*harness.RunError
}

// finish derives the verdict from the search's terminal state. ctxErr is
// non-nil when a context cut the search short.
func (res *SystematicResult) finish(ctxErr error, maxRuns int) *SystematicResult {
	switch {
	case res.Failures > 0:
		res.Verdict = harness.Verdict{Status: harness.Confirmed}
	case ctxErr != nil:
		res.Verdict = harness.Incompletef(harness.CtxReason(ctxErr),
			"stopped after %d runs with %d frontier entries", res.Runs, res.Frontier)
	case !res.Complete:
		res.Verdict = harness.Incompletef(harness.ReasonBudget,
			"run budget %d exhausted with %d frontier entries", maxRuns, res.Frontier)
	case len(res.Errors) > 0:
		res.Verdict = harness.Incompletef(harness.ReasonPanic,
			"%d of %d runs panicked", len(res.Errors), res.Runs)
	default:
		res.Verdict = harness.Verdict{Status: harness.Refuted}
	}
	return res
}

// frontierOf counts the untried sibling options of one recorded schedule —
// the subtrees a serial DFS stopped before entering.
func frontierOf(chosen, options []int) int {
	n := 0
	for d := range chosen {
		n += options[d] - 1 - chosen[d]
	}
	return n
}

// runSchedule executes one schedule: the decision at depth d takes prefix[d]
// when present and the first (non-preempting) option past the prefix. It
// returns the recorded decision sequence, the option count at every recorded
// depth, and the run result. The decision index is a position in a
// *reordered* option list with the preferred option first, so the leftmost
// descent is the preemption-free schedule and the preemption budget prunes
// consistently across replays.
//
// A host-side panic during the run (a buggy detector sink, a kernel bug in
// host code) is captured as runErr with r nil; chosen and options keep the
// decisions recorded before the panic, so the DFS can still backtrack past
// the schedule.
//
// The run recycles the pool's runtime, so r is only valid until the pool's
// next run — callers clone what they retain.
func runSchedule(pool *sim.RunPool, prog sim.Program, cfg sim.Config, bound int, prefix []int) (chosen, options []int, r *sim.Result, runErr *harness.RunError) {
	preemptions := 0
	cfg.Chooser = func(n, preferred int) int {
		d := len(chosen)
		if d >= maxChoices {
			if preferred >= 0 {
				return preferred
			}
			return 0
		}
		if bound >= 0 && preferred >= 0 && preemptions >= bound {
			// Out of preemption budget: forced. Recorded with a
			// single option so replay stays aligned and the DFS
			// never branches here.
			chosen = append(chosen, 0)
			options = append(options, 1)
			return preferred
		}
		c := 0
		if d < len(prefix) {
			c = prefix[d]
		}
		if c >= n {
			c = 0
		}
		chosen = append(chosen, c)
		options = append(options, n)
		actual := c
		if preferred >= 0 {
			// Reorder: position 0 = preferred, positions 1..
			// = the remaining options in index order.
			switch {
			case c == 0:
				actual = preferred
			case c <= preferred:
				actual = c - 1
			default:
				actual = c
			}
			if actual != preferred {
				preemptions++
			}
		}
		return actual
	}
	runErr = harness.Capture(0, cfg.Seed, func() { r = pool.Run(cfg, prog) })
	return chosen, options, r, runErr
}

// Systematic explores prog's schedules depth-first.
func Systematic(prog sim.Program, opts SystematicOptions) *SystematicResult {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 10000
	}
	bound := -1 // unbounded
	if opts.PreemptionBound > 0 {
		bound = opts.PreemptionBound
	}
	if opts.Reduction && bound < 0 {
		return systematicDPOR(prog, opts)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res := &SystematicResult{}
	pool := sim.NewRunPool()
	defer pool.Close()
	var prefix []int
	for res.Runs < opts.MaxRuns {
		if err := ctx.Err(); err != nil {
			return res.finish(err, opts.MaxRuns)
		}
		chosen, options, r, runErr := runSchedule(pool, prog, opts.Config, bound, prefix)
		res.Runs++
		res.Frontier = frontierOf(chosen, options)
		if runErr != nil {
			runErr.Run = res.Runs - 1
			res.Errors = append(res.Errors, runErr)
		} else {
			if opts.OnRun != nil {
				opts.OnRun(r, chosen)
			}
			if len(chosen) > res.MaxDepth {
				res.MaxDepth = len(chosen)
			}
			if r.Failed() {
				res.Failures++
				if res.FirstFailure == nil {
					// r lives in the pool's recycled runtime; clone to retain
					// it past the next run.
					res.FirstFailure = r.Clone()
					res.FailureSchedule = append([]int(nil), chosen...)
				}
				if opts.StopAtFirstFailure {
					return res.finish(nil, opts.MaxRuns)
				}
			}
		}
		// Backtrack: advance the deepest decision that still has an
		// untried option; exhausting all of them completes the search.
		d := len(chosen) - 1
		for ; d >= 0; d-- {
			if chosen[d]+1 < options[d] {
				break
			}
		}
		if d < 0 {
			res.Complete = true
			res.Frontier = 0
			return res.finish(nil, opts.MaxRuns)
		}
		prefix = append(prefix[:0], chosen[:d+1]...)
		prefix[d] = chosen[d] + 1
	}
	return res.finish(nil, opts.MaxRuns)
}

// ReplaySchedule re-executes prog under a recorded decision sequence,
// returning the (deterministic) result — how a failing schedule found by
// Systematic is reproduced for debugging, typically with Trace enabled.
//
// A schedule only reproduces a run of the same program under the same
// Config: if a decision index exceeds the options actually offered at that
// depth, or the run ends before consuming the whole schedule, the schedule
// belongs to a different program and the result would be an arbitrary
// interleaving. Both mismatches return an error (alongside the result of
// the run as executed) instead of being silently coerced.
func ReplaySchedule(prog sim.Program, cfg sim.Config, schedule []int) (*sim.Result, error) {
	choose, check := ScheduleChooser(schedule)
	cfg.Chooser = choose
	r := sim.Run(cfg, prog)
	return r, check()
}

// ScheduleChooser adapts a recorded decision sequence to a sim.Config.Chooser,
// for harnesses that drive the run themselves (the offline-replay suite
// re-executes DPOR-discovered schedules under the detector pipeline and a
// trace recorder). The chooser is single-run; check, called after the run,
// returns ReplaySchedule's mismatch error when the schedule did not fit the
// program, nil when every decision was consumed exactly.
func ScheduleChooser(schedule []int) (choose func(n, preferred int) int, check func() error) {
	depth := 0
	var mismatch error
	choose = func(n, preferred int) int {
		c := 0
		if depth < len(schedule) {
			c = schedule[depth]
		}
		if c >= n || c < 0 {
			if mismatch == nil {
				mismatch = fmt.Errorf(
					"explore: schedule mismatch at decision %d: index %d of %d options — the schedule was recorded against a different program or config",
					depth, c, n)
			}
			c = 0
		}
		depth++
		if preferred >= 0 {
			switch {
			case c == 0:
				return preferred
			case c <= preferred:
				return c - 1
			default:
				return c
			}
		}
		return c
	}
	check = func() error {
		if mismatch == nil && depth < len(schedule) {
			return fmt.Errorf(
				"explore: schedule mismatch: run ended after %d decisions but the schedule holds %d — the schedule was recorded against a different program or config",
				depth, len(schedule))
		}
		return mismatch
	}
	return choose, check
}

// VerifyAllSchedules is the patch-verification entry point: it reports
// whether prog is failure-free on every schedule within the bounds, along
// with the exploration evidence.
func VerifyAllSchedules(prog sim.Program, opts SystematicOptions) (bool, *SystematicResult) {
	res := Systematic(prog, opts)
	return res.Complete && res.Failures == 0, res
}
