package conformance

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"goconcbugs/internal/event"
	"goconcbugs/internal/explore"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
)

// Signature kinds: the three terminal states a program run can be observed
// in from outside, on either backend.
const (
	// KindDone: every goroutine finished; Vars holds terminal state.
	KindDone = "done"
	// KindHung: at least one goroutine was blocked forever — the union of
	// the simulator's built-in-deadlock and goroutine-leak outcomes, which
	// a host watchdog cannot tell apart.
	KindHung = "hung"
	// KindPanic: the program crashed; Panic holds the panic class.
	KindPanic = "panic"
)

// Signature is a backend-neutral summary of one run's terminal state. Two
// runs with equal signatures are observationally equivalent to the oracle.
type Signature struct {
	Kind  string
	Panic string // normalized panic class, KindPanic only
	Vars  string // rendered terminal var values, KindDone only
}

// String implements fmt.Stringer.
func (s Signature) String() string {
	switch s.Kind {
	case KindPanic:
		return "panic:" + s.Panic
	case KindDone:
		return "done:" + s.Vars
	default:
		return s.Kind
	}
}

func doneSignature(vars []int64) Signature {
	return Signature{Kind: KindDone, Vars: fmt.Sprint(vars)}
}

func panicSignature(msg string) Signature {
	return Signature{Kind: KindPanic, Panic: PanicClass(msg)}
}

// PanicClass normalizes a panic message to a backend-neutral identity: the
// simulator's messages carry object names ("send on closed channel c1") and
// the real runtime's do not, so the class is what the two can agree on.
func PanicClass(msg string) string {
	switch {
	case strings.Contains(msg, "send on closed channel"):
		return "send-on-closed"
	case strings.Contains(msg, "close of closed channel"):
		return "close-of-closed"
	case strings.Contains(msg, "close of nil channel"):
		return "close-of-nil"
	case strings.Contains(msg, "negative WaitGroup counter"):
		return "negative-waitgroup"
	case strings.Contains(msg, "concurrent map"):
		return "concurrent-map"
	case strings.Contains(msg, "release of un-acquired semaphore"):
		return "sem-release-unacquired"
	default:
		return "unrecognized: " + msg
	}
}

// simSignature classifies one simulated run. Step-limit terminations are
// folded into KindHung; IR programs are loop-free, so a run that exhausts
// the step budget is counted separately as evidence of a harness bug.
func simSignature(res *sim.Result, env *simEnv) Signature {
	switch {
	case res.Outcome == sim.OutcomePanic:
		return panicSignature(res.Panics[0].Msg)
	case res.Outcome == sim.OutcomeBuiltinDeadlock,
		res.Outcome == sim.OutcomeStepLimit,
		len(res.Blocked) > 0:
		return Signature{Kind: KindHung}
	default:
		return doneSignature(env.finalVars())
	}
}

// SimSpace is the set of terminal states the simulator reaches for one
// program across its (budget-bounded) schedule space.
type SimSpace struct {
	// Schedules is the number of schedules executed; Complete is true when
	// they are the whole space, which is when membership is a sound oracle.
	Schedules int
	Complete  bool
	// Sigs counts schedules per signature.
	Sigs map[Signature]int
	// StepLimited counts schedules that hit the step budget (always 0 for
	// generated programs; nonzero means the harness itself is broken).
	StepLimited int
	// RaceSchedules counts schedules on which a per-run race detector
	// (unbounded shadow words) reported at least one race; -1 when the
	// exploration ran without race detection.
	RaceSchedules int
	// RacyVarSchedules counts schedules whose reports include one of the
	// program's deliberately racy vars. The distinction matters for the
	// host direction: the sim instruments every var bare, so it also
	// reports "races" on vars the *host* accesses under per-var locks —
	// only a racy-var report predicts a host -race report.
	RacyVarSchedules int
	// CondBlocked counts non-panicking schedules that end with at least
	// one goroutine parked on a condition variable. The liveness oracle:
	// for signal-guaranteed programs with complete exploration this must
	// be 0 — every CondWait can wake on every schedule. (Panicking runs
	// are excluded: a crash legitimately strands waiters, identically on
	// both backends.)
	CondBlocked int
}

// Allows reports whether the host observation sig is a member of the space.
func (sp *SimSpace) Allows(sig Signature) bool { return sp.Sigs[sig] > 0 }

// AllowsHang reports whether any schedule hangs.
func (sp *SimSpace) AllowsHang() bool {
	return sp.Sigs[Signature{Kind: KindHung}] > 0
}

// AllHung reports whether every schedule hangs — the programs the sim
// deadlock detectors call unconditionally stuck, which must hang for real.
func (sp *SimSpace) AllHung() bool {
	return len(sp.Sigs) == 1 && sp.AllowsHang()
}

// Summary renders the space compactly, most frequent signature first.
func (sp *SimSpace) Summary() string {
	sigs := make([]Signature, 0, len(sp.Sigs))
	for s := range sp.Sigs {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool {
		if sp.Sigs[sigs[i]] != sp.Sigs[sigs[j]] {
			return sp.Sigs[sigs[i]] > sp.Sigs[sigs[j]]
		}
		return sigs[i].String() < sigs[j].String()
	})
	parts := make([]string, len(sigs))
	for i, s := range sigs {
		parts[i] = fmt.Sprintf("%v×%d", s, sp.Sigs[s])
	}
	return fmt.Sprintf("{%s} over %d schedules (complete=%v)",
		strings.Join(parts, ", "), sp.Schedules, sp.Complete)
}

// perRunRace resets a race detector at every run boundary so shadow state
// and vector clocks never leak between runs (clocks from different runs are
// incomparable). Serial exploration only. It forwards the memory-event
// stream to whichever detector is current.
type perRunRace struct {
	det *race.Detector
}

func (o *perRunRace) Kinds() []event.Kind { return o.det.Kinds() }

func (o *perRunRace) Event(ev *event.Event) { o.det.Event(ev) }

// ExploreSim enumerates p's schedule space (up to maxSchedules) on the
// simulated runtime and collects the set of reachable terminal signatures.
// With withRace, each schedule additionally runs under a fresh
// unbounded-shadow race detector and RaceSchedules counts the schedules
// that drew a report.
func ExploreSim(p *Program, maxSchedules int, withRace bool) *SimSpace {
	return ExploreSimReduced(p, maxSchedules, withRace, false)
}

// ExploreSimReduced is ExploreSim with dynamic partial-order reduction
// switchable. Reduction prunes schedules that only reorder independent
// transitions; the signature set it collects is provably the same (outcome
// signatures are trace-equivalence invariants), which the differential
// equivalence suite in package explore asserts against full enumeration.
// Schedules and the per-signature counts differ — only the *set* of
// signatures is preserved.
func ExploreSimReduced(p *Program, maxSchedules int, withRace, reduce bool) *SimSpace {
	prog, envSlot := simProgram(p)
	sp := &SimSpace{Sigs: map[Signature]int{}, RaceSchedules: -1, RacyVarSchedules: -1}
	var obs *perRunRace
	cfg := sim.Config{Name: fmt.Sprintf("conformance-%d", p.Seed)}
	if withRace {
		obs = &perRunRace{det: race.New(-1)}
		cfg.Sinks = []event.Sink{obs}
		sp.RaceSchedules = 0
		sp.RacyVarSchedules = 0
	}
	racyNames := map[string]bool{}
	for i, racy := range p.RacyVars {
		if racy {
			racyNames[fmt.Sprintf("v%d", i)] = true
		}
	}
	res := explore.Systematic(prog, explore.SystematicOptions{
		Config:    cfg,
		MaxRuns:   maxSchedules,
		Reduction: reduce,
		OnRun: func(r *sim.Result, schedule []int) {
			sp.Sigs[simSignature(r, *envSlot)]++
			if r.Outcome == sim.OutcomeStepLimit {
				sp.StepLimited++
			}
			if r.Outcome != sim.OutcomePanic && r.Outcome != sim.OutcomeStepLimit {
				for _, gi := range r.Blocked {
					if gi.BlockKind == sim.BlockCond {
						sp.CondBlocked++
						break
					}
				}
			}
			if obs != nil {
				reports := obs.det.Reports()
				if len(reports) > 0 {
					sp.RaceSchedules++
				}
				for _, rep := range reports {
					if racyNames[rep.Var] {
						sp.RacyVarSchedules++
						break
					}
				}
				obs.det = race.New(-1)
			}
		},
	})
	sp.Schedules = res.Runs
	sp.Complete = res.Complete
	return sp
}

// CheckOptions tunes one differential check.
type CheckOptions struct {
	// MaxSchedules bounds the sim-side exploration (default 600). When
	// the bound is hit the check degrades to weak mode: the host run still
	// executes, but membership is not asserted, because the simulator may
	// reach the host's outcome in an unexplored schedule.
	MaxSchedules int
	// HangPatience is the watchdog timeout when the simulator says a hang
	// is reachable (default 50ms): misreading a slow completion as hung
	// is then still inside the sim space.
	HangPatience time.Duration
	// FinishPatience is the watchdog timeout when the simulator says the
	// program must finish (default 2s): only a genuinely stuck program is
	// reported divergent.
	FinishPatience time.Duration
	// Reduction explores the sim side with dynamic partial-order
	// reduction: the same signature set from far fewer schedules, so
	// complete (strict) exploration fits the budget on more programs.
	Reduction bool
	// Families narrows the primitive families the generator draws from
	// (nil: all). CI's per-primitive lanes set this via godetect -kinds.
	Families *Families
}

func (o CheckOptions) withDefaults() CheckOptions {
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 600
	}
	if o.HangPatience <= 0 {
		o.HangPatience = 50 * time.Millisecond
	}
	if o.FinishPatience <= 0 {
		o.FinishPatience = 2 * time.Second
	}
	return o
}

// Divergence is one sim-vs-host disagreement: the host runtime produced a
// terminal state the simulator's complete schedule space does not contain —
// or, with Liveness set, the missed-signal liveness oracle fired.
type Divergence struct {
	Seed    int64
	Host    Signature
	Space   *SimSpace
	Program *Program
	// Liveness marks a missed-signal liveness violation instead of a
	// membership failure: a signal-guaranteed program whose complete
	// exploration contains schedules ending with a goroutine parked on a
	// cond. Host is zero for these.
	Liveness bool
}

// String renders the divergence with everything needed to reproduce it
// standalone: the generator seed, the program, and the replay command.
func (d *Divergence) String() string {
	if d.Liveness {
		return fmt.Sprintf(
			"LIVENESS VIOLATION at generator seed %d: program is signal-guaranteed but %d of %d schedules end parked on a cond\n%s"+
				"reproduce with: go test ./internal/conformance -run TestReplaySeed -conformance.seed=%d -v",
			d.Seed, d.Space.CondBlocked, d.Space.Schedules, d.Program, d.Seed)
	}
	return fmt.Sprintf(
		"DIVERGENCE at generator seed %d: host runtime observed %v, simulator reaches %s\n%s"+
			"reproduce with: go test ./internal/conformance -run TestReplaySeed -conformance.seed=%d -v",
		d.Seed, d.Host, d.Space.Summary(), d.Program, d.Seed)
}

// CheckResult is the outcome of one seed's differential check.
type CheckResult struct {
	Seed    int64
	Program *Program
	Space   *SimSpace
	Host    Signature
	// HostRan is false when the host half was skipped: under a -race test
	// binary, programs whose channel closes are unordered with sends are
	// genuinely racy on the channel's internal state and must not execute
	// in-process (see closeUnordered). The sim half still runs.
	HostRan bool
	// Strict is true when the sim exploration was complete and membership
	// was therefore asserted.
	Strict bool
	// Divergence is non-nil when the check failed.
	Divergence *Divergence
}

// CheckSeed generates the program for seed, explores its simulated schedule
// space, runs it once on the real runtime, and cross-checks the outcomes.
func CheckSeed(seed int64, opts CheckOptions) *CheckResult {
	opts = opts.withDefaults()
	fams := AllFamilies
	if opts.Families != nil {
		fams = *opts.Families
	}
	return CheckProgram(GenerateWith(seed, ModeSafe, fams), opts)
}

// CheckProgram runs the differential check on an already-built program —
// the path hand-written regression programs (Seed 0) share with generated
// ones.
func CheckProgram(p *Program, opts CheckOptions) *CheckResult {
	opts = opts.withDefaults()
	space := ExploreSimReduced(p, opts.MaxSchedules, false, opts.Reduction)
	res := &CheckResult{Seed: p.Seed, Program: p, Space: space}
	// Missed-signal liveness oracle: a signal-guaranteed program whose
	// complete schedule space still contains cond-parked terminal states
	// is a generator or simulator bug, regardless of what the host does.
	if p.SignalGuaranteed && space.Complete && space.CondBlocked > 0 {
		res.Divergence = &Divergence{Seed: p.Seed, Space: space, Program: p, Liveness: true}
		return res
	}
	if raceEnabled && closeUnordered(p) {
		return res
	}
	patience := opts.HangPatience
	if space.Complete && !space.AllowsHang() {
		patience = opts.FinishPatience
	}
	res.Host = RunHost(p, patience)
	res.HostRan = true
	if space.Complete {
		res.Strict = true
		if !space.Allows(res.Host) {
			res.Divergence = &Divergence{Seed: p.Seed, Host: res.Host, Space: space, Program: p}
		}
	}
	return res
}

// SweepOptions configures a conformance sweep over consecutive seeds.
type SweepOptions struct {
	// Programs is the number of seeds checked (default 1000).
	Programs int
	// BaseSeed is the first seed; program i uses BaseSeed+i.
	BaseSeed int64
	// Workers fans programs out over host goroutines, the caller among
	// them (harness.ForEach; 0 = the larger of 8 and 2×GOMAXPROCS: hung
	// host runs spend their time sleeping on the watchdog, so the sweep
	// oversubscribes the CPUs). The per-program check stays serial either
	// way; results are folded in seed order.
	Workers int
	// Check tunes each differential check.
	Check CheckOptions
	// Context, when non-nil, stops dispatching new seeds once canceled;
	// in-flight checks finish and the partial stats fold what completed,
	// with the Verdict marked Incomplete. Nil means run all seeds.
	Context context.Context
}

// SweepStats aggregates a sweep.
type SweepStats struct {
	Programs    int
	Strict      int // programs whose exploration completed (membership asserted)
	Schedules   int // total sim schedules executed
	StepLimited int // schedules that hit the sim step budget (harness bug if nonzero)
	HostSkipped int // host halves skipped under -race (closeUnordered programs)
	HostKinds   map[string]int
	// KindCoverage counts programs containing each statement kind, the
	// sweep's evidence that the whole IR is exercised.
	KindCoverage map[StmtKind]int
	// SignalGuaranteed counts programs subject to the missed-signal
	// liveness oracle.
	SignalGuaranteed int
	// AllHungConfirmed counts programs where every sim schedule hangs and
	// the host run indeed hung — the deadlock-direction oracle.
	AllHungConfirmed int
	Divergences      []*Divergence
	// Completed counts seeds whose check ran to the end; seeds skipped by
	// cancellation or lost to a host-side panic are the difference, with
	// panics itemized in Errors.
	Completed int
	Errors    []*harness.RunError
	// Verdict: Confirmed when a divergence was found, Refuted when every
	// seed was checked without one, Incomplete when the sweep was cut
	// short — in which case "no divergences" is not conformance evidence.
	Verdict harness.Verdict
}

// Sweep runs the differential oracle over opts.Programs consecutive seeds.
// Each seed's check is panic-isolated, and cancellation via Context yields
// the partial fold instead of discarding completed work.
func Sweep(opts SweepOptions) *SweepStats {
	if opts.Programs <= 0 {
		opts.Programs = 1000
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 2 * runtime.GOMAXPROCS(0)
		if workers < 8 {
			workers = 8
		}
	}
	results := make([]*CheckResult, opts.Programs)
	errs := make([]*harness.RunError, opts.Programs)
	harness.ForEach(ctx, opts.Programs, workers, func(_ int, claim func() (int, bool)) {
		for i, ok := claim(); ok; i, ok = claim() {
			seed := opts.BaseSeed + int64(i)
			errs[i] = harness.Capture(i, seed, func() {
				results[i] = CheckSeed(seed, opts.Check)
			})
		}
	})

	st := &SweepStats{Programs: opts.Programs, HostKinds: map[string]int{}, KindCoverage: map[StmtKind]int{}}
	for i, r := range results {
		if errs[i] != nil {
			st.Errors = append(st.Errors, errs[i])
			continue
		}
		if r == nil { // never dispatched
			continue
		}
		st.Completed++
		if r.Strict {
			st.Strict++
		}
		st.Schedules += r.Space.Schedules
		st.StepLimited += r.Space.StepLimited
		for k := range r.Program.Kinds() {
			st.KindCoverage[k]++
		}
		if r.Program.SignalGuaranteed {
			st.SignalGuaranteed++
		}
		if r.Divergence != nil {
			// Collected before the HostRan gate: liveness violations skip
			// the host half entirely.
			st.Divergences = append(st.Divergences, r.Divergence)
		}
		if !r.HostRan {
			st.HostSkipped++
			continue
		}
		st.HostKinds[r.Host.Kind]++
		if r.Space.Complete && r.Space.AllHung() && r.Host.Kind == KindHung {
			st.AllHungConfirmed++
		}
	}
	switch {
	case len(st.Divergences) > 0:
		st.Verdict = harness.Verdict{Status: harness.Confirmed}
	case st.Completed == opts.Programs:
		st.Verdict = harness.Verdict{Status: harness.Refuted}
	case ctx.Err() != nil:
		st.Verdict = harness.Incompletef(harness.CtxReason(ctx.Err()),
			"%d of %d seeds checked", st.Completed, opts.Programs)
	default:
		st.Verdict = harness.Incompletef(harness.ReasonPanic,
			"%d of %d seeds panicked", len(st.Errors), opts.Programs)
	}
	return st
}
