package explore

import (
	"context"
	"fmt"
	"sort"

	"goconcbugs/internal/event"
	"goconcbugs/internal/hb"
	"goconcbugs/internal/sim"
)

// Dynamic partial-order reduction (DPOR) for the systematic explorer, in the
// style of Flanagan & Godefroid (POPL 2005) with sleep sets.
//
// Plain DFS enumerates every decision sequence, including the astronomically
// many that differ only in the order of *independent* transitions — two
// goroutines touching disjoint objects reach the same state in either order,
// so exploring both orders proves nothing new. DPOR prunes those: it runs one
// schedule, inspects which transitions actually conflicted (same object,
// at least one mutation), and backtracks only at the decision points where
// reversing a conflict could reach a genuinely different state.
//
// The machinery, per explored schedule:
//
//   - The sim runtime streams one sim.SchedStep per transition (goroutine,
//     consumed Chooser-call index, runnable set, object footprint) as
//     event.Sched events; a ready select additionally reports the decision
//     index it consumed (event.SelectReady).
//
//   - The explorer replays the step stream and computes a vector clock per
//     transition over the *dependence* relation of the executed trace: clock
//     component g = (index of the latest transition by g ordered before this
//     one) + 1. Two dependent transitions i < j whose clocks do not already
//     order them form a reversible race: a backtrack point for j's goroutine
//     is added at the decision node that scheduled i (or, when j's goroutine
//     was not runnable there, every runnable option — the conservative
//     fallback of the original algorithm).
//
//   - Sleep sets kill the remaining redundancy: once a branch is fully
//     explored at a node, the first transition of that branch is put to
//     sleep; it stays asleep down later sibling branches until some executed
//     transition conflicts with it, and a backtrack candidate whose
//     transition is still asleep is provably redundant and skipped
//     (counted in SleepSetHits).
//
// Soundness: for every maximal schedule the full DFS reaches, the reduced
// search executes some schedule in the same Mazurkiewicz trace (equal up to
// swapping adjacent independent transitions). Every sim.Result outcome —
// checks, panics, deadlocks, leaks, final variable values — is a function of
// the trace, not the interleaving chosen within it, so failure detection and
// the conformance oracle's outcome-signature sets are preserved exactly.
// The differential suite in dpor_equiv_test.go checks this against full DFS
// on every kernel and on generated programs.
//
// Determinism: the reduced search is a serial canonical walk — branches
// advance deepest-first, backtrack candidates in ascending goroutine id —
// so its result depends on the program and options alone.

// objKey identifies one footprint object. IDs are only comparable within a
// class, so the class is part of the key.
type objKey struct {
	class sim.ObjClass
	id    int
}

// access records one object access: the step that performed it and that
// step's dependence clock.
type access struct {
	step int
	gid  int
	vc   hb.VC
}

// objRec holds the most recent write and the reads since it for one object.
// Older accesses are ordered before the retained ones by trace dependence,
// so races against them are found transitively.
type objRec struct {
	lastWrite *access
	reads     []access
}

// sleepEntry is a transition parked in a sleep set: the goroutine whose
// pending operation it is, and that operation's footprint. The pending
// operation of a sleeping goroutine is stable while it sleeps (the goroutine
// has not run, and a simulated operation's footprint is determined by the
// objects it names), so the recorded footprint remains valid down the tree.
type sleepEntry struct {
	gid int
	ops []sim.OpRef
}

// dporNode is one decision node on the current DFS path: either a scheduler
// pick (which runnable goroutine next) or a ready-select choice (which case).
// Select nodes are expanded fully — case independence is not modeled — and
// are never backtrack targets.
type dporNode struct {
	idx    int // chooser-call index; equals the node's position on the path
	curVal int // decision value of the branch currently being explored

	// Scheduler-pick state.
	optionGs     []int // runnable goroutine ids, scheduler option order
	preferred    int   // index into optionGs continuing the last goroutine, -1
	curGid       int
	curHasSel    bool         // current branch's first transition held a select
	curOps       []sim.OpRef  // that transition's footprint
	backtrack    map[int]bool // gids requested by race reversal
	done         map[int]bool // gids completed (explored or sleep-skipped)
	executed     int          // branches actually run
	sleepAtEntry []sleepEntry
	sleepAdded   []sleepEntry

	// Ready-select state.
	isSelect bool
	ncases   int
}

// valueFor maps a goroutine id to the decision value selecting it at this
// node — the inverse of runSchedule's preferred-first reordering.
func (n *dporNode) valueFor(gid int) int {
	a := -1
	for i, g := range n.optionGs {
		if g == gid {
			a = i
			break
		}
	}
	if a < 0 {
		panic(fmt.Sprintf("explore: dpor: g%d not among options %v at decision %d", gid, n.optionGs, n.idx))
	}
	if n.preferred < 0 {
		return a
	}
	switch {
	case a == n.preferred:
		return 0
	case a < n.preferred:
		return a + 1
	default:
		return a
	}
}

// selPoint is one ready-select decision observed during a run.
type selPoint struct{ dec, ncases int }

// recStep is one transition of the recorded run.
type recStep struct {
	g, decision, preferred int
	optionGs               []int
	ops                    []sim.OpRef
	hasSelect              bool
}

// dporRecorder is the event sink buffering one run's scheduling stream
// (Sched transitions plus ready-select decision points).
type dporRecorder struct {
	steps      []recStep
	selects    []selPoint
	pendingSel bool
}

// Kinds implements event.Sink.
func (r *dporRecorder) Kinds() []event.Kind {
	return []event.Kind{event.Sched, event.SelectReady}
}

// Event implements event.Sink.
func (r *dporRecorder) Event(ev *event.Event) {
	if ev.Kind == event.Sched {
		r.Step(*ev.Sched)
		return
	}
	r.SelectPoint(ev.G, ev.Dec, ev.Counter)
}

func (r *dporRecorder) reset() {
	r.steps = r.steps[:0]
	r.selects = r.selects[:0]
	r.pendingSel = false
}

// Step receives a completed transition. The slices are runtime-owned and
// reused, so they are cloned here.
func (r *dporRecorder) Step(st sim.SchedStep) {
	r.steps = append(r.steps, recStep{
		g: st.G, decision: st.Decision, preferred: st.Preferred,
		optionGs:  append([]int(nil), st.OptionGs...),
		ops:       append([]sim.OpRef(nil), st.Ops...),
		hasSelect: r.pendingSel,
	})
	r.pendingSel = false
}

// SelectPoint fires mid-transition; the owning transition is delivered by
// the next Step call, which picks up pendingSel.
func (r *dporRecorder) SelectPoint(g, dec, ncases int) {
	r.selects = append(r.selects, selPoint{dec: dec, ncases: ncases})
	r.pendingSel = true
}

// conflicts reports whether two footprints are dependent: some object named
// by both with at least one side mutating it (reads commute).
func conflicts(a, b []sim.OpRef) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Class == y.Class && x.ID == y.ID && (x.Write || y.Write) {
				return true
			}
		}
	}
	return false
}

// dporSearch is the reduced-DFS controller.
type dporSearch struct {
	opts  SystematicOptions
	nodes []*dporNode // current DFS path, position == chooser index
	res   *SystematicResult
}

// systematicDPOR is the Reduction entry point, called from Systematic.
func systematicDPOR(prog sim.Program, opts SystematicOptions) *SystematicResult {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	s := &dporSearch{opts: opts, res: &SystematicResult{}}
	cfg := opts.Config
	rec := &dporRecorder{}
	// Full slice expression: don't grow a caller-owned backing array.
	cfg.Sinks = append(cfg.Sinks[:len(cfg.Sinks):len(cfg.Sinks)], rec)
	pool := sim.NewRunPool()
	defer pool.Close()
	var prefix []int
	for s.res.Runs < opts.MaxRuns {
		if err := ctx.Err(); err != nil {
			s.res.Frontier = s.frontier()
			return s.res.finish(err, opts.MaxRuns)
		}
		rec.reset()
		chosen, _, r, runErr := runSchedule(pool, prog, cfg, -1, prefix)
		s.res.Runs++
		if runErr != nil {
			runErr.Run = s.res.Runs - 1
			s.res.Errors = append(s.res.Errors, runErr)
		} else {
			if opts.OnRun != nil {
				opts.OnRun(r, chosen)
			}
			if len(chosen) > s.res.MaxDepth {
				s.res.MaxDepth = len(chosen)
			}
			if r.Failed() {
				s.res.Failures++
				if s.res.FirstFailure == nil {
					// r lives in the pool's recycled runtime; clone to retain
					// it past the next run.
					s.res.FirstFailure = r.Clone()
					s.res.FailureSchedule = append([]int(nil), chosen...)
				}
				if opts.StopAtFirstFailure {
					return s.res.finish(nil, opts.MaxRuns)
				}
			}
		}
		s.processRun(rec, chosen, r)
		next, ok := s.advance()
		if !ok {
			s.res.Complete = true
			s.res.Frontier = 0
			return s.res.finish(nil, opts.MaxRuns)
		}
		prefix = next
	}
	s.res.Frontier = s.frontier()
	return s.res.finish(nil, opts.MaxRuns)
}

// frontier counts the backtrack points planned but not yet explored along
// the current DFS path.
func (s *dporSearch) frontier() int {
	total := 0
	for _, n := range s.nodes {
		if n.isSelect {
			total += n.ncases - 1 - n.curVal
			continue
		}
		for g := range n.backtrack {
			if !n.done[g] {
				total++
			}
		}
	}
	return total
}

// processRun walks one recorded run: it materializes new decision nodes,
// maintains the live sleep set along the path, computes dependence clocks,
// and inserts backtrack points for every reversible race.
func (s *dporSearch) processRun(rec *dporRecorder, chosen []int, r *sim.Result) {
	horizon := maxChoices
	objects := map[objKey]*objRec{}
	clocks := map[int]hb.VC{}
	born := map[int]hb.VC{}
	var sleep []sleepEntry
	selIdx := 0

	for j := range rec.steps {
		st := &rec.steps[j]
		var node *dporNode
		if st.decision >= 0 && st.decision < horizon {
			node = s.ensureNode(st, chosen, sleep)
		}
		if st.hasSelect {
			sp := rec.selects[selIdx]
			selIdx++
			if sp.dec < horizon {
				s.ensureSelectNode(sp, chosen)
			}
		}

		// Sleep maintenance: entering a branch at a node wakes nothing but
		// adds the node's already-explored first transitions; executing the
		// step then wakes every entry it conflicts with (and the executing
		// goroutine's own entry, whose pending transition just ran).
		merged := sleep
		if node != nil && len(node.sleepAdded) > 0 {
			merged = make([]sleepEntry, 0, len(sleep)+len(node.sleepAdded))
			merged = append(merged, sleep...)
			merged = append(merged, node.sleepAdded...)
		}
		var nextSleep []sleepEntry
		for _, e := range merged {
			if e.gid == st.g || conflicts(e.ops, st.ops) {
				continue
			}
			nextSleep = append(nextSleep, e)
		}
		sleep = nextSleep

		// Dependence clock for this step: start from the goroutine's
		// previous step (or its spawn point), join every dependent prior
		// access, detecting races on the way.
		c, ok := clocks[st.g]
		if !ok {
			if b, okb := born[st.g]; okb {
				c = b.Clone()
			} else {
				c = hb.New()
			}
		}
		for _, op := range st.ops {
			if op.Class == sim.ObjSpawn {
				continue
			}
			rec2 := objects[objKey{op.Class, op.ID}]
			if rec2 == nil {
				continue
			}
			if rec2.lastWrite != nil {
				s.race(&c, rec2.lastWrite, st, rec.steps)
			}
			if op.Write {
				for i := range rec2.reads {
					s.race(&c, &rec2.reads[i], st, rec.steps)
				}
			}
		}
		c.Set(st.g, uint64(j)+1)
		clocks[st.g] = c

		// Record this step's accesses with its finalized clock; a spawn
		// roots the child's clock in this transition (the fork edge).
		for _, op := range st.ops {
			if op.Class == sim.ObjSpawn {
				born[op.ID] = c.Clone()
				continue
			}
			k := objKey{op.Class, op.ID}
			r2 := objects[k]
			if r2 == nil {
				r2 = &objRec{}
				objects[k] = r2
			}
			ac := access{step: j, gid: st.g, vc: c.Clone()}
			if op.Write {
				r2.lastWrite = &ac
				r2.reads = nil
			} else {
				r2.reads = append(r2.reads, ac)
			}
		}
	}

	// A host-side panic leaves no result to inspect; the run is already
	// recorded as a RunError and the verdict will be Incomplete, so the
	// abandoned-goroutine analysis below has nothing trustworthy to read.
	if r == nil {
		return
	}

	// Truncated runs: a simulated panic (or the step budget) tears the run
	// down with goroutines still runnable. Their pending transitions never
	// executed, so no race involving them was observable — yet scheduling
	// them earlier can reach outcomes this run's crash hid (e.g. a second
	// close racing the panicking send). With the footprint unknown, the
	// only sound move is the conservative one: backtrack each abandoned
	// goroutine at every node where it was runnable past its last executed
	// step, exactly as Flanagan–Godefroid falls back to "all enabled" when
	// dependence cannot be ruled out.
	var abandoned []int
	for _, g := range r.Goroutines {
		if g.State == sim.GAbandoned {
			abandoned = append(abandoned, g.ID)
		}
	}
	if len(abandoned) > 0 {
		lastExec := map[int]int{}
		for j := range rec.steps {
			lastExec[rec.steps[j].g] = j
		}
		for j := range rec.steps {
			st := &rec.steps[j]
			if st.decision < 0 || st.decision >= len(s.nodes) {
				continue
			}
			n := s.nodes[st.decision]
			for _, a := range abandoned {
				last, ran := lastExec[a]
				if ran && j <= last {
					continue // a's pending transition here did execute later
				}
				for _, g := range n.optionGs {
					if g == a {
						n.backtrack[a] = true
						break
					}
				}
			}
		}
	}
}

// race checks one dependent prior access against the step being processed.
// If the dependence clocks do not already order them, reversing the pair
// could reach a new trace: request a backtrack at the node that scheduled
// the prior access. Either way the prior clock is joined (trace order plus
// dependence orders the pair from here on).
func (s *dporSearch) race(c *hb.VC, prior *access, st *recStep, steps []recStep) {
	if prior.gid != st.g && c.Get(prior.gid) < uint64(prior.step)+1 {
		if target := steps[prior.step].decision; target >= 0 && target < len(s.nodes) {
			n := s.nodes[target]
			if n.isSelect {
				panic("explore: dpor: race target is a select node")
			}
			inOptions := false
			for _, g := range n.optionGs {
				if g == st.g {
					inOptions = true
					break
				}
			}
			if inOptions {
				n.backtrack[st.g] = true
			} else {
				// The racing goroutine was not runnable at the target:
				// fall back to every option, as in the original algorithm.
				for _, g := range n.optionGs {
					n.backtrack[g] = true
				}
			}
		}
	}
	c.Join(prior.vc)
}

// ensureNode returns the pick node at st.decision, creating it when the run
// has descended past the known path. Existing nodes must replay identically:
// the decisions above them are fixed and the sim is deterministic.
func (s *dporSearch) ensureNode(st *recStep, chosen []int, sleep []sleepEntry) *dporNode {
	idx := st.decision
	if idx < len(s.nodes) {
		n := s.nodes[idx]
		if n.isSelect || n.curGid != st.g {
			panic(fmt.Sprintf("explore: dpor: replay divergence at decision %d: ran g%d, path holds g%d", idx, st.g, n.curGid))
		}
		n.curOps = append(n.curOps[:0], st.ops...)
		n.curHasSel = st.hasSelect
		return n
	}
	if idx != len(s.nodes) {
		panic(fmt.Sprintf("explore: dpor: non-dense decision index %d with %d nodes", idx, len(s.nodes)))
	}
	n := &dporNode{
		idx:          idx,
		curVal:       chosen[idx],
		optionGs:     append([]int(nil), st.optionGs...),
		preferred:    st.preferred,
		curGid:       st.g,
		curHasSel:    st.hasSelect,
		curOps:       append([]sim.OpRef(nil), st.ops...),
		backtrack:    map[int]bool{st.g: true},
		done:         map[int]bool{},
		sleepAtEntry: append([]sleepEntry(nil), sleep...),
	}
	s.nodes = append(s.nodes, n)
	return n
}

// ensureSelectNode materializes the decision node for a ready select.
func (s *dporSearch) ensureSelectNode(sp selPoint, chosen []int) {
	if sp.dec < len(s.nodes) {
		if !s.nodes[sp.dec].isSelect {
			panic(fmt.Sprintf("explore: dpor: decision %d is a pick on the path but replayed as a select", sp.dec))
		}
		return
	}
	if sp.dec != len(s.nodes) {
		panic(fmt.Sprintf("explore: dpor: non-dense select index %d with %d nodes", sp.dec, len(s.nodes)))
	}
	s.nodes = append(s.nodes, &dporNode{
		idx: sp.dec, isSelect: true, ncases: sp.ncases, curVal: chosen[sp.dec],
	})
}

// sleepHolds reports whether gid's pending transition is asleep.
func sleepHolds(entries []sleepEntry, gid int) bool {
	for _, e := range entries {
		if e.gid == gid {
			return true
		}
	}
	return false
}

// advance completes the deepest explored branch and moves to the next
// pending one in canonical order, returning the decision prefix of the next
// run. ok is false when the whole reduced tree is exhausted.
func (s *dporSearch) advance() ([]int, bool) {
	for d := len(s.nodes) - 1; d >= 0; d-- {
		n := s.nodes[d]
		if n.isSelect {
			if n.curVal+1 < n.ncases {
				n.curVal++
				s.nodes = s.nodes[:d+1]
				return s.prefix(), true
			}
			continue // fully expanded; nothing is ever pruned here
		}
		// Everything below this node is exhausted, so its current branch
		// is complete: mark it done and put its first transition to sleep
		// for the siblings (unless that transition embedded a select —
		// then its continuation is not a single transition, and parking it
		// could hide unexplored cases, so it is conservatively skipped).
		if !n.done[n.curGid] {
			n.done[n.curGid] = true
			n.executed++
			if !n.curHasSel {
				n.sleepAdded = append(n.sleepAdded, sleepEntry{
					gid: n.curGid, ops: append([]sim.OpRef(nil), n.curOps...),
				})
			}
		}
		var cands []int
		for g := range n.backtrack {
			if !n.done[g] {
				cands = append(cands, g)
			}
		}
		sort.Ints(cands)
		for _, g := range cands {
			if sleepHolds(n.sleepAtEntry, g) {
				// g's pending transition was fully explored from an
				// ancestor and nothing since conflicts with it: any
				// schedule starting with it here is equivalent to one
				// already covered.
				s.res.SleepSetHits++
				n.done[g] = true
				continue
			}
			n.curGid = g
			n.curVal = n.valueFor(g)
			n.curHasSel = false
			n.curOps = n.curOps[:0]
			s.nodes = s.nodes[:d+1]
			return s.prefix(), true
		}
		// Node exhausted: every option never explored from here is a
		// pruned sibling subtree.
		s.res.SchedulesPruned += len(n.optionGs) - n.executed
	}
	return nil, false
}

// prefix rebuilds the decision sequence pinning the current path.
func (s *dporSearch) prefix() []int {
	p := make([]int, len(s.nodes))
	for i, n := range s.nodes {
		p[i] = n.curVal
	}
	return p
}
