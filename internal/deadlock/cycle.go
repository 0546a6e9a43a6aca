package deadlock

import (
	"cmp"
	"slices"
	"strconv"

	"goconcbugs/internal/sim"
)

// Circular-wait analysis. Section 4: "Most previous concurrency bug studies
// categorize bugs into deadlock bugs and non-deadlock bugs, where deadlocks
// include situations where there is a circular wait across multiple
// threads. Our definition of blocking is broader than deadlocks and include
// situations where there is no circular wait but one (or more) goroutines
// wait for resources that no other goroutines supply."
//
// This analyzer draws that line on a finished run: it builds the classic
// lock wait-for graph (goroutine -> lock it waits on -> goroutine holding
// it) and looks for cycles. Lock-order deadlocks (ABBA, double locking) are
// circular; the channel bugs the paper emphasizes — a sender nobody
// receives from, a Figure 7 lock/channel tangle — are not lock-cycles,
// which is exactly why "traditional deadlock detection algorithms" (which
// hunt lock cycles) would catch the former and miss the latter.

// Circularity classifies a blocked run.
type Circularity struct {
	// CircularWait is true when the lock wait-for graph has a cycle.
	CircularWait bool
	// Cycle lists the goroutine ids along a detected cycle, in order.
	Cycle []int
	// Description renders the cycle, e.g. "g2 waits daemon.mu held by g3;
	// g3 waits container.mu held by g2".
	Description string
}

// AnalyzeCircularity builds the lock wait-for graph over the still-blocked
// goroutines of a run. A run has a handful of goroutines, so the graph
// lives in stack buffers searched linearly, and a detected cycle costs its
// Cycle slice and one rendered Description.
func AnalyzeCircularity(res *sim.Result) Circularity {
	// edges[i]: blocked goroutine g waits on a lock held by holder, the
	// last goroutine of the run whose held locks include it. Sorted by g,
	// so walks start in id order and the reported cycle (and its
	// rendering) is deterministic.
	var edgeBuf [16]waitEdge
	edges := edgeBuf[:0]
	for i := range res.Blocked {
		g := &res.Blocked[i]
		switch g.BlockKind {
		case sim.BlockMutex, sim.BlockRWMutexR, sim.BlockRWMutexW:
			if h, ok := holderOf(res.Goroutines, g.BlockObj); ok {
				edges = append(edges, waitEdge{g: g.ID, holder: h})
			}
		}
	}
	slices.SortFunc(edges, func(a, b waitEdge) int { return cmp.Compare(a.g, b.g) })
	var pathBuf [16]int
	for _, e := range edges {
		path := pathBuf[:0]
		cur := e.g
		for {
			if pos := slices.Index(path, cur); pos >= 0 {
				cycle := append([]int(nil), path[pos:]...)
				var buf [256]byte
				return Circularity{
					CircularWait: true,
					Cycle:        cycle,
					Description:  string(appendCycle(buf[:0], cycle, res.Blocked)),
				}
			}
			next, ok := waitsOn(edges, cur)
			if !ok {
				// A self-deadlock: the goroutine waits on a lock
				// it holds itself.
				if g := blockedInfo(res.Blocked, cur); g != nil && holdsOwnWait(g) {
					return selfCycle(g)
				}
				break
			}
			path = append(path, cur)
			cur = next
		}
	}
	// Also catch the pure self-deadlock where waits has the self edge.
	for i := range res.Blocked {
		if g := &res.Blocked[i]; holdsOwnWait(g) {
			return selfCycle(g)
		}
	}
	return Circularity{}
}

// waitEdge is one edge of the lock wait-for graph.
type waitEdge struct{ g, holder int }

// holderOf returns the last goroutine in gs holding lock.
func holderOf(gs []sim.GoroutineInfo, lock string) (int, bool) {
	for i := len(gs) - 1; i >= 0; i-- {
		if slices.Contains(gs[i].HeldLocks, lock) {
			return gs[i].ID, true
		}
	}
	return 0, false
}

// waitsOn returns the goroutine that g waits on through a lock.
func waitsOn(edges []waitEdge, g int) (int, bool) {
	for _, e := range edges {
		if e.g == g {
			return e.holder, true
		}
	}
	return 0, false
}

// blockedInfo returns the record of blocked goroutine id, or nil.
func blockedInfo(blocked []sim.GoroutineInfo, id int) *sim.GoroutineInfo {
	for i := range blocked {
		if blocked[i].ID == id {
			return &blocked[i]
		}
	}
	return nil
}

// selfCycle is the circularity of g waiting on a lock it holds itself.
func selfCycle(g *sim.GoroutineInfo) Circularity {
	var buf [128]byte
	b := append(buf[:0], 'g')
	b = strconv.AppendInt(b, int64(g.ID), 10)
	b = append(b, " waits on "...)
	b = append(b, g.BlockObj...)
	b = append(b, " which it holds itself"...)
	return Circularity{CircularWait: true, Cycle: []int{g.ID}, Description: string(b)}
}

func holdsOwnWait(g *sim.GoroutineInfo) bool {
	switch g.BlockKind {
	case sim.BlockMutex, sim.BlockRWMutexR, sim.BlockRWMutexW:
	default:
		return false
	}
	return slices.Contains(g.HeldLocks, g.BlockObj)
}

// appendCycle renders cycle onto b, one "gA waits L held by gB" per member,
// joined by "; ".
func appendCycle(b []byte, cycle []int, blocked []sim.GoroutineInfo) []byte {
	for i, id := range cycle {
		if i > 0 {
			b = append(b, "; "...)
		}
		var obj string
		if g := blockedInfo(blocked, id); g != nil {
			obj = g.BlockObj
		}
		b = append(b, 'g')
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, " waits "...)
		b = append(b, obj...)
		b = append(b, " held by g"...)
		b = strconv.AppendInt(b, int64(cycle[(i+1)%len(cycle)]), 10)
	}
	return b
}
