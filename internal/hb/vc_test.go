package hb

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// genVC builds a random small vector clock from a rand source.
func genVC(r *rand.Rand) VC {
	vc := New()
	n := r.Intn(5)
	for i := 0; i < n; i++ {
		vc.Set(1+r.Intn(6), uint64(1+r.Intn(40)))
	}
	return vc
}

// quickCfg adapts quick.Check to our generator.
func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 500}
}

func TestJoinIsUpperBound(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genVC(r), genVC(r)
		j := a.Clone()
		j.Join(b)
		return a.Leq(j) && b.Leq(j)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestJoinIsLeastUpperBound(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genVC(r), genVC(r)
		j := a.Clone()
		j.Join(b)
		// Any other upper bound dominates the join.
		u := a.Clone()
		u.Join(b)
		u.Set(1+r.Intn(6), uint64(1+r.Intn(80)))
		u.Join(j) // make u an upper bound again
		return j.Leq(u)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestJoinCommutativeAndIdempotent(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genVC(r), genVC(r)
		ab := a.Clone()
		ab.Join(b)
		ba := b.Clone()
		ba.Join(a)
		if !ab.Leq(ba) || !ba.Leq(ab) {
			return false
		}
		aa := a.Clone()
		aa.Join(a)
		return aa.Leq(a) && a.Leq(aa)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestLeqIsPartialOrder(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := genVC(r), genVC(r), genVC(r)
		// reflexive
		if !a.Leq(a) {
			return false
		}
		// antisymmetric up to equality of components
		if a.Leq(b) && b.Leq(a) {
			for g := 0; g <= 8; g++ {
				if a.Get(g) != b.Get(g) {
					return false
				}
			}
		}
		// transitive
		if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentIsSymmetricAndIrreflexive(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genVC(r), genVC(r)
		if Concurrent(a, a) {
			return false
		}
		return Concurrent(a, b) == Concurrent(b, a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestTickMakesStrictlyLater(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genVC(r)
		g := 1 + r.Intn(6)
		before := a.Clone()
		a.Tick(g)
		return before.Leq(a) && !a.Leq(before)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestHappensBeforeMatchesEpochComparison(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genVC(r)
		g := 1 + r.Intn(6)
		e := Epoch{G: g, C: uint64(1 + r.Intn(40))}
		return a.HappensBefore(e) == (a.Get(g) >= e.C)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	t.Parallel()
	a := New()
	a.Set(1, 5)
	b := a.Clone()
	b.Set(1, 9)
	if a.Get(1) != 5 {
		t.Fatalf("clone aliases its source")
	}
}

func TestGrowthPastPooledCapacity(t *testing.T) {
	t.Parallel()
	// Components far beyond any pooled backing's capacity must round-trip,
	// and growth must preserve everything set before it.
	a := New()
	for g := 1; g <= 300; g++ {
		a.Set(g, uint64(g*g))
	}
	for g := 1; g <= 300; g++ {
		if a.Get(g) != uint64(g*g) {
			t.Fatalf("component %d = %d after growth, want %d", g, a.Get(g), g*g)
		}
	}
	b := a.Clone()
	if !a.Leq(b) || !b.Leq(a) {
		t.Fatalf("clone of grown clock differs from source")
	}
}

func TestPoolReuseDoesNotLeakComponents(t *testing.T) {
	t.Parallel()
	// Dirty a pooled backing with large components, free it, and verify
	// clocks built from the pool afterwards read as empty.
	for i := 0; i < 100; i++ {
		dirty := New()
		for g := 1; g <= 64; g++ {
			dirty.Set(g, ^uint64(0))
		}
		dirty.Free()

		fresh := New()
		fresh.Set(1, 1) // forces a (possibly pooled) backing
		for g := 0; g <= 64; g++ {
			want := uint64(0)
			if g == 1 {
				want = 1
			}
			if fresh.Get(g) != want {
				t.Fatalf("iteration %d: component %d = %d, want %d (stale pool data)",
					i, g, fresh.Get(g), want)
			}
		}
		clone := dirty.Clone() // dirty is empty again after Free
		if clone.Len() != 0 {
			t.Fatalf("clone of freed clock has %d components", clone.Len())
		}
	}
}

func TestUseAfterFreeIsEmpty(t *testing.T) {
	t.Parallel()
	a := New()
	a.Set(3, 7)
	a.Free()
	if a.Get(3) != 0 || a.Len() != 0 {
		t.Fatalf("freed clock still has components: %v", a)
	}
	a.Tick(2)
	if a.Get(2) != 1 {
		t.Fatalf("freed clock is not reusable")
	}
}

func TestJoinDominatedPathDoesNotAllocate(t *testing.T) {
	t.Parallel()
	big := New()
	for g := 1; g <= 16; g++ {
		big.Set(g, 100)
	}
	small := New()
	small.Set(3, 7)
	small.Set(16, 2)
	allocs := testing.AllocsPerRun(100, func() {
		big.Join(small)
	})
	if allocs != 0 {
		t.Fatalf("dominated-clock Join allocated %.1f times per op, want 0", allocs)
	}
	// Equal-span but not dominated: still no allocation (in-place max).
	other := New()
	other.Set(16, 500)
	allocs = testing.AllocsPerRun(100, func() {
		big.Join(other)
	})
	if allocs != 0 {
		t.Fatalf("equal-span Join allocated %.1f times per op, want 0", allocs)
	}
}

// TestPoolMissAllocatesOnce pins the cost of a backing-pool miss: one
// allocation, the backing itself. It is not parallel, so no other test
// frees backings into the pool while it measures; two collections empty
// the pool (the first moves its contents to the victim cache, the second
// drops them), and the clones are never freed, so every Clone misses.
func TestPoolMissAllocatesOnce(t *testing.T) {
	src := New()
	src.Set(3, 1)
	runtime.GC()
	runtime.GC()
	allocs := testing.AllocsPerRun(100, func() {
		_ = src.Clone()
	})
	if allocs != 1 {
		t.Fatalf("Clone on an empty pool allocated %.1f times per op, want 1", allocs)
	}
}

func TestJoinTrimsTrailingZeros(t *testing.T) {
	t.Parallel()
	// A longer argument whose extra components are all zero must not force
	// the receiver to grow.
	long := New()
	long.Set(40, 0)
	long.Set(1, 9)
	short := New()
	short.Set(1, 1)
	allocs := testing.AllocsPerRun(100, func() {
		short.Join(long) // long's only nonzero component is within short's span
	})
	if allocs != 0 {
		t.Fatalf("Join grew for an argument whose extra components are zero (%.1f allocs)", allocs)
	}
	if short.Get(1) != 9 || short.Get(40) != 0 {
		t.Fatalf("join lost components: %v", short)
	}
}

func TestStringDeterministic(t *testing.T) {
	t.Parallel()
	a := New()
	a.Set(3, 7)
	a.Set(1, 2)
	if got := a.String(); got != "{1:2 3:7}" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Epoch{G: 2, C: 9}).String(); got != "2@9" {
		t.Fatalf("Epoch.String() = %q", got)
	}
}
