package bounds

import (
	"math/rand"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

func TestMaxPair(t *testing.T) {
	g := core.Chain([]int64{3, 5, 2})
	if b := MaxPair(g); b != 8 {
		t.Errorf("MaxPair = %d, want 8", b)
	}
	// Isolated heavy vertex dominates.
	iso := core.MustCSRGraph([]int64{10, 1, 1}, []core.Edge{{U: 1, V: 2}})
	if b := MaxPair(iso); b != 10 {
		t.Errorf("MaxPair with isolated vertex = %d, want 10", b)
	}
	empty := core.MustCSRGraph(nil, nil)
	if b := MaxPair(empty); b != 0 {
		t.Errorf("MaxPair(empty) = %d", b)
	}
}

func TestMaxK4(t *testing.T) {
	g := grid.MustGrid2D(3, 2)
	copy(g.W, []int64{1, 2, 3, 4, 5, 6})
	// Blocks: {1,2,4,5}=12 and {2,3,5,6}=16.
	if b := MaxK4(g); b != 16 {
		t.Errorf("MaxK4 = %d, want 16", b)
	}
	// Degenerate 1xN grid falls back to the pair bound.
	chainGrid := grid.MustGrid2D(1, 3)
	copy(chainGrid.W, []int64{4, 9, 1})
	if b := MaxK4(chainGrid); b != 13 {
		t.Errorf("MaxK4 degenerate = %d, want 13", b)
	}
}

func TestMaxK8(t *testing.T) {
	g := grid.MustGrid3D(2, 2, 2)
	for v := range g.W {
		g.W[v] = 1
	}
	if b := MaxK8(g); b != 8 {
		t.Errorf("MaxK8 = %d, want 8", b)
	}
	// Unit depth: falls back to K4 of the single layer.
	flat := grid.MustGrid3D(2, 2, 1)
	copy(flat.W, []int64{1, 2, 3, 4})
	if b := MaxK8(flat); b != 10 {
		t.Errorf("MaxK8 flat = %d, want 10", b)
	}
}

// TestMaxKMatchesBlockList checks the in-place block sums of MaxK4 and
// MaxK8 against the heaviest block of the enumerated K4/K8 lists on
// random non-degenerate grids of uneven extents.
func TestMaxKMatchesBlockList(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		g2 := grid.MustGrid2D(2+rng.Intn(9), 2+rng.Intn(9))
		for v := range g2.W {
			g2.W[v] = rng.Int63n(100)
		}
		if got, want := MaxK4(g2), max(grid.MaxBlockWeight(grid.Blocks2D(g2)), core.MaxWeight(g2)); got != want {
			t.Fatalf("MaxK4 on %dx%d = %d, block list says %d", g2.X, g2.Y, got, want)
		}
		g3 := grid.MustGrid3D(2+rng.Intn(5), 2+rng.Intn(5), 2+rng.Intn(5))
		for v := range g3.W {
			g3.W[v] = rng.Int63n(100)
		}
		if got, want := MaxK8(g3), max(grid.MaxBlockWeight(grid.Blocks3D(g3)), core.MaxWeight(g3)); got != want {
			t.Fatalf("MaxK8 on %dx%dx%d = %d, block list says %d", g3.X, g3.Y, g3.Z, got, want)
		}
	}
}

func TestCliqueSum(t *testing.T) {
	if s := CliqueSum([]int64{1, 2, 3}); s != 6 {
		t.Errorf("CliqueSum = %d", s)
	}
	if s := CliqueSum(nil); s != 0 {
		t.Errorf("CliqueSum(nil) = %d", s)
	}
}

func TestOddCycleBoundTriangle(t *testing.T) {
	g := core.Clique([]int64{2, 3, 4}) // triangle: minchain3 = 9
	if b := OddCycle(g, 3, 10_000); b != 9 {
		t.Errorf("OddCycle triangle = %d, want 9", b)
	}
}

func TestOddCycleBoundC5(t *testing.T) {
	g, err := core.Cycle([]int64{5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	// minchain3 = 15 > maxpair = 10: the bound matters here.
	if b := OddCycle(g, 5, 10_000); b != 15 {
		t.Errorf("OddCycle C5 = %d, want 15", b)
	}
	// Length cap below 5 must not find the cycle.
	if b := OddCycle(g, 4, 10_000); b != 0 {
		t.Errorf("OddCycle C5 capped at 4 = %d, want 0", b)
	}
}

func TestOddCycleEvenCycleYieldsNothing(t *testing.T) {
	g, err := core.Cycle([]int64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if b := OddCycle(g, 8, 10_000); b != 0 {
		t.Errorf("OddCycle on even cycle = %d, want 0", b)
	}
}

func TestOddCycleBudgetNeverOverstates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := grid.MustGrid2D(3, 3)
		for v := range g.W {
			g.W[v] = rng.Int63n(6)
		}
		full := OddCycle(g, 9, 1_000_000)
		tiny := OddCycle(g, 9, 5)
		if tiny > full {
			t.Fatalf("budgeted bound %d exceeds full bound %d", tiny, full)
		}
	}
}

func TestOddCycleIsValidLowerBoundOnStencil(t *testing.T) {
	// Figure 2's insight: an odd cycle's minchain3 can exceed the max
	// clique. Build a C5 inside a 3x3 stencil with heavy cycle weights;
	// since the stencil contains extra edges, the bound still must not
	// exceed the true optimum, which we do not compute here — instead we
	// verify monotonicity: bound <= MaxPair + something is NOT guaranteed,
	// but bound must be achievable by Theorem 1 on the cycle alone.
	g, err := core.Cycle([]int64{10, 10, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	b := OddCycle(g, 5, 10_000)
	if b != 30 {
		t.Errorf("C5(10) bound = %d, want 30", b)
	}
}

func TestMaxPairOfCycleAndMinChain3(t *testing.T) {
	w := []int64{1, 2, 3, 4, 5}
	if got := MaxPairOfCycle(w); got != 9 {
		t.Errorf("MaxPairOfCycle = %d, want 9", got)
	}
	if got := MinChain3OfCycle(w); got != 6 {
		t.Errorf("MinChain3OfCycle = %d, want 6", got)
	}
}

func TestCombinedBounds(t *testing.T) {
	g2 := grid.MustGrid2D(3, 3)
	for v := range g2.W {
		g2.W[v] = 2
	}
	if b := Combined2D(g2, 0); b != 8 {
		t.Errorf("Combined2D = %d, want 8 (K4)", b)
	}
	if b := Combined2D(g2, 100_000); b < 8 {
		t.Errorf("Combined2D with cycles = %d < 8", b)
	}
	g3 := grid.MustGrid3D(2, 2, 2)
	for v := range g3.W {
		g3.W[v] = 3
	}
	if b := Combined3D(g3, 0); b != 24 {
		t.Errorf("Combined3D = %d, want 24 (K8)", b)
	}
}
