package heuristics

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/exact"
	"stencilivc/internal/grid"
)

func random2D(rng *rand.Rand, x, y int, maxW int64) *grid.Grid2D {
	g := grid.MustGrid2D(x, y)
	for v := range g.W {
		g.W[v] = rng.Int63n(maxW + 1)
	}
	return g
}

func random3D(rng *rand.Rand, x, y, z int, maxW int64) *grid.Grid3D {
	g := grid.MustGrid3D(x, y, z)
	for v := range g.W {
		g.W[v] = rng.Int63n(maxW + 1)
	}
	return g
}

// TestAllAlgorithmsValid2D is the central property test: on random 2D
// instances (including degenerate 1×N shapes and zero weights), every
// algorithm returns a valid coloring at or above the combined lower bound.
func TestAllAlgorithmsValid2D(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][2]int{{1, 1}, {1, 7}, {6, 1}, {2, 2}, {3, 5}, {8, 8}, {16, 4}}
	for trial := 0; trial < 40; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		g := random2D(rng, shape[0], shape[1], 9)
		lb := bounds.Combined2D(g, 0)
		for _, alg := range All() {
			c, err := Run2D(alg, g)
			if err != nil {
				t.Fatalf("%s on %dx%d: %v", alg, g.X, g.Y, err)
			}
			if err := c.Validate(g); err != nil {
				t.Fatalf("%s on %dx%d invalid: %v", alg, g.X, g.Y, err)
			}
			if mc := c.MaxColor(g); mc < lb {
				t.Fatalf("%s produced %d colors, below lower bound %d", alg, mc, lb)
			}
		}
	}
}

// TestAllAlgorithmsValid3D mirrors the 2D property test in 3D.
func TestAllAlgorithmsValid3D(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shapes := [][3]int{{1, 1, 1}, {2, 2, 2}, {1, 4, 4}, {4, 1, 3}, {3, 3, 3}, {4, 4, 4}, {2, 5, 3}}
	for trial := 0; trial < 25; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		g := random3D(rng, shape[0], shape[1], shape[2], 9)
		lb := bounds.Combined3D(g, 0)
		for _, alg := range All() {
			c, err := Run3D(alg, g)
			if err != nil {
				t.Fatalf("%s on %v: %v", alg, shape, err)
			}
			if err := c.Validate(g); err != nil {
				t.Fatalf("%s on %v invalid: %v", alg, shape, err)
			}
			if mc := c.MaxColor(g); mc < lb {
				t.Fatalf("%s produced %d colors, below lower bound %d", alg, mc, lb)
			}
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	g2 := grid.MustGrid2D(2, 2)
	if _, err := Run2D("NOPE", g2); err == nil {
		t.Error("unknown 2D algorithm accepted")
	}
	g3 := grid.MustGrid3D(2, 2, 2)
	if _, err := Run3D("NOPE", g3); err == nil {
		t.Error("unknown 3D algorithm accepted")
	}
}

// TestBD2ApproxGuarantee checks BD's proof obligations on random 2D
// instances: maxcolor <= 2·RC and RC <= optimum (via exact solve).
func TestBD2ApproxGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		g := random2D(rng, 2+rng.Intn(2), 2+rng.Intn(2), 5)
		c, rc := BipartiteDecomposition2D(g)
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
		if mc := c.MaxColor(g); mc > 2*rc {
			t.Fatalf("BD used %d > 2·RC = %d", mc, 2*rc)
		}
		res := exact.Optimize(g, exact.OptimizeOptions{
			LowerBound: bounds.Combined2D(g, 1000),
			NodeBudget: 500_000,
		})
		if res.Optimal {
			if rc > res.MaxColor {
				t.Fatalf("RC = %d exceeds optimum %d", rc, res.MaxColor)
			}
			if c.MaxColor(g) > 2*res.MaxColor {
				t.Fatalf("BD = %d > 2·OPT = %d", c.MaxColor(g), 2*res.MaxColor)
			}
		}
	}
}

// TestBD4ApproxGuarantee3D checks BD's 3D obligations: valid, and within
// 4× of the optimum whenever the exact solver finishes.
func TestBD4ApproxGuarantee3D(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 6; trial++ {
		g := random3D(rng, 2, 2, 2, 4)
		c, lb := BipartiteDecomposition3D(g)
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
		res := exact.Optimize(g, exact.OptimizeOptions{
			LowerBound: bounds.Combined3D(g, 1000),
			NodeBudget: 500_000,
		})
		if res.Optimal {
			if lb > res.MaxColor {
				t.Fatalf("BD lower bound %d exceeds optimum %d", lb, res.MaxColor)
			}
			if c.MaxColor(g) > 4*res.MaxColor {
				t.Fatalf("BD = %d > 4·OPT = %d", c.MaxColor(g), 4*res.MaxColor)
			}
		}
	}
}

// TestBDPNeverWorseThanBD asserts the compaction property: recoloring
// never increases any start, so BDP <= BD on every instance.
func TestBDPNeverWorseThanBD(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 30; trial++ {
		g2 := random2D(rng, 2+rng.Intn(7), 2+rng.Intn(7), 12)
		bd, _ := BipartiteDecomposition2D(g2)
		bdp, _ := BipartiteDecompositionPost2D(g2)
		if bdp.MaxColor(g2) > bd.MaxColor(g2) {
			t.Fatalf("2D BDP %d > BD %d", bdp.MaxColor(g2), bd.MaxColor(g2))
		}
		g3 := random3D(rng, 2+rng.Intn(3), 2+rng.Intn(3), 2+rng.Intn(3), 12)
		bd3, _ := BipartiteDecomposition3D(g3)
		bdp3, _ := BipartiteDecompositionPost3D(g3)
		if bdp3.MaxColor(g3) > bd3.MaxColor(g3) {
			t.Fatalf("3D BDP %d > BD %d", bdp3.MaxColor(g3), bd3.MaxColor(g3))
		}
	}
}

// TestSGKNeverWorseThanGKFLocally: SGK tries the identity order among its
// permutations, so its block-local objective is at most GKF's. Globally
// SGK can differ, but on a single isolated block they must agree or SGK
// wins.
func TestSGKSingleBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20; trial++ {
		g := random2D(rng, 2, 2, 9)
		gkf := LargestCliqueFirst2D(g)
		sgk := SmartLargestCliqueFirst2D(g)
		if sgk.MaxColor(g) > gkf.MaxColor(g) {
			t.Fatalf("SGK %d > GKF %d on a single K4", sgk.MaxColor(g), gkf.MaxColor(g))
		}
		// A single K4 is a clique: both must hit the clique optimum.
		want := bounds.CliqueSum(g.W)
		if gkf.MaxColor(g) != want || sgk.MaxColor(g) != want {
			t.Fatalf("K4 coloring: gkf=%d sgk=%d want=%d", gkf.MaxColor(g), sgk.MaxColor(g), want)
		}
	}
}

// TestUniformGridsHitCliqueBound: constant-weight instances are solved
// optimally by every clique-aware heuristic (the K4/K8 bound is achieved).
func TestUniformGridsHitCliqueBound(t *testing.T) {
	g := grid.MustGrid2D(6, 6)
	for v := range g.W {
		g.W[v] = 5
	}
	lb := bounds.MaxK4(g) // 20
	for _, alg := range All() {
		c, err := Run2D(alg, g)
		if err != nil {
			t.Fatal(err)
		}
		mc := c.MaxColor(g)
		if mc < lb {
			t.Fatalf("%s below bound", alg)
		}
		// All algorithms should reach the bound on uniform instances; the
		// geometric greedy orders provably do (4 colors of 5 in a 2x2 tile).
		if mc != lb {
			t.Logf("%s on uniform grid: %d (bound %d)", alg, mc, lb)
		}
	}
	gll, _ := Run2D(GLL, g)
	if gll.MaxColor(g) != lb {
		t.Errorf("GLL on uniform grid = %d, want %d", gll.MaxColor(g), lb)
	}
}

// TestHeuristicsVsExactSmall quantifies quality: on small random grids
// every heuristic stays within its guarantee of the true optimum and at
// least one of them finds it reasonably often (sanity against regression
// to absurd colorings).
func TestHeuristicsVsExactSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	hits := 0
	trials := 12
	for trial := 0; trial < trials; trial++ {
		g := random2D(rng, 3, 3, 5)
		res := exact.Optimize(g, exact.OptimizeOptions{
			LowerBound: bounds.Combined2D(g, 1000),
			NodeBudget: 500_000,
		})
		if !res.Optimal {
			continue
		}
		best := int64(1) << 62
		for _, alg := range All() {
			c, err := Run2D(alg, g)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, c.MaxColor(g))
		}
		if best < res.MaxColor {
			t.Fatalf("heuristic beat the exact optimum: %d < %d", best, res.MaxColor)
		}
		if best == res.MaxColor {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no heuristic ever matched the optimum on 3x3 grids; suspicious")
	}
}

func TestWeightDescOrder(t *testing.T) {
	g := core.Chain([]int64{2, 9, 4})
	order := WeightDescOrder(g)
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Errorf("order = %v", order)
	}
}

// TestPostOrderAllocsConstant pins BDP's recoloring order to a fixed
// number of allocations however many blocks it orders: the per-block
// member sort is inline, where sort.SliceStable allocated a reflect
// swapper for every block.
func TestPostOrderAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	allocs := func(x, y int) float64 {
		g := random2D(rng, x, y, 99)
		c, blocks := LargestFirst(g), g.CliqueBlocks()
		return testing.AllocsPerRun(5, func() { postOrder(g, c, blocks) })
	}
	small, large := allocs(8, 8), allocs(64, 64)
	if small != large || large > 10 {
		t.Errorf("postOrder allocates %v/op on 49 blocks and %v/op on 3969, want the same small constant", small, large)
	}
}

func TestRunAlgorithmsOnSingleVertex(t *testing.T) {
	g2 := grid.MustGrid2D(1, 1)
	g2.W[0] = 7
	for _, alg := range All() {
		c, err := Run2D(alg, g2)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if c.MaxColor(g2) != 7 {
			t.Fatalf("%s on single vertex = %d", alg, c.MaxColor(g2))
		}
	}
	g3 := grid.MustGrid3D(1, 1, 1)
	g3.W[0] = 3
	for _, alg := range All() {
		c, err := Run3D(alg, g3)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if c.MaxColor(g3) != 3 {
			t.Fatalf("%s on single 3D vertex = %d", alg, c.MaxColor(g3))
		}
	}
}

// TestRunHonorsDeadline: SolveOptions.Deadline bounds the solve without
// the caller deriving a context — an already-expired deadline aborts
// before the algorithm runs, and a generous one changes nothing.
func TestRunHonorsDeadline(t *testing.T) {
	g := random2D(rand.New(rand.NewSource(11)), 32, 32, 9)

	opts := &core.SolveOptions{Deadline: time.Now().Add(-time.Millisecond)}
	if _, err := Run(GLL, g, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}

	opts = &core.SolveOptions{Deadline: time.Now().Add(time.Hour), Tenant: "t"}
	c, err := Run(GLL, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(GLL, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxColor(g) != want.MaxColor(g) {
		t.Fatalf("deadline-bounded solve diverged: %d vs %d", c.MaxColor(g), want.MaxColor(g))
	}
}
