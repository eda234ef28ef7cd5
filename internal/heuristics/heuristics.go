package heuristics

import (
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// Algorithm names a coloring heuristic from the paper.
type Algorithm string

// The seven algorithms compared in Sections VI and VII.
const (
	GLL Algorithm = "GLL" // Greedy Line-by-Line
	GZO Algorithm = "GZO" // Greedy Z-Order
	GLF Algorithm = "GLF" // Greedy Largest First
	GKF Algorithm = "GKF" // Greedy Largest Clique First
	SGK Algorithm = "SGK" // Smart Greedy Largest Clique First
	BD  Algorithm = "BD"  // Bipartite Decomposition (2-approx 2D, 4-approx 3D)
	BDP Algorithm = "BDP" // Bipartite Decomposition + Post optimization

	// BDL is an extension beyond the paper (see LayeredBDP3D): per-layer
	// BDP with a global post pass. 3D only; registered with Paper=false so
	// the All() evaluation matrix stays the paper's seven algorithms.
	BDL Algorithm = "BDL"
)

func init() {
	MustRegister(Descriptor{
		Name: GLL, Dims: DimBoth, Paper: true, Order: 1,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			return core.GreedyColorOpts(s, s.LineOrder(), opts)
		},
	})
	MustRegister(Descriptor{
		Name: GZO, Dims: DimBoth, Paper: true, Order: 2,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			return core.GreedyColorOpts(s, s.ZOrder(), opts)
		},
	})
	MustRegister(Descriptor{
		Name: GLF, Dims: DimBoth, Paper: true, Order: 3,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			return core.GreedyColorOpts(s, WeightDescOrder(s), opts)
		},
	})
}

// mustGreedy runs the greedy engine with an order we constructed
// ourselves; a permutation failure is a programming error, not an input
// error.
func mustGreedy(g core.Graph, order []int) core.Coloring {
	c, err := core.GreedyColor(g, order)
	if err != nil {
		panic("heuristics: internal order invalid: " + err.Error())
	}
	return c
}

// LargestFirst is GLF: greedy over vertices sorted by non-increasing
// weight (ties by vertex id for determinism). Works on any graph.
func LargestFirst(g core.Graph) core.Coloring {
	return mustGreedy(g, WeightDescOrder(g))
}

// WeightDescOrder returns the GLF vertex order — non-increasing weight,
// ties by vertex id — without coloring. It is core.WeightDescOrder, the
// ordering kernel every weight-ordered solver shares.
func WeightDescOrder(g core.Graph) []int {
	return core.WeightDescOrder(g)
}
