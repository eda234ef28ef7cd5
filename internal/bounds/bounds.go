package bounds

import (
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// MaxPair returns the trivial edge lower bound
// max(max_v w(v), max_{(u,v) in E} w(u)+w(v)): two adjacent intervals are
// disjoint, so some vertex ends at or after their combined length.
func MaxPair(g core.Graph) int64 {
	var b int64
	var buf []int
	for v := 0; v < g.Len(); v++ {
		wv := g.Weight(v)
		b = max(b, wv)
		buf = g.Neighbors(v, buf[:0])
		for _, u := range buf {
			if u > v {
				b = max(b, wv+g.Weight(u))
			}
		}
	}
	return b
}

// MaxK4 returns the max-clique lower bound of a 9-pt stencil: the largest
// total weight of any 2×2 block (Section III-A). Degenerate grids
// (X == 1 or Y == 1) contain no K4 and fall back to the pair bound.
func MaxK4(g *grid.Grid2D) int64 {
	if g.X < 2 || g.Y < 2 {
		return MaxPair(g)
	}
	// Summed in place rather than through grid.Blocks2D: the bound needs
	// no block list, and a 768² list is ~37 MB of short-lived heap.
	dy := g.X
	var m int64
	for j := 0; j+1 < g.Y; j++ {
		for i := 0; i+1 < g.X; i++ {
			v := g.ID(i, j)
			m = max(m, g.W[v]+g.W[v+1]+g.W[v+dy]+g.W[v+dy+1])
		}
	}
	return max(m, core.MaxWeight(g))
}

// MaxK8 returns the max-clique lower bound of a 27-pt stencil: the largest
// total weight of any 2×2×2 block. Grids with a unit dimension fall back
// to the K4 bound of their only layer orientation via the generic pair
// bound on the full graph combined with per-layer K4 bounds.
func MaxK8(g *grid.Grid3D) int64 {
	if g.X < 2 || g.Y < 2 || g.Z < 2 {
		// A 3D grid with a unit dimension is 2D in disguise (Section II);
		// use the best K4 bound over every axis-aligned slab of thickness 1.
		b := MaxPair(g)
		if g.Z == 1 {
			b = max(b, MaxK4(g.Layer(0)))
		}
		return b
	}
	// Summed in place, like MaxK4, instead of listing every block.
	dy, dz := g.X, g.X*g.Y
	var m int64
	for k := 0; k+1 < g.Z; k++ {
		for j := 0; j+1 < g.Y; j++ {
			for i := 0; i+1 < g.X; i++ {
				v := g.ID(i, j, k)
				m = max(m, g.W[v]+g.W[v+1]+g.W[v+dy]+g.W[v+dy+1]+
					g.W[v+dz]+g.W[v+dz+1]+g.W[v+dz+dy]+g.W[v+dz+dy+1])
			}
		}
	}
	return max(m, core.MaxWeight(g))
}

// CliqueSum returns the exact optimum of a clique: the sum of all weights
// (Section III-A). It is exported for use as a bound on arbitrary vertex
// subsets the caller knows to be mutually adjacent.
func CliqueSum(weights []int64) int64 {
	var sum int64
	for _, w := range weights {
		sum += w
	}
	return sum
}

// Combined2D returns the best known lower bound of a 2DS-IVC instance:
// the maximum of the pair bound, the K4 bound, and — when budget > 0 —
// the odd-cycle bound explored with the given search budget.
func Combined2D(g *grid.Grid2D, oddCycleBudget int) int64 {
	b := max(MaxPair(g), MaxK4(g))
	if oddCycleBudget > 0 {
		b = max(b, OddCycle(g, 9, oddCycleBudget))
	}
	return b
}

// Combined3D is Combined2D for 3DS-IVC instances.
func Combined3D(g *grid.Grid3D, oddCycleBudget int) int64 {
	b := max(MaxPair(g), MaxK8(g))
	if oddCycleBudget > 0 {
		b = max(b, OddCycle(g, 7, oddCycleBudget))
	}
	return b
}
