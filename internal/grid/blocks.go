package grid

import (
	"cmp"
	"slices"

	"stencilivc/internal/core"
)

// Block is a maximal clique of a stencil grid: a 2×2 square (K4) of a
// Grid2D or a 2×2×2 cube (K8) of a Grid3D. Blocks drive the max-clique
// lower bound (Section III-A) and the GKF/SGK heuristics (Section V-A).
type Block struct {
	// Vertices lists the member vertex ids; 4 entries in 2D, 8 in 3D.
	// Blocks2D/3D carve every block's list from one shared array, each
	// capped at its length, so appending to one never reaches another.
	Vertices []int
	// Weight is the sum of the member weights.
	Weight int64
}

// Blocks2D enumerates all K4 blocks of g: one per anchor (i,j) with
// 0 <= i < X-1 and 0 <= j < Y-1. Degenerate grids (X == 1 or Y == 1) have
// no K4; callers fall back to pair "blocks" via PairBlocks.
func Blocks2D(g *Grid2D) []Block {
	if g.X < 2 || g.Y < 2 {
		return nil
	}
	blocks := make([]Block, 0, (g.X-1)*(g.Y-1))
	all := make([]int, 0, 4*cap(blocks))
	for j := 0; j+1 < g.Y; j++ {
		for i := 0; i+1 < g.X; i++ {
			at := len(all)
			all = append(all,
				g.ID(i, j), g.ID(i+1, j),
				g.ID(i, j+1), g.ID(i+1, j+1),
			)
			vs := all[at:len(all):len(all)]
			var w int64
			for _, v := range vs {
				w += g.W[v]
			}
			blocks = append(blocks, Block{Vertices: vs, Weight: w})
		}
	}
	return blocks
}

// Blocks3D enumerates all K8 blocks of g: one per anchor (i,j,k) with each
// coordinate at most dimension-2.
func Blocks3D(g *Grid3D) []Block {
	if g.X < 2 || g.Y < 2 || g.Z < 2 {
		return nil
	}
	blocks := make([]Block, 0, (g.X-1)*(g.Y-1)*(g.Z-1))
	all := make([]int, 0, 8*cap(blocks))
	for k := 0; k+1 < g.Z; k++ {
		for j := 0; j+1 < g.Y; j++ {
			for i := 0; i+1 < g.X; i++ {
				at := len(all)
				all = append(all,
					g.ID(i, j, k), g.ID(i+1, j, k),
					g.ID(i, j+1, k), g.ID(i+1, j+1, k),
					g.ID(i, j, k+1), g.ID(i+1, j, k+1),
					g.ID(i, j+1, k+1), g.ID(i+1, j+1, k+1),
				)
				vs := all[at:len(all):len(all)]
				var w int64
				for _, v := range vs {
					w += g.W[v]
				}
				blocks = append(blocks, Block{Vertices: vs, Weight: w})
			}
		}
	}
	return blocks
}

// PairBlocks returns one Block per edge of a degenerate (chain-like) grid
// axis, used as the clique set when no K4/K8 exists. vertices must be the
// ids along the chain in order.
func PairBlocks(weights []int64, ids []int) []Block {
	blocks := make([]Block, 0, max(0, len(ids)-1))
	for i := 0; i+1 < len(ids); i++ {
		blocks = append(blocks, Block{
			Vertices: []int{ids[i], ids[i+1]},
			Weight:   weights[ids[i]] + weights[ids[i+1]],
		})
	}
	return blocks
}

// SortBlocksByWeightDesc orders blocks by non-increasing weight. Ties are
// broken by the first vertex id so the order is deterministic across runs
// (blocks that tie on both keep their input order).
func SortBlocksByWeightDesc(blocks []Block) {
	// The kernel's order is stable, so ranking input already in
	// Vertices[0] order by weight alone yields the tie rule. Blocks2D/3D
	// and PairBlocks emit that order; anything else is put in it first.
	byFirst := func(a, b Block) int { return cmp.Compare(a.Vertices[0], b.Vertices[0]) }
	if !slices.IsSortedFunc(blocks, byFirst) {
		first := make([]uint64, len(blocks))
		for i, b := range blocks {
			first[i] = uint64(b.Vertices[0])
		}
		permuteBlocks(blocks, core.OrderAsc(first))
	}
	weights := make([]int64, len(blocks))
	for i, b := range blocks {
		weights[i] = b.Weight
	}
	permuteBlocks(blocks, core.OrderDesc(weights))
}

// permuteBlocks rearranges blocks so that blocks[i] becomes the input's
// blocks[order[i]].
func permuteBlocks(blocks []Block, order []int) {
	src := slices.Clone(blocks)
	for i, j := range order {
		blocks[i] = src[j]
	}
}

// MaxBlockWeight returns the largest block weight (0 when blocks is empty).
func MaxBlockWeight(blocks []Block) int64 {
	var m int64
	for _, b := range blocks {
		m = max(m, b.Weight)
	}
	return m
}
