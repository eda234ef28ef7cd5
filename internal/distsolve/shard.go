package distsolve

import (
	"fmt"

	"stencilivc/internal/grid"
	"stencilivc/internal/rectpart"
)

// box is one shard's region: a half-open axis-aligned block of grid
// cells. 2D shards use Z0=0, Z1=1.
type box struct {
	X0, X1, Y0, Y1, Z0, Z1 int
}

// empty reports whether the box contains no cells. Weight-degenerate
// instances (whole zero-weight planes) legitimately produce empty
// shards: the 1D probe pushes every cut to the axis end.
func (b box) empty() bool { return b.X0 >= b.X1 || b.Y0 >= b.Y1 || b.Z0 >= b.Z1 }

// cells returns the number of cells in the box.
func (b box) cells() int {
	if b.empty() {
		return 0
	}
	return (b.X1 - b.X0) * (b.Y1 - b.Y0) * (b.Z1 - b.Z0)
}

// contains reports whether cell (i, j, k) lies in the box.
func (b box) contains(i, j, k int) bool {
	return i >= b.X0 && i < b.X1 && j >= b.Y0 && j < b.Y1 && k >= b.Z0 && k < b.Z1
}

// expand grows the box by one cell on both sides of x and y, and of z
// when threeD is set: the Chebyshev-1 ring that 9-pt and 27-pt stencils
// reach. It does not clamp to the grid, so ring cells may lie past the
// grid edge.
func (b box) expand(threeD bool) box {
	e := box{X0: b.X0 - 1, X1: b.X1 + 1, Y0: b.Y0 - 1, Y1: b.Y1 + 1, Z0: b.Z0, Z1: b.Z1}
	if threeD {
		e.Z0, e.Z1 = b.Z0-1, b.Z1+1
	}
	return e
}

// intersect returns the overlap of two boxes (possibly empty).
func intersect(a, b box) box {
	return box{
		X0: max(a.X0, b.X0), X1: min(a.X1, b.X1),
		Y0: max(a.Y0, b.Y0), Y1: min(a.Y1, b.Y1),
		Z0: max(a.Z0, b.Z0), Z1: min(a.Z1, b.Z1),
	}
}

// factor2 splits n into kx*ky = n with kx <= ky and kx the largest
// divisor not exceeding sqrt(n), so shard grids stay as square as the
// count allows.
func factor2(n int) (kx, ky int) {
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			kx = d
		}
	}
	return kx, n / kx
}

// factor3 splits n into kx*ky*kz = n, peeling the largest divisor not
// exceeding the cube root first and factoring the rest as a 2D count.
func factor3(n int) (kx, ky, kz int) {
	kz = 1
	for d := 1; d*d*d <= n; d++ {
		if n%d == 0 {
			kz = d
		}
	}
	kx, ky = factor2(n / kz)
	return kx, ky, kz
}

// decompose shards s into at most shards boxes with rectpart's
// balanced rectilinear cuts, chosen for the global visit order:
//
//   - Line order cuts only the slowest axis that has more than one cell
//     (y in 2D, z in 3D; a grid one cell thick there falls back to the
//     next faster axis) into min(shards, extent) slabs. Each slab then lies wholly
//     before the next in the global order, so slab i observes only
//     slabs before it and is final after i+1 rounds.
//   - Weight-descending order has no such axis: the shard count is
//     factored per axis, clamped to the axis sizes (a 1×N strip can
//     only shard along its long axis), so shards stay as square as the
//     count allows.
//
// Either way the cut positions come from Nicol's alternating
// refinement, so heavy regions get smaller shards, and boxes are
// listed z-major, then y, then x. Returns the shard boxes and the grid
// extents (gz = 1 for 2D). Stencil types without a grid shape cannot
// shard; the caller falls back to the sequential solver.
func decompose(s grid.Stencil, shards int, line bool) (boxes []box, gx, gy, gz int, err error) {
	switch g := s.(type) {
	case *grid.Grid2D:
		var kx, ky int
		if line {
			k := slabCounts(shards, g.X, g.Y)
			kx, ky = k[0], k[1]
		} else {
			kx, ky = factor2(shards)
			if g.X >= g.Y {
				kx, ky = ky, kx // larger factor on the larger axis
			}
			// Clamp to the axis sizes, then re-grow the other axis so a
			// 1×N strip still shards along its long axis instead of
			// collapsing to one shard.
			kx = min(kx, g.X)
			ky = min(max(ky, shards/kx), g.Y)
		}
		cutsX, cutsY, _, perr := rectpart.Partition2D(g, kx, ky, 0)
		if perr != nil {
			return nil, 0, 0, 0, perr
		}
		return boxGrid(boundsFromCuts(cutsX, g.X), boundsFromCuts(cutsY, g.Y), []int{0, 1}), g.X, g.Y, 1, nil
	case *grid.Grid3D:
		var kx, ky, kz int
		if line {
			k := slabCounts(shards, g.X, g.Y, g.Z)
			kx, ky, kz = k[0], k[1], k[2]
		} else {
			kx, ky, kz = factor3(shards)
			kz = min(kz, g.Z)
			kx = min(kx, g.X)
			ky = min(max(ky, shards/(kx*kz)), g.Y)
		}
		cutsX, cutsY, cutsZ, _, perr := rectpart.Partition3D(g, kx, ky, kz, 0)
		if perr != nil {
			return nil, 0, 0, 0, perr
		}
		return boxGrid(boundsFromCuts(cutsX, g.X), boundsFromCuts(cutsY, g.Y), boundsFromCuts(cutsZ, g.Z)),
			g.X, g.Y, g.Z, nil
	default:
		return nil, 0, 0, 0, fmt.Errorf("distsolve: %T has no grid shape to shard", s)
	}
}

// slabCounts returns per-axis shard counts, fastest axis first, that
// put min(shards, extent) slabs on the slowest axis with more than one
// cell and 1 on every other axis.
func slabCounts(shards int, ext ...int) []int {
	k := make([]int, len(ext))
	for a := range k {
		k[a] = 1
	}
	a := len(ext) - 1
	for a > 0 && ext[a] <= 1 {
		a--
	}
	k[a] = min(shards, ext[a])
	return k
}

// boxGrid lists the boxes of the rectilinear partition with the given
// per-axis bounds arrays, z-major, then y, then x.
func boxGrid(xs, ys, zs []int) []box {
	boxes := make([]box, 0, (len(xs)-1)*(len(ys)-1)*(len(zs)-1))
	for bk := 0; bk+1 < len(zs); bk++ {
		for bj := 0; bj+1 < len(ys); bj++ {
			for bi := 0; bi+1 < len(xs); bi++ {
				boxes = append(boxes, box{
					X0: xs[bi], X1: xs[bi+1],
					Y0: ys[bj], Y1: ys[bj+1],
					Z0: zs[bk], Z1: zs[bk+1],
				})
			}
		}
	}
	return boxes
}

// boundsFromCuts converts interior cut positions into a bounds array
// [0, c1, ..., n], mirroring rectpart's internal convention.
func boundsFromCuts(cuts []int, n int) []int {
	out := make([]int, 0, len(cuts)+2)
	out = append(out, 0)
	out = append(out, cuts...)
	out = append(out, n)
	return out
}

// boundaryCells lists the cells of shard a visible to shard b: the
// cells of a's box within Chebyshev distance 1 of b's box, in ascending
// global-id order. Empty when the shards are not adjacent.
func boundaryCells(a, b box, gx, gy int) []int {
	ov := intersect(a, b.expand(true))
	if ov.empty() {
		return nil
	}
	cells := make([]int, 0, ov.cells())
	for k := ov.Z0; k < ov.Z1; k++ {
		for j := ov.Y0; j < ov.Y1; j++ {
			for i := ov.X0; i < ov.X1; i++ {
				cells = append(cells, (k*gy+j)*gx+i)
			}
		}
	}
	return cells
}
