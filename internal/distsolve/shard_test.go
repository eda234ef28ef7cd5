package distsolve

import (
	"slices"
	"testing"

	"stencilivc/internal/grid"
)

// TestDecompose pins the order-aware cut. Line order slabs the slowest
// axis with more than one cell: every box spans the other axes whole,
// and the boxes follow each other along the slab axis, so shard order
// is global order. Weight-descending order keeps the balanced
// multi-axis cut, box for box. Every decomposition covers each cell
// exactly once.
func TestDecompose(t *testing.T) {
	const x, y, z = 0, 1, 2
	for _, tc := range []struct {
		name   string
		s      grid.Stencil
		shards int
		line   bool
		// slab and slabs are the cut axis and box count of a line-order
		// decomposition; want is the exact weight-order decomposition.
		slab, slabs int
		want        []box
	}{
		{name: "line/2d-40x40", s: weighted2D(40, 40), shards: 4, line: true, slab: y, slabs: 4},
		{name: "line/2d-30x3-more-shards-than-rows", s: weighted2D(30, 3), shards: 7, line: true, slab: y, slabs: 3},
		{name: "line/2d-strip-64x1", s: weighted2D(64, 1), shards: 4, line: true, slab: x, slabs: 4},
		{name: "line/2d-strip-1x64", s: weighted2D(1, 64), shards: 3, line: true, slab: y, slabs: 3},
		{name: "line/3d-10x8x6", s: weighted3D(10, 8, 6), shards: 4, line: true, slab: z, slabs: 4},
		{name: "line/3d-6x5x3-z-below-shards", s: weighted3D(6, 5, 3), shards: 7, line: true, slab: z, slabs: 3},
		{name: "line/3d-9x7x1-z-one", s: weighted3D(9, 7, 1), shards: 4, line: true, slab: y, slabs: 4},
		{name: "line/3d-9x1x1-x-only", s: weighted3D(9, 1, 1), shards: 4, line: true, slab: x, slabs: 4},
		{name: "weight/2d-40x40", s: weighted2D(40, 40), shards: 4, want: []box{
			{0, 20, 0, 20, 0, 1}, {20, 40, 0, 20, 0, 1},
			{0, 20, 20, 40, 0, 1}, {20, 40, 20, 40, 0, 1},
		}},
		{name: "weight/2d-strip-64x1", s: weighted2D(64, 1), shards: 4, want: []box{
			{0, 33, 0, 1, 0, 1}, {33, 64, 0, 1, 0, 1},
		}},
		{name: "weight/2d-30x20", s: weighted2D(30, 20), shards: 6, want: []box{
			{0, 10, 0, 10, 0, 1}, {10, 20, 0, 10, 0, 1}, {20, 30, 0, 10, 0, 1},
			{0, 10, 10, 20, 0, 1}, {10, 20, 10, 20, 0, 1}, {20, 30, 10, 20, 0, 1},
		}},
		{name: "weight/3d-10x8x6", s: weighted3D(10, 8, 6), shards: 8, want: []box{
			{0, 5, 0, 4, 0, 3}, {5, 10, 0, 4, 0, 3}, {0, 5, 4, 8, 0, 3}, {5, 10, 4, 8, 0, 3},
			{0, 5, 0, 4, 3, 6}, {5, 10, 0, 4, 3, 6}, {0, 5, 4, 8, 3, 6}, {5, 10, 4, 8, 3, 6},
		}},
		{name: "weight/3d-9x7x1", s: weighted3D(9, 7, 1), shards: 4, want: []box{
			{0, 5, 0, 4, 0, 1}, {5, 9, 0, 4, 0, 1}, {0, 5, 4, 7, 0, 1}, {5, 9, 4, 7, 0, 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			boxes, gx, gy, gz, err := decompose(tc.s, tc.shards, tc.line)
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]int, gx*gy*gz)
			for _, b := range boxes {
				for k := b.Z0; k < b.Z1; k++ {
					for j := b.Y0; j < b.Y1; j++ {
						for i := b.X0; i < b.X1; i++ {
							seen[(k*gy+j)*gx+i]++
						}
					}
				}
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("cell %d covered %d times, want once (boxes %v)", v, c, boxes)
				}
			}
			if !tc.line {
				if !slices.Equal(boxes, tc.want) {
					t.Fatalf("weight-order boxes\n got %v\nwant %v", boxes, tc.want)
				}
				return
			}
			if len(boxes) != tc.slabs {
				t.Fatalf("%d boxes, want %d slabs along axis %d: %v", len(boxes), tc.slabs, tc.slab, boxes)
			}
			ext := [3]int{gx, gy, gz}
			for i, b := range boxes {
				lo, hi := [3]int{b.X0, b.Y0, b.Z0}, [3]int{b.X1, b.Y1, b.Z1}
				for a := range ext {
					if a != tc.slab && (lo[a] != 0 || hi[a] != ext[a]) {
						t.Errorf("box %d %v does not span axis %d", i, b, a)
					}
				}
				if i > 0 {
					prev := [3]int{boxes[i-1].X1, boxes[i-1].Y1, boxes[i-1].Z1}
					if prev[tc.slab] != lo[tc.slab] {
						t.Errorf("box %d %v does not follow box %d %v along axis %d", i, b, i-1, boxes[i-1], tc.slab)
					}
				}
			}
		})
	}
}
