package distsolve

import (
	"fmt"
	"math/rand"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
	"stencilivc/internal/parallel"
)

// testNode builds the node for shard id of a 2-shard decomposition of g
// in the given order, wired to a fault-free transport, outside any
// solve.
func testNode(t *testing.T, g *grid.Grid2D, ord parallel.Order, id int) *node {
	t.Helper()
	boxes, gx, gy, gz, err := decompose(g, 2, ord == parallel.OrderLine)
	if err != nil || len(boxes) != 2 {
		t.Fatalf("decompose: %v, %d boxes", err, len(boxes))
	}
	sm := &sim{
		g: g, boxes: boxes, gx: gx, gy: gy, gz: gz,
		weightDesc: ord == parallel.OrderWeightDesc,
		tr:         NewChanTransport(len(boxes), nil, nil, 0),
		dm:         &obsv.DistMetrics{},
	}
	return newNode(id, boxes[id], sm)
}

// TestDirtyFrontier: a sweep recomputes only dirty cells. Given shard
// 0's final boundary, shard 1's full first sweep lands on the
// sequential coloring; a second sweep with no halo change places
// nothing; and a snapshot that changes one remote cell recomputes
// exactly that cell's later owned neighbors plus the later owned
// neighbors of every cell whose start then changed — a small frontier —
// ending in the same state as a fresh node's full sweep over the same
// halo.
func TestDirtyFrontier(t *testing.T) {
	for _, ord := range []parallel.Order{parallel.OrderLine, parallel.OrderWeightDesc} {
		t.Run(fmt.Sprintf("order=%d", ord), func(t *testing.T) {
			g := grid.MustGrid2D(48, 48)
			rng := rand.New(rand.NewSource(3))
			for v := range g.W {
				g.W[v] = rng.Int63n(9) + 1
			}
			want := sequential(t, g, ord)
			n := testNode(t, g, ord, 1)
			seen := boundaryCells(n.s.boxes[0], n.b, n.s.gx, n.s.gy)
			halo := make([]HaloCell, len(seen))
			for x, v := range seen {
				halo[x] = HaloCell{V: v, Start: want.Start[v]}
			}
			n.handle(Message{Kind: MsgData, From: 0, To: 1, Seq: 1, Cells: halo})

			cells := int64(len(n.verts))
			if c := n.sweep(); c != cells || n.pl.Placements != cells {
				t.Fatalf("first sweep changed %d and placed %d, want the whole region (%d)", c, n.pl.Placements, cells)
			}
			for x, o := range n.offs {
				if v := n.verts[x]; n.val[o] != want.Start[v] {
					t.Fatalf("vertex %d: start %d against the final halo, sequential %d", v, n.val[o], want.Start[v])
				}
			}
			n.pl.Placements = 0
			if c := n.sweep(); c != 0 || n.pl.Placements != 0 {
				t.Fatalf("clean sweep changed %d and placed %d, want 0 and 0", c, n.pl.Placements)
			}

			// Move the heaviest remote cell: it precedes its owned
			// neighbors in either order, so the snapshot dirties some.
			v := seen[0]
			for _, u := range seen {
				if g.W[u] > g.W[v] {
					v = u
				}
			}
			before := make([]int64, len(n.offs))
			for x, o := range n.offs {
				before[x] = n.val[o]
			}
			moved := HaloCell{V: v, Start: want.Start[v] + 1}
			n.handle(Message{Kind: MsgData, From: 0, To: 1, Seq: 2, Cells: []HaloCell{moved}})
			changed := n.sweep()

			// The frontier the dirty marks must have produced: later owned
			// neighbors of the moved cell and of every changed cell.
			later := func(u, w int) bool {
				if ord == parallel.OrderLine {
					return u < w
				}
				return g.W[u] > g.W[w] || (g.W[u] == g.W[w] && u < w)
			}
			frontier := map[int]bool{}
			var buf [core.MaxFixedDegree]int
			mark := func(u int) {
				for _, w := range buf[:g.NeighborsFixed(u, &buf)] {
					i, j := g.Coords(w)
					if n.b.contains(i, j, 0) && later(u, w) {
						frontier[w] = true
					}
				}
			}
			mark(v)
			var diffs int64
			for x, o := range n.offs {
				if n.val[o] != before[x] {
					diffs++
					mark(n.verts[x])
				}
			}
			if diffs != changed {
				t.Fatalf("sweep reported %d changes, %d starts differ", changed, diffs)
			}
			if p := n.pl.Placements; p != int64(len(frontier)) || p == 0 || p > cells/4 {
				t.Fatalf("one remote change recomputed %d of %d cells, want its nonzero frontier of %d", p, cells, len(frontier))
			}

			ref := testNode(t, g, ord, 1)
			ref.handle(Message{Kind: MsgData, From: 0, To: 1, Seq: 1, Cells: halo})
			ref.handle(Message{Kind: MsgData, From: 0, To: 1, Seq: 2, Cells: []HaloCell{moved}})
			ref.sweep()
			for x, o := range n.offs {
				if n.val[o] != ref.val[o] {
					t.Fatalf("vertex %d: incremental start %d, full recompute %d", n.verts[x], n.val[o], ref.val[o])
				}
			}
		})
	}
}
