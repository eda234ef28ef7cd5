package grid

import (
	"testing"
)

func TestBlocks2DEnumeration(t *testing.T) {
	g := MustGrid2D(3, 3)
	for v := 0; v < g.Len(); v++ {
		g.W[v] = int64(v + 1)
	}
	blocks := Blocks2D(g)
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(blocks))
	}
	// Anchor (0,0): vertices 0,1,3,4 with weights 1+2+4+5 = 12.
	if blocks[0].Weight != 12 {
		t.Errorf("block(0,0) weight = %d, want 12", blocks[0].Weight)
	}
	for _, b := range blocks {
		if len(b.Vertices) != 4 {
			t.Fatalf("K4 block has %d vertices", len(b.Vertices))
		}
		var sum int64
		for _, v := range b.Vertices {
			sum += g.W[v]
		}
		if sum != b.Weight {
			t.Errorf("block weight %d != member sum %d", b.Weight, sum)
		}
	}
}

func TestBlocks2DMutualAdjacency(t *testing.T) {
	g := MustGrid2D(4, 3)
	for _, b := range Blocks2D(g) {
		for i, v := range b.Vertices {
			nbrs := map[int]bool{}
			for _, u := range g.Neighbors(v, nil) {
				nbrs[u] = true
			}
			for j, u := range b.Vertices {
				if i != j && !nbrs[u] {
					t.Fatalf("block vertices %d and %d not adjacent", v, u)
				}
			}
		}
	}
}

func TestBlocks2DDegenerate(t *testing.T) {
	if got := Blocks2D(MustGrid2D(1, 5)); got != nil {
		t.Errorf("1xN grid yielded %d blocks", len(got))
	}
	if got := Blocks2D(MustGrid2D(5, 1)); got != nil {
		t.Errorf("Nx1 grid yielded %d blocks", len(got))
	}
}

func TestBlocks3DEnumeration(t *testing.T) {
	g := MustGrid3D(3, 2, 2)
	for v := 0; v < g.Len(); v++ {
		g.W[v] = 1
	}
	blocks := Blocks3D(g)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(blocks))
	}
	for _, b := range blocks {
		if len(b.Vertices) != 8 || b.Weight != 8 {
			t.Fatalf("K8 block %v weight %d", b.Vertices, b.Weight)
		}
	}
}

func TestBlocks3DMutualAdjacency(t *testing.T) {
	g := MustGrid3D(3, 3, 2)
	for _, b := range Blocks3D(g) {
		for i, v := range b.Vertices {
			nbrs := map[int]bool{}
			for _, u := range g.Neighbors(v, nil) {
				nbrs[u] = true
			}
			for j, u := range b.Vertices {
				if i != j && !nbrs[u] {
					t.Fatalf("K8 vertices %d and %d not adjacent", v, u)
				}
			}
		}
	}
}

func TestSortBlocksByWeightDesc(t *testing.T) {
	blocks := []Block{
		{Vertices: []int{0}, Weight: 5},
		{Vertices: []int{1}, Weight: 9},
		{Vertices: []int{2}, Weight: 9},
		{Vertices: []int{3}, Weight: 1},
	}
	SortBlocksByWeightDesc(blocks)
	if blocks[0].Weight != 9 || blocks[1].Weight != 9 || blocks[3].Weight != 1 {
		t.Errorf("sorted weights: %v %v %v %v", blocks[0].Weight, blocks[1].Weight, blocks[2].Weight, blocks[3].Weight)
	}
	// Deterministic tie break by first vertex id.
	if blocks[0].Vertices[0] != 1 || blocks[1].Vertices[0] != 2 {
		t.Errorf("tie break wrong: %v then %v", blocks[0].Vertices, blocks[1].Vertices)
	}
}

func TestPairBlocksAndMaxWeight(t *testing.T) {
	weights := []int64{4, 1, 3}
	blocks := PairBlocks(weights, []int{0, 1, 2})
	if len(blocks) != 2 {
		t.Fatalf("pair blocks = %d", len(blocks))
	}
	if blocks[0].Weight != 5 || blocks[1].Weight != 4 {
		t.Errorf("pair weights %d,%d", blocks[0].Weight, blocks[1].Weight)
	}
	if MaxBlockWeight(blocks) != 5 {
		t.Errorf("MaxBlockWeight = %d", MaxBlockWeight(blocks))
	}
	if MaxBlockWeight(nil) != 0 {
		t.Error("MaxBlockWeight(nil) != 0")
	}
}

// TestBlockVerticesIsolated pins the shared backing array of Blocks2D/3D:
// each block's Vertices is capped at its length, so appending to one
// block reallocates instead of overwriting its neighbour's members.
func TestBlockVerticesIsolated(t *testing.T) {
	for name, blocks := range map[string][]Block{
		"2d": Blocks2D(MustGrid2D(3, 3)),
		"3d": Blocks3D(MustGrid3D(3, 3, 3)),
	} {
		next := append([]int(nil), blocks[1].Vertices...)
		grown := append(blocks[0].Vertices, -1)
		grown[0] = -2
		for i, v := range blocks[1].Vertices {
			if v != next[i] {
				t.Fatalf("%s: appending to block 0 changed block 1 to %v, want %v", name, blocks[1].Vertices, next)
			}
		}
		if blocks[0].Vertices[0] == -2 {
			t.Fatalf("%s: append to block 0 wrote through its shared array", name)
		}
	}
}
