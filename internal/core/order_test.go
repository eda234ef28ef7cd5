package core_test

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// keyGraph is an edgeless graph whose vertex weights are the keys under
// test.
type keyGraph []int64

func (g keyGraph) Len() int                         { return len(g) }
func (g keyGraph) Weight(v int) int64               { return g[v] }
func (g keyGraph) Neighbors(v int, buf []int) []int { return buf }

// refDesc is the reference the kernel replaced: sort.SliceStable by
// non-increasing key over ids, so ties keep the ids' input order.
func refDesc(keys []int64, ids []int) []int {
	out := slices.Clone(ids)
	sort.SliceStable(out, func(a, b int) bool { return keys[out[a]] > keys[out[b]] })
	return out
}

// refBlocks is the block order the kernel replaced: non-increasing
// weight, ties by first vertex id, then input order.
func refBlocks(blocks []grid.Block) []grid.Block {
	out := slices.Clone(blocks)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		return out[a].Vertices[0] < out[b].Vertices[0]
	})
	return out
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// checkOrders runs every entry point of the ordering kernel on keys and
// compares each with its sort.SliceStable reference. keep selects the
// ascending-id subset handed to SortWeightDesc (as a tile or a shard
// would); firsts is a permutation of block first-vertex ids, so blocks
// reach SortBlocksByWeightDesc out of Vertices[0] order.
func checkOrders(t *testing.T, keys []int64, keep []bool, firsts []int, s *core.OrderScratch) {
	t.Helper()
	n := len(keys)
	want := refDesc(keys, identity(n))
	if got := core.WeightDescOrder(keyGraph(keys)); !slices.Equal(got, want) {
		t.Fatalf("WeightDescOrder(%v) = %v, want %v", keys, got, want)
	}
	if got := core.OrderDesc(keys); !slices.Equal(got, want) {
		t.Fatalf("OrderDesc(%v) = %v, want %v", keys, got, want)
	}

	var sub []int
	for v, k := range keep {
		if k {
			sub = append(sub, v)
		}
	}
	wantSub := refDesc(keys, sub)
	s.SortWeightDesc(keyGraph(keys), sub)
	if !slices.Equal(sub, wantSub) {
		t.Fatalf("SortWeightDesc(subset) = %v, want %v", sub, wantSub)
	}

	asc := make([]uint64, n)
	for i, k := range keys {
		asc[i] = uint64(k)
	}
	wantAsc := identity(n)
	sort.SliceStable(wantAsc, func(a, b int) bool { return asc[wantAsc[a]] < asc[wantAsc[b]] })
	if got := core.OrderAsc(asc); !slices.Equal(got, wantAsc) {
		t.Fatalf("OrderAsc = %v, want %v", got, wantAsc)
	}

	// Blocks in Vertices[0] order (as Blocks2D/3D emit them), then
	// scrambled.
	for _, first := range [][]int{identity(n), firsts} {
		blocks := make([]grid.Block, n)
		for i := range blocks {
			blocks[i] = grid.Block{Vertices: []int{first[i], i}, Weight: keys[i]}
		}
		wantBlocks := refBlocks(blocks)
		grid.SortBlocksByWeightDesc(blocks)
		for i := range blocks {
			if blocks[i].Weight != wantBlocks[i].Weight || !slices.Equal(blocks[i].Vertices, wantBlocks[i].Vertices) {
				t.Fatalf("SortBlocksByWeightDesc position %d = %v, want %v", i, blocks[i], wantBlocks[i])
			}
		}
	}
}

// Key shapes the kernel must order identically to the reference.
const (
	shapeSmall  = iota // the paper's 0..99 weights: one radix pass
	shapeEqual         // all keys equal: no pass at all
	shapeSparse        // ~94% zeros, the Dengue 3D shape
	shapeWide          // keys in [0, 2^62): every byte varies, eight passes
	shapeSigned        // arbitrary int64, negatives included
	shapeCount
)

func shapedKey(shape int, raw uint64) int64 {
	switch shape {
	case shapeSmall:
		return int64(raw % 100)
	case shapeEqual:
		return 7
	case shapeSparse:
		if raw%100 < 94 {
			return 0
		}
		return int64(raw>>8%4000 + 1)
	case shapeWide:
		return int64(raw & (1<<62 - 1))
	default:
		return int64(raw)
	}
}

// TestOrderKernelShapes checks the kernel against the reference on each
// key shape at sizes from empty to several thousand, with one scratch
// reused throughout so grown buffers are exercised too.
func TestOrderKernelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s core.OrderScratch
	for shape := 0; shape < shapeCount; shape++ {
		for _, n := range []int{0, 1, 2, 3, 17, 256, 5000} {
			keys := make([]int64, n)
			keep := make([]bool, n)
			for i := range keys {
				raw := rng.Uint64()
				if rng.Intn(4) == 0 {
					raw >>= rng.Intn(64) // mix magnitudes so high bytes repeat
				}
				keys[i] = shapedKey(shape, raw)
				keep[i] = rng.Intn(3) != 0
			}
			checkOrders(t, keys, keep, rng.Perm(n), &s)
		}
	}
}

// TestSortWeightDescNoAllocs pins the reuse contract tiles rely on: once
// the scratch has served an input this long, even an eight-pass sort
// allocates nothing.
func TestSortWeightDescNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := make(keyGraph, 4096)
	for i := range keys {
		keys[i] = shapedKey(shapeWide, rng.Uint64())
	}
	var g core.Graph = keys // box once, outside the measured call
	ids := identity(len(keys))
	var s core.OrderScratch
	s.SortWeightDesc(g, ids)
	if n := testing.AllocsPerRun(20, func() { s.SortWeightDesc(g, ids) }); n != 0 {
		t.Errorf("SortWeightDesc allocates %v/op with a warm scratch, want 0", n)
	}
}

// FuzzWeightDescOrder checks the ordering kernel — vertex orders, subset
// sorts, ascending orders and block orders — against the sort.SliceStable
// reference on fuzzer-chosen keys: each 8 bytes of data make one key of
// the chosen shape, one bit of each decides the subset, and perm
// scrambles the blocks' first-vertex ids.
func FuzzWeightDescOrder(f *testing.F) {
	f.Add([]byte{}, uint8(shapeSmall), int64(0))
	f.Add(make([]byte, 8), uint8(shapeSmall), int64(0))
	f.Add(make([]byte, 64), uint8(shapeEqual), int64(1))
	f.Add([]byte("dengue-like: mostly zero weights, a few hot cells ..."), uint8(shapeSparse), int64(2))
	f.Add([]byte("wide keys force every one of the eight radix passes!!"), uint8(shapeWide), int64(3))
	f.Add([]byte("signed keys flip the sign bit before the radix passes"), uint8(shapeSigned), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, perm int64) {
		n := len(data) / 8
		keys := make([]int64, n)
		keep := make([]bool, n)
		for i := range keys {
			raw := binary.LittleEndian.Uint64(data[8*i:])
			keys[i] = shapedKey(int(shape)%shapeCount, raw)
			keep[i] = raw&1 == 0
		}
		var s core.OrderScratch
		checkOrders(t, keys, keep, rand.New(rand.NewSource(perm)).Perm(n), &s)
	})
}
