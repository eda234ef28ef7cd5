package grid

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestNewGrid2DOverflowEdges: construction rejects every dimension
// combination near the math.MaxInt edge with an error — never a wrapped
// product, a panic, or a corrupt grid.
func TestNewGrid2DOverflowEdges(t *testing.T) {
	for _, tc := range [][2]int{
		{math.MaxInt, 1},
		{1, math.MaxInt},
		{math.MaxInt, math.MaxInt},
		{math.MaxInt/2 + 1, 2}, // product wraps exactly past MaxInt
		{1 << 30, 1 << 34},
		{3_037_000_500, 3_037_000_500}, // ~sqrt(MaxInt64) each
	} {
		g, err := NewGrid2D(tc[0], tc[1])
		if err == nil {
			t.Errorf("NewGrid2D(%d, %d) accepted; len(W)=%d", tc[0], tc[1], len(g.W))
		}
	}
	// The largest accepted shape still works.
	g, err := NewGrid2D(1<<14, 1<<14)
	if err != nil {
		t.Fatalf("NewGrid2D(2^14, 2^14): %v", err)
	}
	if len(g.W) != 1<<28 {
		t.Errorf("len(W) = %d, want 2^28", len(g.W))
	}
}

// TestNewGrid3DOverflowEdges is the 3D analogue.
func TestNewGrid3DOverflowEdges(t *testing.T) {
	for _, tc := range [][3]int{
		{math.MaxInt, 1, 1},
		{1, math.MaxInt, 1},
		{1, 1, math.MaxInt},
		{math.MaxInt, math.MaxInt, math.MaxInt},
		{1 << 16, 1 << 16, 1 << 16}, // inside axis caps, product too large
		{1 << 21, 1 << 21, 1 << 21}, // product wraps past MaxInt
	} {
		g, err := NewGrid3D(tc[0], tc[1], tc[2])
		if err == nil {
			t.Errorf("NewGrid3D(%d, %d, %d) accepted; len(W)=%d", tc[0], tc[1], tc[2], len(g.W))
		}
	}
	if _, err := NewGrid3D(512, 512, 512); err != nil {
		t.Fatalf("NewGrid3D(512^3): %v", err)
	}
}

// TestCheckedCells: the helper detects the exact wrap boundary.
func TestCheckedCells(t *testing.T) {
	if _, err := checkedCells(math.MaxInt, 1); err != nil {
		t.Errorf("MaxInt*1 rejected: %v", err)
	}
	if _, err := checkedCells(math.MaxInt, 2); err == nil {
		t.Error("MaxInt*2 accepted")
	}
	if n, err := checkedCells(math.MaxInt/3, 3); err != nil || n != math.MaxInt/3*3 {
		t.Errorf("(MaxInt/3)*3 = %d, %v", n, err)
	}
}

// TestFromWeightsTotalOverflow: weight sets whose sum would wrap int64
// are rejected so solver interval ends stay representable, whether they
// arrive as a slice or as instance text.
func TestFromWeightsTotalOverflow(t *testing.T) {
	if _, err := FromWeights2D(2, 1, []int64{math.MaxInt64, 1}); err == nil {
		t.Error("2D total-weight overflow accepted")
	}
	if _, err := FromWeights2D(2, 1, []int64{math.MaxInt64 - 1, 1}); err != nil {
		t.Errorf("2D total exactly MaxInt64 rejected: %v", err)
	}
	if _, err := FromWeights3D(1, 1, 2, []int64{math.MaxInt64, 1}); err == nil {
		t.Error("3D total-weight overflow accepted")
	}
	if _, err := FromWeights3D(1, 1, 2, []int64{math.MaxInt64 - 1, 1}); err != nil {
		t.Errorf("3D total exactly MaxInt64 rejected: %v", err)
	}
	if _, _, err := Read(strings.NewReader("ivc2d 2 1\n9223372036854775807 1\n")); err == nil {
		t.Error("Read accepted a 2D total-weight overflow")
	}
	if _, _, err := Read(strings.NewReader("ivc3d 1 1 2\n9223372036854775807 1\n")); err == nil {
		t.Error("Read accepted a 3D total-weight overflow")
	}
	g, _, err := Read(strings.NewReader("ivc2d 2 1\n9223372036854775806 1\n"))
	if err != nil {
		t.Fatalf("Read of a total exactly MaxInt64 rejected: %v", err)
	}
	if g.total != math.MaxInt64 {
		t.Errorf("Read cached total %d, want MaxInt64", g.total)
	}
}

// TestSetWeightTotalOverflow: Set panics exactly when the grid's real
// total would overflow int64 — the same boundary the constructors
// enforce — and never on a large weight the running total still absorbs.
func TestSetWeightTotalOverflow(t *testing.T) {
	g := MustGrid2D(2, 2)
	// One huge cell among zeros is legal via FromWeights2D, so Set must
	// accept it too (the old per-cell cap of MaxInt64/len(W) did not).
	g.Set(0, 0, math.MaxInt64-1)
	g.Set(0, 1, 1) // total exactly MaxInt64: boundary accepted
	mustPanic(t, "2D Set past total", func() { g.Set(1, 0, 1) })
	// Replacing a weight frees budget for another cell.
	g.Set(0, 0, 0)
	g.Set(1, 0, math.MaxInt64-1)

	g3 := MustGrid3D(2, 2, 2)
	g3.Set(0, 0, 0, math.MaxInt64)
	mustPanic(t, "3D Set past total", func() { g3.Set(1, 1, 1, 1) })
	g3.Set(0, 0, 0, 7)
	g3.Set(1, 1, 1, math.MaxInt64-7)
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// TestFromWeightsRefusesShortSliceWithoutAllocating: a weight slice far
// shorter than the dimensions it names is refused before the grid is
// allocated, so a few-byte request cannot make the caller reserve the
// largest accepted grid (2 GiB in 2D, 1 GiB in 3D).
func TestFromWeightsRefusesShortSliceWithoutAllocating(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := FromWeights2D(1<<14, 1<<14, []int64{1}); err == nil {
		t.Error("FromWeights2D(2^14, 2^14) accepted one weight")
	}
	if _, err := FromWeights3D(1<<9, 1<<9, 1<<9, []int64{1}); err == nil {
		t.Error("FromWeights3D(2^9, 2^9, 2^9) accepted one weight")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing two one-weight slices allocated %d bytes", grew)
	}
}

// TestReadRefusesHugeHeaderWithoutAllocating: an instance text whose
// header names a huge grid but which carries one weight is refused
// after counting its weights, before anything sized by the header is
// allocated — so a few bytes of "instance" cannot make a server reserve
// the largest accepted grid.
func TestReadRefusesHugeHeaderWithoutAllocating(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range []string{"ivc2d 4096 4096\n1\n", "ivc2d 16384 16384\n1\n", "ivc3d 512 512 512\n1\n"} {
		if _, _, err := Read(strings.NewReader(body)); err == nil {
			t.Errorf("Read(%q) accepted one weight", body)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing three one-weight instances allocated %d bytes", grew)
	}
}
