package distsolve

import (
	"math/rand"
	"testing"
	"time"

	"stencilivc/internal/chaos"
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/parallel"
)

// FuzzDistStorm drives the distributed solver over fuzzer-chosen small
// grids, shard counts, orders, and seeded chaos storms mixing message
// drops, duplicates, delays, and shard crashes. Every run — however
// hostile the schedule — must terminate with a coloring byte-identical
// to the sequential greedy over the same order: the protocol either
// reaches its certified fixpoint or degrades through re-homing to the
// bedrock fallback, and both produce the same bytes.
func FuzzDistStorm(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(12), uint8(0), uint8(4), false, uint8(60), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(9), uint8(7), uint8(3), uint8(8), true, uint8(0), uint8(60), uint8(60), uint8(1))
	f.Add(int64(3), uint8(1), uint8(20), uint8(0), uint8(5), false, uint8(255), uint8(0), uint8(0), uint8(2))
	// Line-order slab cuts at their edges: a 3D grid with Z = 1 (slabs
	// fall back to y), one with Z below the shard count (fewer slabs),
	// and a one-row 2D grid (slabs fall back to x).
	f.Add(int64(4), uint8(8), uint8(6), uint8(1), uint8(2), false, uint8(60), uint8(30), uint8(0), uint8(1))
	f.Add(int64(5), uint8(5), uint8(4), uint8(3), uint8(5), false, uint8(40), uint8(0), uint8(40), uint8(3))
	f.Add(int64(6), uint8(19), uint8(0), uint8(0), uint8(3), false, uint8(0), uint8(60), uint8(60), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, xr, yr, zr, shardsR uint8, weightDesc bool,
		dropP, dupP, delayP, crashNth uint8) {
		x := int(xr%20) + 1
		y := int(yr%20) + 1
		z := int(zr % 4) // 0 → 2D instance
		shards := int(shardsR%9) + 2
		rng := rand.New(rand.NewSource(seed))

		var s grid.Stencil
		if z == 0 {
			g := grid.MustGrid2D(x, y)
			for v := range g.W {
				g.W[v] = rng.Int63n(9)
			}
			s = g
		} else {
			g := grid.MustGrid3D(x, y, z)
			for v := range g.W {
				g.W[v] = rng.Int63n(9)
			}
			s = g
		}

		inj := chaos.New(uint64(seed) + 1)
		if dropP > 0 {
			inj = inj.WithProb(SiteMsgDrop, float64(dropP)/512) // ≤ ~0.5
		}
		if dupP > 0 {
			inj = inj.WithProb(SiteMsgDup, float64(dupP)/512)
		}
		if delayP > 0 {
			inj = inj.WithProb(SiteMsgDelay, float64(delayP)/512)
		}
		if crashNth > 0 {
			inj = inj.OnNth(SiteShardCrash, int64(crashNth%8)+1)
		}

		ord := parallel.OrderLine
		if weightDesc {
			ord = parallel.OrderWeightDesc
		}
		cfg := Config{
			Shards:       shards,
			Order:        ord,
			MaxRetries:   2,
			RetryTimeout: time.Millisecond,
			BackoffCap:   4 * time.Millisecond,
			Delay:        time.Millisecond,
		}
		c, err := Solve(s, cfg, &core.SolveOptions{Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(s); err != nil {
			t.Fatalf("storm result invalid (shards=%d, inj=%s): %v", shards, inj, err)
		}
		want, err := core.GreedyColorOpts(s, orderFor(s, cfg), nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Start {
			if c.Start[v] != want.Start[v] {
				t.Fatalf("storm diverged from sequential greedy at vertex %d: %d vs %d (shards=%d, inj=%s)",
					v, c.Start[v], want.Start[v], shards, inj)
			}
		}
	})
}
