package parallel

import "stencilivc/internal/core"

// Placer is the reusable lowest-fit placement kernel shared by the
// tile-parallel solver (this package) and the distributed sharded
// solver (internal/distsolve). It owns the fixed-size neighbor and
// occupancy arrays sized for stencil degrees (core.MaxFixedDegree), so
// a placement allocates nothing, and it carries the solve-wide
// uniform-weight verdict that routes placements onto the packed
// free-map kernel.
//
// A placement is a Begin / Observe* / Commit sequence: Begin names the
// vertex and exposes its neighbor list, the caller decides — under its
// own visibility rule (atomic shared-memory reads for the tile solver)
// — which neighbors to Observe, and Commit dispatches the gathered
// occupancy to the kernel ladder. A caller that enumerates neighbors
// itself starts with Clear instead of Begin: the sharded solver walks
// fixed stencil offsets over its dense per-shard state, where a read is
// an index. A Placer is not safe for concurrent use; give each worker its
// own (the tile solver embeds one per scratch).
type Placer struct {
	g    core.FixedGraph
	uniW int64
	nb   [core.MaxFixedDegree]int
	occ  [core.MaxFixedDegree]core.Interval
	m    int

	// Placements and Probes count Commit calls and Observed intervals
	// since the last Reset; callers flush them into their stats sinks in
	// bulk instead of paying per-placement metric updates.
	Placements int64
	Probes     int64
}

// NewPlacer returns a Placer bound to g, computing the uniform-weight
// verdict itself. Callers that already hold the verdict (one O(n) scan
// per solve, shared across workers) should use Reset instead.
func NewPlacer(g core.FixedGraph) Placer {
	var p Placer
	w, _ := core.UniformWeight(g)
	p.Reset(g, w)
	return p
}

// Reset rebinds the Placer to g with the given uniform-weight verdict
// (0 when weights are mixed) and zeroes the flush counters. Reset, not
// NewPlacer, is the pooled-scratch path: the verdict is computed once
// per solve and shared.
func (p *Placer) Reset(g core.FixedGraph, uniformW int64) {
	p.g, p.uniW = g, uniformW
	p.m = 0
	p.Placements, p.Probes = 0, 0
}

// Begin starts the placement of v: it clears the gathered occupancy and
// returns v's neighbor list (backed by the Placer's own array — valid
// until the next Begin).
func (p *Placer) Begin(v int) []int {
	p.m = 0
	deg := p.g.NeighborsFixed(v, &p.nb)
	return p.nb[:deg]
}

// Clear starts a placement whose caller enumerates the neighbors
// itself: it only clears the gathered occupancy.
func (p *Placer) Clear() { p.m = 0 }

// Observe records one neighbor's interval in the gathered occupancy.
// Unset starts and non-positive weights are skipped — uncolored and
// zero-width neighbors constrain nothing — so callers pass whatever
// state they read without pre-filtering.
func (p *Placer) Observe(start, weight int64) {
	if start == core.Unset || weight <= 0 {
		return
	}
	p.occ[p.m] = core.Interval{Start: start, End: start + weight}
	p.m++
}

// Observed reports how many intervals the current placement gathered.
func (p *Placer) Observed() int { return p.m }

// Commit dispatches the gathered occupancy to the kernel ladder and
// returns the lowest-fit start for a vertex of the given weight: the
// packed free-map scan when the solve-wide uniform verdict holds (and
// no hand-built start broke the multiple-of-w invariant), the sort-free
// streaming min-gap scan otherwise — occupancy here is at most
// MaxFixedDegree entries, well inside the streaming kernel's sweet
// spot.
func (p *Placer) Commit(weight int64) int64 {
	p.Placements++
	p.Probes += int64(p.m)
	if p.uniW > 0 {
		if s, ok := core.LowestFitUniform(p.occ[:p.m], weight); ok {
			return s
		}
	}
	return core.LowestFitStream(p.occ[:p.m], weight)
}
