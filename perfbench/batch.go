package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"time"

	"stencilivc"
	"stencilivc/internal/core"
	"stencilivc/internal/datasets"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/obsv"
)

// The batch workload: one in-process caller runs a fixed job mix back to
// back through stencilivc.Solve / stencilivc.DistSolve, with no result
// cache (the library default). The kernel, order, parallel and
// distsolve layers do nearly all the work; the service does none.

// batchJob is one entry of the mix.
type batchJob struct {
	name string // metric-safe id, e.g. "2d1024.GLF"
	alg  stencilivc.Algorithm
	s    stencilivc.Stencil
	lb   int64
	// dist, when set, routes the job through DistSolve in this order.
	dist *stencilivc.DistOrder
	// exact marks jobs whose work counters repeat exactly for a seed:
	// the sequential solvers (tile-parallel ones depend on scheduling).
	exact bool
}

// batchInstances are the generated inputs the mix and the layer probes
// share.
type batchInstances struct {
	r2d, r2dBDP, u2d, dDist *grid.Grid2D
	r3d                     *grid.Grid3D
	dengue2d                *grid.Grid2D
	dengue3d                *grid.Grid3D
	jobs                    []batchJob
}

// randomWeights fills w with uniform integers in [0, 100).
func randomWeights(r *rand.Rand, w []int64) {
	for i := range w {
		w[i] = r.Int64N(100)
	}
}

// newBatchInstances builds every batch input from the seed and computes
// each job's clique lower bound.
func newBatchInstances(sp *spec, seed uint64) (*batchInstances, error) {
	b := sp.Batch
	r := rand.New(rand.NewPCG(seed, 0xba7c4))
	in := &batchInstances{
		r2d:    grid.MustGrid2D(b.Side2D, b.Side2D),
		r2dBDP: grid.MustGrid2D(b.SideBDP, b.SideBDP),
		u2d:    grid.MustGrid2D(b.Side2D, b.Side2D),
		dDist:  grid.MustGrid2D(b.SideDist, b.SideDist),
		r3d:    grid.MustGrid3D(b.Side3D, b.Side3D, b.Side3D),
	}
	randomWeights(r, in.r2d.W)
	randomWeights(r, in.r2dBDP.W)
	randomWeights(r, in.dDist.W)
	randomWeights(r, in.r3d.W)
	uw := 1 + r.Int64N(99)
	for i := range in.u2d.W {
		in.u2d.W[i] = uw
	}
	// The Dengue analogue stands in for the paper's fixed real dataset,
	// so it comes from a fixed dataset seed, not the run's seed: its
	// large, skewed weights would otherwise dominate maxcolor_ratio's
	// sums and make the ratio swing with the seed.
	ds, err := datasets.Generate(datasets.Dengue, b.DengueSeed)
	if err != nil {
		return nil, fmt.Errorf("dengue dataset: %w", err)
	}
	if in.dengue2d, err = datasets.Voxelize2D(ds.Points, ds.Bounds, datasets.XY, b.SideDengue, b.SideDengue); err != nil {
		return nil, fmt.Errorf("dengue 2D: %w", err)
	}
	if in.dengue3d, err = datasets.Voxelize3D(ds.Points, ds.Bounds, b.SideDengue, b.SideDengue, b.SideDengue); err != nil {
		return nil, fmt.Errorf("dengue 3D: %w", err)
	}

	lb2 := func(g *grid.Grid2D) int64 { return stencilivc.LowerBound2D(g) }
	lb3 := func(g *grid.Grid3D) int64 { return stencilivc.LowerBound3D(g) }
	add := func(prefix string, s stencilivc.Stencil, lb int64, algs ...stencilivc.Algorithm) {
		for _, a := range algs {
			in.jobs = append(in.jobs, batchJob{
				name: prefix + "." + string(a), alg: a, s: s, lb: lb,
				exact: a != stencilivc.PGLL && a != stencilivc.PGLF,
			})
		}
	}
	add(fmt.Sprintf("2d%d", b.Side2D), in.r2d, lb2(in.r2d), "GLL", "GLF", "PGLL", "PGLF", "BD")
	add(fmt.Sprintf("2d%d", b.SideBDP), in.r2dBDP, lb2(in.r2dBDP), "BDP")
	add(fmt.Sprintf("3d%d", b.Side3D), in.r3d, lb3(in.r3d), "GLL", "GLF", "GKF", "BD")
	add(fmt.Sprintf("uni%d", b.Side2D), in.u2d, lb2(in.u2d), "GLL")
	add("dengue2d", in.dengue2d, lb2(in.dengue2d), stencilivc.Algorithms()...)
	add("dengue3d", in.dengue3d, lb3(in.dengue3d), stencilivc.Algorithms()...)
	lbd := lb2(in.dDist)
	for _, o := range []struct {
		name string
		ord  stencilivc.DistOrder
		alg  stencilivc.Algorithm
	}{{"line", stencilivc.DistOrderLine, "GLL"}, {"weight_desc", stencilivc.DistOrderWeightDesc, "GLF"}} {
		ord := o.ord
		in.jobs = append(in.jobs, batchJob{
			name: fmt.Sprintf("dist%d.%s", b.SideDist, o.name), alg: o.alg, s: in.dDist, lb: lbd,
			dist: &ord, exact: true,
		})
	}
	return in, nil
}

// nproc is the core count the sizing rules scale with.
func nproc() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// runJob makes one timed call. Only the solver call is inside the timer.
func runJob(j batchJob, opts *stencilivc.SolveOptions) (stencilivc.Coloring, time.Duration, error) {
	t0 := time.Now()
	var (
		c   stencilivc.Coloring
		err error
	)
	if j.dist != nil {
		c, err = stencilivc.DistSolve(j.s, stencilivc.DistConfig{Shards: nproc(), Order: *j.dist}, opts)
	} else {
		c, err = stencilivc.Solve(j.alg, j.s, opts)
	}
	return c, time.Since(t0), err
}

// passResult is what one pass over the mix produced.
type passResult struct {
	times     []time.Duration // per job, in mix order
	maxcolors []int64
	// Set on traced passes only.
	stats   *core.Stats // sequential (exact) jobs
	metrics *obsv.Registry
	layer   map[string]float64
}

// seconds is the pass's summed call time.
func (p passResult) seconds() float64 {
	var sum time.Duration
	for _, d := range p.times {
		sum += d
	}
	return sum.Seconds()
}

// runPass runs the mix once. Every coloring is validated right after
// its timed call (outside the timer; the single caller has nothing
// running beside it), and DistSolve results are checked byte for byte
// against the sequential greedy of the same order, computed once in refs.
func runPass(in *batchInstances, traced bool, refs map[string]stencilivc.Coloring, t *tally) passResult {
	pr := passResult{times: make([]time.Duration, len(in.jobs)), maxcolors: make([]int64, len(in.jobs))}
	var sm *obsv.SolveMetrics
	if traced {
		sm = obsv.NewSolveMetrics(obsv.NewRegistry())
		pr.layer = map[string]float64{}
	}
	par := &parallelCounts{}
	var placements, probes int64
	for i, j := range in.jobs {
		opts := &stencilivc.SolveOptions{Parallelism: nproc()}
		var before parallelCounts
		if traced {
			opts.Metrics = sm
			opts.Stats = &core.Stats{}
			before = readParallel(sm)
		}
		c, d, err := runJob(j, opts)
		pr.times[i] = d
		t.attempt()
		if err != nil {
			t.fail("batch %s: %v", j.name, err)
			continue
		}
		if err := c.Validate(j.s); err != nil {
			t.fail("batch %s: invalid coloring: %v", j.name, err)
			continue
		}
		if j.dist != nil {
			if ref, ok := refs[j.name]; ok && !slices.Equal(ref.Start, c.Start) {
				t.fail("batch %s: DistSolve differs from the sequential greedy of the same order", j.name)
				continue
			}
		}
		pr.maxcolors[i] = c.MaxColor(j.s)
		if traced {
			if j.exact {
				placements += opts.Stats.Placements()
				probes += opts.Stats.Probes()
			} else {
				par.add(readParallel(sm).sub(before), int64(j.s.Len()))
			}
			for _, p := range opts.Stats.Phases() {
				if strings.HasPrefix(p.Name, "solve:") {
					continue // the per-job wall time is reported per job
				}
				pr.layer["heuristics.phase_ms."+strings.ReplaceAll(p.Name, "/", ".")] += ms(p.Elapsed)
			}
		}
	}
	if traced {
		pr.layer["core.placements"] = float64(placements)
		pr.layer["core.probes"] = float64(probes)
		pr.layer["parallel.conflicts"] = float64(par.conflicts)
		pr.layer["parallel.repairs"] = float64(par.repairs)
		pr.layer["parallel.repair_rounds"] = float64(par.rounds)
		pr.layer["parallel.steals"] = float64(par.steals)
		pr.layer["parallel.useful_ratio"] = usefulRatio(par.vertices, par.repairs)
		d := sm.Dist
		pr.layer["distsolve.rounds"] = float64(d.Rounds.Value())
		pr.layer["distsolve.msgs_sent"] = float64(d.MsgsSent.Value())
		pr.layer["distsolve.msgs_retried"] = float64(d.MsgsRetried.Value())
		pr.layer["distsolve.fallbacks"] = float64(d.Fallbacks.Value())
		if d.Fallbacks.Value() != 0 {
			t.fail("batch: %d fault-free DistSolve fallbacks, want 0", d.Fallbacks.Value())
		}
	}
	return pr
}

// parallelCounts accumulates the tile-parallel solvers' counters.
type parallelCounts struct {
	conflicts, repairs, rounds, steals, vertices int64
}

func readParallel(m *obsv.SolveMetrics) parallelCounts {
	return parallelCounts{
		conflicts: m.Conflicts.Value(),
		repairs:   m.Repairs.Value(),
		rounds:    m.RepairRounds.Value(),
		steals:    m.Steals.Value(),
	}
}

func (a parallelCounts) sub(b parallelCounts) parallelCounts {
	return parallelCounts{a.conflicts - b.conflicts, a.repairs - b.repairs, a.rounds - b.rounds, a.steals - b.steals, 0}
}

func (a *parallelCounts) add(d parallelCounts, vertices int64) {
	a.conflicts += d.conflicts
	a.repairs += d.repairs
	a.rounds += d.rounds
	a.steals += d.steals
	a.vertices += vertices
}

// distRefs computes the sequential greedy of each DistSolve job's order
// on the same instance: GLL for line order, GLF for weight-desc order.
// It also returns their wall times, the base of distsolve.over_seq_x.
func distRefs(in *batchInstances) (map[string]stencilivc.Coloring, map[string]time.Duration, error) {
	refs := map[string]stencilivc.Coloring{}
	times := map[string]time.Duration{}
	for _, j := range in.jobs {
		if j.dist == nil {
			continue
		}
		c, d, err := runJob(batchJob{alg: j.alg, s: j.s}, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("sequential reference for %s: %w", j.name, err)
		}
		refs[j.name], times[j.name] = c, d
	}
	return refs, times, nil
}

// runBatch is the batch workload. Untraced it times whole passes over
// the mix until the run's seconds are spent (and at least enough passes
// for the latency tail). Traced it alternates untraced and traced
// passes, then probes single layers.
func runBatch(sp *spec, seed uint64, seconds float64, traced bool) (*report, error) {
	rep := newReport()
	var in *batchInstances
	setup, err := timeSetup(sp.SetupRepeats, func() (func(), error) {
		var err error
		in, err = newBatchInstances(sp, seed)
		// Free this setup's inputs before the next one, so repeating the
		// setup does not raise the peak resident set.
		return func() { in = nil; runtime.GC() }, err
	})
	if err != nil {
		return nil, err
	}
	t := &rep.tally
	refs, seqTimes, err := distRefs(in)
	if err != nil {
		return nil, err
	}

	minPasses := (minSamples(sp.Batch.TailQuantile) + len(in.jobs) - 1) / len(in.jobs)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	rt0 := readRuntime()
	var plain, tracedPasses []passResult
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		if traced && pass%2 == 1 {
			tracedPasses = append(tracedPasses, runPass(in, true, refs, t))
			continue
		}
		plain = append(plain, runPass(in, false, refs, t))
	}
	rt1 := readRuntime()
	if traced && len(tracedPasses) == 0 {
		tracedPasses = append(tracedPasses, runPass(in, true, refs, t))
	}

	// End to end, from the untraced passes. solve_s sums each job's
	// median call time: one pass of the mix as it typically runs, with
	// each job's own outliers (host noise lands on a few calls) dropped.
	// A job's latency is its turnaround: the batch is submitted at the
	// start of the pass and the job completes after every job before it
	// in mix order, so latency is the running sum of timed calls.
	var turnaround []float64
	var mcs, lbs []int64
	perJob := make([][]float64, len(in.jobs))
	for _, p := range plain {
		var done time.Duration
		for i, d := range p.times {
			done += d
			turnaround = append(turnaround, ms(done))
			perJob[i] = append(perJob[i], ms(d))
			mcs = append(mcs, p.maxcolors[i])
			lbs = append(lbs, in.jobs[i].lb)
		}
	}
	var solveS float64
	for _, xs := range perJob {
		solveS += median(xs) / 1000
	}
	rep.e2e = map[string]float64{
		"setup_s":         setup,
		"solve_s":         solveS,
		"maxcolor_ratio":  maxcolorRatio(mcs, lbs),
		"latency_p50_ms":  median(turnaround),
		"latency_tail_ms": percentile(turnaround, sp.Batch.TailQuantile),
		"throughput_rps":  float64(len(in.jobs)) / solveS,
		"peak_rss_mb":     peakRSSMiB("self"),
	}
	rep.samples = len(turnaround)
	rep.tailQ = sp.Batch.TailQuantile
	rep.notes = append(rep.notes, fmt.Sprintf("%d jobs x %d untraced passes", len(in.jobs), len(plain)))
	if !traced {
		return rep, nil
	}

	// Per layer, from the traced passes and probes.
	L := rep.layer
	jobMS := func(name string) float64 {
		for i, j := range in.jobs {
			if j.name == name {
				return median(perJob[i])
			}
		}
		return 0
	}
	for i, j := range in.jobs {
		if j.dist == nil {
			L["heuristics.solve_ms."+j.name] = median(perJob[i])
		}
	}
	for k := range tracedPasses[0].layer {
		var vs []float64
		for _, p := range tracedPasses {
			vs = append(vs, p.layer[k])
		}
		L[k] = median(vs)
		if isExact(sp, "batch", k) && slices.Min(vs) != slices.Max(vs) {
			t.fail("batch: exact counter %s differs between passes: %v", k, vs)
		}
	}
	b := sp.Batch
	for _, o := range []string{"line", "weight_desc"} {
		name := fmt.Sprintf("dist%d.%s", b.SideDist, o)
		L["distsolve.solve_ms."+o] = jobMS(name)
		L["distsolve.over_seq_x."+o] = jobMS(name) / ms(seqTimes[name])
	}
	L["parallel.speedup.2d"] = jobMS(fmt.Sprintf("2d%d.GLL", b.Side2D)) / jobMS(fmt.Sprintf("2d%d.PGLL", b.Side2D))
	pgll3, err := medianCall(3, func() (time.Duration, error) {
		_, d, err := runJob(batchJob{alg: stencilivc.PGLL, s: in.r3d}, &stencilivc.SolveOptions{Parallelism: nproc()})
		return d, err
	})
	if err != nil {
		return nil, err
	}
	L["parallel.speedup.3d"] = jobMS(fmt.Sprintf("3d%d.GLL", b.Side3D)) / pgll3
	if L["heuristics.order_ms.2d"], err = medianCall(3, timeIt(func() { heuristics.WeightDescOrder(in.r2d) })); err != nil {
		return nil, err
	}
	if L["heuristics.order_ms.3d"], err = medianCall(3, timeIt(func() { heuristics.WeightDescOrder(in.r3d) })); err != nil {
		return nil, err
	}
	if L["core.place_ns.9pt"], err = placeNS(in.r2d); err != nil {
		return nil, err
	}
	if L["core.place_ns.27pt"], err = placeNS(in.r3d); err != nil {
		return nil, err
	}
	L["runtime.gc_cycles"] = rt1.gcCycles - rt0.gcCycles
	L["runtime.gc_pause_ms"] = (rt1.gcPauseS - rt0.gcPauseS) * 1000
	var plainSums, tracedSums []float64
	for _, p := range plain {
		plainSums = append(plainSums, p.seconds())
	}
	for _, p := range tracedPasses {
		tracedSums = append(tracedSums, p.seconds())
	}
	L["trace.overhead_pct"] = (median(tracedSums)/median(plainSums) - 1) * 100
	return rep, nil
}

// placeNS times core.FitScratch.PlaceLowest over every vertex of s with
// the neighbours' intervals taken from s's GLL coloring (each vertex is
// re-placed with itself lifted out), and returns ns per call, the median
// of three sweeps.
func placeNS(s stencilivc.Stencil) (float64, error) {
	c, err := stencilivc.Solve(stencilivc.GLL, s, nil)
	if err != nil {
		return 0, fmt.Errorf("place probe coloring: %w", err)
	}
	var sc core.FitScratch
	n := s.Len()
	var sink int64
	sweep, err := medianCall(3, timeIt(func() {
		for v := 0; v < n; v++ {
			sink += sc.PlaceLowest(s, c, v, v)
		}
	}))
	if sink < 0 {
		return 0, fmt.Errorf("place probe: negative start")
	}
	return sweep * 1e6 / float64(n), err
}

// timeIt adapts a plain function to medianCall.
func timeIt(f func()) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		f()
		return time.Since(t0), nil
	}
}

// medianCall runs f n times and returns the median wall time in ms.
func medianCall(n int, f func() (time.Duration, error)) (float64, error) {
	var xs []float64
	for range n {
		d, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, ms(d))
	}
	return median(xs), nil
}
