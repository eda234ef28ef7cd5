package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail resting on fewer samples is noise, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a q share of the samples at or below it.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rankOf(len(s), q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond reports how many of n samples lie strictly above the
// q-quantile's rank.
func beyond(n int, q float64) int { return n - rankOf(n, q) }

// tailOK reports whether n samples support the q-quantile: at least
// minBeyond samples lie above it.
func tailOK(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// minSamples is the smallest sample count whose q-quantile has
// minBeyond samples above it.
func minSamples(q float64) int {
	n := minBeyond + 1
	for !tailOK(n, q) {
		n++
	}
	return n
}

// median is the 0.5 percentile with the two middle samples averaged,
// so an even count does not pick one side.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windows splits time-ordered samples into consecutive windows of at
// least size samples each (the remainder joins the last window); it
// returns nil when there are fewer than size samples.
func windows[T any](xs []T, size int) [][]T {
	if size <= 0 || len(xs) < size {
		return nil
	}
	n := len(xs) / size
	out := make([][]T, n)
	for i := range out {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		out[i] = xs[i*size : end]
	}
	return out
}

// windowedMedian is the median over windows of a per-window statistic.
// Reporting a tail this way keeps one burst of host noise, which lands
// in one window, from moving the result: each window's tail still has
// the samples beyond it that its percentile needs.
func windowedMedian(ws [][]float64, stat func([]float64) float64) float64 {
	var per []float64
	for _, w := range ws {
		per = append(per, stat(w))
	}
	return median(per)
}

// openLoopTiming is one open-loop request's schedule: when it was due,
// when the generator actually sent it, and when its reply completed.
type openLoopTiming struct {
	due, sent, done time.Time
}

// latency is the request's latency as its user sees it: from when it
// was due, so a stall that delays later sends is charged to them too.
func (t openLoopTiming) latency() time.Duration { return t.done.Sub(t.due) }

// lag is how late the generator sent the request (never negative).
func (t openLoopTiming) lag() time.Duration { return max(t.sent.Sub(t.due), 0) }

// dueTime is the i-th send time of an open loop at rate req/s from t0.
func dueTime(t0 time.Time, i int, rate float64) time.Time {
	return t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// rung is one step of the max_rps ladder: an open-loop phase at a fixed
// offered rate.
type rung struct {
	rate   float64 // offered req/s
	n      int     // requests sent
	failed int     // requests that failed (shed, non-200, invalid)
	p99ms  float64 // p99 latency from due time
	// backlogEnd is how many requests were due but not yet sent when the
	// rung's last request came due: a queue the generator never drained.
	backlogEnd int
}

// passes is the ladder rule for one rung: the p99 from due time meets
// the limit, the sample supports a p99, nothing failed, and the
// generator ended the rung with less than one limit's worth of requests
// still waiting to be sent (so the backlog did not grow without bound).
func (r rung) passes(limitMS float64) bool {
	maxBacklog := int(r.rate * limitMS / 1000)
	return tailOK(r.n, 0.99) && r.failed == 0 && r.p99ms <= limitMS && r.backlogEnd <= maxBacklog
}

// maxRPS applies the ladder rule: it bisects the ascending ladder of
// fixed rates for the highest rung that passes while the rung above it
// fails, running probe once per visited rung, and returns that rate (0
// when even the lowest rung fails) with the rungs it ran. Bisection
// assumes a rung above a failing rung would fail too; it visits about
// log2(len(ladder)) rungs instead of all of them.
func maxRPS(ladder []float64, limitMS float64, probe func(rate float64) rung) (float64, []rung) {
	lo, hi := -1, len(ladder) // highest known pass, lowest known fail
	var ran []rung
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r := probe(ladder[mid])
		ran = append(ran, r)
		if r.passes(limitMS) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, ran
	}
	return ladder[lo], ran
}

// ratio is num / den over the sums, guarding an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// maxcolorRatio is Σ maxcolor ÷ Σ lower bound over a set of solves: how
// far above the clique bound the returned colorings sit, in aggregate.
func maxcolorRatio(maxcolors, lowerBounds []int64) float64 {
	var mc, lb int64
	for i := range maxcolors {
		mc += maxcolors[i]
		lb += lowerBounds[i]
	}
	return ratio(float64(mc), float64(lb))
}

// usefulRatio is the share of placements the speculative solver did not
// have to redo: vertices ÷ (vertices + repairs).
func usefulRatio(vertices, repairs int64) float64 {
	return ratio(float64(vertices), float64(vertices+repairs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
