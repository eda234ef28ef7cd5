package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000) // 1..1000
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%v of 1..1000 = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Fatal("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.99, 1000}, {0.9, 100}, {0.95, 200}, {0.5, 20}} {
		if got := minSamples(c.q); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.want)
		}
		if tailOK(c.want-1, c.q) {
			t.Errorf("tailOK(%d, %v) should fail: only %d samples beyond", c.want-1, c.q, beyond(c.want-1, c.q))
		}
		if b := beyond(c.want, c.q); b != minBeyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.want, c.q, b, minBeyond)
		}
	}
}

func TestMedianAveragesMiddlePair(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestWindowsKeepTailSamples(t *testing.T) {
	xs := seq(2500)
	ws := windows(xs, minSamples(0.99))
	if len(ws) != 2 || len(ws[0]) != 1000 || len(ws[1]) != 1500 {
		t.Fatalf("windows of 2500 by 1000 = %d windows, sizes %d/%d; want 1000 and 1500", len(ws), len(ws[0]), len(ws[len(ws)-1]))
	}
	for _, w := range ws {
		if !tailOK(len(w), 0.99) {
			t.Errorf("window of %d samples cannot support a p99", len(w))
		}
	}
	if windows(xs[:999], 1000) != nil {
		t.Error("999 samples should give no 1000-sample window")
	}
	// One window spoiled by a burst does not move the median of three.
	burst := append(append(seq(1000), seq(1000)...), make([]float64, 1000)...)
	for i := 2000; i < 3000; i++ {
		burst[i] = 1e6
	}
	got := windowedMedian(windows(burst, 1000), func(w []float64) float64 { return percentile(w, 0.99) })
	if got != 990 {
		t.Errorf("windowed p99 with one burst window = %v, want 990", got)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// At 500 req/s request 3 is due 6 ms in.
	due := dueTime(t0, 3, 500)
	if got := due.Sub(t0); got != 6*time.Millisecond {
		t.Fatalf("due offset = %v, want 6ms", got)
	}
	// Sent 4 ms late (both connections were busy), answered 2 ms later:
	// the user waited 6 ms, of which 4 ms was the generator's lag.
	tm := openLoopTiming{due: due, sent: due.Add(4 * time.Millisecond), done: due.Add(6 * time.Millisecond)}
	if got := tm.latency(); got != 6*time.Millisecond {
		t.Errorf("latency = %v, want 6ms (from due, not from send)", got)
	}
	if got := tm.lag(); got != 4*time.Millisecond {
		t.Errorf("lag = %v, want 4ms", got)
	}
	// A send ahead of schedule is no lag.
	early := openLoopTiming{due: due, sent: due.Add(-time.Millisecond), done: due.Add(time.Millisecond)}
	if got := early.lag(); got != 0 {
		t.Errorf("early lag = %v, want 0", got)
	}
}

func TestRungPasses(t *testing.T) {
	cases := []struct {
		name string
		r    rung
		want bool
	}{
		{"meets the limit", rung{rate: 200, n: 1000, p99ms: 10}, true},
		{"p99 over the limit", rung{rate: 200, n: 1000, p99ms: 10.5}, false},
		{"backlog within one limit's worth", rung{rate: 200, n: 1000, p99ms: 5, backlogEnd: 2}, true},
		{"growing backlog", rung{rate: 200, n: 1000, p99ms: 5, backlogEnd: 3}, false},
		{"a failed request", rung{rate: 200, n: 1000, p99ms: 5, failed: 1}, false},
		{"too few samples for a p99", rung{rate: 200, n: 999, p99ms: 5}, false},
	}
	for _, c := range cases {
		if got := c.r.passes(10); got != c.want {
			t.Errorf("%s: passes = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMaxRPSLadderRule(t *testing.T) {
	ladder := []float64{100, 200, 300, 400, 500, 600, 700}
	// A daemon whose p99 crosses 10 ms above capacity: rates up to cap
	// pass, the rest fail.
	probeUpTo := func(capacity float64, visited *[]float64) func(float64) rung {
		return func(rate float64) rung {
			*visited = append(*visited, rate)
			p99 := 5.0
			if rate > capacity {
				p99 = 50
			}
			return rung{rate: rate, n: 1000, p99ms: p99}
		}
	}
	for _, c := range []struct {
		capacity, want float64
	}{{450, 400}, {700, 700}, {1e9, 700}, {100, 100}, {50, 0}, {600, 600}} {
		var visited []float64
		got, ran := maxRPS(ladder, 10, probeUpTo(c.capacity, &visited))
		if got != c.want {
			t.Errorf("capacity %v: maxRPS = %v, want %v (visited %v)", c.capacity, got, c.want, visited)
		}
		if len(ran) != len(visited) || len(ran) > 3 {
			t.Errorf("capacity %v: ran %d rungs, want one per visit and at most 3 for 7 rungs", c.capacity, len(ran))
		}
	}
	// The answer is a passing rung whose upper neighbour failed, even if
	// a noisy lower rung would have failed had it been run.
	got, _ := maxRPS(ladder, 10, func(rate float64) rung {
		p99 := 5.0
		if rate == 200 || rate > 500 {
			p99 = 50
		}
		return rung{rate: rate, n: 1000, p99ms: p99}
	})
	if got != 500 {
		t.Errorf("maxRPS with a blip below the knee = %v, want 500", got)
	}
}

func TestMaxcolorAndUsefulRatios(t *testing.T) {
	if got := maxcolorRatio([]int64{120, 80}, []int64{100, 100}); got != 1 {
		t.Errorf("maxcolorRatio = %v, want 1 (ratio of sums, not mean of ratios)", got)
	}
	if got := maxcolorRatio([]int64{30, 10}, []int64{20, 20}); got != 1 {
		t.Errorf("maxcolorRatio = %v, want 1", got)
	}
	if got := maxcolorRatio([]int64{150}, []int64{100}); got != 1.5 {
		t.Errorf("maxcolorRatio = %v, want 1.5", got)
	}
	if !math.IsNaN(maxcolorRatio(nil, nil)) {
		t.Error("maxcolorRatio of nothing should be NaN")
	}
	if got := usefulRatio(900, 100); got != 0.9 {
		t.Errorf("usefulRatio = %v, want 0.9", got)
	}
	if got := usefulRatio(1000, 0); got != 1 {
		t.Errorf("usefulRatio without repairs = %v, want 1", got)
	}
}
