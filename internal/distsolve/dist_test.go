package distsolve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"stencilivc/internal/chaos"
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
	"stencilivc/internal/parallel"
)

// stormTuning keeps chaos tests fast: tiny ACK deadlines so retry
// exhaustion and escalation happen in milliseconds, not seconds.
func stormTuning(cfg Config) Config {
	cfg.RetryTimeout = 2 * time.Millisecond
	cfg.BackoffCap = 8 * time.Millisecond
	cfg.Delay = time.Millisecond
	return cfg
}

// weighted2D returns an x by y grid with varied weights.
func weighted2D(x, y int) *grid.Grid2D {
	g := grid.MustGrid2D(x, y)
	for v := range g.W {
		g.W[v] = int64(v%7) + 1
	}
	return g
}

// weighted3D returns an x by y by z grid with varied weights.
func weighted3D(x, y, z int) *grid.Grid3D {
	g := grid.MustGrid3D(x, y, z)
	for v := range g.W {
		g.W[v] = int64(v%5) + 1
	}
	return g
}

// sequential computes the reference coloring: the sequential greedy
// over the same global order the distributed protocol is pinned to.
func sequential(t *testing.T, s grid.Stencil, ord parallel.Order) core.Coloring {
	t.Helper()
	want, err := core.GreedyColorOpts(s, orderFor(s, Config{Order: ord}), nil)
	if err != nil {
		t.Fatalf("sequential reference: %v", err)
	}
	return want
}

// assertIdentical fails unless got is byte-identical to the sequential
// reference (and therefore valid).
func assertIdentical(t *testing.T, s grid.Stencil, got, want core.Coloring) {
	t.Helper()
	if err := got.Validate(s.(core.Graph)); err != nil {
		t.Fatalf("distributed result invalid: %v", err)
	}
	if !slices.Equal(got.Start, want.Start) {
		for i := range want.Start {
			if got.Start[i] != want.Start[i] {
				t.Fatalf("coloring diverges from sequential greedy at v=%d: got %d want %d",
					i, got.Start[i], want.Start[i])
			}
		}
	}
}

func newMetrics() *obsv.SolveMetrics {
	return obsv.NewSolveMetrics(obsv.NewRegistry())
}

// TestEquivalenceNoFault: on fault-free runs the distributed solve is
// byte-identical to the sequential greedy for every shard count, both
// global orders, 2D and 3D, including degenerate shapes (strips, grids
// smaller than the shard count, zero-weight regions) — and it gets
// there through the round protocol, never the fallback.
func TestEquivalenceNoFault(t *testing.T) {
	zw := grid.MustGrid2D(16, 16) // top half zero-weight
	for v := range zw.W {
		if v/16 < 8 {
			zw.W[v] = int64(v%3) + 1
		}
	}
	allZero := grid.MustGrid2D(9, 9)
	instances := []struct {
		name string
		s    grid.Stencil
	}{
		{"2d-40x40", weighted2D(40, 40)},
		{"2d-strip-1x64", weighted2D(1, 64)},
		{"2d-strip-64x1", weighted2D(64, 1)},
		{"2d-tiny-3x3", weighted2D(3, 3)},
		{"2d-zero-top-half", zw},
		{"2d-all-zero-weights", allZero},
		{"3d-10x8x6", weighted3D(10, 8, 6)},
	}
	for _, tc := range instances {
		for _, shards := range []int{2, 4, 7, 16} {
			for _, ord := range []parallel.Order{parallel.OrderLine, parallel.OrderWeightDesc} {
				t.Run(fmt.Sprintf("%s/shards=%d/order=%d", tc.name, shards, ord), func(t *testing.T) {
					m := newMetrics()
					got, err := Solve(tc.s, Config{Shards: shards, Order: ord}, &core.SolveOptions{Metrics: m})
					if err != nil {
						t.Fatal(err)
					}
					assertIdentical(t, tc.s, got, sequential(t, tc.s, ord))
					if fb := m.Dist.Fallbacks.Value(); fb != 0 {
						t.Errorf("no-fault run used the fallback %d times; identity must come from the fixpoint", fb)
					}
				})
			}
		}
	}
}

// TestLineOrderRoundsBounded: line-order shards are slabs along the
// slowest axis, totally ordered in the global order, so slab i is final
// after i+1 rounds and a no-fault solve certifies within shards+2
// rounds whatever the grid extent.
func TestLineOrderRoundsBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    grid.Stencil
	}{
		{"2d-64x64", weighted2D(64, 64)},
		{"3d-16x16x8", weighted3D(16, 16, 8)},
	} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				m := newMetrics()
				got, err := Solve(tc.s, Config{Shards: shards}, &core.SolveOptions{Metrics: m})
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, tc.s, got, sequential(t, tc.s, parallel.OrderLine))
				if fb := m.Dist.Fallbacks.Value(); fb != 0 {
					t.Errorf("no-fault run used the fallback %d times; identity must come from the fixpoint", fb)
				}
				if r := m.Dist.Rounds.Value(); r > int64(shards+2) {
					t.Errorf("certified after %d rounds, want <= shards+2 = %d", r, shards+2)
				}
			})
		}
	}
}

// TestStormMatrix: each chaos site alone, and all four together, on 2D
// and 3D instances. Every storm run must terminate, validate, stay
// byte-identical to the sequential greedy, and leave the expected
// fault/recovery counters nonzero.
func TestStormMatrix(t *testing.T) {
	arm := func(in *chaos.Injector, site core.FaultSite) *chaos.Injector {
		switch site {
		case SiteShardCrash:
			return in.OnNth(site, 1) // permanent crash of shard 0, round 1
		default:
			return in.WithProb(site, 0.2)
		}
	}
	counter := func(m *obsv.SolveMetrics, site core.FaultSite) *obsv.Counter {
		switch site {
		case SiteMsgDrop:
			return m.Dist.MsgsDropped
		case SiteMsgDup:
			return m.Dist.MsgsDuplicated
		case SiteMsgDelay:
			return m.Dist.MsgsDelayed
		default:
			return m.Dist.ShardCrashes
		}
	}
	sites := []core.FaultSite{SiteMsgDrop, SiteMsgDup, SiteMsgDelay, SiteShardCrash}
	instances := []struct {
		name string
		s    grid.Stencil
	}{
		{"2d", weighted2D(24, 24)},
		{"3d", weighted3D(8, 8, 4)},
	}
	for _, tc := range instances {
		for _, site := range sites {
			t.Run(fmt.Sprintf("%s/%s", tc.name, site), func(t *testing.T) {
				inj := arm(chaos.New(7), site)
				m := newMetrics()
				got, err := Solve(tc.s, stormTuning(Config{Shards: 4}),
					&core.SolveOptions{Injector: inj, Metrics: m})
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, tc.s, got, sequential(t, tc.s, parallel.OrderLine))
				if c := counter(m, site); c.Value() == 0 {
					t.Errorf("site %s never took effect (injector: %s)", site, inj)
				}
				if site == SiteShardCrash {
					if m.Dist.Rehomes.Value() == 0 {
						t.Error("crashed shard was never re-homed")
					}
				}
			})
		}
		t.Run(tc.name+"/all-four", func(t *testing.T) {
			inj := chaos.New(11).
				WithProb(SiteMsgDrop, 0.15).
				WithProb(SiteMsgDup, 0.15).
				WithProb(SiteMsgDelay, 0.15).
				OnNth(SiteShardCrash, 2)
			m := newMetrics()
			got, err := Solve(tc.s, stormTuning(Config{Shards: 4}),
				&core.SolveOptions{Injector: inj, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, tc.s, got, sequential(t, tc.s, parallel.OrderLine))
			for _, site := range sites {
				if c := counter(m, site); c.Value() == 0 {
					t.Errorf("site %s never took effect under the combined storm", site)
				}
			}
			if m.Dist.Rehomes.Value() == 0 {
				t.Error("combined storm: crashed shard was never re-homed")
			}
			if m.Dist.MsgsRetried.Value() == 0 {
				t.Error("combined storm: drops never provoked a retry")
			}
		})
	}
}

// TestEveryShardCrashes: a schedule that crashes every original node on
// its first consultation. All shards re-home, replacements run
// reliable, and the solve still converges to the exact sequential
// coloring.
func TestEveryShardCrashes(t *testing.T) {
	g := weighted2D(20, 20)
	inj := chaos.New(3).WithProb(SiteShardCrash, 1.0)
	m := newMetrics()
	got, err := Solve(g, stormTuning(Config{Shards: 4}), &core.SolveOptions{Injector: inj, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, g, got, sequential(t, g, parallel.OrderLine))
	if c := m.Dist.ShardCrashes.Value(); c != 4 {
		t.Errorf("shard crashes = %d, want 4 (one per shard, then fenced)", c)
	}
	if c := m.Dist.Rehomes.Value(); c != 4 {
		t.Errorf("re-homes = %d, want 4", c)
	}
}

// TestTotalMessageLossEscalates: every chaos-eligible send is dropped.
// Retries exhaust, the escalation ladder re-homes shards onto reliable
// transports round by round, and the result is still byte-identical —
// possibly via the bedrock fallback if escalation runs out of rungs.
func TestTotalMessageLossEscalates(t *testing.T) {
	g := weighted2D(16, 16)
	inj := chaos.New(5).WithProb(SiteMsgDrop, 1.0)
	m := newMetrics()
	cfg := stormTuning(Config{Shards: 4, MaxRetries: 2})
	got, err := Solve(g, cfg, &core.SolveOptions{Injector: inj, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, g, got, sequential(t, g, parallel.OrderLine))
	if m.Dist.MsgsRetried.Value() == 0 {
		t.Error("total loss provoked no retries")
	}
	if m.Dist.Rehomes.Value() == 0 && m.Dist.Fallbacks.Value() == 0 {
		t.Error("total loss triggered neither re-homing nor the fallback")
	}
}

// TestRoundBudgetFallsBack: a 1-round budget cannot certify a fixpoint
// (certification needs two clean exchanges), so the solve must take the
// sequential fallback — and still return the identical bytes.
func TestRoundBudgetFallsBack(t *testing.T) {
	g := weighted2D(24, 24)
	m := newMetrics()
	got, err := Solve(g, Config{Shards: 4, MaxRounds: 1}, &core.SolveOptions{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, g, got, sequential(t, g, parallel.OrderLine))
	if m.Dist.Fallbacks.Value() != 1 {
		t.Errorf("fallbacks = %d, want 1", m.Dist.Fallbacks.Value())
	}
	if m.Fallbacks.Value() == 0 {
		t.Error("solver-level fallback counter not bumped")
	}
}

// TestCancellation: a cancelled context surfaces as its error at the
// next round boundary, and the solver shuts its nodes and transport
// down cleanly (the race detector would flag leaks into t teardown).
func TestCancellation(t *testing.T) {
	g := weighted2D(32, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(g, Config{Shards: 4}, &core.SolveOptions{Ctx: ctx})
	if err == nil {
		t.Fatal("cancelled solve returned nil error")
	}
	if ctx.Err() == nil || err.Error() != ctx.Err().Error() {
		t.Fatalf("got %v, want the context error", err)
	}
}

// TestSingleShardAndNonGridFallThrough: shard counts that cannot split
// the instance solve sequentially without touching the distributed
// machinery (no rounds, no fallback counters).
func TestSingleShardAndNonGridFallThrough(t *testing.T) {
	g := weighted2D(8, 8)
	want := sequential(t, g, parallel.OrderLine)
	for _, shards := range []int{0, 1} {
		m := newMetrics()
		got, err := Solve(g, Config{Shards: shards, MaxRounds: 1}, &core.SolveOptions{Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		// Shards=0 defaults to 4 and runs distributed; shards=1 must not.
		if shards == 1 && m.Dist.Rounds.Value() != 0 {
			t.Errorf("shards=1 ran %d protocol rounds, want 0", m.Dist.Rounds.Value())
		}
		assertIdentical(t, g, got, want)
	}
}

// TestSeededStormDeterminism: the same seed and instance produce the
// same injector decisions and the same (sequential-identical) coloring
// twice. Counters that depend only on the seeded schedule must agree.
func TestSeededStormDeterminism(t *testing.T) {
	run := func() (core.Coloring, int64) {
		g := weighted2D(20, 20)
		inj := chaos.New(42).WithProb(SiteMsgDrop, 0.3).OnNth(SiteShardCrash, 1)
		m := newMetrics()
		c, err := Solve(g, stormTuning(Config{Shards: 4}), &core.SolveOptions{Injector: inj, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		return c, m.Dist.ShardCrashes.Value()
	}
	c1, crashes1 := run()
	c2, crashes2 := run()
	if !slices.Equal(c1.Start, c2.Start) {
		t.Error("same seed produced different colorings")
	}
	if crashes1 != crashes2 || crashes1 != 1 {
		t.Errorf("crash counts differ or wrong: %d vs %d, want 1", crashes1, crashes2)
	}
}

// TestDistEvents: the solve emits the dist.* event stream — start,
// rounds, and a terminal fixpoint — with the crash/re-home pair when a
// shard dies.
func TestDistEvents(t *testing.T) {
	g := weighted2D(16, 16)
	var buf bytes.Buffer
	sink := obsv.NewJSONEventSink(&buf)
	inj := chaos.New(9).OnNth(SiteShardCrash, 1)
	_, err := Solve(g, stormTuning(Config{Shards: 4}),
		&core.SolveOptions{Events: sink, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		msgs = append(msgs, e.Msg)
	}
	for _, want := range []string{"dist.start", "dist.round", "dist.crash", "dist.rehome", "dist.fixpoint"} {
		if !slices.Contains(msgs, want) {
			t.Errorf("event %q missing from stream %v", want, msgs)
		}
	}
}
