package distsolve

import (
	"sync/atomic"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
	"stencilivc/internal/parallel"
)

// Defaults of the distributed round protocol. The retry timeout is
// generous relative to a shard sweep so the happy path rarely
// retransmits; the backoff cap and retry budget bound how long one
// round can stall before the coordinator escalates.
const (
	// DefaultShards is the shard count when Config.Shards is unset.
	DefaultShards = 4
	// DefaultMaxRounds is the floor of the default round budget. The
	// effective default is max(DefaultMaxRounds, gx+gy+gz). Fault-free
	// solves need far fewer: line-order slabs are totally ordered, so k
	// slabs certify within k+1 rounds, and weight-order sweeps converge
	// in a handful independent of size. The headroom is for storms,
	// where lost snapshots and re-homed shards cost extra rounds. The
	// cap only bounds worst-case latency — the fallback computes the
	// identical coloring.
	DefaultMaxRounds = 32
	// DefaultMaxRetries is the per-message retransmission budget.
	DefaultMaxRetries = 6
	// DefaultRetryTimeout is the initial ACK deadline.
	DefaultRetryTimeout = 25 * time.Millisecond
	// DefaultBackoffCap caps the exponential retry backoff.
	DefaultBackoffCap = 200 * time.Millisecond
	// DefaultChaosDelay is how long an injected msg-delay defers a
	// delivery.
	DefaultChaosDelay = 2 * time.Millisecond
)

// Config tunes the distributed sharded solver. The zero value is a
// valid default configuration (4 shards, line order).
type Config struct {
	// Shards is the number of shards to split the grid into; <= 0 picks
	// DefaultShards. The effective count may be lower: line order cuts
	// only the slowest axis with more than one cell, so it gets at most
	// that axis's extent, and weight order gets at most what the
	// per-axis factorization fits into the axis sizes.
	Shards int
	// Order is the global visit order (parallel.OrderLine for GLL,
	// parallel.OrderWeightDesc for GLF); shards sweep their region in
	// this order restricted to the shard.
	Order parallel.Order
	// MaxRounds caps protocol rounds before the sequential fallback;
	// <= 0 picks max(DefaultMaxRounds, sum of grid extents), well above
	// the shards+1 rounds a fault-free line-order solve needs, leaving
	// storms room to recover before the fallback.
	MaxRounds int
	// MaxRetries caps per-message retransmissions; <= 0 picks
	// DefaultMaxRetries.
	MaxRetries int
	// RetryTimeout is the initial ACK deadline; <= 0 picks
	// DefaultRetryTimeout.
	RetryTimeout time.Duration
	// BackoffCap caps the exponential retry backoff; <= 0 picks
	// DefaultBackoffCap.
	BackoffCap time.Duration
	// Delay is the injected msg-delay deferral; <= 0 picks
	// DefaultChaosDelay.
	Delay time.Duration
	// Transport overrides the in-process ChanTransport (tests). The
	// caller owns an injected transport's lifecycle; the solver only
	// closes transports it built itself.
	Transport Transport
}

// sim is the shared read-only wiring of one distributed solve: the
// instance, the shard geometry, the transport, and the observability
// sinks. Nodes hold a pointer to it; all mutable per-shard state lives
// in the nodes themselves.
type sim struct {
	g          core.FixedGraph
	boxes      []box
	gx, gy, gz int
	weightDesc bool
	uniW       int64

	tr Transport
	dm *obsv.DistMetrics
	ev *obsv.EventSink
	// tc is the originating request's flight-recorder context (nil when
	// the solve is untraced): nodes stamp its ids into wire messages and
	// the coordinator records round spans and crash/re-home/fallback
	// events against it.
	tc *obsv.TraceContext
	// otr is the options tracer; each node claims a labeled lane on it so
	// shard activity renders as named rows in the Chrome export.
	otr *obsv.Trace

	reports chan report
	gather  chan dump

	retryTimeout time.Duration
	backoffCap   time.Duration
	maxRetries   int

	// sent counts this solve's first-send data messages, for the
	// fixpoint event (the metrics counter aggregates across solves).
	sent atomic.Int64
}

// Solve colors s with the fault-tolerant distributed sharded solver:
// the grid splits into cfg.Shards regions over rectpart's balanced
// cuts (slabs along the slowest axis for line order), one simulated
// node per shard sweeps its region's dirty cells each round, and
// boundaries reconcile through the message-passing halo exchange. The
// returned coloring is always complete and valid, and — because the
// protocol's fixpoint is pinned to the sequential greedy over the same
// order, and every degraded rung (crash re-homing, retry escalation,
// the round-budget fallback) converges to or directly computes that
// same coloring — it is byte-identical to
// core.GreedyColorOpts(s, order, opts) on every no-fault run and under
// every storm that lets the solve terminate, which the escalation
// ladder guarantees.
//
// Instances that cannot shard (non-grid stencils, a single effective
// shard) solve sequentially. Cancellation is checked at round
// granularity and propagates as the context's error.
func Solve(s grid.Stencil, cfg Config, opts *core.SolveOptions) (core.Coloring, error) {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	fg, ok := s.(core.FixedGraph)
	if !ok || shards <= 1 {
		return core.GreedyColorOpts(s, orderFor(s, cfg), opts)
	}
	boxes, gx, gy, gz, err := decompose(s, shards, cfg.Order != parallel.OrderWeightDesc)
	if err != nil || len(boxes) <= 1 {
		// Undecomposable instances are not failures — they just have no
		// distribution to exploit.
		return core.GreedyColorOpts(s, orderFor(s, cfg), opts)
	}
	return solveSharded(fg, s, cfg, opts, boxes, gx, gy, gz)
}

// orderFor is the sequential visit order matching cfg.Order, shared by
// the single-shard path and the fallback rungs so every path produces
// the same bytes.
func orderFor(s grid.Stencil, cfg Config) []int {
	if cfg.Order == parallel.OrderWeightDesc {
		return core.WeightDescOrder(s)
	}
	return s.LineOrder()
}

// solveSharded runs the round protocol proper. See doc.go for the
// protocol and DESIGN.md §16 for why the termination check is sound.
func solveSharded(fg core.FixedGraph, st grid.Stencil, cfg Config, opts *core.SolveOptions, boxes []box, gx, gy, gz int) (core.Coloring, error) {
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = max(DefaultMaxRounds, gx+gy+gz)
	}
	sm := &sim{
		g:            fg,
		boxes:        boxes,
		gx:           gx,
		gy:           gy,
		gz:           gz,
		weightDesc:   cfg.Order == parallel.OrderWeightDesc,
		retryTimeout: cfg.RetryTimeout,
		backoffCap:   cfg.BackoffCap,
		maxRetries:   cfg.MaxRetries,
		reports:      make(chan report, len(boxes)),
		gather:       make(chan dump, len(boxes)),
		ev:           opts.EventLog(),
		tc:           opts.FlightCtx(),
		otr:          opts.Tracer(),
	}
	if sm.retryTimeout <= 0 {
		sm.retryTimeout = DefaultRetryTimeout
	}
	if sm.backoffCap <= 0 {
		sm.backoffCap = DefaultBackoffCap
	}
	if sm.maxRetries <= 0 {
		sm.maxRetries = DefaultMaxRetries
	}
	if m := opts.Meters(); m != nil {
		sm.dm = m.Dist
	}
	if sm.dm == nil {
		sm.dm = &obsv.DistMetrics{} // nil counters are no-ops
	}
	if w, ok := core.UniformWeight(fg); ok {
		sm.uniW = w
	}
	inj := opts.Faults()
	delay := cfg.Delay
	if delay <= 0 {
		delay = DefaultChaosDelay
	}
	var ownTr *ChanTransport
	sm.tr = cfg.Transport
	if sm.tr == nil {
		ownTr = NewChanTransport(len(boxes), inj, sm.dm, delay)
		sm.tr = ownTr
	}

	type handle struct {
		n       *node
		rehomed bool
	}
	hs := make([]*handle, len(boxes))
	for id, b := range boxes {
		hs[id] = &handle{n: newNode(id, b, sm)}
	}
	for _, h := range hs {
		go h.n.run()
	}
	stopped := false
	stopAll := func() {
		if stopped {
			return
		}
		stopped = true
		for _, h := range hs {
			h.n.ctrl <- ctrlMsg{kind: ctrlStop}
			<-h.n.done
		}
		if ownTr != nil {
			ownTr.Close()
		}
	}
	defer stopAll()

	// rehome moves shard id onto a fresh replacement node: the old
	// goroutine is stopped synchronously (so exactly one goroutine ever
	// drains the shard's inbox), the region restarts from Unset, and
	// the replacement's sends turn reliable. Returns false when the
	// shard was already re-homed — the fence that turns repeated
	// trouble into the global fallback instead of a crash loop.
	rehome := func(id int, round int64, reason string) bool {
		h := hs[id]
		if h.rehomed {
			return false
		}
		h.n.ctrl <- ctrlMsg{kind: ctrlStop}
		<-h.n.done
		if rm, ok := sm.tr.(interface{ MarkReliable(int) }); ok {
			rm.MarkReliable(id)
		}
		h.n = newNode(id, boxes[id], sm)
		h.rehomed = true
		go h.n.run()
		sm.dm.Rehomes.Add(1)
		sm.ev.DistRehome(id, int(round), reason)
		sm.tc.Event("dist.rehome", reason, int64(id))
		return true
	}

	fallback := func(reason string) (core.Coloring, error) {
		sm.dm.Fallbacks.Add(1)
		if m := opts.Meters(); m != nil {
			m.Fallbacks.Add(1)
		}
		sm.ev.Fallback("distsolve", reason)
		sm.tc.Event("dist.fallback", reason, 0)
		stopAll()
		defer core.StartPhase(opts, "distsolve/seq-fallback")()
		return core.GreedyColorOpts(st, orderFor(st, cfg), opts)
	}

	sm.ev.DistStart(len(boxes), maxRounds)
	done := core.StartPhase(opts, "distsolve/rounds")

	// prevOK records whether the previous round's exchange was fully
	// acknowledged. Certifying the fixpoint needs TWO clean exchanges
	// back to back: the previous round's (so every sweep this round saw
	// its neighbors' current values) and this round's (so no boundary
	// message is outstanding when fixpoint is declared).
	prevOK := false
	var round int64
	for round = 1; ; round++ {
		if err := opts.Err(); err != nil {
			done()
			return core.Coloring{}, err
		}
		if round > int64(maxRounds) {
			done()
			return fallback("round budget exhausted before fixpoint")
		}
		// Each protocol round is one flight span (arg = round number), so
		// a /debug/flight dump shows how a stormed request's rounds — and
		// the crash/re-home/retry events inside them — spent their time.
		rs := sm.tc.Start("dist/round")
		// Crash injection: consulted once per live original node, in
		// node-id order, at the barrier — deterministic for a seeded
		// schedule. Re-homed shards are fenced.
		if inj != nil {
			for id, h := range hs {
				if h.rehomed {
					continue
				}
				if core.InjectTraced(inj, SiteShardCrash, sm.tc.TraceID()) {
					sm.dm.ShardCrashes.Add(1)
					sm.ev.DistCrash(id, int(round))
					sm.tc.Event("dist.crash", "", int64(id))
					rehome(id, round, "crashed")
				}
			}
		}
		for _, h := range hs {
			h.n.ctrl <- ctrlMsg{kind: ctrlRound, round: round}
		}
		var changed int64
		exchangeOK := true
		var failures []report
		for range hs {
			r := <-sm.reports
			changed += r.changed
			if len(r.failed) > 0 {
				exchangeOK = false
				failures = append(failures, r)
			}
		}
		sm.dm.Rounds.Add(1)
		sm.ev.DistRound(int(round), changed, exchangeOK)
		// Escalation ladder for exhausted retries: first suspect the
		// silent destination, then the sender's lossy uplink; when both
		// ends already run reliable, the protocol cannot help — bedrock.
		for _, r := range failures {
			for _, dest := range r.failed {
				if rehome(dest, round, "unresponsive to peer retries") {
					continue
				}
				if rehome(r.node, round, "sends exhausted retries against a reliable peer") {
					continue
				}
				rs.EndDetail("retry exhaustion", round)
				done()
				return fallback("retry exhaustion between re-homed shards")
			}
		}
		rs.EndDetail("", round)
		if changed == 0 && exchangeOK && prevOK {
			break
		}
		prevOK = exchangeOK
	}
	done()
	sm.ev.DistFixpoint(int(round), sm.sent.Load())

	defer core.StartPhase(opts, "distsolve/gather")()
	c := core.NewColoring(st.Len())
	for _, h := range hs {
		h.n.ctrl <- ctrlMsg{kind: ctrlGather}
	}
	for range hs {
		d := <-sm.gather
		for i, v := range d.verts {
			c.Start[v] = d.starts[i]
		}
	}
	stopAll()
	return c, nil
}
