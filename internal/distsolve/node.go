package distsolve

import (
	"fmt"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/parallel"
)

// ctrlKind discriminates the coordinator's control-plane commands.
// Control runs over per-node Go channels and is reliable by design:
// only the halo data plane rides the chaos-instrumented Transport.
type ctrlKind uint8

const (
	// ctrlRound starts one compute/exchange round.
	ctrlRound ctrlKind = iota + 1
	// ctrlGather asks the node to hand its region to the coordinator.
	ctrlGather
	// ctrlStop terminates the node's goroutine (crash or shutdown).
	ctrlStop
)

// ctrlMsg is one coordinator command.
type ctrlMsg struct {
	kind  ctrlKind
	round int64
}

// report is a node's round-barrier answer: how many of its vertices
// changed this sweep and which destinations never acknowledged its
// snapshot (retry exhaustion — empty on the happy path).
type report struct {
	node    int
	round   int64
	changed int64
	failed  []int
}

// dump hands a node's region to the coordinator at gather time: the
// global vertex ids in sweep order and their final starts, index-
// aligned with verts.
type dump struct {
	verts  []int
	starts []int64
}

// node is one simulated shard worker. All of its state is goroutine-
// local; it talks to peers only through the Transport and to the
// coordinator only through its control/report channels.
type node struct {
	id int
	b  box
	s  *sim

	// verts is the region in sweep order (ascending global id for line
	// order, weight-descending with id tie-break for GLF order); starts
	// is index-aligned with the region's geometric layout (regionIdx).
	verts  []int
	starts []int64

	// halo caches the last applied boundary snapshot values of remote
	// cells; lastApplied[q] is the highest data sequence applied from
	// node q (the dedup watermark).
	halo        map[int]int64
	lastApplied []int64

	// peers lists adjacent shard ids; sendCells[q] the cells of this
	// region that shard q can see (its inbound halo).
	peers     []int
	sendCells map[int][]int

	ctrl  chan ctrlMsg
	inbox <-chan Message
	// done closes when the goroutine exits, so the coordinator can
	// hand a shard off to a replacement without two goroutines ever
	// draining the same inbox concurrently.
	done chan struct{}

	// lane is the node's labeled row on the options tracer (0 when
	// untraced), so shard activity renders named in the Chrome export.
	lane int

	pl parallel.Placer
}

// newNode builds the node for shard id over box b, wiring its transport
// inbox and precomputing the sweep order and per-peer boundary lists.
func newNode(id int, b box, s *sim) *node {
	n := &node{
		id:          id,
		b:           b,
		s:           s,
		halo:        map[int]int64{},
		lastApplied: make([]int64, len(s.boxes)),
		sendCells:   map[int][]int{},
		ctrl:        make(chan ctrlMsg, 4),
		inbox:       s.tr.Recv(id),
		done:        make(chan struct{}),
		pl:          parallel.Placer{},
	}
	n.pl.Reset(s.g, s.uniW)
	if s.otr != nil {
		n.lane = s.otr.Lane()
		s.otr.LabelLane(n.lane, fmt.Sprintf("dist/shard-%d", id))
	}
	n.verts = make([]int, 0, b.cells())
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			for i := b.X0; i < b.X1; i++ {
				n.verts = append(n.verts, (k*s.gy+j)*s.gx+i)
			}
		}
	}
	if s.weightDesc {
		// Cells were appended ascending, so weight ties stay by id.
		var ord core.OrderScratch
		ord.SortWeightDesc(s.g, n.verts)
	}
	n.starts = make([]int64, b.cells())
	for i := range n.starts {
		n.starts[i] = core.Unset
	}
	if !b.empty() {
		for q, qb := range s.boxes {
			if q == id || qb.empty() {
				continue
			}
			if cells := boundaryCells(b, qb, s.gx, s.gy, s.gz); len(cells) > 0 {
				n.peers = append(n.peers, q)
				n.sendCells[q] = cells
			}
		}
	}
	return n
}

// regionIdx maps a global vertex id inside the box to its slot in
// starts (row-major within the box).
func (n *node) regionIdx(v int) int {
	i := v % n.s.gx
	j := (v / n.s.gx) % n.s.gy
	k := v / (n.s.gx * n.s.gy)
	b := n.b
	return ((k-b.Z0)*(b.Y1-b.Y0)+(j-b.Y0))*(b.X1-b.X0) + (i - b.X0)
}

// read returns the value the node currently believes vertex u has:
// its own region for local cells, the halo cache for remote ones,
// Unset when no snapshot has mentioned u yet (unknown = unconstrained;
// the fixpoint certification makes that safe).
func (n *node) read(u int) int64 {
	i := u % n.s.gx
	j := (u / n.s.gx) % n.s.gy
	k := u / (n.s.gx * n.s.gy)
	if n.b.contains(i, j, k) {
		return n.starts[n.regionIdx(u)]
	}
	if s, ok := n.halo[u]; ok {
		return s
	}
	return core.Unset
}

// earlier reports whether u precedes v in the global visit order — the
// only neighbors a placement may observe. Restricting observation to
// earlier vertices is what pins the protocol's fixpoint to the
// sequential greedy coloring.
func (n *node) earlier(u, v int) bool {
	if !n.s.weightDesc {
		return u < v // line order is ascending vertex id
	}
	wu, wv := n.s.g.Weight(u), n.s.g.Weight(v)
	return wu > wv || (wu == wv && u < v)
}

// sweep recomputes the whole region in sweep order (Gauss–Seidel:
// later placements see this round's values of earlier local cells) and
// returns how many vertices changed.
func (n *node) sweep() (changed int64) {
	g := n.s.g
	for _, v := range n.verts {
		pl := &n.pl
		for _, u := range pl.Begin(v) {
			if !n.earlier(u, v) {
				continue
			}
			pl.Observe(n.read(u), g.Weight(u))
		}
		s := pl.Commit(g.Weight(v))
		ri := n.regionIdx(v)
		if n.starts[ri] != s {
			n.starts[ri] = s
			changed++
		}
	}
	return changed
}

// snapshot builds the fresh boundary snapshot for peer q. A new slice
// every round: retries and injected duplicates of older rounds may
// still be read concurrently by the receiver, so snapshots are never
// reused.
func (n *node) snapshot(q int) []HaloCell {
	cells := n.sendCells[q]
	out := make([]HaloCell, len(cells))
	for i, v := range cells {
		out[i] = HaloCell{V: v, Start: n.starts[n.regionIdx(v)]}
	}
	return out
}

// handle processes one inbound message. Data: apply if its sequence
// exceeds the sender's watermark (full snapshots make application
// idempotent), then ACK unconditionally — re-ACKing duplicates is what
// heals lost ACKs. ACKs are returned to the caller (exchange matches
// them against its pending sends; the idle loop discards them).
func (n *node) handle(m Message) (ack Message, isAck bool) {
	switch m.Kind {
	case MsgData:
		if m.Seq > n.lastApplied[m.From] {
			for _, c := range m.Cells {
				n.halo[c.V] = c.Start
			}
			n.lastApplied[m.From] = m.Seq
			n.s.dm.HaloCells.Add(int64(len(m.Cells)))
		} else {
			n.s.dm.MsgsDeduped.Add(1)
		}
		n.s.tr.Send(Message{Kind: MsgAck, From: n.id, To: m.From, Seq: m.Seq,
			Trace: m.Trace, Span: m.Span})
	case MsgAck:
		n.s.dm.Acks.Add(1)
		return m, true
	}
	return Message{}, false
}

// pendingSend tracks one unacknowledged snapshot during exchange.
type pendingSend struct {
	msg      Message
	deadline time.Time
	backoff  time.Duration
	retries  int
}

// exchange sends this round's snapshot to every peer and drives the
// ACK / retry loop: deadline-aware retransmission with capped
// exponential backoff, servicing the inbox throughout (so peers'
// snapshots are applied and ACKed even while this node waits). It
// returns the peers whose ACK never arrived within MaxRetries — the
// coordinator escalates those to re-homing or the global fallback.
// The loop is bounded (retries are capped), so a round barrier always
// completes.
func (n *node) exchange(round int64) (failed []int) {
	s := n.s
	pending := make([]*pendingSend, 0, len(n.peers))
	for _, q := range n.peers {
		m := Message{Kind: MsgData, From: n.id, To: q, Seq: round,
			Trace: s.tc.TraceID(), Span: s.tc.SpanID(), Cells: n.snapshot(q)}
		s.tr.Send(m)
		s.dm.MsgsSent.Add(1)
		pending = append(pending, &pendingSend{
			msg:      m,
			deadline: time.Now().Add(s.retryTimeout),
			backoff:  s.retryTimeout,
		})
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for len(pending) > 0 {
		earliest := pending[0].deadline
		for _, p := range pending[1:] {
			if p.deadline.Before(earliest) {
				earliest = p.deadline
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(max(time.Until(earliest), 0))
		select {
		case m := <-n.inbox:
			if ack, ok := n.handle(m); ok && ack.Seq == round {
				for i, p := range pending {
					if p.msg.To == ack.From {
						pending = append(pending[:i], pending[i+1:]...)
						break
					}
				}
			}
		case <-timer.C:
			now := time.Now()
			live := pending[:0]
			for _, p := range pending {
				if !p.deadline.After(now) {
					p.retries++
					if p.retries > s.maxRetries {
						failed = append(failed, p.msg.To)
						continue
					}
					s.tr.Send(p.msg)
					s.dm.MsgsRetried.Add(1)
					s.tc.Event("dist.retry", "", int64(p.msg.To))
					p.backoff = min(p.backoff*2, s.backoffCap)
					p.deadline = now.Add(p.backoff)
				}
				live = append(live, p)
			}
			pending = live
		}
	}
	return failed
}

// run is the node goroutine: execute coordinator commands, and between
// them keep servicing the inbox — late retries from slower peers must
// be applied and ACKed even after this node's own round work is done,
// or their barriers would never complete. Control has priority over
// the inbox so a stop command is honored promptly.
func (n *node) run() {
	defer close(n.done)
	for {
		var c ctrlMsg
		var ok bool
		select {
		case c, ok = <-n.ctrl:
		default:
			select {
			case c, ok = <-n.ctrl:
			case m := <-n.inbox:
				n.handle(m)
				continue
			}
		}
		if !ok || c.kind == ctrlStop {
			return
		}
		switch c.kind {
		case ctrlRound:
			sp := n.s.otr.StartLane(n.lane, "dist/round")
			changed := n.sweep()
			failed := n.exchange(c.round)
			sp.End()
			n.s.reports <- report{node: n.id, round: c.round, changed: changed, failed: failed}
		case ctrlGather:
			starts := make([]int64, len(n.verts))
			for i, v := range n.verts {
				starts[i] = n.starts[n.regionIdx(v)]
			}
			n.s.gather <- dump{verts: n.verts, starts: starts}
		}
	}
}
