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

	// pb is b grown by one cell (box.expand), unclamped. The node's
	// state is dense over pb in the grid's row-major layout, so offset
	// order is global-id order and every stencil neighbor of an owned
	// cell is an in-range offset. val holds the owned cells' starts and,
	// on the ring, the halo cache: the last applied snapshot value of
	// each remote cell, Unset until a snapshot mentions it (unknown =
	// unconstrained; the fixpoint certification makes that safe). Ring
	// cells past the grid edge stay Unset with weight 0, so they
	// constrain nothing. sy is pb's row stride.
	pb  box
	sy  int
	val []int64
	w   []int64
	// dirty marks owned cells whose inputs may have changed since their
	// last placement; a sweep recomputes only those. Marks that land on
	// ring cells are never read.
	dirty []bool

	// verts is the region in sweep order (ascending global id for line
	// order, weight-descending with id tie-break for GLF order); offs is
	// index-aligned with it and holds each vertex's offset in pb.
	verts []int
	offs  []int

	// before and after are the stencil steps to the neighbors that may
	// precede and follow a cell in the global order: the negative and
	// positive offsets in line order, every step in weight order (where
	// earlier decides per pair).
	before, after []step

	// lastApplied[q] is the highest data sequence applied from node q
	// (the dedup watermark).
	lastApplied []int64

	// peers lists the adjacent shards with the cells of this region
	// each one can see (its inbound halo).
	peers []peer

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

// step is one stencil direction in a node's padded layout: the offset
// delta and the coordinate deltas behind it.
type step struct {
	off        int
	dx, dy, dz int
}

// peer is one adjacent shard: its id and the cells of this region it
// can see, as ascending global ids and as offsets in the padded box.
type peer struct {
	id    int
	cells []int
	offs  []int
}

// newNode builds the node for shard id over box b, wiring its transport
// inbox and precomputing the dense state, the sweep order, and the
// per-peer boundary lists. Every owned cell starts dirty, so the first
// sweep — round 1, or a re-homed node restarting from Unset — places
// the whole region.
func newNode(id int, b box, s *sim) *node {
	n := &node{
		id:          id,
		b:           b,
		s:           s,
		pb:          b.expand(s.gz > 1),
		lastApplied: make([]int64, len(s.boxes)),
		ctrl:        make(chan ctrlMsg, 4),
		inbox:       s.tr.Recv(id),
		done:        make(chan struct{}),
	}
	n.pl.Reset(s.g, s.uniW)
	if s.otr != nil {
		n.lane = s.otr.Lane()
		s.otr.LabelLane(n.lane, fmt.Sprintf("dist/shard-%d", id))
	}
	if b.empty() {
		return n
	}
	pb := n.pb
	n.sy = pb.X1 - pb.X0
	sz := n.sy * (pb.Y1 - pb.Y0)
	n.val = make([]int64, pb.cells())
	n.w = make([]int64, pb.cells())
	n.dirty = make([]bool, pb.cells())
	o := 0
	for k := pb.Z0; k < pb.Z1; k++ {
		for j := pb.Y0; j < pb.Y1; j++ {
			for i := pb.X0; i < pb.X1; i++ {
				n.val[o] = core.Unset
				if i >= 0 && i < s.gx && j >= 0 && j < s.gy && k >= 0 && k < s.gz {
					n.w[o] = s.g.Weight((k*s.gy+j)*s.gx + i)
				}
				o++
			}
		}
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
	n.offs = make([]int, len(n.verts))
	for x, v := range n.verts {
		n.offs[x] = n.offset(n.coords(v))
		n.dirty[n.offs[x]] = true
	}

	dzs := []int{0}
	if s.gz > 1 {
		dzs = []int{-1, 0, 1}
	}
	for _, dz := range dzs {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				st := step{off: dz*sz + dy*n.sy + dx, dx: dx, dy: dy, dz: dz}
				if st.off < 0 || (s.weightDesc && st.off != 0) {
					n.before = append(n.before, st)
				}
				if st.off > 0 || (s.weightDesc && st.off != 0) {
					n.after = append(n.after, st)
				}
			}
		}
	}

	for q, qb := range s.boxes {
		if q == id || qb.empty() {
			continue
		}
		if cells := boundaryCells(b, qb, s.gx, s.gy); len(cells) > 0 {
			p := peer{id: q, cells: cells, offs: make([]int, len(cells))}
			for x, v := range cells {
				p.offs[x] = n.offset(n.coords(v))
			}
			n.peers = append(n.peers, p)
		}
	}
	return n
}

// coords returns the grid coordinates of global vertex v.
func (n *node) coords(v int) (i, j, k int) {
	gx, gy := n.s.gx, n.s.gy
	return v % gx, v / gx % gy, v / (gx * gy)
}

// offset maps grid cell (i, j, k), which must lie in pb, to its slot
// in the dense state.
func (n *node) offset(i, j, k int) int {
	pb := n.pb
	return ((k-pb.Z0)*(pb.Y1-pb.Y0)+(j-pb.Y0))*n.sy + (i - pb.X0)
}

// earlier reports whether the cell at offset u precedes the one at
// offset v in the global visit order — the only neighbors a placement
// may observe. Restricting observation to earlier vertices is what pins
// the protocol's fixpoint to the sequential greedy coloring. Offset
// order is global-id order, so ids never need reconstructing.
func (n *node) earlier(u, v int) bool {
	if !n.s.weightDesc {
		return u < v // line order is ascending vertex id
	}
	wu, wv := n.w[u], n.w[v]
	return wu > wv || (wu == wv && u < v)
}

// sweep places the region's dirty cells in sweep order (Gauss–Seidel:
// later placements see this round's values of earlier local cells) and
// returns how many starts changed. A changed start dirties the cell's
// later owned neighbors, which the same sweep reaches further on. Every
// clean cell already holds the lowest fit of its current inputs, so the
// sweep ends in exactly the state — and counts exactly the changes — of
// a full recompute of the region.
func (n *node) sweep() (changed int64) {
	pl := &n.pl
	wd := n.s.weightDesc
	for _, v := range n.offs {
		if !n.dirty[v] {
			continue
		}
		n.dirty[v] = false
		pl.Clear()
		for _, st := range n.before {
			if u := v + st.off; !wd || n.earlier(u, v) {
				pl.Observe(n.val[u], n.w[u])
			}
		}
		s := pl.Commit(n.w[v])
		if n.val[v] == s {
			continue
		}
		n.val[v] = s
		changed++
		for _, st := range n.after {
			if u := v + st.off; !wd || n.earlier(v, u) {
				n.dirty[u] = true
			}
		}
	}
	return changed
}

// applyHalo caches remote cell c's start and, when the cached value
// changed (first sight included: the cache starts Unset), dirties c's
// later-in-order owned neighbors. Cells outside the ring are ignored.
func (n *node) applyHalo(c HaloCell) {
	i, j, k := n.coords(c.V)
	if !n.pb.contains(i, j, k) || n.b.contains(i, j, k) {
		return
	}
	u := n.offset(i, j, k)
	if n.val[u] == c.Start {
		return
	}
	n.val[u] = c.Start
	for _, st := range n.after {
		if !n.b.contains(i+st.dx, j+st.dy, k+st.dz) {
			continue
		}
		if v := u + st.off; !n.s.weightDesc || n.earlier(u, v) {
			n.dirty[v] = true
		}
	}
}

// snapshot builds the fresh boundary snapshot for peer p. A new slice
// every round: retries and injected duplicates of older rounds may
// still be read concurrently by the receiver, so snapshots are never
// reused.
func (n *node) snapshot(p peer) []HaloCell {
	out := make([]HaloCell, len(p.cells))
	for x, v := range p.cells {
		out[x] = HaloCell{V: v, Start: n.val[p.offs[x]]}
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
				n.applyHalo(c)
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
	for _, p := range n.peers {
		m := Message{Kind: MsgData, From: n.id, To: p.id, Seq: round,
			Trace: s.tc.TraceID(), Span: s.tc.SpanID(), Cells: n.snapshot(p)}
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
			for i, o := range n.offs {
				starts[i] = n.val[o]
			}
			n.s.gather <- dump{verts: n.verts, starts: starts}
		}
	}
}
