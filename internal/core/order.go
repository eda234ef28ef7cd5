package core

// The ordering kernel: every weight-ordered heuristic (GLF, PGLF, GKF,
// SGK, BDP's block order, weight-descending DistSolve, the exact solvers'
// seeds) and the Z-order curve order their vertices or blocks here.
//
// Orders are stable LSD radix sorts over uint64 keys. A key is read once
// into a scratch array; each pass is one counting sort on one key byte,
// and only bytes that differ between some two keys get a pass, so the
// paper's small integer weights (0–99) sort in a single pass and any
// int64 key range in at most eight — O(n) either way. Stability plus an
// ascending input gives the tie rule: equal keys keep ascending id order.

// OrderScratch holds the ordering kernel's reusable buffers. The zero
// value is ready to use; a scratch kept across calls orders any later
// input of no greater length without allocating.
type OrderScratch struct {
	keys, keys2 []uint64
	ids         []int
}

// descKey maps a weight to the radix key whose ascending order is the
// weight's non-increasing order: flipping the sign bit makes the uint64
// order match the int64 order, and the complement reverses it.
func descKey(w int64) uint64 { return ^(uint64(w) ^ 1<<63) }

// WeightDescOrder returns the vertices of g by non-increasing weight,
// ties ascending by vertex id: the GLF order.
func WeightDescOrder(g Graph) []int {
	var s OrderScratch
	keys := grow(&s.keys, g.Len())
	for v := range keys {
		keys[v] = descKey(g.Weight(v))
	}
	return s.order(keys)
}

// OrderDesc returns the positions 0..len(keys)-1 by non-increasing
// keys[i], ties ascending by position.
func OrderDesc(keys []int64) []int {
	var s OrderScratch
	k := grow(&s.keys, len(keys))
	for i, w := range keys {
		k[i] = descKey(w)
	}
	return s.order(k)
}

// OrderAsc returns the positions 0..len(keys)-1 by ascending keys[i],
// ties ascending by position. It overwrites keys.
func OrderAsc(keys []uint64) []int {
	var s OrderScratch
	return s.order(keys)
}

// SortWeightDesc reorders ids in place by non-increasing g.Weight. Equal
// weights keep their input order, so an ascending ids slice (a tile's or
// a shard's cells) comes out with ties ascending by id. Once s has
// served an input this long, the call allocates nothing.
func (s *OrderScratch) SortWeightDesc(g Graph, ids []int) {
	keys := grow(&s.keys, len(ids))
	for i, v := range ids {
		keys[i] = descKey(g.Weight(v))
	}
	shifts, passes := plan(keys)
	if passes == 0 {
		return
	}
	// Passes alternate s.ids, ids, s.ids, ...: ids is free to take the
	// second pass because only the first reads the input.
	s.radix(shifts[:passes], ids, keys, grow(&s.ids, len(ids)), ids)
	if passes%2 == 1 {
		copy(ids, s.ids)
	}
}

// order returns the positions of keys in ascending key order, ties by
// position, and overwrites keys. The passes are
// laid out so the last one lands in the returned slice: a one-pass sort
// writes straight into it with no other n-sized id buffer.
func (s *OrderScratch) order(keys []uint64) []int {
	out := make([]int, len(keys))
	shifts, passes := plan(keys)
	if passes == 0 {
		for i := range out {
			out[i] = i
		}
		return out
	}
	a, b := out, []int(nil)
	if passes > 1 {
		b = grow(&s.ids, len(keys))
		if passes%2 == 0 {
			a, b = b, out
		}
	}
	s.radix(shifts[:passes], nil, keys, a, b)
	return out
}

// plan returns the shifts of the key bytes that vary across keys, low
// byte first; only those need a counting pass.
func plan(keys []uint64) (shifts [8]uint, passes int) {
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	for sh := uint(0); sh < 64; sh += 8 {
		if diff>>sh&0xff != 0 {
			shifts[passes] = sh
			passes++
		}
	}
	return shifts, passes
}

// radix stably sorts by ascending key, one counting pass per shift. The
// element at position i is src[i] (i itself when src is nil) with key
// keys[i]. Even passes write ids into a, odd passes into b; b may alias
// src, which only the first pass reads. keys is clobbered.
func (s *OrderScratch) radix(shifts []uint, src []int, keys []uint64, a, b []int) {
	var keysOut []uint64
	if len(shifts) > 1 {
		keysOut = grow(&s.keys2, len(keys))
	}
	ids := src
	for p, sh := range shifts {
		out := a
		if p%2 == 1 {
			out = b
		}
		var count [256]int
		for _, k := range keys {
			count[k>>sh&0xff]++
		}
		at := 0
		for d, c := range count {
			count[d] = at
			at += c
		}
		last := p == len(shifts)-1
		for i, k := range keys {
			d := k >> sh & 0xff
			j := count[d]
			count[d]++
			if ids == nil {
				out[j] = i
			} else {
				out[j] = ids[i]
			}
			if !last {
				keysOut[j] = k
			}
		}
		ids = out
		keys, keysOut = keysOut, keys
	}
}

// grow returns (*buf)[:n], reallocating *buf only when it is too short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
