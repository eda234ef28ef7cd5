package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stencilivc"
	"stencilivc/internal/grid"
)

// serveReq is one prebuilt POST /solve request and what is needed to
// check its reply.
type serveReq struct {
	body []byte
	s    stencilivc.Stencil
	lb   int64
	alg  string
	// lookups is how many result-cache lookups the request makes: one
	// per algorithm, so the "best" portfolio makes one per paper
	// algorithm.
	lookups int
	pool    int // pool index (serve-repeat), -1 for a unique instance
}

// encodeRequest writes the JSON body by hand so setup, not the timed
// phase, pays for it and the bytes are exactly what the daemon reads.
func encodeRequest(tenant, alg string, s stencilivc.Stencil) []byte {
	var b []byte
	b = append(b, `{"tenant":"`...)
	b = append(b, tenant...)
	b = append(b, `","alg":"`...)
	b = append(b, alg...)
	var w []int64
	switch g := s.(type) {
	case *grid.Grid2D:
		b = fmt.Appendf(b, `","x":%d,"y":%d,"weights":[`, g.X, g.Y)
		w = g.W
	case *grid.Grid3D:
		b = fmt.Appendf(b, `","x":%d,"y":%d,"z":%d,"weights":[`, g.X, g.Y, g.Z)
		w = g.W
	}
	for i, x := range w {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, "]}"...)
}

// newServeReq builds one request over a fresh random instance.
func newServeReq(r *rand.Rand, tenant, alg string, s stencilivc.Stencil, pool int) *serveReq {
	var lb int64
	switch g := s.(type) {
	case *grid.Grid2D:
		randomWeights(r, g.W)
		lb = stencilivc.LowerBound2D(g)
	case *grid.Grid3D:
		randomWeights(r, g.W)
		lb = stencilivc.LowerBound3D(g)
	}
	lookups := 1
	if alg == "best" {
		lookups = len(stencilivc.Algorithms())
	}
	return &serveReq{body: encodeRequest(tenant, alg, s), s: s, lb: lb, alg: alg, lookups: lookups, pool: pool}
}

// reply is the part of a POST /solve result the checks read.
type reply struct {
	Status   string  `json:"status"`
	MaxColor int64   `json:"maxcolor"`
	Starts   []int64 `json:"starts"`
	Partial  bool    `json:"partial"`
	Error    string  `json:"error"`
	QueueMS  float64 `json:"queue_ms"`
	WallMS   float64 `json:"wall_ms"`
	TraceID  string  `json:"trace_id"`
}

// exchange is one request/reply as the client saw it.
type exchange struct {
	req    *serveReq
	t      openLoopTiming // closed loop: due == sent
	status int
	err    error
	body   []byte // kept for checking after the phase (nil when digested)
	// respBytes is the reply's size as read by the client.
	respBytes int
	// digest fields, filled during the phase for large replies that are
	// not kept: the CRC of the starts array and the scalar fields.
	startsCRC uint32
	startsLen int
	scalars   reply
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// startsSection returns the bytes of the reply's "starts" array. The
// daemon indents with two spaces, so the array closes at "\n  ]".
func startsSection(body []byte) []byte {
	i := bytes.Index(body, []byte(`"starts": [`))
	j := bytes.LastIndex(body, []byte("\n  ]"))
	if i < 0 || j < i {
		return nil
	}
	return body[i:j]
}

// scanScalars reads the reply's scalar fields without decoding the
// starts array: it re-encodes the reply with the array cut out.
func scanScalars(body []byte) (reply, error) {
	var r reply
	sec := startsSection(body)
	if sec == nil {
		return r, json.Unmarshal(body, &r)
	}
	i := bytes.Index(body, sec)
	trimmed := slices.Concat(body[:i], []byte(`"starts": [`), body[i+len(sec):])
	err := json.Unmarshal(trimmed, &r)
	return r, err
}

// digest keeps only the CRC of a large reply's starts array and its
// scalar fields, instead of the reply itself.
func (x *exchange) digest(body []byte) {
	sec := startsSection(body)
	x.startsCRC = crc32.Checksum(sec, castagnoli)
	x.startsLen = len(sec)
	x.scalars, x.err = scanScalars(body)
}

// check validates one kept reply against its request: HTTP 200, status
// done (not partial), a valid coloring of the request's instance, and
// the reported maxcolor equal to the coloring's.
func (x *exchange) check() (reply, error) {
	var r reply
	if x.err != nil {
		return r, x.err
	}
	if x.status != http.StatusOK {
		return r, fmt.Errorf("HTTP %d: %.200s", x.status, x.body)
	}
	if err := json.Unmarshal(x.body, &r); err != nil {
		return r, fmt.Errorf("decode reply: %w", err)
	}
	if r.Status != "done" || r.Partial {
		return r, fmt.Errorf("status %q partial=%v: %s", r.Status, r.Partial, r.Error)
	}
	c := stencilivc.Coloring{Start: r.Starts}
	if len(r.Starts) != x.req.s.Len() {
		return r, fmt.Errorf("%d starts for %d vertices", len(r.Starts), x.req.s.Len())
	}
	if err := c.Validate(x.req.s); err != nil {
		return r, fmt.Errorf("invalid coloring: %w", err)
	}
	if mc := c.MaxColor(x.req.s); mc != r.MaxColor {
		return r, fmt.Errorf("reported maxcolor %d, coloring has %d", r.MaxColor, mc)
	}
	return r, nil
}

// openLoop sends reqs at a fixed rate from conns connections: request i
// is due at t0 + i/rate and waits for a free connection if both are
// busy, so latency is timed from the due time.
func openLoop(c *http.Client, url string, reqs []*serveReq, rate float64, conns int) []exchange {
	xs := make([]exchange, len(reqs))
	var next atomic.Int64
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := dueTime(t0, i, rate)
				time.Sleep(time.Until(due))
				x := &xs[i]
				x.req = reqs[i]
				x.t.due, x.t.sent = due, time.Now()
				x.status, x.err = post(context.Background(), c, url, reqs[i].body, &buf)
				x.t.done = time.Now()
				x.body, x.respBytes = bytes.Clone(buf.Bytes()), buf.Len()
			}
		}()
	}
	wg.Wait()
	return xs
}

// closedLoop runs clients that each send their next request from seq
// only after the previous reply, until the deadline or seq runs out.
// Replies to large requests are digested in place (CRC of the starts
// array) instead of kept, so the client holds little memory.
func closedLoop(c *http.Client, url string, seq []*serveReq, clients int, until time.Time, keep func(*serveReq) bool) []exchange {
	xs := make([]exchange, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(until) {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				x := &xs[i]
				x.req = seq[i]
				x.t.sent = time.Now()
				x.t.due = x.t.sent
				x.status, x.err = post(context.Background(), c, url, seq[i].body, &buf)
				x.t.done = time.Now()
				x.respBytes = buf.Len()
				if keep(seq[i]) {
					x.body = bytes.Clone(buf.Bytes())
				} else {
					x.digest(buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(seq))
	return slices.DeleteFunc(xs[:n], func(x exchange) bool { return x.req == nil })
}

// phaseStats is what the end-to-end metrics need from one phase.
type phaseStats struct {
	latencies []float64 // ms, from due time
	lags      []float64 // ms
	// mcs and lbs hold maxcolor and lower bound once per distinct
	// instance answered, so a hot repeated instance does not weigh more
	// in maxcolor_ratio than a cold one.
	mcs, lbs []int64
	// done holds each successful reply's completion time.
	done    []time.Time
	solveMS []float64 // wall_ms − queue_ms: time after dispatch
	n       int
	backlog int
}

// summarize checks a phase's replies (after the phase) and folds them
// into phaseStats. Digested replies are checked against refs, the CRC
// of the first solve of the same pool instance.
func summarize(xs []exchange, refs []refReply, t *tally, what string) phaseStats {
	var ps phaseStats
	ps.n = len(xs)
	if len(xs) == 0 {
		return ps
	}
	seen := map[*serveReq]bool{}
	lastDue := xs[len(xs)-1].t.due
	for i := range xs {
		x := &xs[i]
		t.attempt()
		if x.t.due.Before(lastDue) && x.t.sent.After(lastDue) {
			ps.backlog++ // due earlier, still unsent when the last came due
		}
		var r reply
		var err error
		if x.body == nil && x.err == nil {
			r = x.scalars
			ref := refs[x.req.pool]
			switch {
			case x.status != http.StatusOK || r.Status != "done" || r.Partial:
				err = fmt.Errorf("HTTP %d status %q: %s", x.status, r.Status, r.Error)
			case x.startsCRC != ref.crc || x.startsLen != ref.n || r.MaxColor != ref.maxcolor:
				err = fmt.Errorf("repeat reply differs from the first solve of pool instance %d", x.req.pool)
			}
		} else {
			r, err = x.check()
		}
		x.body = nil
		if err != nil {
			t.fail("%s request %d (%s): %v", what, i, x.req.alg, err)
			continue
		}
		ps.latencies = append(ps.latencies, ms(x.t.latency()))
		ps.lags = append(ps.lags, ms(x.t.lag()))
		if !seen[x.req] {
			seen[x.req] = true
			ps.mcs = append(ps.mcs, r.MaxColor)
			ps.lbs = append(ps.lbs, x.req.lb)
		}
		ps.done = append(ps.done, x.t.done)
		ps.solveMS = append(ps.solveMS, r.WallMS-r.QueueMS)
	}
	return ps
}

// refReply is the first solve of a serve-repeat pool instance.
type refReply struct {
	crc      uint32
	n        int
	maxcolor int64
}

// e2eServe fills the metrics both serve workloads share. Latencies and
// solve times are taken per window of 1000 consecutive requests (enough
// for a p99 with ten samples beyond it) and the median over windows is
// reported.
func (rep *report) e2eServe(ps phaseStats, q float64, d *daemon, t *tally, what string, traced bool) {
	size := minSamples(q)
	ws := windows(ps.latencies, size)
	if len(ws) == 0 {
		if !traced {
			t.fail("%s: %d latency samples cannot support p%g", what, len(ps.latencies), q*100)
		}
		ws = [][]float64{ps.latencies}
	}
	rep.e2e["latency_p50_ms"] = windowedMedian(ws, median)
	rep.e2e["latency_tail_ms"] = windowedMedian(ws, func(w []float64) float64 { return percentile(w, q) })
	rep.e2e["maxcolor_ratio"] = maxcolorRatio(ps.mcs, ps.lbs)
	// The median request's service-side solve time in ms, which is s per
	// 1000 such requests; the mean would follow the few slow portfolio
	// requests and the host's hiccups instead.
	rep.e2e["solve_s"] = windowedMedian(windows(ps.solveMS, len(ws[0])), median)
	rep.e2e["peak_rss_mb"] = d.peakRSSMiB()
	rep.samples, rep.windows, rep.tailQ = len(ps.latencies), len(ws), q
}

// layerSnap is the daemon state the traced phase diffs.
type layerSnap struct {
	cache   cacheStats
	metrics map[string]float64
}

func snapLayers(d *daemon) (layerSnap, error) {
	c, err := d.cache()
	if err != nil {
		return layerSnap{}, err
	}
	m, err := d.scrape()
	return layerSnap{c, m}, err
}

// flightSpan is one span of a request's flight-recorder trace.
type flightSpan struct {
	start time.Time
	wall  float64 // ms
}

// pollFlight dumps /debug/flight once a second until stop is closed,
// then once more, and returns every span seen, by trace id and span
// name. The ring holds only the last few hundred requests, so a traced
// phase is sampled while it runs; the polling is part of what the traced
// run's trace.overhead_pct measures.
func pollFlight(d *daemon, stop <-chan struct{}) (map[string]map[string]flightSpan, error) {
	byTrace := map[string]map[string]flightSpan{}
	for {
		recs, err := d.flight()
		if err != nil {
			return nil, fmt.Errorf("flight dump: %w", err)
		}
		for _, r := range recs {
			if r.Kind != "span" {
				continue
			}
			st, err := time.Parse(time.RFC3339Nano, r.Start)
			if err != nil {
				return nil, fmt.Errorf("flight record start %q: %w", r.Start, err)
			}
			m := byTrace[r.Trace]
			if m == nil {
				m = map[string]flightSpan{}
				byTrace[r.Trace] = m
			}
			m[r.Name] = flightSpan{st, r.WallMS}
		}
		select {
		case <-stop:
			return byTrace, nil
		case <-time.After(time.Second):
		}
	}
}

// tracedPhase runs phase while polling the flight recorder, then fills
// the per-layer service, cache, http and runtime metrics: spans of the
// phase's requests, /metrics and /healthz deltas, and bytes counted at
// the client.
func tracedPhase(L map[string]float64, d *daemon, phase func() []exchange) ([]exchange, layerSnap, layerSnap, error) {
	before, err := snapLayers(d)
	if err != nil {
		return nil, before, before, err
	}
	stop := make(chan struct{})
	type polled struct {
		byTrace map[string]map[string]flightSpan
		err     error
	}
	res := make(chan polled, 1)
	go func() {
		m, err := pollFlight(d, stop)
		res <- polled{m, err}
	}()
	xs := phase()
	close(stop)
	p := <-res
	if p.err != nil {
		return nil, before, before, p.err
	}
	after, err := snapLayers(d)
	if err != nil {
		return nil, before, after, err
	}
	for i := range xs {
		if xs[i].body != nil {
			xs[i].scalars, _ = scanScalars(xs[i].body)
		}
	}
	return xs, before, after, serviceLayers(L, p.byTrace, xs, before, after)
}

// serviceLayers computes the per-layer metrics of a traced phase.
func serviceLayers(L map[string]float64, byTrace map[string]map[string]flightSpan, xs []exchange, before, after layerSnap) error {
	var adm, bw, q, sv, httpMS []float64
	var reqB, respB float64
	for _, x := range xs {
		reqB += float64(len(x.req.body))
		respB += float64(x.respBytes)
	}
	for _, x := range xs {
		sp, ok := byTrace[x.scalars.TraceID]
		if !ok {
			continue
		}
		a, okA := sp["admission"]
		s, okS := sp["solve"]
		if !okA || !okS {
			continue
		}
		adm = append(adm, a.wall*1000)
		bw = append(bw, sp["batch"].wall)
		q = append(q, sp["schedule"].wall)
		sv = append(sv, s.wall)
		inside := s.start.Add(time.Duration(s.wall * float64(time.Millisecond))).Sub(a.start)
		httpMS = append(httpMS, ms(x.t.done.Sub(x.t.sent)-inside))
	}
	if len(sv) == 0 {
		return fmt.Errorf("no traced request of the phase was seen in the flight recorder")
	}
	L["service.traced_requests"] = float64(len(sv))
	L["service.admission_us.p50"] = median(adm)
	L["service.batch_wait_ms.p50"] = median(bw)
	L["service.batch_wait_ms.p99"] = percentile(bw, 0.99)
	L["service.queue_ms.p50"] = median(q)
	L["service.queue_ms.p99"] = percentile(q, 0.99)
	L["service.solve_ms.p50"] = median(sv)
	L["service.solve_ms.p99"] = percentile(sv, 0.99)
	L["service.http_ms.p50"] = median(httpMS)
	dm := func(k string) float64 { return after.metrics[k] - before.metrics[k] }
	L["service.batch_size.mean"] = ratio(dm("service_batch_size_sum"), dm("service_batch_size_count"))
	L["service.shed"] = dm("service_tenant_shed_total")
	L["runtime.gc_cycles"] = dm("go_gc_runs_total")
	L["runtime.gc_pause_ms"] = dm("go_gc_pause_seconds_sum") * 1000
	L["http.req_bytes"] = reqB / float64(len(xs))
	L["http.resp_bytes"] = respB / float64(len(xs))
	dh := after.cache.Hits - before.cache.Hits
	dmiss := after.cache.Misses - before.cache.Misses
	L["resultcache.hit_ratio"] = ratio(float64(dh), float64(dh+dmiss))
	L["resultcache.evictions"] = float64(after.cache.Evictions - before.cache.Evictions)
	return nil
}

// countedPass sends seq from one client, in order, and returns the
// cache hit and miss counts the daemon reports for exactly those
// requests: counters that repeat exactly for a seed.
func countedPass(c *http.Client, d *daemon, seq []*serveReq, t *tally, what string) (hits, misses int64, err error) {
	before, err := d.cache()
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	for _, r := range seq {
		t.attempt()
		status, err := post(context.Background(), c, d.base+"/solve", r.body, &buf)
		if err != nil || status != http.StatusOK {
			t.fail("%s counted pass: HTTP %d %v", what, status, err)
		}
	}
	after, err := d.cache()
	if err != nil {
		return 0, 0, err
	}
	return after.Hits - before.Hits, after.Misses - before.Misses, nil
}

// checkCacheDelta checks the daemon's cache accounting over a phase
// against the requests sent: every lookup is a hit or a miss, a unique
// instance always misses, and with no evictions every repeat hits.
func checkCacheDelta(before, after cacheStats, xs []exchange, t *tally, what string) {
	var lookups, uniques int64
	for _, x := range xs {
		lookups += int64(x.req.lookups)
		if x.req.pool < 0 {
			uniques += int64(x.req.lookups)
		}
	}
	dh, dm := after.Hits-before.Hits, after.Misses-before.Misses
	switch {
	case dh+dm != lookups:
		t.fail("%s: cache saw %d lookups, %d were sent", what, dh+dm, lookups)
	case dm < uniques:
		t.fail("%s: %d cache misses for %d unique lookups", what, dm, uniques)
	case after.Evictions == before.Evictions && dm != uniques:
		t.fail("%s: %d cache misses without evictions, want exactly the %d unique lookups", what, dm, uniques)
	}
}

// ---- serve-unique -------------------------------------------------

// uniqueMix draws one small instance with the workload's algorithm mix:
// mostly GLL, with GLF, BDP and the "best" portfolio. BDP runs only up
// to the second 2D side and the portfolio only on the smallest 2D side
// and in 3D, so that no request type alone takes the p99 past the
// latency limit on an idle daemon: the ladder then measures queueing.
func uniqueMix(sp *spec, r *rand.Rand, i int) *serveReq {
	su := sp.ServeUnique
	tenant := "t" + strconv.Itoa(i%su.Tenants)
	var s stencilivc.Stencil
	k := 0 // size class: index into Sides2D, 0 for the 3D side
	if r.IntN(10) == 0 {
		s = grid.MustGrid3D(su.Side3D, su.Side3D, su.Side3D)
	} else {
		k = r.IntN(len(su.Sides2D))
		s = grid.MustGrid2D(su.Sides2D[k], su.Sides2D[k])
	}
	alg := "GLL"
	switch u := r.IntN(100); {
	case u < 10:
		alg = "GLF"
	case u < 18 && k <= 1:
		alg = "BDP"
	case u < 23 && k == 0:
		alg = "best"
	}
	return newServeReq(r, tenant, alg, s, -1)
}

// uniquePhases is how a serve-unique run spends its requests.
type uniquePhases struct {
	warm, counted, fixed, traced []*serveReq
	rungs                        [][]*serveReq
}

func runServeUnique(sp *spec, seed uint64, seconds float64, traced bool) (*report, error) {
	su := sp.ServeUnique
	rep := newReport()
	t := &rep.tally
	var ph uniquePhases
	var d *daemon
	fixedN := int(su.RateRPS * seconds)
	setup, err := timeSetup(sp.SetupRepeats, func() (func(), error) {
		r := rand.New(rand.NewPCG(seed, 0x5e7e))
		i := 0
		draw := func(n int) []*serveReq {
			out := make([]*serveReq, n)
			for k := range out {
				out[k] = uniqueMix(sp, r, i)
				i++
			}
			return out
		}
		ph = uniquePhases{warm: draw(int(su.RateRPS / 2))}
		if traced {
			ph.counted = draw(sp.ServeRepeat.PassRequests)
			ph.fixed, ph.traced = draw(fixedN/2), draw(fixedN/2)
		} else {
			ph.fixed = draw(fixedN)
			for range bits.Len(uint(len(su.LadderRPS))) {
				ph.rungs = append(ph.rungs, draw(su.RungRequests))
			}
		}
		var err error
		d, err = startDaemon()
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.e2e = map[string]float64{"setup_s": setup}
	conns := nproc()
	client := newClient(conns)
	url := d.base + "/solve"

	// Warm the connections and the daemon's pools; not measured.
	summarize(openLoop(client, url, ph.warm, su.RateRPS, conns), nil, t, "warm-up")

	c0, err := d.cache()
	if err != nil {
		return nil, err
	}
	fixed := openLoop(client, url, ph.fixed, su.RateRPS, conns)
	c1, err := d.cache()
	if err != nil {
		return nil, err
	}
	checkCacheDelta(c0, c1, fixed, t, "serve-unique")
	if c1.Hits != 0 {
		t.fail("serve-unique: %d cache hits, want 0: every instance is unique", c1.Hits)
	}
	ps := summarize(fixed, nil, t, "serve-unique")
	rep.e2eServe(ps, su.TailQuantile, d, t, "serve-unique", traced)
	rep.notes = append(rep.notes, fmt.Sprintf("open loop at %g req/s from %d connections, %d tenants; lag p99 %.3f ms",
		su.RateRPS, conns, su.Tenants, percentile(ps.lags, 0.99)))

	if !traced {
		k := 0
		maxRate, rungs := maxRPS(su.LadderRPS, sp.LatencyLimitMS, func(rate float64) rung {
			xs := openLoop(client, url, ph.rungs[k], rate, conns)
			k++
			fails := t.failed
			rs := summarize(xs, nil, t, fmt.Sprintf("ladder %g", rate))
			return rung{rate: rate, n: len(xs), failed: int(t.failed - fails), p99ms: percentile(rs.latencies, 0.99), backlogEnd: rs.backlog}
		})
		for _, rg := range rungs {
			rep.notes = append(rep.notes, fmt.Sprintf("ladder %6g req/s: p99 %8.3f ms, backlog %d, pass=%v",
				rg.rate, rg.p99ms, rg.backlogEnd, rg.passes(sp.LatencyLimitMS)))
		}
		// A failing rung is a measurement, not a failed check; only its
		// failed requests count as failures.
		rep.e2e["throughput_rps"] = maxRate
		if maxRate == 0 {
			t.fail("serve-unique: even the lowest ladder rate misses the %g ms p99 limit", sp.LatencyLimitMS)
		}
		rep.e2e["peak_rss_mb"] = d.peakRSSMiB()
		return rep, nil
	}

	L := rep.layer
	hits, misses, err := countedPass(client, d, ph.counted, t, "serve-unique")
	if err != nil {
		return nil, err
	}
	L["resultcache.pass_hits"], L["resultcache.pass_misses"] = float64(hits), float64(misses)
	var want int64
	for _, r := range ph.counted {
		want += int64(r.lookups)
	}
	if hits != 0 || misses != want {
		t.fail("serve-unique counted pass: %d hits, %d misses; want 0 and %d", hits, misses, want)
	}
	tx, _, _, err := tracedPhase(L, d, func() []exchange { return openLoop(client, url, ph.traced, su.RateRPS, conns) })
	if err != nil {
		return nil, err
	}
	tps := summarize(tx, nil, t, "serve-unique traced")
	L["loadgen.lag_p99_ms"] = percentile(tps.lags, 0.99)
	L["loadgen.samples"] = float64(len(tps.latencies))
	L["trace.overhead_pct"] = (median(tps.latencies)/median(ps.latencies) - 1) * 100
	if L["resultcache.hit_ratio"] != 0 {
		t.fail("serve-unique: cache hit ratio %g, want 0", L["resultcache.hit_ratio"])
	}
	return rep, nil
}

// ---- serve-repeat -------------------------------------------------

// repeatSet is serve-repeat's prebuilt input: the pool, the request
// sequence (pool draws with a fixed skew, every UniqueEvery-th request a
// unique small instance) and the counted-pass prefix.
type repeatSet struct {
	pool []*serveReq
	seq  []*serveReq
}

func newRepeatSet(sp *spec, seed uint64, maxRequests int) *repeatSet {
	sr := sp.ServeRepeat
	r := rand.New(rand.NewPCG(seed, 0x4e9ea7))
	rs := &repeatSet{}
	// Pool ranks interleave the sides (rank k has side k mod len), so the
	// skew gives every seed the same size mix; the seed varies weights.
	for range sr.PerSide {
		for _, side := range sr.PoolSides {
			k := len(rs.pool)
			rs.pool = append(rs.pool, newServeReq(r, "t"+strconv.Itoa(k%2), "GLL", grid.MustGrid2D(side, side), k))
		}
	}
	// Zipf-like skew: pool rank k is drawn with weight 1/(k+1)^s.
	cum := make([]float64, len(rs.pool))
	var tot float64
	for k := range cum {
		tot += 1 / math.Pow(float64(k+1), sr.ZipfS)
		cum[k] = tot
	}
	for i := range maxRequests {
		if i%sr.UniqueEvery == sr.UniqueEvery-1 {
			rs.seq = append(rs.seq, newServeReq(r, "t"+strconv.Itoa(i%2), "GLL", grid.MustGrid2D(sr.UniqueSide, sr.UniqueSide), -1))
			continue
		}
		k, _ := slices.BinarySearch(cum, r.Float64()*tot)
		rs.seq = append(rs.seq, rs.pool[min(k, len(cum)-1)])
	}
	return rs
}

func runServeRepeat(sp *spec, seed uint64, seconds float64, traced bool) (*report, error) {
	sr := sp.ServeRepeat
	rep := newReport()
	t := &rep.tally
	conns := nproc()
	client := newClient(conns)
	var rs *repeatSet
	var d *daemon
	var warm []exchange
	// Sized for a daemon far faster than today's, so the run never
	// exhausts its unique instances.
	maxRequests := int(seconds*float64(sr.MaxRPS)) + sr.PassRequests
	setup, err := timeSetup(sp.SetupRepeats, func() (func(), error) {
		rs = newRepeatSet(sp, seed, maxRequests)
		var err error
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		// Warm the pool into the cache: the first solve of each instance.
		warm = closedLoop(client, d.base+"/solve", rs.pool, 1, time.Now().Add(time.Hour), func(*serveReq) bool { return true })
		return d.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.e2e = map[string]float64{"setup_s": setup}
	url := d.base + "/solve"

	refs := make([]refReply, len(rs.pool))
	for i := range warm {
		x := &warm[i]
		t.attempt()
		sec := startsSection(x.body)
		r, err := x.check()
		if err != nil {
			t.fail("serve-repeat first solve of pool instance %d: %v", i, err)
			continue
		}
		refs[x.req.pool] = refReply{crc: crc32.Checksum(sec, castagnoli), n: len(sec), maxcolor: r.MaxColor}
		x.body = nil
	}
	keepSmall := func(r *serveReq) bool { return r.pool < 0 }

	seq := rs.seq
	L := rep.layer
	if traced {
		hits, misses, err := countedPass(client, d, seq[:sr.PassRequests], t, "serve-repeat")
		if err != nil {
			return nil, err
		}
		L["resultcache.pass_hits"], L["resultcache.pass_misses"] = float64(hits), float64(misses)
		seq = seq[sr.PassRequests:]
	}
	phase := time.Duration(seconds * float64(time.Second))
	if traced {
		phase /= 2
	}
	c0, err := d.cache()
	if err != nil {
		return nil, err
	}
	xs := closedLoop(client, url, seq, conns, time.Now().Add(phase), keepSmall)
	c1, err := d.cache()
	if err != nil {
		return nil, err
	}
	if len(xs) == len(seq) {
		t.fail("serve-repeat: the run used all %d prebuilt requests; raise max_rps in spec.json", len(seq))
	}
	checkCacheDelta(c0, c1, xs, t, "serve-repeat")
	ps := summarize(xs, refs, t, "serve-repeat")
	rep.e2eServe(ps, sr.TailQuantile, d, t, "serve-repeat", traced)
	// Completions per second, per window of requests, median over windows.
	var rates []float64
	for _, w := range windows(ps.done, minSamples(sr.TailQuantile)) {
		slices.SortFunc(w, func(a, b time.Time) int { return a.Compare(b) })
		rates = append(rates, float64(len(w)-1)/w[len(w)-1].Sub(w[0]).Seconds())
	}
	rep.e2e["throughput_rps"] = median(rates)
	rep.notes = append(rep.notes, fmt.Sprintf("closed loop, %d clients, pool of %d, 1 in %d unique; %d requests",
		conns, len(rs.pool), sr.UniqueEvery, ps.n))
	if !traced {
		return rep, nil
	}

	rest := seq[len(xs):]
	tx, before, after, err := tracedPhase(L, d, func() []exchange {
		return closedLoop(client, url, rest, conns, time.Now().Add(phase), keepSmall)
	})
	if err != nil {
		return nil, err
	}
	checkCacheDelta(before.cache, after.cache, tx, t, "serve-repeat traced")
	tps := summarize(tx, refs, t, "serve-repeat traced")
	L["loadgen.samples"] = float64(len(tps.latencies))
	L["trace.overhead_pct"] = (median(tps.latencies)/median(ps.latencies) - 1) * 100
	return rep, cacheProbes(L, rs.pool, sr.PoolSides)
}

// cacheProbes times the result cache's two halves in process on the
// pool instances: fingerprinting (stencilivc.CacheFingerprint) and a
// warm hit through stencilivc.Solve with a ResultCache attached.
func cacheProbes(L map[string]float64, pool []*serveReq, sides []int) error {
	rc := stencilivc.NewResultCache(stencilivc.ResultCacheConfig{})
	for k, side := range sides {
		s := pool[k].s // the first ranks hold one instance of each side
		fp, err := medianCall(9, timeIt(func() { stencilivc.CacheFingerprint(stencilivc.GLL, s) }))
		if err != nil {
			return err
		}
		opts := &stencilivc.SolveOptions{Cache: rc}
		if _, err := stencilivc.Solve(stencilivc.GLL, s, opts); err != nil {
			return fmt.Errorf("cache probe: %w", err)
		}
		hit, err := medianCall(9, func() (time.Duration, error) {
			t0 := time.Now()
			_, err := stencilivc.Solve(stencilivc.GLL, s, opts)
			return time.Since(t0), err
		})
		if err != nil {
			return fmt.Errorf("cache probe: %w", err)
		}
		L[fmt.Sprintf("resultcache.fingerprint_ms.%d", side)] = fp
		L[fmt.Sprintf("resultcache.hit_us.%d", side)] = hit * 1000
	}
	if st := rc.Snapshot(); st.Hits != int64(9*len(sides)) {
		return fmt.Errorf("cache probe: %d hits, want %d", st.Hits, 9*len(sides))
	}
	return nil
}
