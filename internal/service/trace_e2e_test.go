package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"stencilivc/internal/chaos"
	"stencilivc/internal/core"
	"stencilivc/internal/distsolve"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/obsv"
)

// flightRec mirrors the GET /debug/flight record wire shape.
type flightRec struct {
	Trace  string  `json:"trace"`
	Span   string  `json:"span"`
	Parent string  `json:"parent"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Detail string  `json:"detail"`
	Tenant string  `json:"tenant"`
	Job    string  `json:"job"`
	Arg    int64   `json:"arg"`
	WallMS float64 `json:"wall_ms"`
}

// flightDump mirrors the GET /debug/flight response body.
type flightDump struct {
	Entries   int         `json:"entries"`
	Records   []flightRec `json:"records"`
	Incidents []struct {
		Trace  string `json:"trace"`
		Reason string `json:"reason"`
	} `json:"incidents"`
}

// getFlight fetches and decodes GET /debug/flight with the given query.
func getFlight(t *testing.T, base, query string) flightDump {
	t.Helper()
	url := base + "/debug/flight"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flight?%s: status %d", query, resp.StatusCode)
	}
	var dump flightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

// findSpan returns the first span record with the given name, or fails.
func findSpan(t *testing.T, recs []flightRec, name string) flightRec {
	t.Helper()
	for _, r := range recs {
		if r.Kind == "span" && r.Name == name {
			return r
		}
	}
	t.Fatalf("no %q span among %d records", name, len(recs))
	return flightRec{}
}

// TestServiceTraceSpanTree submits one solve through the full HTTP stack
// and asserts the acceptance-contract span tree: the result carries a
// trace id, and /debug/flight filtered by job id shows admission as the
// root with schedule and solve parented under it and the
// registry's solve:GLL span under solve — one connected tree per
// request. The tenant's /healthz SLO quantiles must be live afterwards.
func TestServiceTraceSpanTree(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})

	code, res := postSolve(t, ts.URL, Request{
		Tenant: "trace-team", Alg: "GLL", X: 8, Y: 8, Weights: gridWeights(8),
	})
	if code != http.StatusOK || res.Status != StatusDone {
		t.Fatalf("solve: status %d/%q (%s)", code, res.Status, res.Error)
	}
	if len(res.TraceID) != 16 || res.TraceID == obsv.FlightID(0) {
		t.Fatalf("result trace id %q, want 16 hex digits", res.TraceID)
	}

	dump := getFlight(t, ts.URL, "job="+res.ID)
	for _, r := range dump.Records {
		if r.Trace != res.TraceID {
			t.Errorf("record %s/%s carries trace %s, want %s", r.Kind, r.Name, r.Trace, res.TraceID)
		}
		if r.Job != res.ID || r.Tenant != "trace-team" {
			t.Errorf("record %s/%s identity %s/%s, want %s/trace-team", r.Kind, r.Name, r.Job, r.Tenant, res.ID)
		}
	}
	adm := findSpan(t, dump.Records, "admission")
	if adm.Parent != "" {
		t.Errorf("admission span has parent %s, want none (the root)", adm.Parent)
	}
	for _, stage := range []string{"schedule", "solve"} {
		sp := findSpan(t, dump.Records, stage)
		if sp.Parent != adm.Span {
			t.Errorf("%s span parent %s, want the admission span %s", stage, sp.Parent, adm.Span)
		}
	}
	solve := findSpan(t, dump.Records, "solve")
	if solve.Detail != StatusDone || solve.Arg != res.MaxColor {
		t.Errorf("solve span detail/arg %q/%d, want %q/%d", solve.Detail, solve.Arg, StatusDone, res.MaxColor)
	}
	inner := findSpan(t, dump.Records, "solve:GLL")
	if inner.Parent != solve.Span {
		t.Errorf("solve:GLL parent %s, want the solve span %s", inner.Parent, solve.Span)
	}

	// The same tree must come back when filtering by trace id.
	byTrace := getFlight(t, ts.URL, "trace="+res.TraceID)
	if len(byTrace.Records) != len(dump.Records) {
		t.Errorf("trace filter returned %d records, job filter %d", len(byTrace.Records), len(dump.Records))
	}

	h := getHealthz(t, ts.URL)
	var st TenantStats
	for _, s := range h.Tenants {
		if s.Tenant == "trace-team" {
			st = s
		}
	}
	if st.Tenant == "" {
		t.Fatal("trace-team missing from healthz")
	}
	if st.P50MS <= 0 || st.P95MS < st.P50MS || st.P99MS < st.P95MS {
		t.Errorf("SLO quantiles p50=%v p95=%v p99=%v, want 0 < p50 <= p95 <= p99", st.P50MS, st.P95MS, st.P99MS)
	}
	if st.P50SolveMS <= 0 {
		t.Errorf("p50 solve %v, want > 0 after a completed solve", st.P50SolveMS)
	}
}

// TestServiceShardsValidation covers the admission rules for sharded
// requests: only the GLL/GLF greedy orders may shard, the portfolio may
// not, and a negative count is malformed.
func TestServiceShardsValidation(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	w4 := gridWeights(4)
	bad := []struct {
		name string
		req  Request
	}{
		{"best-sharded", Request{Shards: 2, X: 4, Y: 4, Weights: w4}},
		{"bdp-sharded", Request{Alg: "BDP", Shards: 2, X: 4, Y: 4, Weights: w4}},
		{"negative", Request{Alg: "GLL", Shards: -1, X: 4, Y: 4, Weights: w4}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postSolveRaw(t, ts.URL, tc.req)
			if code != http.StatusBadRequest {
				t.Errorf("status %d (%s), want 400", code, body)
			}
		})
	}
	// Shards: 1 is the in-process path, not an error.
	code, res := postSolve(t, ts.URL, Request{Alg: "GLL", Shards: 1, X: 4, Y: 4, Weights: w4})
	if code != http.StatusOK || res.Status != StatusDone {
		t.Fatalf("shards=1 solve: status %d/%q (%s)", code, res.Status, res.Error)
	}
}

// TestServiceShardedStormFlightScrape is the -race acceptance test: a
// chaos-stormed multi-shard solve runs through the service while
// concurrent scrapers hammer /debug/flight and /healthz. Every job must
// still reproduce the sequential GLL coloring, its trace must contain
// the distributed rounds under the request's tree, and the storm's
// fault events — carried across the halo-exchange wire — must attach to
// the originating jobs' traces.
func TestServiceShardedStormFlightScrape(t *testing.T) {
	rec := obsv.NewFlightRecorder(8192, nil)
	inj := chaos.New(20260808).
		WithProb(distsolve.SiteMsgDrop, 0.15).
		WithProb(distsolve.SiteMsgDup, 0.15).
		WithProb(distsolve.SiteMsgDelay, 0.05).
		WithFlight(rec)
	_, ts := newTestService(t, Config{Workers: 2, Flight: rec, Injector: inj})

	want, err := heuristics.Run("GLL", mustGrid2D(t, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMC := want.MaxColor(mustGrid2D(t, 8))

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/debug/flight")
				if err == nil {
					resp.Body.Close()
				}
				resp, err = http.Get(ts.URL + "/healthz")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}

	const jobs = 4
	traces := make(map[string]bool, jobs)
	for i := 0; i < jobs; i++ {
		code, res := postSolve(t, ts.URL, Request{
			Tenant: "storm", Alg: "GLL", Shards: 4,
			X: 8, Y: 8, Weights: gridWeights(8), TimeoutMS: 20000,
		})
		if code != http.StatusOK || res.Status != StatusDone {
			t.Fatalf("sharded job %d: status %d/%q (%s)", i, code, res.Status, res.Error)
		}
		if res.MaxColor != wantMC {
			t.Fatalf("sharded job %d maxcolor %d, want the sequential %d", i, res.MaxColor, wantMC)
		}
		c := core.Coloring{Start: res.Starts}
		if err := c.Validate(mustGrid2D(t, 8)); err != nil {
			t.Fatalf("sharded job %d: invalid coloring under storm: %v", i, err)
		}
		if res.TraceID == "" {
			t.Fatalf("sharded job %d carries no trace id", i)
		}
		traces[res.TraceID] = true

		dump := getFlight(t, ts.URL, "trace="+res.TraceID)
		adm := findSpan(t, dump.Records, "admission")
		solve := findSpan(t, dump.Records, "solve")
		if solve.Parent != adm.Span {
			t.Errorf("job %d: solve parent %s, want admission %s", i, solve.Parent, adm.Span)
		}
		rounds := 0
		for _, r := range dump.Records {
			if r.Kind == "span" && r.Name == "dist/round" {
				rounds++
				if r.Parent != solve.Span {
					t.Errorf("job %d: dist/round parent %s, want the solve span %s", i, r.Parent, solve.Span)
				}
			}
		}
		if rounds == 0 {
			t.Errorf("job %d: no dist/round spans in its trace", i)
		}
	}
	close(stop)
	scrapers.Wait()

	// The storm fired (probability 0.15 over hundreds of halo messages);
	// its events must be attributed to the submitted jobs' traces.
	if inj.TotalFires() == 0 {
		t.Fatal("the storm never fired; the test exercised nothing")
	}
	attributed := 0
	dump := getFlight(t, ts.URL, "")
	for _, r := range dump.Records {
		if r.Kind == "event" && r.Name == "fault.injected" && traces[r.Trace] {
			attributed++
			if !strings.HasPrefix(r.Detail, "distsolve/msg-") {
				t.Errorf("fault.injected detail %q, want a distsolve/msg-* site", r.Detail)
			}
		}
	}
	if attributed == 0 {
		t.Errorf("%d faults fired but none recorded under the jobs' traces", inj.TotalFires())
	}
}
