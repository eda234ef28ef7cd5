package obsv

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixtureRegistry builds a registry with deterministic contents for the
// exposition tests.
func fixtureRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("ivc_vertices_colored_total", "Vertex placements performed.")
	c.Add(40)
	c.AddShard(3, 2)
	g := r.Gauge("ivc_last_maxcolor", "Maxcolor of the most recent solve.")
	g.Set(17)
	h := r.Histogram("ivc_occupancy_list_length", "Occupancy-list length per placement.",
		[]float64{1, 2, 4, 8})
	for _, v := range []int64{0, 1, 2, 3, 5, 8, 9} {
		h.ObserveInt(v)
	}
	r.Counter("solver_fallbacks_total",
		"Sequential-fallback engagements after a parallel solver degraded.").Add(3)
	r.Counter("solver_panics_recovered_total",
		"Solver panics recovered into typed errors instead of crashing.").Add(2)
	r.Counter("solver_partial_results_total",
		"Portfolio solves returning a best-so-far valid coloring with ErrPartial.").Add(1)
	// The runtime-sampler families, as an idle sampler registers them:
	// zero-valued but present, so the golden file pins their names, help
	// strings, and bucket layouts.
	NewSampler(r, time.Millisecond)
	// The solve-service families, likewise zero-valued: the golden file
	// pins the queue-depth gauge, the dispatch-size and request-latency
	// histograms, and the tenant admit/shed counters the daemon exposes.
	NewServiceMetrics(r)
	// The result-cache families, so the resultcache_* names and help
	// strings EXPERIMENTS.md references stay pinned.
	NewCacheMetrics(r)
	return r
}

// TestWritePrometheusGolden pins the exact text exposition against
// testdata/metrics.prom (refresh with: go test ./internal/obsv -update).
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.prom")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("Prometheus exposition drifted from %s:\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

// TestExpvarFunc: the expvar JSON view matches the registry contents.
func TestExpvarFunc(t *testing.T) {
	v := fixtureRegistry().ExpvarFunc()
	data, err := json.Marshal(v())
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if got := out["ivc_vertices_colored_total"].(float64); got != 42 {
		t.Errorf("counter = %v, want 42", got)
	}
	if got := out["ivc_last_maxcolor"].(float64); got != 17 {
		t.Errorf("gauge = %v, want 17", got)
	}
	hist := out["ivc_occupancy_list_length"].(map[string]any)
	if got := hist["count"].(float64); got != 7 {
		t.Errorf("histogram count = %v, want 7", got)
	}
	buckets := hist["buckets"].(map[string]any)
	if got := buckets["+Inf"].(float64); got != 7 {
		t.Errorf("+Inf bucket = %v, want 7", got)
	}
}

// TestHandler: the HTTP endpoint serves the registry plus the runtime
// gauges with the Prometheus content type.
func TestHandler(t *testing.T) {
	srv := httptest.NewServer(Handler(fixtureRegistry()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q is not the Prometheus text format", ct)
	}
	for _, want := range []string{
		"ivc_vertices_colored_total 42",
		"ivc_last_maxcolor 17",
		"solver_fallbacks_total 3",
		"solver_panics_recovered_total 2",
		"solver_partial_results_total 1",
		"go_goroutines",
		"go_mem_alloc_bytes",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("response missing %q", want)
		}
	}
}

// TestPublishIdempotent: Publish tolerates duplicate names instead of
// panicking like raw expvar.Publish.
func TestPublishIdempotent(t *testing.T) {
	r := fixtureRegistry()
	r.Publish("obsv_test_registry")
	r.Publish("obsv_test_registry") // second call must not panic
	var nilReg *Registry
	nilReg.Publish("obsv_test_registry_nil") // nil must not publish or panic
}

// TestWritePrometheusNil: a nil registry writes nothing.
func TestWritePrometheusNil(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry wrote %q (err %v)", buf.String(), err)
	}
}
