// Command servesmoke is the end-to-end smoke test behind `make
// serve-smoke`: it boots a prebuilt ivc binary as a solve daemon on an
// ephemeral port, submits one 9-pt and one 27-pt job over the HTTP job
// API, checks /healthz and the service_* metric families on /metrics,
// and verifies a clean SIGINT shutdown. Exit status 0 means the daemon
// round-trips; any failure prints the reason and exits 1.
//
// With -flight it instead runs the request-tracing smoke behind `make
// trace-check`: submit one 9-pt job, then assert its complete span tree
// — admission → schedule → solve — comes back from
// GET /debug/flight by job id and that the tenant's /healthz p50 is
// live.
//
// Usage:
//
//	go build -o .smoke-ivc ./cmd/ivc
//	go run ./cmd/servesmoke -bin ./.smoke-ivc
//	go run ./cmd/servesmoke -bin ./.smoke-ivc -flight
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"
)

func main() {
	bin := flag.String("bin", "./.smoke-ivc", "path to a prebuilt ivc binary")
	flight := flag.Bool("flight", false, "run the request-tracing smoke (span tree on /debug/flight, live /healthz p50) instead of the default job-API smoke")
	flag.Parse()
	if err := run(*bin, *flight); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke:", err)
		os.Exit(1)
	}
	if *flight {
		fmt.Println("trace-check ok")
	} else {
		fmt.Println("serve-smoke ok")
	}
}

// run drives the whole smoke: boot, solve, scrape, shut down.
func run(bin string, flight bool) error {
	cmd := exec.Command(bin, "-serve", "127.0.0.1:0", "-par", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", bin, err)
	}
	defer cmd.Process.Kill()

	base, rest, err := waitForAddr(stdout)
	if err != nil {
		return err
	}
	go io.Copy(io.Discard, rest) // keep the daemon's stdout drained

	if flight {
		if err := checkFlight(base); err != nil {
			return err
		}
	} else {
		if err := solve(base, "9-pt", map[string]any{
			"tenant": "smoke", "alg": "best",
			"x": 4, "y": 3, "weights": []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8},
		}); err != nil {
			return err
		}
		if err := solve(base, "27-pt", map[string]any{
			"tenant": "smoke", "alg": "best",
			"x": 3, "y": 2, "z": 2, "weights": []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		}); err != nil {
			return err
		}
		if err := checkHealthz(base); err != nil {
			return err
		}
		if err := checkMetrics(base); err != nil {
			return err
		}
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		return fmt.Errorf("SIGINT: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly after SIGINT: %w", err)
		}
	case <-time.After(15 * time.Second):
		return fmt.Errorf("daemon did not exit within 15s of SIGINT")
	}
	return nil
}

// waitForAddr scans the daemon's stdout for the "serving solve API on
// http://ADDR" line and returns the base URL plus the remaining stream.
func waitForAddr(stdout io.Reader) (string, io.Reader, error) {
	const marker = "serving solve API on "
	br := bufio.NewReader(stdout)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			return "", nil, fmt.Errorf("no %q line within 15s", marker)
		}
		line, err := br.ReadString('\n')
		if i := strings.Index(line, marker); i >= 0 {
			return strings.TrimSpace(line[i+len(marker):]), br, nil
		}
		if err != nil {
			return "", nil, fmt.Errorf("daemon stdout closed before the serving line: %w", err)
		}
	}
}

// solve POSTs one synchronous job and checks it came back done with a
// coloring.
func solve(base, label string, req map[string]any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s solve: %w", label, err)
	}
	defer resp.Body.Close()
	var res struct {
		Status   string  `json:"status"`
		MaxColor int64   `json:"maxcolor"`
		Starts   []int64 `json:"starts"`
		Error    string  `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return fmt.Errorf("%s solve: decode: %w", label, err)
	}
	if resp.StatusCode != http.StatusOK || res.Status != "done" {
		return fmt.Errorf("%s solve: status %d/%q (%s), want 200 done",
			label, resp.StatusCode, res.Status, res.Error)
	}
	if res.MaxColor <= 0 || len(res.Starts) == 0 {
		return fmt.Errorf("%s solve: empty result (maxcolor=%d, %d starts)",
			label, res.MaxColor, len(res.Starts))
	}
	return nil
}

// checkHealthz verifies liveness and that the smoke tenant's jobs were
// admitted without sheds.
func checkHealthz(base string) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Tenants []struct {
			Tenant   string `json:"tenant"`
			Admitted int64  `json:"admitted"`
			Shed     int64  `json:"shed"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("healthz: decode: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz: status %q, want ok", h.Status)
	}
	for _, ts := range h.Tenants {
		if ts.Tenant == "smoke" {
			if ts.Admitted != 2 || ts.Shed != 0 {
				return fmt.Errorf("healthz: smoke tenant admitted=%d shed=%d, want 2/0",
					ts.Admitted, ts.Shed)
			}
			return nil
		}
	}
	return fmt.Errorf("healthz: smoke tenant missing from accounting")
}

// checkFlight is the `make trace-check` body: one synchronous 9-pt job,
// then its span tree from GET /debug/flight and a live /healthz p50.
func checkFlight(base string) error {
	body, err := json.Marshal(map[string]any{
		"tenant": "flight", "alg": "GLL",
		"x": 4, "y": 3, "weights": []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8},
	})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("flight solve: %w", err)
	}
	var res struct {
		ID      string `json:"id"`
		Status  string `json:"status"`
		TraceID string `json:"trace_id"`
		Error   string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("flight solve: decode: %w", err)
	}
	if resp.StatusCode != http.StatusOK || res.Status != "done" {
		return fmt.Errorf("flight solve: status %d/%q (%s), want 200 done",
			resp.StatusCode, res.Status, res.Error)
	}
	if len(res.TraceID) != 16 {
		return fmt.Errorf("flight solve: trace id %q, want 16 hex digits", res.TraceID)
	}

	resp, err = http.Get(base + "/debug/flight?job=" + res.ID)
	if err != nil {
		return fmt.Errorf("debug/flight: %w", err)
	}
	defer resp.Body.Close()
	var dump struct {
		Records []struct {
			Trace  string `json:"trace"`
			Span   string `json:"span"`
			Parent string `json:"parent"`
			Kind   string `json:"kind"`
			Name   string `json:"name"`
		} `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return fmt.Errorf("debug/flight: decode: %w", err)
	}
	spans := map[string]struct{ span, parent string }{}
	for _, r := range dump.Records {
		if r.Trace != res.TraceID {
			return fmt.Errorf("debug/flight: record %s carries trace %s, want %s", r.Name, r.Trace, res.TraceID)
		}
		if r.Kind == "span" {
			spans[r.Name] = struct{ span, parent string }{r.Span, r.Parent}
		}
	}
	adm, ok := spans["admission"]
	if !ok || adm.parent != "" {
		return fmt.Errorf("debug/flight: no root admission span (spans: %v)", spans)
	}
	for _, stage := range []string{"schedule", "solve"} {
		sp, ok := spans[stage]
		if !ok {
			return fmt.Errorf("debug/flight: %s span missing from job %s's tree", stage, res.ID)
		}
		if sp.parent != adm.span {
			return fmt.Errorf("debug/flight: %s span parent %s, want admission %s", stage, sp.parent, adm.span)
		}
	}
	if sp, ok := spans["solve:GLL"]; !ok || sp.parent != spans["solve"].span {
		return fmt.Errorf("debug/flight: solver span solve:GLL missing or detached (spans: %v)", spans)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	var h struct {
		Tenants []struct {
			Tenant string  `json:"tenant"`
			P50MS  float64 `json:"p50_ms"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("healthz: decode: %w", err)
	}
	for _, ts := range h.Tenants {
		if ts.Tenant == "flight" {
			if ts.P50MS <= 0 {
				return fmt.Errorf("healthz: flight tenant p50_ms=%v, want > 0 after a solve", ts.P50MS)
			}
			return nil
		}
	}
	return fmt.Errorf("healthz: flight tenant missing from SLO accounting")
}

// checkMetrics scrapes /metrics and requires the service_* families
// the daemon must export.
func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("metrics: read: %w", err)
	}
	text := buf.String()
	for _, family := range []string{
		"service_queue_depth",
		"service_workers_busy",
		"service_batch_size",
		"service_request_seconds",
		"service_tenant_admitted_total",
		"service_tenant_shed_total",
		"service_latency_queue_seconds",
		"service_latency_solve_seconds",
		"service_latency_total_seconds",
		"flight_records_total",
		"flight_entries",
	} {
		if !strings.Contains(text, family) {
			return fmt.Errorf("metrics: family %s missing from /metrics", family)
		}
	}
	if !strings.Contains(text, "service_tenant_admitted_total 2") {
		return fmt.Errorf("metrics: service_tenant_admitted_total != 2 after two solves")
	}
	return nil
}
