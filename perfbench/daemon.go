package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonBin is the built cmd/ivc binary the serve workloads boot.
var daemonBin string

// daemon is one running `ivc -serve` process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
}

// startDaemon boots the solve daemon on an ephemeral localhost port at
// its default service configuration (-par 0 leaves Workers to the
// service default, min(GOMAXPROCS, 4)) and waits until /healthz answers.
func startDaemon() (*daemon, error) {
	if daemonBin == "" {
		return nil, errors.New("serve workloads need -ivc <path to the built cmd/ivc binary>")
	}
	cmd := exec.Command(daemonBin, "-serve", "127.0.0.1:0", "-par", "0")
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "serving solve API on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.base = <-addr:
	case <-d.exited:
		return nil, errors.New("daemon exited before it was listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not start listening within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon /healthz not ready within 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the daemon (it drains and exits) and waits until it
// has ended, killing it if the drain takes longer than 20s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMiB is the daemon's peak resident set so far.
func (d *daemon) peakRSSMiB() float64 { return peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid)) }

// getJSON decodes GET base+path into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cacheStats is the /healthz result-cache accounting.
type cacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
}

func (d *daemon) cache() (cacheStats, error) {
	var h struct {
		Cache *cacheStats `json:"cache"`
	}
	if err := d.getJSON("/healthz", &h); err != nil {
		return cacheStats{}, err
	}
	if h.Cache == nil {
		return cacheStats{}, errors.New("/healthz reports no result cache; the daemon default has it on")
	}
	return *h.Cache, nil
}

// scrape reads /metrics and sums every sample of each metric name
// across its label sets (exemplars after " # " are ignored).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		s := string(line)
		if s == "" || s[0] == '#' {
			continue
		}
		s, _, _ = strings.Cut(s, " # ")
		sp := strings.LastIndexByte(s, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(s[sp+1:], 64)
		if err != nil {
			continue
		}
		name := s[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}

// flightRecord is one /debug/flight record.
type flightRecord struct {
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Start  string  `json:"start"`
	WallMS float64 `json:"wall_ms"`
}

func (d *daemon) flight() ([]flightRecord, error) {
	var dump struct {
		Records []flightRecord `json:"records"`
	}
	err := d.getJSON("/debug/flight", &dump)
	return dump.Records, err
}

// newClient is an HTTP client holding at most conns connections to the
// daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one POST /solve and reads the whole reply into buf.
func post(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}
