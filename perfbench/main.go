// Command perfbench is the repository's benchmark: workloads that report
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced run. batch and serve-repeat are the gated workloads of
// BENCHMARK.json; serve-unique, the open-loop service workload, runs by
// hand only (spec.json records why). The workload record, rates and
// exact counters live in spec.json.
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Any failed output check
// makes the command exit non-zero.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the program reads; the rest of the file
// is the workload record.
type spec struct {
	HeldOutSeed    uint64  `json:"held_out_seed"`
	SetupRepeats   int     `json:"setup_repeats"`
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	Batch          struct {
		Side2D       int     `json:"side_2d"`
		SideBDP      int     `json:"side_bdp"`
		Side3D       int     `json:"side_3d"`
		SideDist     int     `json:"side_dist"`
		SideDengue   int     `json:"side_dengue"`
		DengueSeed   int64   `json:"dengue_seed"`
		TailQuantile float64 `json:"tail_quantile"`
	} `json:"batch"`
	ServeUnique struct {
		RateRPS      float64   `json:"rate_rps"`
		LadderRPS    []float64 `json:"ladder_rps"`
		RungRequests int       `json:"rung_requests"`
		Tenants      int       `json:"tenants"`
		Sides2D      []int     `json:"sides_2d"`
		Side3D       int       `json:"side_3d"`
		TailQuantile float64   `json:"tail_quantile"`
	} `json:"serve_unique"`
	ServeRepeat struct {
		PoolSides    []int   `json:"pool_sides"`
		PerSide      int     `json:"per_side"`
		ZipfS        float64 `json:"zipf_s"`
		UniqueEvery  int     `json:"unique_every"`
		UniqueSide   int     `json:"unique_side"`
		PassRequests int     `json:"pass_requests"`
		MaxRPS       int     `json:"max_rps"`
		TailQuantile float64 `json:"tail_quantile"`
	} `json:"serve_repeat"`
	// ExactCounters names, per workload, the per-layer counters that must
	// repeat exactly for a fixed seed.
	ExactCounters map[string][]string `json:"exact_counters"`
	EndToEnd      []metricDecl        `json:"end_to_end"`
	PerLayer      []metricDecl        `json:"per_layer"`
}

// metricDecl declares one reported metric.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec() (*spec, error) {
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &sp, nil
}

func isExact(sp *spec, workload, name string) bool {
	return slices.Contains(sp.ExactCounters[workload], name)
}

// tally counts attempted operations and failed output checks.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) attempt() { t.attempted++ }

// fail records one failed check; the first few are kept for stderr.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// report is what a workload measured.
type report struct {
	tally
	e2e     map[string]float64
	layer   map[string]float64
	samples int     // latency samples behind latency_p50/tail
	windows int     // windows the serve latencies were split into
	tailQ   float64 // the quantile latency_tail_ms reports
	notes   []string
}

func newReport() *report { return &report{layer: map[string]float64{}} }

// timeSetup runs setup n times and returns the median wall time in
// seconds. Each setup returns a teardown; all but the last setup's are
// run, so the workload keeps the last one.
func timeSetup(n int, setup func() (func(), error)) (float64, error) {
	var xs []float64
	for i := range max(n, 1) {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		xs = append(xs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return median(xs), nil
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process ("self"
// or a pid) from /proc.
func peakRSSMiB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// cpuTimes reads the host-wide CPU time counters from /proc/stat and
// returns the total and the steal share: time the hypervisor ran
// something else while this machine's CPUs wanted to run.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// stealPct is the share of CPU time stolen by the host since t0/s0.
func stealPct(t0, s0 float64) float64 {
	t1, s1 := cpuTimes()
	if t1 <= t0 {
		return 0
	}
	return (s1 - s0) / (t1 - t0) * 100
}

// runtimeSnap is the GC state of this process.
type runtimeSnap struct{ gcCycles, gcPauseS float64 }

// readRuntime reads GC cycles and the total GC pause time (estimated
// from the pause histogram's bucket midpoints) via runtime/metrics.
func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	var snap runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.gcCycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			snap.gcPauseS += float64(c) * (lo + hi) / 2
		}
	}
	return snap
}

// output is the benchmark's last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(sp *spec, seed uint64, seconds float64, traced bool) (*report, error){
	"batch":        runBatch,
	"serve-unique": runServeUnique,
	"serve-repeat": runServeRepeat,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "batch, serve-unique or serve-repeat")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.StringVar(&daemonBin, "ivc", "", "path to a built cmd/ivc binary (serve-* workloads)")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload batch|serve-unique|serve-repeat, --seconds > 0, --trace 0|1\n")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d held_out_seed=%d\n",
		*workload, *seed, *seconds, *trace, sp.HeldOutSeed)
	t0, s0 := cpuTimes()
	rep, err := fn(sp, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.layer["host.steal_pct"] = stealPct(t0, s0)
	rep.notes = append(rep.notes, fmt.Sprintf("host steal %.2f%% of CPU time during the run", rep.layer["host.steal_pct"]))
	return emit(sp, *workload, rep, *trace == 1)
}

// emit prints every metric by name with its unit, then the JSON line.
// A metric that was not measured, or a failed check, fails the run.
func emit(sp *spec, workload string, rep *report, traced bool) int {
	decls, values := sp.EndToEnd, rep.e2e
	if traced {
		decls, values = sp.PerLayer, rep.layer
	}
	out := output{Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := values[d.Name]
		switch {
		case !ok && traced:
			v = 0 // a layer this workload does not exercise did no work
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			rep.fail("%s: metric %s was not measured", workload, d.Name)
			v = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-14s %-40s %14.6g %s\n", workload, d.Name, v, d.Unit)
	}
	for _, k := range sortedKeys(values) {
		if !slices.ContainsFunc(decls, func(d metricDecl) bool { return d.Name == k }) {
			rep.fail("%s: metric %s is measured but not declared in spec.json", workload, k)
		}
	}
	if !traced {
		fmt.Printf("%-14s latency_tail_ms is p%g of %d samples", workload, rep.tailQ*100, rep.samples)
		if rep.windows > 0 {
			fmt.Printf(" (median over %d windows of >= %d)", rep.windows, minSamples(rep.tailQ))
		}
		fmt.Println()
	}
	for _, n := range rep.notes {
		fmt.Printf("%-14s %s\n", workload, n)
	}
	fmt.Printf("%-14s fail_ratio %.6g (%d failed of %d attempted)\n", workload,
		ratio(float64(rep.failed), float64(max(rep.attempted, 1))), rep.failed, rep.attempted)
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	out.Attempted, out.Failed = rep.attempted, rep.failed
	out.Correct = rep.failed == 0 && rep.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
