package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json that
// must agree with spec.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bj.EndToEnd, sp.EndToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %v\nspec.json      %v", bj.EndToEnd, sp.EndToEnd)
	}
	if !slices.Equal(bj.PerLayer, sp.PerLayer) {
		t.Errorf("per_layer differs between BENCHMARK.json and spec.json")
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(sp.EndToEnd), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is malformed or declared twice", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for w, cs := range sp.ExactCounters {
		if _, ok := workloads[w]; !ok {
			t.Errorf("exact counters name unknown workload %q", w)
		}
		for _, c := range cs {
			if !seen[c] {
				t.Errorf("exact counter %q is not a declared per-layer metric", c)
			}
		}
	}
}

func TestLadderIsAscendingAndBisectable(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	l := sp.ServeUnique.LadderRPS
	if !slices.IsSorted(l) || len(l) == 0 || l[0] <= 0 {
		t.Fatalf("ladder %v must be ascending and positive", l)
	}
	if sp.ServeUnique.RungRequests < minSamples(0.99) {
		t.Errorf("rung_requests %d cannot support a p99 (need %d)", sp.ServeUnique.RungRequests, minSamples(0.99))
	}
}
