package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// testGrid builds an n×n 9-pt instance with small varied weights.
func testGrid(t testing.TB, n int) grid.Stencil {
	t.Helper()
	w := make([]int64, n*n)
	for i := range w {
		w[i] = int64(i%7 + 1)
	}
	g, err := grid.FromWeights2D(n, n, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testJob builds a job for scheduler unit tests.
func testJob(t testing.TB, id, tenant string, g grid.Stencil) *job {
	t.Helper()
	return newJob(id, tenant, "GLL", g, time.Time{})
}

// enqueueOne admits and enqueues one job for tenant.
func enqueueOne(t *testing.T, s *scheduler, tenant string, j *job) {
	t.Helper()
	if !s.admit(tenant) {
		t.Fatalf("admit(%s) refused below the bound", tenant)
	}
	s.enqueue(j)
}

func TestSchedulerAdmitBound(t *testing.T) {
	m := obsv.NewServiceMetrics(nil)
	s := newScheduler(2, nil, m, nil)
	if !s.admit("a") || !s.admit("a") {
		t.Fatal("admits below the bound refused")
	}
	if s.admit("a") {
		t.Fatal("admit past the per-tenant bound accepted")
	}
	st := s.stats()
	if len(st) != 1 || st[0].Admitted != 2 || st[0].Shed != 1 || st[0].Queued != 2 {
		t.Fatalf("stats = %+v, want admitted=2 shed=1 queued=2", st)
	}
	s.unadmit("a")
	st = s.stats()
	if st[0].Queued != 1 || st[0].Shed != 2 || st[0].Admitted != 2 {
		t.Fatalf("after unadmit stats = %+v, want queued=1 shed=2 admitted=2", st)
	}
}

func TestSchedulerWeightedFairness(t *testing.T) {
	m := obsv.NewServiceMetrics(nil)
	s := newScheduler(100, map[string]float64{"b": 3}, m, nil)
	g := testGrid(t, 2)
	for i := 0; i < 12; i++ {
		enqueueOne(t, s, "a", testJob(t, fmt.Sprintf("a%d", i), "a", g))
		enqueueOne(t, s, "b", testJob(t, fmt.Sprintf("b%d", i), "b", g))
	}
	// Draw 16 jobs by hand (no workers): tenant b, at weight 3,
	// should receive roughly three dispatches for each of a's, and a
	// must not starve.
	counts := map[string]int{}
	for i := 0; i < 16; i++ {
		j := s.next()
		if j == nil {
			t.Fatal("next returned nil with jobs queued")
		}
		counts[j.tenant]++
	}
	if counts["a"] == 0 {
		t.Fatal("tenant a starved under weighted fair queuing")
	}
	if counts["b"] < 2*counts["a"] {
		t.Fatalf("dispatch counts a=%d b=%d; want b at roughly 3x a", counts["a"], counts["b"])
	}
}

func TestSchedulerIdleCreditReset(t *testing.T) {
	m := obsv.NewServiceMetrics(nil)
	s := newScheduler(100, nil, m, nil)
	g := testGrid(t, 2)
	for i := 0; i < 10; i++ {
		enqueueOne(t, s, "a", testJob(t, fmt.Sprintf("a%d", i), "a", g))
	}
	for i := 0; i < 5; i++ {
		if s.next() == nil {
			t.Fatal("next returned nil")
		}
	}
	// Tenant b was idle the whole time; joining now it resumes at a's
	// served level instead of cashing in banked idle credit and
	// monopolizing the workers.
	enqueueOne(t, s, "b", testJob(t, "b0", "b", g))
	st := s.stats()
	var servedA, servedB float64
	for _, ts := range st {
		switch ts.Tenant {
		case "a":
			servedA = ts.ServedWork
		case "b":
			servedB = ts.ServedWork
		}
	}
	if servedA == 0 {
		t.Fatal("tenant a has no served work after 5 dispatches")
	}
	if servedB != servedA {
		t.Fatalf("idle tenant joined at served=%v, want the active floor %v", servedB, servedA)
	}
}

func TestSchedulerCloseDrains(t *testing.T) {
	m := obsv.NewServiceMetrics(nil)
	var mu sync.Mutex
	ran := 0
	s := newScheduler(100, nil, m, func(*job) {
		mu.Lock()
		ran++
		mu.Unlock()
	})
	s.start(3)
	g := testGrid(t, 2)
	for i := 0; i < 20; i++ {
		enqueueOne(t, s, "a", testJob(t, fmt.Sprintf("a%d", i), "a", g))
	}
	s.close()
	mu.Lock()
	defer mu.Unlock()
	if ran != 20 {
		t.Fatalf("close drained %d jobs, want 20", ran)
	}
}
