package obsv

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// decodeEvents parses the JSON-lines output of a sink into the msg
// field of each record, plus the raw decoded objects.
func decodeEvents(t *testing.T, buf *bytes.Buffer) ([]string, []map[string]any) {
	t.Helper()
	var msgs []string
	var objs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		msgs = append(msgs, obj["msg"].(string))
		objs = append(objs, obj)
	}
	return msgs, objs
}

// TestEventSinkJSON: every fixed-taxonomy method emits one JSON object
// per line with the expected msg and attributes, and Emitted counts
// them.
func TestEventSinkJSON(t *testing.T) {
	var buf bytes.Buffer
	e := NewJSONEventSink(&buf)
	e.SolveStart("PGLL", 2, 4096)
	e.SolveFinish("PGLL", 17, 3*time.Millisecond, nil)
	e.SolveFinish("BDP", 0, time.Millisecond, errors.New("boom"))
	e.Speculation(64, 4, true)
	e.RepairSweep(2, 9, false)
	e.Fallback("pgreedy", "worker panic")
	e.FaultInjected("pgreedy/halo-read", 7, 0xabc)
	e.PartialResult(3, 7, "GLL")
	e.Dropped("SGK", errors.New("panicked"))
	e.ServiceAdmit("team-a", "job-1", 3)
	e.ServiceShed("team-b", "job-2", "queue full")
	e.ServiceDone("team-a", "job-1", 17, 5*time.Millisecond, true)
	e.Event("custom", slog.Int("k", 1))

	msgs, objs := decodeEvents(t, &buf)
	want := []string{"solve.start", "solve.finish", "solve.error", "pgreedy.speculate",
		"pgreedy.repair", "solve.fallback", "fault.injected", "solve.partial",
		"portfolio.drop", "service.admit", "service.shed",
		"service.done", "custom"}
	if len(msgs) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(msgs), msgs, len(want))
	}
	for i := range want {
		if msgs[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, msgs[i], want[i])
		}
	}
	if e.Emitted() != int64(len(want)) {
		t.Errorf("Emitted = %d, want %d", e.Emitted(), len(want))
	}
	if objs[0]["alg"] != "PGLL" || objs[0]["vertices"] != float64(4096) {
		t.Errorf("solve.start attrs = %v", objs[0])
	}
	if objs[1]["maxcolor"] != float64(17) {
		t.Errorf("solve.finish attrs = %v", objs[1])
	}
	if objs[2]["error"] != "boom" {
		t.Errorf("solve.error attrs = %v", objs[2])
	}
	if objs[6]["site"] != "pgreedy/halo-read" || objs[6]["visit"] != float64(7) {
		t.Errorf("fault.injected attrs = %v", objs[6])
	}
	if objs[6]["trace_id"] != FlightID(0xabc) {
		t.Errorf("fault.injected trace_id = %v, want %s", objs[6]["trace_id"], FlightID(0xabc))
	}
	if objs[9]["tenant"] != "team-a" || objs[9]["queued"] != float64(3) {
		t.Errorf("service.admit attrs = %v", objs[9])
	}
	if objs[10]["reason"] != "queue full" {
		t.Errorf("service.shed attrs = %v", objs[10])
	}
	if objs[11]["partial"] != true || objs[11]["maxcolor"] != float64(17) {
		t.Errorf("service.done attrs = %v", objs[11])
	}
}

// TestEventSinkNilConstructors: nil writers and handlers yield nil
// (disabled) sinks, so optional wiring passes through unconditionally.
func TestEventSinkNilConstructors(t *testing.T) {
	if NewJSONEventSink(nil) != nil {
		t.Error("NewJSONEventSink(nil) != nil")
	}
	if NewEventSink(nil) != nil {
		t.Error("NewEventSink(nil) != nil")
	}
}

// TestEventSinkNilAllocs pins the disabled-path contract: every
// fixed-taxonomy method on a nil sink is a no-op that allocates
// nothing, so threading the event log through the solve pipeline cannot
// cost the hot paths anything.
func TestEventSinkNilAllocs(t *testing.T) {
	var e *EventSink
	err := errors.New("static")
	if n := testing.AllocsPerRun(200, func() {
		e.SolveStart("GLL", 2, 100)
		e.SolveFinish("GLL", 10, time.Millisecond, nil)
		e.SolveFinish("GLL", 0, time.Millisecond, err)
		e.Speculation(8, 2, false)
		e.RepairSweep(1, 3, true)
		e.Fallback("pgreedy", "reason")
		e.FaultInjected("site", 1, 0)
		e.PartialResult(1, 2, "GLL")
		e.Dropped("BD", err)
		e.ServiceAdmit("t", "j", 1)
		e.ServiceShed("t", "j", "r")
		e.ServiceDone("t", "j", 1, time.Millisecond, false)
		if e.Emitted() != 0 {
			t.Fatal("nil sink emitted")
		}
	}); n != 0 {
		t.Errorf("nil EventSink methods allocate %.1f per run, want 0", n)
	}
}
