package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Dropped reports how many captures the per-trigger rate limit suppressed.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drops
}

func TestRecorderCaptureBundle(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("fr_test_ops_total", "Ops.", func() float64 { return 3 })
	ring := NewLogRing(8)
	ring.Append(LogRecord{Msg: "context line"})
	dir := t.TempDir()

	rec := NewRecorder(RecorderConfig{Capacity: 4, Dir: dir, Registry: reg, LogRing: ring})
	tr := NewTrace("req-42")
	tr.Annotate("dataset", "island")
	end := tr.Begin("solve")
	end()
	tr.Finish()

	inc := rec.Capture("slow_request", "solve took 2s", tr)
	if inc == nil {
		t.Fatal("first capture rate-limited")
	}
	if inc.ID != "inc-000001" || inc.Trigger != "slow_request" {
		t.Fatalf("incident header = %+v", inc)
	}
	if inc.RequestID != "req-42" || inc.Trace == nil || inc.Trace.Attrs["dataset"] != "island" {
		t.Fatalf("trace not attached: %+v", inc)
	}
	if !strings.Contains(inc.Goroutines, "goroutine profile:") {
		t.Fatalf("goroutine profile missing: %q", inc.Goroutines[:min(len(inc.Goroutines), 80)])
	}
	if !strings.Contains(inc.Metrics, "fr_test_ops_total 3") {
		t.Fatalf("metrics snapshot missing counter:\n%s", inc.Metrics)
	}
	if len(inc.Logs) != 1 || inc.Logs[0].Msg != "context line" {
		t.Fatalf("log tail = %+v", inc.Logs)
	}

	// The bundle also lands on disk, as valid JSON round-tripping to the
	// same incident.
	b, err := os.ReadFile(filepath.Join(dir, inc.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Incident
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.ID != inc.ID || onDisk.RequestID != "req-42" || onDisk.Trace == nil {
		t.Fatalf("dumped bundle = %+v", onDisk)
	}

	got, ok := rec.Get(inc.ID)
	if !ok || got != inc {
		t.Fatal("Get did not return the retained incident")
	}
}

func TestRecorderRateLimitPerTrigger(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 8, MinGap: time.Hour})
	if rec.Capture("slow_request", "a", nil) == nil {
		t.Fatal("first capture suppressed")
	}
	if rec.Capture("slow_request", "b", nil) != nil {
		t.Fatal("second capture inside the gap not suppressed")
	}
	// A different trigger has its own gap.
	if rec.Capture("store_health", "degraded", nil) == nil {
		t.Fatal("distinct trigger suppressed by another trigger's gap")
	}
	if rec.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", rec.Dropped())
	}
	if rec.Len() != 2 {
		t.Fatalf("len = %d, want 2", rec.Len())
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 2, MinGap: time.Nanosecond})
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		inc := rec.Capture("slow_request", "x", nil)
		if inc == nil {
			t.Fatalf("capture %d suppressed", i)
		}
		ids = append(ids, inc.ID)
		time.Sleep(time.Millisecond) // clear the (nanosecond) gap
	}
	if _, ok := rec.Get(ids[0]); ok {
		t.Fatal("oldest incident should be evicted")
	}
	recents := rec.Recent(0)
	if len(recents) != 2 || recents[0].ID != ids[2] || recents[1].ID != ids[1] {
		t.Fatalf("recent order wrong: %v %v", recents[0].ID, recents[1].ID)
	}
}
