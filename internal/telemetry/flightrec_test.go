package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bagconsistency/internal/trace"
)

func testRecorder(t *testing.T, cfg RecorderConfig) *Recorder {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = filepath.Join(t.TempDir(), "flightrec")
	}
	if cfg.ProfileDuration == 0 {
		cfg.ProfileDuration = 10 * time.Millisecond
	}
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func traceSnapshot() *trace.Snapshot {
	tr := trace.New(trace.NewID(), "request")
	tr.Root().End()
	return tr.Snapshot()
}

func TestRecorderTriggerCapturesFlight(t *testing.T) {
	snap := traceSnapshot()
	r := testRecorder(t, RecorderConfig{QueueFrac: 0.9})
	r.probes = RecorderProbes{
		QueueFill: func() float64 { return 0.95 },
		Traces:    func() []*trace.Snapshot { return []*trace.Snapshot{snap} },
	}
	dir, err := r.Trigger("queue_fill")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"meta.json", "traces.ndjson", "heap.pprof", "cpu.pprof"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("capture missing %s: %v", f, err)
		}
		if st.Size() == 0 && f != "cpu.pprof" { // cpu may legitimately be empty if profiling was busy
			t.Errorf("capture file %s is empty", f)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Schema   string   `json:"schema"`
		Reason   string   `json:"reason"`
		TraceIDs []string `json:"trace_ids"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Schema != FlightrecSchema || meta.Reason != "queue_fill" {
		t.Fatalf("meta = %+v", meta)
	}
	if len(meta.TraceIDs) != 1 || meta.TraceIDs[0] != snap.TraceID {
		t.Fatalf("capture not linked to trace ids: %+v", meta.TraceIDs)
	}
	st := r.Status()
	if len(st.Captures) != 1 || len(st.OnDisk) != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestRecorderQueueTriggerLoop(t *testing.T) {
	r := testRecorder(t, RecorderConfig{
		QueueFrac:     0.5,
		CheckInterval: 5 * time.Millisecond,
		Cooldown:      time.Hour, // exactly one capture
	})
	r.Start(RecorderProbes{QueueFill: func() float64 { return 0.8 }})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(r.Status().Captures) >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := r.Status()
	if len(st.Captures) != 1 {
		t.Fatalf("queue trigger fired %d times, want 1", len(st.Captures))
	}
	if st.Captures[0].Reason != "queue_fill" {
		t.Fatalf("reason = %q", st.Captures[0].Reason)
	}
	// Cooldown holds: give the loop a few more ticks, still one capture.
	time.Sleep(50 * time.Millisecond)
	if got := len(r.Status().Captures); got != 1 {
		t.Fatalf("cooldown violated: %d captures", got)
	}
}

func TestRecorderP99Trigger(t *testing.T) {
	r := testRecorder(t, RecorderConfig{
		P99Budget:     50 * time.Millisecond,
		CheckInterval: 5 * time.Millisecond,
		Cooldown:      time.Hour,
	})
	for i := 0; i < 100; i++ {
		r.Observe(0.2) // all observations blow the 50ms budget
	}
	if p99 := r.windowP99(); p99 < 0.19 {
		t.Fatalf("window p99 = %v", p99)
	}
	r.Start(RecorderProbes{})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if caps := r.Status().Captures; len(caps) == 1 {
			if caps[0].Reason != "p99_over_budget" {
				t.Fatalf("reason = %q", caps[0].Reason)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("p99 trigger never fired")
}

func TestRecorderRetention(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	r := testRecorder(t, RecorderConfig{Dir: dir, QueueFrac: 0.9, Retain: 2})
	for i := 0; i < 4; i++ {
		if _, err := r.Trigger("queue_fill"); err != nil {
			t.Fatal(err)
		}
	}
	names := r.onDisk()
	if len(names) != 2 {
		t.Fatalf("retained %d captures, want 2: %v", len(names), names)
	}
	if !strings.HasPrefix(names[0], "capture-000003") || !strings.HasPrefix(names[1], "capture-000004") {
		t.Fatalf("retention kept the wrong flights: %v", names)
	}
}

func TestRecorderSequenceSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	r1 := testRecorder(t, RecorderConfig{Dir: dir, QueueFrac: 0.9})
	if _, err := r1.Trigger("queue_fill"); err != nil {
		t.Fatal(err)
	}
	r1.Close()
	r2 := testRecorder(t, RecorderConfig{Dir: dir, QueueFrac: 0.9})
	capDir, err := r2.Trigger("queue_fill")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(capDir, "capture-000002") {
		t.Fatalf("restart reused a sequence number: %s", capDir)
	}
	if got := len(r2.onDisk()); got != 2 {
		t.Fatalf("on disk = %d, want 2", got)
	}
}

func TestRecorderCloseWithoutStart(t *testing.T) {
	r, err := NewRecorder(RecorderConfig{Dir: filepath.Join(t.TempDir(), "fr")})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { r.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked without Start")
	}
}
