package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"bagconsistency/internal/trace"
)

// RecorderConfig tunes the overload flight recorder.
type RecorderConfig struct {
	// Dir is the capture directory (created if missing), conventionally
	// <data-dir>/flightrec.
	Dir string
	// QueueFrac triggers a capture when queue depth / capacity reaches
	// this fraction. <= 0 disables the queue trigger.
	QueueFrac float64
	// P99Budget triggers a capture when the p99 end-to-end latency over
	// the sliding window exceeds it. <= 0 disables the latency trigger.
	P99Budget time.Duration
	// Window is the sliding latency window size (default 512).
	Window int
	// ProfileDuration bounds the CPU profile per capture (default 2s).
	ProfileDuration time.Duration
	// Retain bounds the number of capture directories kept (default 8).
	Retain int
	// Cooldown is the minimum spacing between captures (default 60s) so
	// a sustained overload produces a few captures, not a disk flood.
	Cooldown time.Duration
	// CheckInterval is how often triggers are evaluated (default 1s).
	// The check runs on its own goroutine precisely because overload is
	// when request-path goroutines stop making progress.
	CheckInterval time.Duration
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.Window <= 0 {
		c.Window = 512
	}
	if c.ProfileDuration <= 0 {
		c.ProfileDuration = 2 * time.Second
	}
	if c.Retain <= 0 {
		c.Retain = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Minute
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = time.Second
	}
	return c
}

// RecorderProbes are the read-only views the recorder samples when a
// capture fires. Any of them may be nil.
type RecorderProbes struct {
	// QueueFill returns current queue depth / capacity in [0, 1].
	QueueFill func() float64
	// Traces returns the trace snapshots (ring + slow ring) to persist
	// as traces.ndjson; their trace ids link captures to slow_traces
	// entries.
	Traces func() []*trace.Snapshot
	// Logf, when set, receives one line per capture.
	Logf func(format string, args ...any)
}

// CaptureInfo describes one completed capture.
type CaptureInfo struct {
	Seq      int     `json:"seq"`
	Dir      string  `json:"dir"` // basename under RecorderConfig.Dir
	Reason   string  `json:"reason"`
	UnixMs   int64   `json:"unix_ms"`
	QueueFil float64 `json:"queue_fill"`
	P99Ms    float64 `json:"p99_ms"`
}

// RecorderStatus is the JSON shape of /healthz's flight_recorder field.
type RecorderStatus struct {
	Schema      string        `json:"schema"` // FlightrecSchema
	Dir         string        `json:"dir"`
	QueueFrac   float64       `json:"queue_frac"`
	P99BudgetMs float64       `json:"p99_budget_ms"`
	WindowP99Ms float64       `json:"window_p99_ms"`
	Captures    []CaptureInfo `json:"captures,omitempty"` // this process, oldest first
	OnDisk      []string      `json:"on_disk,omitempty"`  // retained capture dirs
}

// FlightrecSchema versions the status and meta.json shapes.
const FlightrecSchema = "flightrec/v1"

// Recorder is the overload flight recorder: a trigger loop sampling
// queue fill and windowed p99, and a capture routine persisting a
// bounded pprof CPU+heap profile plus the trace rings.
type Recorder struct {
	cfg    RecorderConfig
	probes RecorderProbes

	mu        sync.Mutex
	window    []float64 // end-to-end latencies, seconds; ring
	wnext     int
	wfull     bool
	rot       *trace.Rotation // capture-NNNNNN-<reason> dirs; Next under mu
	last      time.Time
	captures  []CaptureInfo
	capturing bool

	stop    chan struct{}
	stopped sync.Once
	started bool
	done    chan struct{}
}

// NewRecorder creates the capture directory and returns a recorder.
// Call Start to arm the trigger loop.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("telemetry: flight recorder needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Recorder{
		cfg:    cfg,
		window: make([]float64, cfg.Window),
		rot:    trace.NewRotation(cfg.Dir, "capture-", cfg.Retain),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Observe feeds one end-to-end request latency (seconds) into the
// sliding window behind the p99 trigger.
func (r *Recorder) Observe(latency float64) {
	if r == nil || latency < 0 {
		return
	}
	r.mu.Lock()
	r.window[r.wnext] = latency
	r.wnext++
	if r.wnext == len(r.window) {
		r.wnext = 0
		r.wfull = true
	}
	r.mu.Unlock()
}

// windowP99 returns the p99 over the sliding window (0 when empty).
func (r *Recorder) windowP99() float64 {
	r.mu.Lock()
	n := r.wnext
	if r.wfull {
		n = len(r.window)
	}
	vals := append([]float64(nil), r.window[:n]...)
	r.mu.Unlock()
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	idx := (99*len(vals) + 99) / 100 // nearest-rank ceil(0.99 n)
	if idx > len(vals) {
		idx = len(vals)
	}
	return vals[idx-1]
}

// Start arms the trigger loop with the given probes. Second and later
// calls are no-ops.
func (r *Recorder) Start(p RecorderProbes) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	r.probes = p
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.cfg.CheckInterval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.check()
			}
		}
	}()
}

// check evaluates both triggers once and fires a capture when either
// crosses its threshold outside the cooldown.
func (r *Recorder) check() {
	reason := ""
	fill := 0.0
	if r.probes.QueueFill != nil {
		fill = r.probes.QueueFill()
	}
	p99 := r.windowP99()
	switch {
	case r.cfg.QueueFrac > 0 && fill >= r.cfg.QueueFrac:
		reason = "queue_fill"
	case r.cfg.P99Budget > 0 && p99 > r.cfg.P99Budget.Seconds():
		reason = "p99_over_budget"
	default:
		return
	}
	r.mu.Lock()
	if r.capturing || (!r.last.IsZero() && time.Since(r.last) < r.cfg.Cooldown) {
		r.mu.Unlock()
		return
	}
	r.capturing = true
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.capturing = false
		r.mu.Unlock()
	}()
	if _, err := r.capture(reason, fill, p99); err != nil && r.probes.Logf != nil {
		r.probes.Logf("flightrec: capture failed: %v", err)
	}
}

// Trigger fires a capture immediately (no cooldown check) — the manual
// override and the test seam.
func (r *Recorder) Trigger(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	fill := 0.0
	if r.probes.QueueFill != nil {
		fill = r.probes.QueueFill()
	}
	return r.capture(reason, fill, r.windowP99())
}

// capture persists one flight: meta.json first (so a crashed capture
// is still identifiable), then traces, then heap and a bounded CPU
// profile. Returns the capture directory.
func (r *Recorder) capture(reason string, fill, p99 float64) (string, error) {
	r.mu.Lock()
	name, seq := r.rot.Next(reason)
	now := time.Now()
	r.last = now
	r.mu.Unlock()

	dir := filepath.Join(r.cfg.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	info := CaptureInfo{
		Seq: seq, Dir: name, Reason: reason,
		UnixMs: now.UnixMilli(), QueueFil: fill, P99Ms: p99 * 1000,
	}

	var snaps []*trace.Snapshot
	if r.probes.Traces != nil {
		snaps = r.probes.Traces()
	}
	meta := struct {
		Schema string `json:"schema"`
		CaptureInfo
		TraceIDs []string `json:"trace_ids,omitempty"`
		Errors   []string `json:"errors,omitempty"`
	}{Schema: FlightrecSchema, CaptureInfo: info}
	for _, s := range snaps {
		if s != nil {
			meta.TraceIDs = append(meta.TraceIDs, s.TraceID)
		}
	}

	fail := func(step string, err error) {
		meta.Errors = append(meta.Errors, fmt.Sprintf("%s: %v", step, err))
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), meta); err != nil {
		return dir, err
	}
	if len(snaps) > 0 {
		if err := writeNDJSON(filepath.Join(dir, "traces.ndjson"), snaps); err != nil {
			fail("traces", err)
		}
	}
	if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err != nil {
		fail("heap", err)
	} else {
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("heap", err)
		}
		f.Close()
	}
	if f, err := os.Create(filepath.Join(dir, "cpu.pprof")); err != nil {
		fail("cpu", err)
	} else {
		// StartCPUProfile fails when another profile is active (e.g. an
		// operator hitting the -pprof endpoint); the flight keeps the
		// heap and trace captures and records why CPU is missing.
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpu", err)
		} else {
			time.Sleep(r.cfg.ProfileDuration)
			pprof.StopCPUProfile()
		}
		f.Close()
	}
	// Rewrite meta with any errors accumulated after the first write.
	if len(meta.Errors) > 0 {
		if err := writeJSON(filepath.Join(dir, "meta.json"), meta); err != nil {
			fail("meta", err)
		}
	}

	r.mu.Lock()
	r.captures = append(r.captures, info)
	r.mu.Unlock()
	pruneErrs := r.rot.Prune()
	if r.probes.Logf != nil {
		for _, err := range pruneErrs {
			r.probes.Logf("flightrec: pruning old captures: %v", err)
		}
		r.probes.Logf("flightrec: captured %s (reason=%s queue_fill=%.2f p99_ms=%.1f)",
			name, reason, fill, p99*1000)
	}
	return dir, nil
}

// onDisk lists retained capture dirs, oldest first (sequence order).
func (r *Recorder) onDisk() []string { return r.rot.Entries() }

// Status reports the recorder's configuration and capture history.
func (r *Recorder) Status() *RecorderStatus {
	if r == nil {
		return nil
	}
	st := &RecorderStatus{
		Schema:      FlightrecSchema,
		Dir:         r.cfg.Dir,
		QueueFrac:   r.cfg.QueueFrac,
		P99BudgetMs: float64(r.cfg.P99Budget.Milliseconds()),
		WindowP99Ms: r.windowP99() * 1000,
		OnDisk:      r.onDisk(),
	}
	r.mu.Lock()
	st.Captures = append(st.Captures, r.captures...)
	r.mu.Unlock()
	return st
}

// Close stops the trigger loop and waits for it to exit. In-flight
// captures complete; no new ones start.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.stopped.Do(func() { close(r.stop) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeNDJSON(path string, snaps []*trace.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
