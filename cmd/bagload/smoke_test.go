package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeOptions is the CI load-smoke configuration: modest rate, mostly
// acyclic corpus, generous budgets — the point is exercising the full
// open-loop path, not stressing the server.
func smokeOptions(d time.Duration) *options {
	return &options{
		selfhost:          true,
		seed:              42,
		rps:               20,
		duration:          d,
		arrival:           "poisson",
		mixPair:           1,
		mixGlobal:         2,
		mixBatch:          1,
		zipfS:             1.1,
		batchSize:         4,
		corpusItems:       20,
		corpusAcyclicFrac: 0.9,
		corpusSupport:     32,
		corpusCyclicN:     3,
		corpusCyclicMaxV:  256,
		requestTimeout:    30 * time.Second,
		sh: SelfhostConfig{
			Parallelism:  4,
			QueueDepth:   256,
			CacheSize:    1024,
			Admission:    "hardness",
			MaxNodes:     5_000_000,
			MaxTimeoutMs: 20_000,
		},
	}
}

// smokeDuration honors BAGLOAD_SMOKE_DURATION (the CI job passes 10s);
// plain `go test` keeps it short.
func smokeDuration(t *testing.T) time.Duration {
	if v := os.Getenv("BAGLOAD_SMOKE_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("BAGLOAD_SMOKE_DURATION: %v", err)
		}
		return d
	}
	return 3 * time.Second
}

// TestLoadSmoke is the CI load-smoke gate: a short open-loop run against
// the in-process daemon must complete with zero transport errors,
// nonzero cache hits, and both halves of the request-conservation
// invariant intact.
func TestLoadSmoke(t *testing.T) {
	opt := smokeOptions(smokeDuration(t))
	rep, err := run(context.Background(), opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Traffic.Sent != rep.Traffic.Scheduled {
		t.Errorf("sent %d of %d scheduled", rep.Traffic.Sent, rep.Traffic.Scheduled)
	}
	if rep.Traffic.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if rep.Traffic.Transport != 0 {
		t.Errorf("transport errors = %d, want 0", rep.Traffic.Transport)
	}
	if rep.Traffic.OK == 0 {
		t.Error("no successful requests")
	}
	if rep.Server == nil {
		t.Fatal("no server stats")
	}
	if rep.Server.CacheHits == 0 {
		t.Error("zero cache hits despite Zipf repeats over a 20-item corpus")
	}
	if !rep.Conservation.ClientHolds {
		t.Errorf("client conservation violated: slack %d", rep.Conservation.ClientSlack)
	}
	if rep.Conservation.ServerHolds == nil || !*rep.Conservation.ServerHolds {
		t.Errorf("server conservation violated or undecided: slack %g", rep.Conservation.ServerSlack)
	}
	if rep.Latency.N == 0 || rep.Latency.P999Ms < rep.Latency.P50Ms {
		t.Errorf("latency summary malformed: %+v", rep.Latency)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.Runner.GoVersion == "" || rep.Runner.GOMAXPROCS == 0 {
		t.Errorf("runner metadata incomplete: %+v", rep.Runner)
	}
	if rep.Server.ILPNodes == 0 {
		t.Error("zero ILP nodes despite cache misses that must have computed")
	}

	// The workload section is archival: decoded from old reports, never
	// written by a new run.
	if rep.Workload != nil {
		t.Errorf("a new run wrote a workload section: %s", rep.Workload)
	}
	// The human table must render every new section.
	writeTable(io.Discard, rep)
}

// TestOptionsValidate pins the flag-validation surface.
func TestOptionsValidate(t *testing.T) {
	if _, err := parseFlags([]string{}); err == nil {
		t.Error("neither -selfhost nor -addr: want error")
	}
	if _, err := parseFlags([]string{"-selfhost", "-addr", "http://x"}); err == nil {
		t.Error("both -selfhost and -addr: want error")
	}
	if _, err := parseFlags([]string{"-selfhost", "-arrival", "uniform"}); err == nil {
		t.Error("bad arrival: want error")
	}
	// The integer search has one branch order and the hot-key sketch is
	// gone, so the selfhost knobs that picked the other order and sized
	// the sketch are gone too.
	for _, args := range [][]string{
		{"-selfhost", "-sh-branch-low-first"},
		{"-selfhost", "-sh-hotkey-k", "0"},
	} {
		if _, err := parseFlags(args); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want unknown flag", args, err)
		}
	}
	opt, err := parseFlags([]string{"-selfhost", "-arrival", "bursty"})
	if err != nil {
		t.Fatal(err)
	}
	if !opt.selfhost {
		t.Errorf("flags not bound: %+v", opt)
	}
}

func TestParsePromText(t *testing.T) {
	snap := parsePromText(strings.Join([]string{
		"# HELP x y",
		"# TYPE x counter",
		`bagcd_requests_admitted_total 42`,
		`bagcd_load_shed_total{reason="queue_full"} 7`,
		`bagcd_queue_wait_seconds_sum{kind="global"} 1.25`,
		"garbage line without value x",
		"",
	}, "\n"))
	if snap["bagcd_requests_admitted_total"] != 42 {
		t.Errorf("plain series: %v", snap)
	}
	if snap[`bagcd_load_shed_total{reason="queue_full"}`] != 7 {
		t.Errorf("labeled series: %v", snap)
	}
	if snap[`bagcd_queue_wait_seconds_sum{kind="global"}`] != 1.25 {
		t.Errorf("float series: %v", snap)
	}

	before := promSnapshot{"a": 1, `b{l="x"}`: 2}
	after := promSnapshot{"a": 5, `b{l="x"}`: 2.5, `b{l="y"}`: 3}
	if d := before.delta(after, "a"); d != 4 {
		t.Errorf("delta = %v, want 4", d)
	}
	if d := before.sumDelta(after, "b{"); d != 3.5 {
		t.Errorf("sumDelta = %v, want 3.5", d)
	}
}
