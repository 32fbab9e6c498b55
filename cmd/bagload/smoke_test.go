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
			HotkeyK:      64,
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

	// Workload analytics: the selfhost ran with -sh-hotkey-k 64, which
	// exceeds the distinct fingerprints a 20-item corpus can produce
	// (≤ 40: one global + one pair key per item), so the sketch is exact
	// and every top-K claim must be backed by the client's own ledger.
	wl := rep.Workload
	if wl == nil || wl.Server == nil || wl.Server.Workload == nil {
		t.Fatal("no workload section in the report")
	}
	if wl.Server.Workload.Stream == 0 || len(wl.ClientTopK) == 0 {
		t.Fatalf("empty workload analytics: %+v", wl)
	}
	sent := map[string]int{}
	for _, c := range wl.ClientTopK {
		sent[c.Key] = c.Sent
	}
	for _, hk := range wl.Server.Workload.TopK {
		if hk.ErrBound != 0 {
			t.Errorf("sketch not exact despite k > distinct keys: %+v", hk)
		}
		want, ok := sent[hk.Key]
		if !ok {
			t.Errorf("sketch tracks key %s the client never sent", hk.Key)
		} else if int(hk.Count) > want {
			t.Errorf("key %s: sketch count %d exceeds client sends %d", hk.Key, hk.Count, want)
		}
	}
	if wl.AgreementK == 0 || wl.TopKAgreement == 0 {
		t.Errorf("top-K agreement degenerate: k=%d agreement=%g", wl.AgreementK, wl.TopKAgreement)
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
	// The integer search has one branch order, so the selfhost knob that
	// picked the other one is gone.
	if _, err := parseFlags([]string{"-selfhost", "-sh-branch-low-first"}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-sh-branch-low-first: err = %v, want unknown flag", err)
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
