package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/telemetry"
	"bagconsistency/pkg/bagclient"
)

// TestFlightRecorderSmoke arms the flight recorder with a sub-nanosecond
// p99 budget so ordinary traffic counts as overload, then asserts a
// capture lands on disk, as /healthz reports it: meta.json with the
// trigger reason, a heap profile, and the trace ring.
func TestFlightRecorderSmoke(t *testing.T) {
	dataDir := t.TempDir()
	opt := &options{
		addr:            "127.0.0.1:0",
		queueDepth:      64,
		cacheSize:       64,
		maxNodes:        5_000_000,
		maxTimeout:      time.Minute,
		parallelism:     2,
		dataDir:         dataDir,
		flightrec:       true,
		flightQueueFrac: 0, // queue trigger off: this test forces the p99 trigger
		flightP99Budget: time.Nanosecond,
		flightRetain:    4,
		flightCheck:     5 * time.Millisecond,
		flightCooldown:  time.Hour, // exactly one capture
		traceSlowMs:     0,
		traceRing:       32,
	}
	cli, drain := bootDaemon(t, opt)
	defer drain()
	defer opt.flight.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewSource(12))
	coll, _, err := gen.RandomConsistent(rng, hypergraph.Star(4), 12, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	bags := clientBags(t, coll)

	// The one capture can fire as soon as the first check's latency is
	// observed, which happens before the handler adds that check's trace
	// to the ring. So put a trace in the ring first: a malformed body is
	// traced and answered 400 before it reaches the service.
	resp, err := http.Post(cli.BaseURL()+"/v1/check", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed check: status %d, want 400", resp.StatusCode)
	}
	tracesDeadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(cli.BaseURL() + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Traces []json.RawMessage `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Traces) > 0 {
			break
		}
		if time.Now().After(tracesDeadline) {
			t.Fatal("the malformed check's trace never reached /debug/traces")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for range 4 {
		if _, err := cli.Check(ctx, bags); err != nil {
			t.Fatal(err)
		}
	}

	// The capture includes a bounded CPU profile (2s by default), so poll
	// until the recorder reports it complete.
	flightDir := filepath.Join(dataDir, "flightrec")
	var hs *bagclient.Health
	deadline := time.Now().Add(15 * time.Second)
	for {
		hs, err = cli.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if hs.FlightRecorder != nil && len(hs.FlightRecorder.Captures) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder never fired: %+v", hs.FlightRecorder)
		}
		time.Sleep(20 * time.Millisecond)
	}
	capture := hs.FlightRecorder.Captures[0]
	if capture.Reason != "p99_over_budget" {
		t.Fatalf("capture reason %q, want p99_over_budget", capture.Reason)
	}
	if len(hs.FlightRecorder.OnDisk) == 0 {
		t.Fatalf("no capture dirs reported on disk: %+v", hs.FlightRecorder)
	}

	dir := filepath.Join(flightDir, capture.Dir)
	var meta struct {
		Schema   string   `json:"schema"`
		Reason   string   `json:"reason"`
		TraceIDs []string `json:"trace_ids"`
	}
	metaRaw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Schema != telemetry.FlightrecSchema || meta.Reason != "p99_over_budget" {
		t.Fatalf("meta.json: %+v", meta)
	}
	for _, name := range []string{"heap.pprof", "traces.ndjson"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("capture artifact %s: %v", name, err)
		}
		if name == "heap.pprof" && st.Size() == 0 {
			t.Fatal("empty heap profile")
		}
	}
}
