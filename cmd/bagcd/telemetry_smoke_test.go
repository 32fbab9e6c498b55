package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/telemetry"
	"bagconsistency/pkg/bagclient"
	"bagconsistency/pkg/bagconsist"
)

// TestWorkloadSmoke boots the full daemon stack with workload analytics
// on, drives a skewed request mix, and asserts the sketch's top-K agrees
// exactly with the known per-instance send counts — the same consistency
// EXP-004 measures under overload, here as a fast CI gate.
func TestWorkloadSmoke(t *testing.T) {
	opt := &options{
		addr:        "127.0.0.1:0",
		queueDepth:  256,
		cacheSize:   256,
		maxNodes:    5_000_000,
		maxTimeout:  time.Minute,
		parallelism: 4,
		hotkeyK:     64,
	}
	cli, drain := bootDaemon(t, opt)
	defer drain()
	ctx := context.Background()

	// Five distinct instances with strongly skewed send counts. With
	// k=64 > 5 distinct keys the sketch is exact: counts must match the
	// sends with zero error bound.
	sends := []int{12, 6, 3, 2, 1}
	rng := rand.New(rand.NewSource(11))
	type inst struct {
		bags []bagclient.NamedBag
		fp   string
		sent int
	}
	var insts []inst
	for _, n := range sends {
		coll, _, err := gen.RandomConsistent(rng, hypergraph.Star(4), 12, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := bagconsist.FingerprintCollection(coll)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst{bags: clientBags(t, coll), fp: fp, sent: n})
	}
	total := 0
	for _, in := range insts {
		for range in.sent {
			rep, err := cli.Check(ctx, in.bags)
			if err != nil || !rep.Consistent {
				t.Fatalf("check: rep=%+v err=%v", rep, err)
			}
			total++
		}
	}

	ws, err := cli.Workload(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Schema == "" || ws.Workload == nil {
		t.Fatalf("workload status: %+v", ws)
	}
	w := ws.Workload
	if w.Stream != uint64(total) || w.Tracked != len(sends) {
		t.Fatalf("stream=%d tracked=%d, want %d and %d", w.Stream, w.Tracked, total, len(sends))
	}
	byKey := map[string]int{}
	for _, in := range insts {
		byKey[in.fp] = in.sent
	}
	for _, hk := range w.TopK {
		want, ok := byKey[hk.Key]
		if !ok {
			t.Fatalf("sketch tracks unknown key %s", hk.Key)
		}
		if hk.Count != uint64(want) || hk.ErrBound != 0 {
			t.Fatalf("key %s: count=%d err=%d, want exact %d", hk.Key, hk.Count, hk.ErrBound, want)
		}
		// Every request either hit the shared cache or computed once.
		if hk.Misses != 1 || hk.Hits != hk.Count-1 {
			t.Fatalf("key %s: hits=%d misses=%d of %d", hk.Key, hk.Hits, hk.Misses, hk.Count)
		}
	}
	if w.TopK[0].Key != insts[0].fp {
		t.Fatalf("hottest key = %s, want the most-sent instance %s", w.TopK[0].Key, insts[0].fp)
	}

	// The same top-K is exposed on /metrics as bagcd_hotkey_* series.
	text, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{
		"bagcd_hotkey_stream_total " + strconv.Itoa(total),
		`bagcd_hotkey_count{key="` + insts[0].fp + `"} ` + strconv.Itoa(sends[0]),
	} {
		if !strings.Contains(text, marker) {
			t.Fatalf("metrics exposition missing %q", marker)
		}
	}
}

// TestFlightRecorderSmoke arms the flight recorder with a sub-nanosecond
// p99 budget so ordinary traffic counts as overload, then asserts a
// capture lands on disk: meta.json with the trigger reason, a heap
// profile, the workload snapshot, and the trace ring.
func TestFlightRecorderSmoke(t *testing.T) {
	dataDir := t.TempDir()
	opt := &options{
		addr:            "127.0.0.1:0",
		queueDepth:      64,
		cacheSize:       64,
		maxNodes:        5_000_000,
		maxTimeout:      time.Minute,
		parallelism:     2,
		hotkeyK:         32,
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
	var ws *bagclient.WorkloadStatus
	deadline := time.Now().Add(15 * time.Second)
	for {
		ws, err = cli.Workload(ctx, -1)
		if err != nil {
			t.Fatal(err)
		}
		if ws.FlightRecorder != nil && len(ws.FlightRecorder.Captures) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder never fired: %+v", ws.FlightRecorder)
		}
		time.Sleep(20 * time.Millisecond)
	}
	capture := ws.FlightRecorder.Captures[0]
	if capture.Reason != "p99_over_budget" {
		t.Fatalf("capture reason %q, want p99_over_budget", capture.Reason)
	}
	if len(ws.FlightRecorder.OnDisk) == 0 {
		t.Fatalf("no capture dirs reported on disk: %+v", ws.FlightRecorder)
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
	for _, name := range []string{"heap.pprof", "workload.json", "traces.ndjson"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("capture artifact %s: %v", name, err)
		}
		if name == "heap.pprof" && st.Size() == 0 {
			t.Fatal("empty heap profile")
		}
	}
	// The persisted workload snapshot carries the hot keys active at
	// capture time — the post-mortem view the recorder exists for.
	wlRaw, err := os.ReadFile(filepath.Join(dir, "workload.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wl bagclient.WorkloadStatus
	if err := json.Unmarshal(wlRaw, &wl); err != nil {
		t.Fatal(err)
	}
	if wl.Workload == nil || wl.Workload.Stream == 0 {
		t.Fatalf("capture workload snapshot empty: %s", wlRaw)
	}
}
