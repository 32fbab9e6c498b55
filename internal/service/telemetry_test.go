package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bagconsistency/internal/metrics"
	"bagconsistency/internal/telemetry"
	"bagconsistency/pkg/bagconsist"
)

// telemetryChecker is the bagcd wiring: a cached checker whose observer
// feeds canonical fingerprints into the worker's capture carrier.
func telemetryChecker(parallelism int) *bagconsist.Checker {
	return bagconsist.New(
		bagconsist.WithParallelism(parallelism),
		bagconsist.WithCache(128),
		bagconsist.WithCheckObserver(telemetry.RecordCheck),
	)
}

// hotKey finds a fingerprint's row in a snapshot's top-K table.
func hotKey(snap *telemetry.WorkloadSnapshot, fp string) (telemetry.HotKey, bool) {
	for _, hk := range snap.TopK {
		if hk.Key == fp {
			return hk, true
		}
	}
	return telemetry.HotKey{}, false
}

// TestWorkloadObservedOnCompletion: a repeated request accounts one miss
// then one hit under the instance's canonical fingerprint — handed to
// the worker by the cache layer's observer, not recomputed.
func TestWorkloadObservedOnCompletion(t *testing.T) {
	w := telemetry.NewWorkload(16)
	svc := newService(t, Config{Checker: telemetryChecker(2), Workload: w})
	coll := consistentCollection(t, 7)
	for range 2 {
		if _, err := svc.Do(context.Background(), Request{Kind: Global, Collection: coll}); err != nil {
			t.Fatal(err)
		}
	}
	fp, err := bagconsist.FingerprintCollection(coll)
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot(0)
	hk, ok := hotKey(snap, fp)
	if !ok {
		t.Fatalf("fingerprint %s missing from workload: %+v", fp, snap.TopK)
	}
	if hk.Count != 2 || hk.Hits != 1 || hk.Misses != 1 {
		t.Fatalf("hot key %+v, want count=2 hits=1 misses=1", hk)
	}
	if hk.MeanServiceMs < 0 {
		t.Fatalf("negative mean service time: %+v", hk)
	}
}

// TestWorkloadFallbackWithoutCache: a cacheless checker never runs the
// observer, so the worker fingerprints the request directly — per-key
// accounting does not depend on the cache being enabled.
func TestWorkloadFallbackWithoutCache(t *testing.T) {
	w := telemetry.NewWorkload(16)
	svc := newService(t, Config{
		Checker:  bagconsist.New(bagconsist.WithParallelism(2)),
		Workload: w,
	})
	coll := consistentCollection(t, 8)
	if _, err := svc.Do(context.Background(), Request{Kind: Global, Collection: coll}); err != nil {
		t.Fatal(err)
	}
	fp, err := bagconsist.FingerprintCollection(coll)
	if err != nil {
		t.Fatal(err)
	}
	hk, ok := hotKey(w.Snapshot(0), fp)
	if !ok {
		t.Fatal("cacheless completion not accounted")
	}
	if hk.Count != 1 || hk.Misses != 1 || hk.Hits != 0 {
		t.Fatalf("hot key %+v, want one miss", hk)
	}
}

// TestShedObservedWithFingerprint: a queue-full rejection is attributed
// to the shed instance's own canonical key, so overload diagnosis can
// tell which keys were turned away — not just how many.
func TestShedObservedWithFingerprint(t *testing.T) {
	w := telemetry.NewWorkload(16)
	svc := newService(t, Config{Checker: slowChecker(1), QueueDepth: 1, Workload: w})

	slow := slowTriangle(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	// One computing, one queued; the second starts only once the worker
	// holds the first, or the 1-deep queue would shed it.
	deadline := time.Now().Add(5 * time.Second)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = svc.Do(ctx, Request{Kind: Global, Collection: slow})
		}()
		for svc.Inflight() < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for svc.QueueDepth() < 1 || svc.Inflight() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("service never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Do(ctx, Request{Kind: Global, Collection: slow}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected overload shed, got %v", err)
	}
	cancel()
	wg.Wait()

	fp, err := bagconsist.FingerprintCollection(slow)
	if err != nil {
		t.Fatal(err)
	}
	hk, ok := hotKey(w.Snapshot(0), fp)
	if !ok {
		t.Fatal("shed instance missing from workload")
	}
	if hk.Sheds != 1 {
		t.Fatalf("hot key %+v, want sheds=1", hk)
	}
}

// TestWorkloadEndpoint: GET /debug/workload serves the status envelope
// with every configured section, honors ?top=N, and 404s when workload
// telemetry is off.
func TestWorkloadEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	w := telemetry.NewWorkload(16)
	rec, err := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	svc, err := New(Config{
		Checker:  telemetryChecker(2),
		Metrics:  reg,
		Workload: w,
		Flight:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(ServerConfig{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, h, svc)

	for range 3 {
		if resp, data := postBody(t, ts.URL+"/v1/check", consistentPairText); resp.StatusCode != http.StatusOK {
			t.Fatalf("check: %d %s", resp.StatusCode, data)
		}
	}

	var ws WorkloadStatus
	getJSON(t, ts.URL+"/debug/workload", http.StatusOK, &ws)
	if ws.Schema != WorkloadStatusSchema {
		t.Fatalf("schema %q", ws.Schema)
	}
	if ws.Workload == nil || ws.Workload.Stream != 3 || len(ws.Workload.TopK) != 1 {
		t.Fatalf("workload section: %+v", ws.Workload)
	}
	if hk := ws.Workload.TopK[0]; hk.Hits != 2 || hk.Misses != 1 {
		t.Fatalf("top key %+v, want 2 hits 1 miss", hk)
	}
	if ws.FlightRecorder == nil || ws.FlightRecorder.Schema == "" {
		t.Fatalf("flight recorder section: %+v", ws.FlightRecorder)
	}

	// ?top=0 is unbounded, matching telemetry.Workload.Snapshot.
	var top0 WorkloadStatus
	getJSON(t, ts.URL+"/debug/workload?top=0", http.StatusOK, &top0)
	if len(top0.Workload.TopK) != 1 || top0.Workload.Stream != 3 {
		t.Fatalf("?top=0: %+v", top0.Workload)
	}
	if resp, err := http.Get(ts.URL + "/debug/workload?top=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad top param: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestWorkloadEndpointDisabled: without a Workload the endpoint is 404,
// matching the other opt-in debug surfaces.
func TestWorkloadEndpointDisabled(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/workload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when telemetry is disabled", resp.StatusCode)
	}
}

// newHTTPServer serves a prebuilt handler with drain-on-cleanup.
func newHTTPServer(t *testing.T, h http.Handler, svc *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return ts
}

// getJSON asserts the status code and decodes the body into out.
func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
