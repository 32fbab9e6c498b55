package bagclient_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bagconsistency/internal/metrics"
	"bagconsistency/internal/service"
	"bagconsistency/pkg/bagclient"
	"bagconsistency/pkg/bagconsist"
)

// testBags builds a consistent two-bag instance.
func testBags(t *testing.T) (bagclient.NamedBag, bagclient.NamedBag) {
	t.Helper()
	orders, err := bagconsist.BagFromRows(bagconsist.MustSchema("CUSTOMER", "ITEM"),
		[][]string{{"alice", "widget"}, {"bob", "gadget"}}, []int64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	totals, err := bagconsist.BagFromRows(bagconsist.MustSchema("CUSTOMER"),
		[][]string{{"alice"}, {"bob"}}, []int64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	return bagclient.NamedBag{Name: "orders", Bag: orders}, bagclient.NamedBag{Name: "totals", Bag: totals}
}

// bootServer runs the real daemon handler stack on an httptest server.
func bootServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := metrics.NewRegistry()
	cache := bagconsist.NewCache(128)
	svc, err := service.New(service.Config{
		Checker: bagconsist.New(bagconsist.WithParallelism(4), bagconsist.WithSharedCache(cache)),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := service.NewHandler(service.ServerConfig{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return ts
}

func TestCheckAndPairRoundTrip(t *testing.T) {
	ts := bootServer(t)
	cli, err := bagclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	orders, totals := testBags(t)

	rep, err := cli.Check(context.Background(), []bagclient.NamedBag{orders, totals})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent || rep.Witness == nil {
		t.Fatalf("check report %+v, want consistent with witness", rep)
	}
	// The wire witness must round-trip into a verifiable Bag.
	w, err := rep.WitnessBag()
	if err != nil || w == nil {
		t.Fatalf("witness bag: %v", err)
	}

	prep, err := cli.CheckPair(context.Background(), orders, totals)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Consistent || prep.Method != "marginal" {
		t.Fatalf("pair report %+v", prep)
	}
}

func TestCheckBatchAlignment(t *testing.T) {
	ts := bootServer(t)
	cli, err := bagclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	orders, totals := testBags(t)
	// Slot 1 is inconsistent (alice marginal mismatch): still a report,
	// not an error. Slot 2 reuses slot 0 → cache hit on the server.
	badTotals, err := bagconsist.BagFromRows(bagconsist.MustSchema("CUSTOMER"),
		[][]string{{"alice"}}, []int64{9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.CheckBatch(context.Background(), [][]bagclient.NamedBag{
		{orders, totals},
		{orders, {Name: "totals", Bag: badTotals}},
		{orders, totals},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results, want 3", len(res))
	}
	if res[0].Report == nil || !res[0].Report.Consistent || res[0].Err != "" {
		t.Fatalf("slot 0: %+v", res[0])
	}
	if res[1].Report == nil || res[1].Report.Consistent {
		t.Fatalf("slot 1: %+v, want inconsistent report", res[1])
	}
	if res[2].Report == nil || !res[2].Report.Consistent {
		t.Fatalf("slot 2: %+v", res[2])
	}
	if !res[2].Report.CacheHit && !res[0].Report.CacheHit {
		t.Log("note: no cache hit flag on repeat instance (coalesced paths also count)")
	}
}

// TestRetryOn503 fakes a daemon that sheds twice before answering, and
// asserts the client retries through it honoring Retry-After.
func TestRetryOn503(t *testing.T) {
	var calls atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"service: overloaded"}`))
			return
		}
		w.Write([]byte(`{"consistent":true,"method":"marginal","bags":2,"elapsed_ns":1}`))
	}))
	defer fake.Close()

	cli, err := bagclient.New(fake.URL, bagclient.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	orders, totals := testBags(t)
	rep, err := cli.Check(context.Background(), []bagclient.NamedBag{orders, totals})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent || calls.Load() != 3 {
		t.Fatalf("rep=%+v calls=%d, want success on 3rd call", rep, calls.Load())
	}
}

// TestRetriesExhausted asserts a persistent 503 surfaces as a StatusError
// recognizable via IsOverloaded, after exactly maxRetries+1 attempts.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"still overloaded"}`))
	}))
	defer fake.Close()

	cli, err := bagclient.New(fake.URL, bagclient.WithMaxRetries(2), bagclient.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	orders, totals := testBags(t)
	_, err = cli.Check(context.Background(), []bagclient.NamedBag{orders, totals})
	if !bagclient.IsOverloaded(err) {
		t.Fatalf("err = %v, want overloaded StatusError", err)
	}
	if !strings.Contains(err.Error(), "still overloaded") {
		t.Fatalf("error lost server message: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d attempts, want 3 (1 + 2 retries)", calls.Load())
	}
}

// TestRetryHonorsContext asserts a cancelled context interrupts the
// retry wait instead of sleeping through it.
func TestRetryHonorsContext(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer fake.Close()

	cli, err := bagclient.New(fake.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	orders, totals := testBags(t)
	start := time.Now()
	_, err = cli.Check(ctx, []bagclient.NamedBag{orders, totals})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry wait ignored context cancellation")
	}
}

func TestHealthAndMetrics(t *testing.T) {
	ts := bootServer(t)
	cli, err := bagclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cli.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.QueueCapacity == 0 {
		t.Fatalf("health %+v", h)
	}
	m, err := cli.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "bagcd_queue_depth") {
		t.Fatalf("metrics exposition missing gauges:\n%s", m)
	}
}

func TestServerTimeoutOption(t *testing.T) {
	ts := bootServer(t)
	cli, err := bagclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	orders, totals := testBags(t)
	// A generous server-side budget on an easy instance: must succeed and
	// prove the query parameter is accepted end to end.
	rep, err := cli.Check(context.Background(), []bagclient.NamedBag{orders, totals},
		bagclient.WithTimeout(30*time.Second))
	if err != nil || !rep.Consistent {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
}

func TestNewRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "/just/a/path"} {
		if _, err := bagclient.New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

// TestCheckBatchStreamErrorNotMisattributed pins the index -1 contract: a
// server-side truncation aborts CheckBatch with a stream error instead of
// landing in some slot's Err while later slots silently read "missing".
func TestCheckBatchStreamErrorNotMisattributed(t *testing.T) {
	reg := metrics.NewRegistry()
	svc, err := service.New(service.Config{
		Checker: bagconsist.New(bagconsist.WithParallelism(2)),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := service.NewHandler(service.ServerConfig{Service: svc, MaxBatchLines: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer svc.Drain(context.Background())

	cli, err := bagclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	orders, totals := testBags(t)
	coll := []bagclient.NamedBag{orders, totals}
	res, err := cli.CheckBatch(context.Background(), [][]bagclient.NamedBag{coll, coll, coll, coll})
	if err == nil || !strings.Contains(err.Error(), "batch truncated") {
		t.Fatalf("err = %v, want batch-truncated stream error", err)
	}
	// The two processed slots are intact; no slot swallowed the tail line.
	for i := range 2 {
		if res[i].Report == nil || res[i].Err != "" {
			t.Fatalf("slot %d corrupted by stream error: %+v", i, res[i])
		}
	}
}
