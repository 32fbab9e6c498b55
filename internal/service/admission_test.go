package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/metrics"
	"bagconsistency/pkg/bagconsist"
)

func TestClassifyCost(t *testing.T) {
	r, s, err := gen.Section3Family(3)
	if err != nil {
		t.Fatal(err)
	}
	acyclic := consistentCollection(t, 7)
	if acyclic.Hypergraph().IsCyclic() {
		t.Fatal("Star schema should be acyclic")
	}
	cyclic := slowTriangle(t)
	if !cyclic.Hypergraph().IsCyclic() {
		t.Fatal("3DCT triangle schema should be cyclic")
	}

	big := 1 << 20 // generous support threshold: nothing here crosses it
	cases := []struct {
		name    string
		req     Request
		support int
		want    Cost
	}{
		{"pair", Request{Kind: Pair, R: r, S: s}, big, CostCheap},
		{"pair oversized", Request{Kind: Pair, R: r, S: s}, 1, CostExpensive},
		{"acyclic global", Request{Kind: Global, Collection: acyclic}, big, CostCheap},
		{"acyclic oversized", Request{Kind: Global, Collection: acyclic}, 1, CostExpensive},
		{"cyclic global", Request{Kind: Global, Collection: cyclic}, big, CostExpensive},
		{"empty global", Request{Kind: Global}, big, CostCheap},
	}
	for _, c := range cases {
		if got := classifyCost(c.req, c.support); got != c.want {
			t.Errorf("%s: classifyCost = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEwma(t *testing.T) {
	var e ewma
	if _, ok := e.value(); ok {
		t.Fatal("cold ewma must report no estimate")
	}
	e.observe(math.NaN())
	e.observe(math.Inf(1))
	e.observe(-1)
	// Invalid observations must not seed the estimator... but the count
	// guard only matters once a real value lands.
	e.observe(1.0)
	if v, ok := e.value(); !ok || math.IsNaN(v) {
		t.Fatalf("after first valid observation: value = %v, ok = %v", v, ok)
	}
	for range 100 {
		e.observe(3.0)
	}
	if v, _ := e.value(); math.Abs(v-3.0) > 0.01 {
		t.Fatalf("ewma did not converge to 3.0: %v", v)
	}
	// One outlier moves the mean by at most alpha * delta.
	e.observe(1000)
	if v, _ := e.value(); v > 3.0+ewmaAlpha*997+0.01 {
		t.Fatalf("outlier overweighted: %v", v)
	}
}

func TestEwmaConcurrent(t *testing.T) {
	var e ewma
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				e.observe(2.0)
			}
		}()
	}
	wg.Wait()
	if v, ok := e.value(); !ok || math.Abs(v-2.0) > 1e-9 {
		t.Fatalf("constant stream must converge exactly: %v, %v", v, ok)
	}
}

func TestShedThresholdValidated(t *testing.T) {
	_, err := New(Config{Checker: bagconsist.New(), ShedThreshold: 1.5})
	if err == nil {
		t.Fatal("ShedThreshold > 1 must be rejected")
	}
}

// TestHardnessAwareShedsExpensiveKeepsCheap is the core policy test: with
// the queue past the shed threshold but not full, a predicted-expensive
// request sheds while a cheap one is still admitted — the selectivity FIFO
// drop-tail cannot provide.
func TestHardnessAwareShedsExpensiveKeepsCheap(t *testing.T) {
	reg := metrics.NewRegistry()
	svc := newService(t, Config{
		Checker:    slowChecker(1),
		QueueDepth: 4, // shedDepth = 2 at the default 0.5 threshold
		Metrics:    reg,
	})

	slow := slowTriangle(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	// One occupies the worker; two sit in the queue, reaching shedDepth.
	// All are admitted in turn because occupancy is below 2 at each
	// admission. Cancelled at test end.
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = svc.Do(ctx, Request{Kind: Global, Collection: slow})
		}()
		// Sequence the admissions so occupancy is deterministic.
		deadline := time.Now().Add(5 * time.Second)
		for svc.Inflight()+svc.QueueDepth() < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for (svc.Inflight() < 1 || svc.QueueDepth() < 2) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if svc.Inflight() < 1 || svc.QueueDepth() < 2 {
		t.Fatalf("saturation not reached: inflight=%d queued=%d", svc.Inflight(), svc.QueueDepth())
	}

	// Expensive request at occupancy 2 >= shedDepth 2: shed.
	_, err := svc.Do(context.Background(), Request{Kind: Global, Collection: slow})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expensive past threshold: err = %v, want ErrOverloaded", err)
	}
	// Cheap request at occupancy 2 < capacity 4: admitted (it queues; the
	// caller abandons it rather than wait out the slow work ahead).
	cheapCtx, cheapCancel := context.WithCancel(context.Background())
	admitDone := make(chan error, 1)
	go func() {
		_, err := svc.Do(cheapCtx, Request{Kind: Global, Collection: consistentCollection(t, 8)})
		admitDone <- err
	}()
	deadline = time.Now().Add(5 * time.Second)
	for svc.QueueDepth() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if svc.QueueDepth() < 3 {
		t.Fatal("cheap request was not admitted to the queue")
	}
	cheapCancel()
	if err := <-admitDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned cheap request: err = %v, want context.Canceled", err)
	}

	if v := reg.Counter("bagcd_load_shed_total", `reason="predicted_expensive"`, "").Value(); v != 1 {
		t.Fatalf("predicted_expensive sheds = %d, want 1", v)
	}
	if v := reg.Counter("bagcd_load_admitted_total", `class="cheap"`, "").Value(); v != 1 {
		t.Fatalf("cheap admissions = %d, want 1", v)
	}
	if v := reg.Counter("bagcd_load_admitted_total", `class="expensive"`, "").Value(); v != 3 {
		t.Fatalf("expensive admissions = %d, want 3", v)
	}
	cancel()
	wg.Wait()
}

// TestDeadlineVetoSheds warms the expensive-class estimator with a slow
// timeout-capped request, then submits an expensive request whose caller
// deadline the estimate cannot meet: it must shed immediately rather than
// burn a worker on an answer the caller will never see.
func TestDeadlineVetoSheds(t *testing.T) {
	reg := metrics.NewRegistry()
	svc := newService(t, Config{Checker: slowChecker(2), Metrics: reg})

	slow := slowTriangle(t)
	// Warm the expensive EWMA: the integer search runs until the 400ms
	// timeout cancels it, observing ~0.4s of service time.
	_, err := svc.Do(context.Background(), Request{Kind: Global, Collection: slow, Timeout: 400 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("warming request: err = %v, want DeadlineExceeded", err)
	}
	est, ok := svc.EstimatedServiceSeconds(CostExpensive)
	if !ok || est < 0.3 {
		t.Fatalf("expensive estimate not warmed: %v, %v", est, ok)
	}

	// 50ms deadline << ~400ms estimate: deadline-unmeetable, shed at
	// admission.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = svc.Do(ctx, Request{Kind: Global, Collection: slow})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline-unmeetable request: err = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("veto was not immediate: %v", elapsed)
	}
	if v := reg.Counter("bagcd_load_shed_total", `reason="deadline_unmeetable"`, "").Value(); v != 1 {
		t.Fatalf("deadline_unmeetable sheds = %d, want 1", v)
	}

	// A generous deadline on the same instance is admitted: the veto is
	// about meetability, not hardness alone.
	okCtx, okCancel := context.WithTimeout(context.Background(), time.Hour)
	defer okCancel()
	_, err = svc.Do(okCtx, Request{Kind: Global, Collection: slow, Timeout: 100 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("meetable-deadline request: err = %v, want DeadlineExceeded from its own timeout", err)
	}
}

// TestColdEstimatorNeverSheds pins "never shed blind": with no completed
// requests, a tight deadline alone must not trigger the deadline veto.
func TestColdEstimatorNeverSheds(t *testing.T) {
	svc := newService(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := svc.Do(ctx, Request{Kind: Global, Collection: consistentCollection(t, 9)})
	if err != nil {
		t.Fatalf("cold-estimator request failed: %v", err)
	}
	if !rep.Consistent {
		t.Fatal("marginal-built instance must be consistent")
	}
}

// TestQueueWaitServiceTimeMetrics checks the latency decomposition: one
// completed request lands one observation in each of queue-wait, service,
// and end-to-end histograms, and end-to-end >= service.
func TestQueueWaitServiceTimeMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	svc := newService(t, Config{Metrics: reg})
	if _, err := svc.Do(context.Background(), Request{Kind: Global, Collection: consistentCollection(t, 6)}); err != nil {
		t.Fatal(err)
	}
	kindLabel := fmt.Sprintf(`kind=%q`, Global)
	qw := reg.Histogram("bagcd_queue_wait_seconds", kindLabel, "", metrics.DefaultLatencyBuckets)
	st := reg.Histogram("bagcd_service_seconds", kindLabel, "", metrics.DefaultLatencyBuckets)
	e2e := reg.Histogram("bagcd_request_seconds", kindLabel, "", metrics.DefaultLatencyBuckets)
	if qw.Count() != 1 || st.Count() != 1 || e2e.Count() != 1 {
		t.Fatalf("histogram counts: wait=%d service=%d e2e=%d, want 1 each", qw.Count(), st.Count(), e2e.Count())
	}
	if e2e.Sum() < st.Sum() {
		t.Fatalf("end-to-end (%v) < service (%v): wait component lost", e2e.Sum(), st.Sum())
	}
}

// TestEstimatorTracksServiceTime checks completed requests actually feed
// the per-class EWMAs that the deadline veto reads.
func TestEstimatorTracksServiceTime(t *testing.T) {
	svc := newService(t, Config{})
	rng := rand.New(rand.NewSource(21))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Path(3), 8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.EstimatedServiceSeconds(CostCheap); ok {
		t.Fatal("cheap estimate must start cold")
	}
	if _, err := svc.Do(context.Background(), Request{Kind: Global, Collection: c}); err != nil {
		t.Fatal(err)
	}
	if v, ok := svc.EstimatedServiceSeconds(CostCheap); !ok || v < 0 {
		t.Fatalf("cheap estimate after completion: %v, %v", v, ok)
	}
	if _, ok := svc.EstimatedServiceSeconds(Cost(99)); ok {
		t.Fatal("out-of-range cost must report no estimate")
	}
}
