package service

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/metrics"
	"bagconsistency/pkg/bagconsist"
)

// consistentCollection builds a small acyclic consistent instance.
func consistentCollection(t *testing.T, seed int64) *bagconsist.Collection {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Star(4), 8, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// slowTriangle builds a cyclic instance whose integer search runs for
// many seconds under a slowChecker — long enough to still be in flight
// when a test cancels, sheds around, or drains.
func slowTriangle(t *testing.T) *bagconsist.Collection {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	inst, err := gen.RandomThreeDCT(rng, 3, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// slowChecker pairs with slowTriangle: a huge node budget over ~2^16
// margins makes the search effectively unbounded without cancellation.
func slowChecker(parallelism int) *bagconsist.Checker {
	return bagconsist.New(
		bagconsist.WithParallelism(parallelism),
		bagconsist.WithMaxNodes(2_000_000_000),
	)
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Checker == nil {
		cfg.Checker = bagconsist.New(bagconsist.WithParallelism(4))
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return svc
}

func TestDoGlobal(t *testing.T) {
	svc := newService(t, Config{})
	rep, err := svc.Do(context.Background(), Request{Kind: Global, Collection: consistentCollection(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatal("marginal-built instance must be consistent")
	}
}

func TestDoPair(t *testing.T) {
	svc := newService(t, Config{})
	r, s, err := gen.Section3Family(3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Do(context.Background(), Request{Kind: Pair, R: r, S: s})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatal("Section3Family pair is consistent")
	}
}

// TestShedWhenQueueFull saturates a 1-worker, depth-1 service with slow
// requests and asserts later admissions shed with ErrOverloaded instead of
// queuing or blocking.
func TestShedWhenQueueFull(t *testing.T) {
	reg := metrics.NewRegistry()
	svc := newService(t, Config{Checker: slowChecker(1), QueueDepth: 1, Metrics: reg})

	slow := slowTriangle(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	// One request occupies the worker, one fills the queue. They are
	// cancelled at test end and their errors are expected. The second
	// starts only once the worker holds the first: admitted together, the
	// 1-deep queue would shed whichever came second.
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
	// Wait until worker busy and queue full.
	for (svc.Inflight() < 1 || svc.QueueDepth() < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if svc.Inflight() < 1 || svc.QueueDepth() < 1 {
		t.Fatalf("saturation not reached: inflight=%d queued=%d", svc.Inflight(), svc.QueueDepth())
	}

	_, err := svc.Do(context.Background(), Request{Kind: Global, Collection: consistentCollection(t, 2)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	cancel()
	wg.Wait()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "bagcd_requests_shed_total 1") {
		t.Fatalf("shed counter not exported:\n%s", b.String())
	}
}

// TestPerRequestTimeoutPropagates proves Request.Timeout reaches the
// Checker context: a millisecond budget kills a multi-second integer
// search promptly.
func TestPerRequestTimeoutPropagates(t *testing.T) {
	svc := newService(t, Config{Checker: slowChecker(1)})
	start := time.Now()
	_, err := svc.Do(context.Background(), Request{Kind: Global, Collection: slowTriangle(t), Timeout: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout not prompt: %v", elapsed)
	}
}

// TestMaxTimeoutCaps proves the server-side cap overrides a huge client
// timeout.
func TestMaxTimeoutCaps(t *testing.T) {
	svc := newService(t, Config{Checker: slowChecker(1), MaxTimeout: 50 * time.Millisecond})
	_, err := svc.Do(context.Background(), Request{Kind: Global, Collection: slowTriangle(t), Timeout: time.Hour})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from the MaxTimeout cap", err)
	}
}

// TestNodeCounterCountsStoppedSearches holds bagcd_ilp_nodes_total to the
// searches that return no Report: one stopped by its node budget adds
// exactly that budget, one stopped by its deadline adds the nodes it
// explored. The budgeted instance is a pairwise-consistent, infeasible
// triangle whose search needs about 29,000 nodes at microseconds each;
// slowTriangle's nodes each sweep up to 2^16 values, so 5,000 of them
// would take seconds, and minutes under the race detector.
func TestNodeCounterCountsStoppedSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(367))
	inst, err := gen.RandomThreeDCT(rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inst, err = gen.PerturbTriangleMargins(rng, inst, 12); err != nil {
		t.Fatal(err)
	}
	refuted, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(t, Config{Checker: bagconsist.New(bagconsist.WithMaxNodes(5000))})
	_, err = svc.Do(context.Background(), Request{Kind: Global, Collection: refuted})
	if !errors.Is(err, bagconsist.ErrNodeLimit) {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
	if got := svc.ilpNodes.Value(); got != 5000 {
		t.Fatalf("bagcd_ilp_nodes_total = %d after a 5,000-node budget ran out, want 5000", got)
	}

	svc = newService(t, Config{Checker: slowChecker(1)})
	_, err = svc.Do(context.Background(), Request{Kind: Global, Collection: slowTriangle(t), Timeout: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if svc.ilpNodes.Value() == 0 {
		t.Fatal("bagcd_ilp_nodes_total did not count the nodes of a search stopped by its deadline")
	}
}

// TestCallerAbandonSkipsQueuedWork cancels a caller while its request is
// queued and checks the worker discards the stale task without computing.
func TestCallerAbandonSkipsQueuedWork(t *testing.T) {
	svc := newService(t, Config{Checker: slowChecker(1), QueueDepth: 4})

	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = svc.Do(blockCtx, Request{Kind: Global, Collection: slowTriangle(t)})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Inflight() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.Do(ctx, Request{Kind: Global, Collection: consistentCollection(t, 3)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller got %v, want context.Canceled", err)
	}
	unblock()
	wg.Wait()
}

// TestDrainFinishesInflight starts a request, drains, and checks (a) the
// in-flight request completes successfully, (b) post-drain admissions fail
// with ErrDraining, (c) Drain returns once workers stop.
func TestDrainFinishesInflight(t *testing.T) {
	svc := newService(t, Config{})
	started := make(chan struct{})
	resCh := make(chan result, 1)
	go func() {
		close(started)
		rep, err := svc.Do(context.Background(), Request{Kind: Global, Collection: consistentCollection(t, 4)})
		resCh <- result{rep, err}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !svc.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	_, err := svc.Do(context.Background(), Request{Kind: Global, Collection: consistentCollection(t, 5)})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Do: err = %v, want ErrDraining", err)
	}
	select {
	case res := <-resCh:
		// The racing request either completed before admission stopped
		// (success) or was rejected by the drain; both are clean outcomes,
		// a hang or an engine error is not.
		if res.err != nil && !errors.Is(res.err, ErrDraining) {
			t.Fatalf("in-flight request failed: %v", res.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never resolved after drain")
	}

	// Idempotent: a second drain returns immediately.
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestConcurrentMixedLoad is the service-level race test: many goroutines,
// mixed kinds, shared cache, no lost or corrupted results.
func TestConcurrentMixedLoad(t *testing.T) {
	shared := bagconsist.NewCache(1024)
	checker := bagconsist.New(bagconsist.WithParallelism(8), bagconsist.WithSharedCache(shared))
	reg := metrics.NewRegistry()
	svc := newService(t, Config{Checker: checker, QueueDepth: 512, Metrics: reg})

	colls := []*bagconsist.Collection{
		consistentCollection(t, 10),
		consistentCollection(t, 11),
		consistentCollection(t, 12),
	}
	r, s, err := gen.Section3Family(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := range 200 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if i%4 == 3 {
				_, err = svc.Do(context.Background(), Request{Kind: Pair, R: r, S: s})
			} else {
				_, err = svc.Do(context.Background(), Request{Kind: Global, Collection: colls[i%len(colls)]})
			}
			if err != nil && !errors.Is(err, ErrOverloaded) {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("mixed load error: %v", err)
	}
	if st := shared.Stats(); st.Hits+st.Coalesced == 0 {
		t.Fatal("repeat instances produced no cache hits")
	}
}
