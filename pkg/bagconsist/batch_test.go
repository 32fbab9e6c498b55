package bagconsist_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/pkg/bagconsist"
)

// mixedInstances builds a batch mixing acyclic consistent, cyclic
// consistent, and cyclic inconsistent instances, with the expected
// decision per slot.
func mixedInstances(t *testing.T, n int) ([]*bagconsist.Collection, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	instances := make([]*bagconsist.Collection, 0, n)
	want := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			c, _, err := gen.RandomConsistent(rng, hypergraph.Star(5), 16, 1<<8, 3)
			if err != nil {
				t.Fatal(err)
			}
			instances, want = append(instances, c), append(want, true)
		case 1:
			inst, err := gen.RandomThreeDCT(rng, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			c, err := inst.ToCollection()
			if err != nil {
				t.Fatal(err)
			}
			instances, want = append(instances, c), append(want, true)
		default:
			c, err := bagconsist.TseitinCollection(hypergraph.Triangle())
			if err != nil {
				t.Fatal(err)
			}
			instances, want = append(instances, c), append(want, false)
		}
	}
	return instances, want
}

// TestCheckBatchConcurrent is the race-detector batch test: one shared
// Checker, a worker pool, and many concurrent CheckGlobal calls mutating
// nothing but their own report slots.
func TestCheckBatchConcurrent(t *testing.T) {
	instances, want := mixedInstances(t, 48)
	checker := bagconsist.New(bagconsist.WithParallelism(8), bagconsist.WithMaxNodes(1_000_000))
	reports, err := checker.CheckBatch(context.Background(), instances)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(instances) {
		t.Fatalf("got %d reports for %d instances", len(reports), len(instances))
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("slot %d: nil report", i)
		}
		if rep.Error != "" {
			t.Fatalf("slot %d: unexpected error %q", i, rep.Error)
		}
		if rep.Consistent != want[i] {
			t.Fatalf("slot %d: consistent=%v want %v (method %s)", i, rep.Consistent, want[i], rep.Method)
		}
	}
}

// TestCheckBatchSequentialMatchesConcurrent pins determinism: the same
// batch through 1 worker and through 8 workers yields identical decisions
// and methods.
func TestCheckBatchSequentialMatchesConcurrent(t *testing.T) {
	instances, _ := mixedInstances(t, 18)
	seq, err := bagconsist.New(bagconsist.WithParallelism(1)).CheckBatch(context.Background(), instances)
	if err != nil {
		t.Fatal(err)
	}
	par, err := bagconsist.New(bagconsist.WithParallelism(8)).CheckBatch(context.Background(), instances)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Consistent != par[i].Consistent || seq[i].Method != par[i].Method {
			t.Fatalf("slot %d: sequential (%v,%s) != parallel (%v,%s)",
				i, seq[i].Consistent, seq[i].Method, par[i].Consistent, par[i].Method)
		}
	}
}

// TestCheckBatchIsolatesFailures proves one bad instance cannot poison a
// batch: a node-budget blowup lands in that slot's Report.Error while
// every other slot succeeds.
func TestCheckBatchIsolatesFailures(t *testing.T) {
	// Acyclic instances never touch the integer search, so a 5-node
	// budget only fails the one cyclic instance in the batch.
	rng := rand.New(rand.NewSource(5))
	var instances []*bagconsist.Collection
	for i := 0; i < 6; i++ {
		c, _, err := gen.RandomConsistent(rng, hypergraph.Star(5), 16, 1<<8, 3)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, c)
	}
	hard, err := gen.RandomThreeDCT(rng, 3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	hardColl, err := hard.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, hardColl)
	checker := bagconsist.New(
		bagconsist.WithParallelism(4),
		bagconsist.WithMaxNodes(5),
	)
	reports, err := checker.CheckBatch(context.Background(), instances)
	if err != nil {
		t.Fatal(err)
	}
	last := reports[len(reports)-1]
	if last.Error == "" || !strings.Contains(last.Error, "node budget") {
		t.Fatalf("hard slot: Error = %q, want node-budget failure", last.Error)
	}
	for i, rep := range reports[:len(reports)-1] {
		if rep.Error != "" {
			t.Fatalf("slot %d: unexpected error %q", i, rep.Error)
		}
		if !rep.Consistent {
			t.Fatalf("slot %d: acyclic marginal instance must be consistent", i)
		}
	}
}

// TestCheckBatchCancellation cancels a batch of slow instances and checks
// the call returns promptly with every unfinished slot marked.
func TestCheckBatchCancellation(t *testing.T) {
	var instances []*bagconsist.Collection
	for i := 0; i < 8; i++ {
		instances = append(instances, slowCollection(t))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	reports, err := slowChecker().CheckBatch(ctx, instances)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("batch cancellation not prompt: %v", elapsed)
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("slot %d: nil report after cancellation", i)
		}
		if rep.Error == "" {
			t.Fatalf("slot %d: expected context error in Report.Error", i)
		}
	}
}

func TestCheckBatchEmpty(t *testing.T) {
	reports, err := bagconsist.New().CheckBatch(context.Background(), nil)
	if err != nil || len(reports) != 0 {
		t.Fatalf("empty batch: reports=%v err=%v", reports, err)
	}
}

// TestCheckBatchZeroValueChecker guards the worker clamp: a zero-value
// Checker (parallelism 0, never passed through New) must not deadlock.
func TestCheckBatchZeroValueChecker(t *testing.T) {
	var checker bagconsist.Checker
	instances, want := mixedInstances(t, 3)
	done := make(chan struct{})
	var reports []*bagconsist.Report
	var err error
	go func() {
		reports, err = checker.CheckBatch(context.Background(), instances)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("zero-value Checker deadlocked CheckBatch")
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep.Error != "" || rep.Consistent != want[i] {
			t.Fatalf("slot %d: %+v want consistent=%v", i, rep, want[i])
		}
	}
}

// TestCheckBatchCancelMidFeedNoLeak is the serving-layer contract test:
// cancellation strikes while the feed loop is still handing out jobs (far
// more instances than workers, each slow), and afterwards (a) CheckBatch's
// worker goroutines are all gone — no leak for a daemon to accumulate
// across requests — and (b) every slot that never ran carries the context
// error verbatim in Report.Error, so callers can tell "cancelled before
// start" from a per-instance engine failure.
func TestCheckBatchCancelMidFeedNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	// 2 workers, 32 slow instances: at cancellation the feed loop has
	// dispatched at most a handful, so most slots never run.
	slow := slowCollection(t)
	instances := make([]*bagconsist.Collection, 32)
	for i := range instances {
		instances[i] = slow
	}
	checker := bagconsist.New(
		bagconsist.WithParallelism(2),
		bagconsist.WithMaxNodes(2_000_000_000),
	)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var reports []*bagconsist.Report
	var err error
	go func() {
		defer close(done)
		reports, err = checker.CheckBatch(ctx, instances)
	}()
	// Give the pool time to start computing mid-feed, then cancel.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("CheckBatch did not return after mid-feed cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	neverRan := 0
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("slot %d: nil report", i)
		}
		if rep.Error == "" {
			t.Fatalf("slot %d: cancelled batch left an empty Error", i)
		}
		if rep.Error == context.Canceled.Error() {
			neverRan++
			if rep.Bags != instances[i].Len() {
				t.Fatalf("slot %d: never-ran report lost Bags=%d", i, rep.Bags)
			}
		}
	}
	if neverRan == 0 {
		t.Fatal("every slot started before cancellation; test did not exercise the mid-feed path")
	}

	// The pool must fully unwind: poll briefly (worker exit is ordered
	// after CheckBatch's return only through wg.Wait, but the runtime
	// needs a beat to retire stacks under the race detector).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak after cancelled CheckBatch: before=%d after=%d", before, runtime.NumGoroutine())
}
