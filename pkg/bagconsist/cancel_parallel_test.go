package bagconsist_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"bagconsistency/pkg/bagconsist"
)

// parallelSlowChecker is slowChecker with the work-stealing integer
// search enabled: cancellation now has to unwind four workers and the
// shared frontier, not one recursive walk.
func parallelSlowChecker() *bagconsist.Checker {
	return bagconsist.New(
		bagconsist.WithMaxNodes(2_000_000_000),
		bagconsist.WithSolverParallelism(4),
	)
}

// TestCheckGlobalDeadlineMidParallelILP is the parallel-solver mirror of
// TestCheckGlobalDeadlineMidILP: a deadline must abort the in-flight
// multi-worker search promptly.
func TestCheckGlobalDeadlineMidParallelILP(t *testing.T) {
	coll := slowCollection(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := parallelSlowChecker().CheckGlobal(ctx, coll)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("parallel search outlived its deadline by %v", elapsed)
	}
}

// TestCheckGlobalExplicitCancelMidParallelILP cancels the parallel search
// explicitly mid-flight and asserts prompt unwind with no leaked workers.
func TestCheckGlobalExplicitCancelMidParallelILP(t *testing.T) {
	coll := slowCollection(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := parallelSlowChecker().CheckGlobal(ctx, coll)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt unwind", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
