package bagconsist_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/pkg/bagconsist"
)

// slowCollection builds a 3DCT triangle instance whose integer search runs
// for many seconds (the margins are ~2^16, so value sweeps are enormous) — far longer than the deadlines below, so a
// prompt return can only come from cancellation.
func slowCollection(t *testing.T) *bagconsist.Collection {
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

func slowChecker() *bagconsist.Checker {
	return bagconsist.New(
		bagconsist.WithMaxNodes(2_000_000_000),
	)
}

func TestCheckGlobalCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := bagconsist.New().CheckGlobal(ctx, slowCollection(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckGlobalDeadlineMidILP proves an in-flight branch-and-bound
// search aborts within its context deadline: the instance takes >10s to
// decide uncancelled, the deadline is 100ms, and the call must return
// ctx.Err() well before the search could finish.
func TestCheckGlobalDeadlineMidILP(t *testing.T) {
	coll := slowCollection(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := slowChecker().CheckGlobal(ctx, coll)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation not prompt: returned after %v for a 100ms deadline", elapsed)
	}
}

// TestCheckGlobalExplicitCancelMidILP is the same with an explicit cancel
// from another goroutine instead of a deadline.
func TestCheckGlobalExplicitCancelMidILP(t *testing.T) {
	coll := slowCollection(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := slowChecker().CheckGlobal(ctx, coll)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation not prompt: returned after %v for a 50ms cancel", elapsed)
	}
}

// TestEnumerationDeadline cancels a witness enumeration mid-flight: the
// Section 3 family at n=22 has 2^21 witnesses, far more than can be
// enumerated in 50ms.
func TestEnumerationDeadline(t *testing.T) {
	r, s, err := gen.Section3Family(22)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = bagconsist.New().CountPairWitnesses(ctx, r, s)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation not prompt: returned after %v for a 50ms deadline", elapsed)
	}
}

// TestMinimizeWitnessCancel cancels the probe loop of witness support
// minimization.
func TestMinimizeWitnessCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	coll, g, err := gen.RandomConsistent(rng, hypergraph.Triangle(), 5, 1<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bagconsist.New().MinimizeWitness(ctx, coll, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
