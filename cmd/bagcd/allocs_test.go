package main

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/service"
)

// requestFixedAllocs is what the service itself allocates per admitted
// request: the task (1), its result channel (2: the channel and its
// buffer, since a result holds pointers), and the context -max-timeout
// adds (4: the timer context, its timer, the timer's callback and the
// cancel func).
const requestFixedAllocs = 1 + 2 + 4

// shedAllocs is what a shed request allocates: the task and its result
// channel, built before admission decides.
const shedAllocs = 1 + 2

// TestRequestPathAllocations pins what the daemon's default stack adds
// to a pair request: a shed costs the task and its channel, and a served
// request costs the Checker's marginal test plus the service's fixed
// per-request allocations. Nothing canonicalizes a pair request or a
// shed.
func TestRequestPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	opt, _, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	svc, _, st, err := buildServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatal("default flags opened a store")
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Error(err)
		}
	}()
	r, s, err := gen.RandomConsistentPair(rand.New(rand.NewSource(1)), 64, 1<<20, 64/8+2)
	if err != nil {
		t.Fatal(err)
	}
	req := service.Request{Kind: service.Pair, R: r, S: s}
	ctx := context.Background()

	// One completed request primes the cheap class's service-time
	// estimate, which the deadline veto needs before it sheds anything.
	if rep, err := svc.Do(ctx, req); err != nil || !rep.Consistent {
		t.Fatalf("priming request: rep=%+v err=%v", rep, err)
	}
	if _, ok := svc.EstimatedServiceSeconds(service.CostCheap); !ok {
		t.Fatal("cheap-class estimate not primed")
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	shed := testing.AllocsPerRun(100, func() {
		if _, err := svc.Do(expired, req); !errors.Is(err, service.ErrOverloaded) {
			t.Fatalf("expired request: err = %v, want a deadline_unmeetable shed", err)
		}
	})
	if shed > shedAllocs {
		t.Errorf("a shed pair request allocates %.0f times, want at most %d (the task and its channel)", shed, shedAllocs)
	}

	check := testing.AllocsPerRun(100, func() {
		if _, err := svc.Checker().CheckPair(ctx, r, s); err != nil {
			t.Fatal(err)
		}
	})
	served := testing.AllocsPerRun(100, func() {
		if _, err := svc.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if served > check+requestFixedAllocs {
		t.Errorf("a served pair request allocates %.0f times, want at most %.0f (CheckPair's %.0f plus %d fixed)",
			served, check+requestFixedAllocs, check, requestFixedAllocs)
	}
	t.Logf("shed %.0f allocations, served %.0f (CheckPair %.0f)", shed, served, check)
}
