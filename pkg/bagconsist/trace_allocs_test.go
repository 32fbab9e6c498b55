package bagconsist_test

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"

	"bagconsistency/internal/gen"
	"bagconsistency/pkg/bagconsist"
)

// Allocation ceilings for the traced and untraced facade hot path. The
// untraced budget matches the engine-level pair-check budget plus the
// facade's fixed Report cost: tracing off must be a nil-check fast path,
// so any span machinery leaking onto the untraced path fails this bar.
// The traced budget covers the whole apparatus — trace arena, spans,
// attrs, snapshot, PhaseSpan conversion — and is deliberately generous;
// its job is to catch accidental per-tuple work inside span recording,
// not to shave fixed overhead.
const (
	untracedPairCheckBudget = 60  // measured ~21 on support=256
	tracedPairCheckBudget   = 150 // measured ~41: + trace, spans, snapshot, phases
)

func measureFacadePairAllocs(tb testing.TB, traced bool) float64 {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	r, s, err := gen.RandomConsistentPair(rng, 256, 1<<20, 34)
	if err != nil {
		tb.Fatal(err)
	}
	checker := bagconsist.New()
	return testing.AllocsPerRun(100, func() {
		ctx := context.Background()
		if traced {
			ctx = bagconsist.TraceContext(ctx)
		}
		rep, err := checker.CheckPair(ctx, r, s)
		if err != nil || !rep.Consistent {
			tb.Fatal("pair check failed")
		}
		if traced && len(rep.Phases) == 0 {
			tb.Fatal("traced check returned no phases")
		}
		if !traced && rep.Phases != nil {
			tb.Fatal("untraced check returned phases")
		}
	})
}

// BenchmarkUntracedPairCheckAllocs budgets the facade pair check without
// tracing — the production default, where the span recorder must cost
// nothing but context-value nil checks.
func BenchmarkUntracedPairCheckAllocs(b *testing.B) {
	allocs := measureFacadePairAllocs(b, false)
	b.ReportMetric(allocs, "allocs/call")
	if !raceEnabled && allocs > untracedPairCheckBudget {
		b.Fatalf("untraced CheckPair allocates %.0f/op, budget %d", allocs, untracedPairCheckBudget)
	}
}

// BenchmarkTracedPairCheckAllocs budgets the fully traced pair check:
// trace construction, every engine span, the snapshot, and the PhaseSpan
// tree returned in the Report.
func BenchmarkTracedPairCheckAllocs(b *testing.B) {
	allocs := measureFacadePairAllocs(b, true)
	b.ReportMetric(allocs, "allocs/call")
	if !raceEnabled && allocs > tracedPairCheckBudget {
		b.Fatalf("traced CheckPair allocates %.0f/op, budget %d", allocs, tracedPairCheckBudget)
	}
}

// TestTraceAllocBudgets enforces both ceilings under plain `go test`, so
// a tracing alloc regression fails CI without running the bench harness.
func TestTraceAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if allocs := measureFacadePairAllocs(t, false); allocs > untracedPairCheckBudget {
		t.Fatalf("untraced CheckPair allocates %.0f/op, budget %d", allocs, untracedPairCheckBudget)
	}
	if allocs := measureFacadePairAllocs(t, true); allocs > tracedPairCheckBudget {
		t.Fatalf("traced CheckPair allocates %.0f/op, budget %d", allocs, tracedPairCheckBudget)
	}
}

// TestCacheHitAllocsFlat: a warm cache hit on a value-renamed pair
// rebuilds its witness in id space — one array load per index, into
// buffers sized once — so it allocates the same at every support size.
// The string translation it replaced allocated per witness row.
func TestCacheHitAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// A collection mid-measurement would empty the scratch pools and
	// charge their refill to whichever size was running.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var first float64
	for i, support := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(1))
		r, s, err := gen.RandomConsistentPair(rng, support, 1<<20, support/8+2)
		if err != nil {
			t.Fatal(err)
		}
		coll, err := bagconsist.NewCollection2(r, s)
		if err != nil {
			t.Fatal(err)
		}
		renamed := renamedCopy(t, coll)
		checker := bagconsist.New(bagconsist.WithCache(16))
		ctx := context.Background()
		if _, err := checker.CheckGlobal(ctx, coll); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			rep, err := checker.CheckGlobal(ctx, renamed)
			if err != nil || !rep.CacheHit || rep.Witness == nil {
				t.Fatalf("want a cache hit with a witness: %+v, %v", rep, err)
			}
		})
		t.Logf("support %d: %.0f allocs per warm hit", support, allocs)
		if i == 0 {
			first = allocs
		} else if allocs != first {
			t.Fatalf("warm hit allocates %.0f at support %d but %.0f at support 64", allocs, support, first)
		}
	}
}
