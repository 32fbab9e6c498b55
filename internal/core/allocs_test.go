package core_test

import (
	"math/rand"
	"testing"

	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
)

// Asserted allocation ceilings for the engine hot paths. The pre-columnar
// engine spent ~1070 allocs/op on an uncached support-256 pair check
// (BENCH_pr5_baseline.json); the interned engine measures ~47. The budget
// is set with ~2x headroom above the measured value and far below
// baseline/5, so any regression that reintroduces per-tuple allocation
// (key strings, map[string] rebuilds, unpooled scratch) fails the build
// before it shows up in a sweep.
//
// The minimal-witness budget covers the marginal test, the transportation
// blocks (pooled), the kernel's scratch (pooled) and the witness bag, a
// count flat in the instance size. Allocating per middle arc, as a flow
// network does, costs ~1700 allocs/op at this size and fails the build.
const (
	pairCheckAllocBudget = 100 // measured ~47 on support=256
	pairWitnessBudget    = 130 // measured ~63 on support=256
)

func measurePairCheckAllocs(tb testing.TB) float64 {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	r, s, err := gen.RandomConsistentPair(rng, 256, 1<<20, 34)
	if err != nil {
		tb.Fatal(err)
	}
	return testing.AllocsPerRun(100, func() {
		ok, err := core.PairConsistent(r, s)
		if err != nil || !ok {
			tb.Fatal("pair check failed")
		}
	})
}

func measurePairWitnessAllocs(tb testing.TB) float64 {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	r, s, err := gen.RandomConsistentPair(rng, 256, 1<<20, 34)
	if err != nil {
		tb.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		_, ok, err := core.MinimalPairWitness(r, s)
		if err != nil || !ok {
			tb.Fatal("witness failed")
		}
	})
}

// BenchmarkPairCheckAllocs reports the hot-path allocation count and
// fails if it regresses above the committed budget.
func BenchmarkPairCheckAllocs(b *testing.B) {
	allocs := measurePairCheckAllocs(b)
	b.ReportMetric(allocs, "allocs/call")
	if !raceEnabled && allocs > pairCheckAllocBudget {
		b.Fatalf("PairConsistent allocates %.0f/op, budget %d", allocs, pairCheckAllocBudget)
	}
}

// BenchmarkPairWitnessAllocs budgets the minimal-witness construction
// (transportation blocks + deletion kernel + witness extraction).
func BenchmarkPairWitnessAllocs(b *testing.B) {
	allocs := measurePairWitnessAllocs(b)
	b.ReportMetric(allocs, "allocs/call")
	if !raceEnabled && allocs > pairWitnessBudget {
		b.Fatalf("MinimalPairWitness allocates %.0f/op, budget %d", allocs, pairWitnessBudget)
	}
}

// TestPairCheckAllocBudget enforces the same ceilings under plain
// `go test` (the race detector changes allocation behavior, so the
// numeric bar is release-only, like the bench harness bars).
func TestPairCheckAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if allocs := measurePairCheckAllocs(t); allocs > pairCheckAllocBudget {
		t.Fatalf("PairConsistent allocates %.0f/op, budget %d", allocs, pairCheckAllocBudget)
	}
	if allocs := measurePairWitnessAllocs(t); allocs > pairWitnessBudget {
		t.Fatalf("MinimalPairWitness allocates %.0f/op, budget %d", allocs, pairWitnessBudget)
	}
}
