package core_test

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
)

// Asserted allocation ceilings for the engine hot paths. The pre-columnar
// engine spent ~1070 allocs/op on an uncached support-256 pair check
// (BENCH_pr5_baseline.json); the interned engine measures ~20. The budget
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
	pairCheckAllocBudget = 100 // measured ~20 on support=256
	pairWitnessBudget    = 130 // measured ~43 on support=256
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

// measureBuildProgramAllocs counts BuildProgram's allocations on an
// n×n×n 3DCT triangle (cells in [0, 2]) decoded as bagcd decodes it,
// onto one dictionary per attribute. The warm-up calls let the scratch
// pools settle on buffers of the instance's sizes first.
func measureBuildProgramAllocs(tb testing.TB, n int) float64 {
	tb.Helper()
	inst, err := gen.RandomThreeDCT(rand.New(rand.NewSource(1)), n, 2)
	if err != nil {
		tb.Fatal(err)
	}
	c := redecoded(tb, mustTriangle(tb, inst))
	build := func() {
		if _, _, err := c.BuildProgram(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		build()
	}
	return testing.AllocsPerRun(50, build)
}

// checkBuildProgramAllocsFlat fails unless building an 8×8×8 triangle's
// program (a join of about 300 columns) allocates no more than a 5×5×5
// one's (about 80): the join's scratch is pooled and its results take a
// fixed number of allocations, so the count does not grow with |J|.
func checkBuildProgramAllocsFlat(tb testing.TB) {
	tb.Helper()
	// A collection mid-measurement would empty the scratch pools and
	// charge their refill to whichever size was running.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small := measureBuildProgramAllocs(tb, 5)
	if large := measureBuildProgramAllocs(tb, 8); large > small {
		tb.Fatalf("BuildProgram allocates %.1f/call on an 8×8×8 triangle but %.1f/call on a 5×5×5 one; want no more", large, small)
	}
}

// BenchmarkBuildProgramAllocs reports BuildProgram's allocations on an
// 8×8×8 triangle and fails if they grow with the join.
func BenchmarkBuildProgramAllocs(b *testing.B) {
	b.ReportMetric(measureBuildProgramAllocs(b, 8), "allocs/call")
	if !raceEnabled {
		checkBuildProgramAllocsFlat(b)
	}
}

// TestBuildProgramAllocBudget enforces the flat count under plain
// `go test`.
func TestBuildProgramAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	checkBuildProgramAllocsFlat(t)
}

// BenchmarkBuildProgramTriangles builds the programs of the first 64
// cyclic-fresh triangle masters (5×5×5 tables, cells in [0, 2], master
// m seeded 1_000_003+m), decoded as bagcd decodes them; one op builds
// one program.
func BenchmarkBuildProgramTriangles(b *testing.B) {
	colls := make([]*core.Collection, 64)
	for m := range colls {
		inst, err := gen.RandomThreeDCT(rand.New(rand.NewSource(1_000_003+int64(m))), 5, 2)
		if err != nil {
			b.Fatal(err)
		}
		colls[m] = redecoded(b, mustTriangle(b, inst))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := colls[i%len(colls)].BuildProgram(); err != nil {
			b.Fatal(err)
		}
	}
}
