package canon_test

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/canon"
	"bagconsistency/internal/gen"
)

// Fingerprinting allocates per bag and per attribute, never per value or
// per tuple: the refinement works on flat, pooled arrays indexed by space
// id (CSR occurrence lists, colors, ranks), so the count is the same at
// every support size. The string-keyed refinement measured ~2700
// allocs/op on the support-256 pair, and the first interned one
// 339/973/3482 at support 64/256/1024; this one measures 15 at each.
var canonAllocSupports = []int{64, 256, 1024}

func measureCanonAllocs(tb testing.TB, support int) float64 {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	r, s, err := gen.RandomConsistentPair(rng, support, 1<<20, support/8+2)
	if err != nil {
		tb.Fatal(err)
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := canon.Bags([]*bag.Bag{r, s}); err != nil {
			tb.Fatal(err)
		}
	})
}

// checkCanonAllocsFlat fails unless fingerprinting allocates the same
// number of times at every support size.
func checkCanonAllocsFlat(tb testing.TB) {
	tb.Helper()
	// A collection mid-measurement would empty the scratch pools and
	// charge their refill to whichever size was running.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first := measureCanonAllocs(tb, canonAllocSupports[0])
	for _, support := range canonAllocSupports[1:] {
		if allocs := measureCanonAllocs(tb, support); allocs != first {
			tb.Fatalf("canon.Bags allocates %.0f/op at support %d but %.0f/op at support %d; want the same at every support",
				allocs, support, first, canonAllocSupports[0])
		}
	}
}

// BenchmarkCanonAllocs reports fingerprinting allocations at support 256
// and fails if they vary with support.
func BenchmarkCanonAllocs(b *testing.B) {
	b.ReportMetric(measureCanonAllocs(b, 256), "allocs/call")
	if !raceEnabled {
		checkCanonAllocsFlat(b)
	}
}

// TestCanonAllocBudget enforces flat allocations under plain `go test`.
func TestCanonAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	checkCanonAllocsFlat(t)
}
