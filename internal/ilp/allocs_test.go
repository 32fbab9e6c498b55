package ilp_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"bagconsistency/internal/ilp"
)

// The sequential search allocates per solve, never per node or branch
// attempt: it runs in place on one state and undoes each branch from a
// trail sized once. The search it replaced copied the node's state for
// every value it tried: 277 allocations on the 10-node program below and
// 20,031 on the 1,287-node one. This one measures 7 on each.

// splitProgram is two rows over the same n columns with right-hand sides
// k and k+1: infeasible, but propagation only sees it once row 0 is
// spent, so the search walks every split of at most k among the columns.
func splitProgram(n int, k int64) *ilp.Problem {
	cols := make([][]int, n)
	for j := range cols {
		cols[j] = []int{0, 1}
	}
	return &ilp.Problem{M: 2, Cols: cols, B: []int64{k, k + 1}}
}

// measureSolveAllocs returns Solve's allocations per run on p and its
// node count.
func measureSolveAllocs(t *testing.T, p *ilp.Problem) (float64, int64) {
	t.Helper()
	sol, err := ilp.Solve(p, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ilp.Solve(p, ilp.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, sol.Nodes
}

func TestSolveAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// A collection mid-measurement would charge its work to one side.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, smallNodes := measureSolveAllocs(t, splitProgram(2, 8))
	large, largeNodes := measureSolveAllocs(t, splitProgram(5, 10))
	if smallNodes > 16 || largeNodes < 1000 {
		t.Fatalf("programs need %d and %d nodes; want about 10 and over 1,000", smallNodes, largeNodes)
	}
	if large > small+2 {
		t.Fatalf("Solve allocates %.0f/op at %d nodes but %.0f/op at %d nodes; want at most 2 more",
			large, largeNodes, small, smallNodes)
	}
}

// The parallel search allocates per donation, not per value tried: its
// workers run the same in-place search, and a donated node's state is
// the one copy a handoff makes. The search it replaced copied a state for
// every value it tried: about 5,200 allocations for 80–215 steals on the
// 1,287-node program below, against 440–620 for 170–250 steals here.
func TestParallelSolveAllocsPerDonation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const workers, runs = 4, 10
	p := splitProgram(5, 10)
	var steals int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		sol, err := ilp.Solve(p, ilp.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Feasible {
			t.Fatal("split program judged feasible")
		}
		steals += sol.Steals
	}
	runtime.ReadMemStats(&after)
	allocs := int64(after.Mallocs - before.Mallocs)
	if limit := 4 * (steals + runs*workers); allocs > limit {
		t.Fatalf("%d solves allocated %d times for %d steals; want at most %d", runs, allocs, steals, limit)
	}
}
