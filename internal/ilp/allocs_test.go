package ilp_test

import (
	"runtime/debug"
	"testing"

	"bagconsistency/internal/ilp"
)

// The search allocates per solve, never per node, branch attempt or
// restart: each walk runs in place on one state and undoes each branch
// from a trail sized once, and the randomized runs past the solo phase
// share one walker, rewound to the root for each. The search that copied
// the node's state for every value it tried made 277 allocations on the
// 10-node program below and 20,031 on the 1,287-node one.

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
	// Past the solo phase the schedule adds one walker for all of its
	// randomized runs.
	restarts, restartNodes := measureSolveAllocs(t, engineProgram(t, noTriangle(t, 796)))
	if restartNodes <= portfolioSolo {
		t.Fatalf("the refuted triangle needs %d nodes; want more than the solo phase's %d", restartNodes, portfolioSolo)
	}
	if restarts > small+5 {
		t.Fatalf("Solve allocates %.0f/op at %d nodes but %.0f/op at %d nodes; want at most 5 more",
			restarts, restartNodes, small, smallNodes)
	}
}
