package ilp_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/reductions"
)

// triangle builds the collection of a 3DCT instance.
func triangle(t *testing.T, inst *reductions.ThreeDCT) *core.Collection {
	t.Helper()
	coll, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// tailMasters are every 96th entry, from the first, of the triangle list
// in perfbench/cyclic_rejected.txt: cyclic-fresh triangle masters whose
// deterministic search needs more than 3,000 nodes. On 4 of them it runs
// past 10M.
var tailMasters = []int64{
	21, 2731, 5414, 7897, 10263, 12711, 14810, 17170, 19526, 22150,
	24507, 26994, 29778, 32309, 35200, 37832, 40291, 42453, 44823, 47330,
	49714, 52234, 54430, 56989, 59915, 62355, 64824, 67513, 70022, 72506,
	74915, 77069, 79762, 82094, 84522, 86804, 89260, 91501, 94113, 96713,
	99379,
}

// tailProgram builds master m's program as perfbench builds the triangle
// family: margins of a random 5×5×5 table with cells ≤ 2.
func tailProgram(t *testing.T, m int64) *ilp.Problem {
	t.Helper()
	inst, err := gen.RandomThreeDCT(rand.New(rand.NewSource(1_000_003+m)), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	return engineProgram(t, triangle(t, inst))
}

// refutedSeeds are the first 20 seeds s from 0 whose triangle (see
// noTriangle) the deterministic walk refutes. Past the solo phase, a
// randomized run refutes seed 796 after 41,059 nodes in all, against
// the deterministic walk's 1,049,973.
var refutedSeeds = []int64{
	157, 335, 367, 538, 796, 914, 950, 955, 1217, 1425,
	1513, 1730, 1892, 2157, 2790, 3064, 3695, 3712, 3921, 4229,
}

// noTriangle builds a pairwise-consistent triangle from seed s: the
// margins of a random 4×4×4 table with cells ≤ 2, after 12 rectangle
// swaps of its flat margin.
func noTriangle(t *testing.T, s int64) *core.Collection {
	t.Helper()
	rng := rand.New(rand.NewSource(s))
	inst, err := gen.RandomThreeDCT(rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inst, err = gen.PerturbTriangleMargins(rng, inst, 12); err != nil {
		t.Fatal(err)
	}
	return triangle(t, inst)
}

// TestPortfolioDecidesTailTriangles holds Solve to the heavy tail of the
// cyclic-fresh triangles: every tail master is decided, with a verified
// witness and in the same way on a second call, well inside the node
// budget the deterministic walk alone exhausts on some of them.
func TestPortfolioDecidesTailTriangles(t *testing.T) {
	const budget = 10_000_000
	var total int64
	for _, m := range tailMasters {
		p := tailProgram(t, m)
		sol, err := ilp.Solve(p, ilp.Options{MaxNodes: budget})
		if err != nil {
			t.Fatalf("master %d: %v", m, err)
		}
		if !sol.Feasible || !p.Verify(sol.X) {
			t.Fatalf("master %d: feasible %v, witness verifies %v", m, sol.Feasible, sol.Feasible && p.Verify(sol.X))
		}
		again, err := ilp.Solve(p, ilp.Options{MaxNodes: budget})
		if err != nil || again.Nodes != sol.Nodes || !slices.Equal(again.X, sol.X) {
			t.Fatalf("master %d: second solve (%v, %d nodes), first %d nodes", m, err, again.Nodes, sol.Nodes)
		}
		total += sol.Nodes
	}
	t.Logf("%d tail masters decided in %d nodes", len(tailMasters), total)
	if total > 500_000 {
		t.Fatalf("tail masters took %d nodes, want at most 500,000", total)
	}
}

// TestPortfolioRefutesWithinTwiceTheTree holds the cost of a NO answer:
// the deterministic slice of every round runs before its randomized one,
// so Solve refutes in fewer than twice the deterministic walk's nodes.
// Each triangle is also refuted by one rational solve,
// RelaxedGloballyConsistent: that is where a caller gets the LP
// refutation, since the search never consults the relaxation.
func TestPortfolioRefutesWithinTwiceTheTree(t *testing.T) {
	var det, port int64
	for _, seed := range refutedSeeds {
		coll := noTriangle(t, seed)
		if relaxed, err := coll.RelaxedGloballyConsistent(); err != nil || relaxed {
			t.Fatalf("seed %d: relaxed consistent %v (err %v), want false", seed, relaxed, err)
		}
		p := engineProgram(t, coll)
		want, err := ilp.Solve(p, ilp.Deterministic(ilp.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ilp.Solve(p, ilp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want.Feasible || got.Feasible {
			t.Fatalf("seed %d: feasible (deterministic %v, portfolio %v), want infeasible", seed, want.Feasible, got.Feasible)
		}
		if got.Nodes >= 2*want.Nodes {
			t.Fatalf("seed %d: portfolio took %d nodes, deterministic %d", seed, got.Nodes, want.Nodes)
		}
		det += want.Nodes
		port += got.Nodes
	}
	t.Logf("%d refutations: %d nodes, deterministic %d", len(refutedSeeds), port, det)
}

// TestPortfolioNodeBudget holds MaxNodes to the total of both halves of
// the schedule, past the solo phase: a budget of exactly the nodes a
// solve reports gives the same answer, one node fewer ErrNodeLimit. The
// programs are a tail master and the triangle a randomized run refutes.
func TestPortfolioNodeBudget(t *testing.T) {
	for _, p := range []*ilp.Problem{tailProgram(t, 2731), engineProgram(t, noTriangle(t, 796))} {
		sol, err := ilp.Solve(p, ilp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Nodes <= portfolioSolo {
			t.Fatalf("%d nodes: the program must run past the solo phase", sol.Nodes)
		}
		exact, err := ilp.Solve(p, ilp.Options{MaxNodes: sol.Nodes})
		if err != nil || exact.Feasible != sol.Feasible || exact.Nodes != sol.Nodes || !slices.Equal(exact.X, sol.X) {
			t.Fatalf("MaxNodes %d: (%v, %v), want the unbudgeted answer", sol.Nodes, exact, err)
		}
		if _, err := ilp.Solve(p, ilp.Options{MaxNodes: sol.Nodes - 1}); !errors.Is(err, ilp.ErrNodeLimit) {
			t.Fatalf("MaxNodes %d: error %v, want ErrNodeLimit", sol.Nodes-1, err)
		}
	}
}

// slowProgram builds a program whose search runs effectively forever:
// margins of a random 3x3x3 table with multiplicities up to 2^16, the
// same construction the pkg-level cancellation test uses. It runs far
// past the solo phase, so a stop must unwind either half of the schedule.
func slowProgram(t *testing.T) *ilp.Problem {
	t.Helper()
	inst, err := gen.RandomThreeDCT(rand.New(rand.NewSource(42)), 3, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return engineProgram(t, triangle(t, inst))
}

// TestSolveCancellation cancels a hopeless search mid-flight and asserts
// it unwinds promptly with ctx's error.
func TestSolveCancellation(t *testing.T) {
	p := slowProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ilp.SolveContext(ctx, p, ilp.Options{MaxNodes: 2_000_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt unwind", elapsed)
	}
}

// TestSolveDeadline drives cancellation through a context deadline
// instead of an explicit cancel.
func TestSolveDeadline(t *testing.T) {
	p := slowProgram(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ilp.SolveContext(ctx, p, ilp.Options{MaxNodes: 2_000_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline unwind took %v", elapsed)
	}
}
