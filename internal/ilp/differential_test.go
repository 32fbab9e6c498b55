// Differential harness for the search: Solve must reproduce the
// deterministic walk's feasibility verdict, on random sparse systems and
// on the real programs the engine builds from generated instances, and
// every witness must verify.
package ilp_test

import (
	"math/rand"
	"testing"

	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/ilp"
)

// randomProblem samples a small sparse system; roughly half the draws are
// infeasible at these densities.
func randomProblem(rng *rand.Rand) *ilp.Problem {
	m := 2 + rng.Intn(4)
	n := 1 + rng.Intn(10)
	cols := make([][]int, n)
	for j := range cols {
		seen := make(map[int]bool)
		for len(cols[j]) == 0 || rng.Intn(2) == 0 {
			r := rng.Intn(m)
			if !seen[r] {
				seen[r] = true
				cols[j] = append(cols[j], r)
			}
		}
	}
	b := make([]int64, m)
	for i := range b {
		b[i] = int64(rng.Intn(8))
	}
	return &ilp.Problem{M: m, Cols: cols, B: b}
}

// checkSweep solves p and fails unless the verdict matches want and a SAT
// witness verifies.
func checkSweep(t *testing.T, p *ilp.Problem, want bool, label string) {
	t.Helper()
	sol, err := ilp.Solve(p, ilp.Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if sol.Feasible != want {
		t.Fatalf("%s: verdict %v, oracle %v", label, sol.Feasible, want)
	}
	if sol.Feasible && !p.Verify(sol.X) {
		t.Fatalf("%s: witness %v does not verify", label, sol.X)
	}
	if sol.Nodes <= 0 {
		t.Fatalf("%s: nonpositive node count %d", label, sol.Nodes)
	}
}

func TestDifferentialRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng)
		oracle, err := ilp.Solve(p, ilp.Deterministic(ilp.Options{}))
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		checkSweep(t, p, oracle.Feasible, "random")
	}
}

// engineProgram builds the real P(R1,...,Rm) of a collection, exactly what
// the checker hands the solver.
func engineProgram(t *testing.T, c *core.Collection) *ilp.Problem {
	t.Helper()
	p, _, err := c.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// corpusProgram is one engine-built program with its known verdict.
type corpusProgram struct {
	label string
	p     *ilp.Problem
	want  bool
}

// engineCorpora builds the engine programs of the differential suite:
// 3DCT margins (feasible), pairwise consistent but infeasible 3DCT
// perturbations, and near-acyclic schemas at every chord count.
func engineCorpora(t *testing.T) []corpusProgram {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	var out []corpusProgram

	// Feasible: margins of random 3-dimensional contingency tables.
	for trial := 0; trial < 6; trial++ {
		inst, err := gen.RandomThreeDCT(rng, 2+rng.Intn(2), 4)
		if err != nil {
			t.Fatal(err)
		}
		coll, err := inst.ToCollection()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusProgram{"threedct", engineProgram(t, coll), true})
	}

	// Infeasible but pairwise consistent: the NP-hard regime's core shape.
	for trial := 0; trial < 3; trial++ {
		inst, err := gen.InfeasibleThreeDCT(rng, 2, 3, 200, 200_000)
		if err != nil {
			t.Skipf("no infeasible instance found at this seed: %v", err)
		}
		coll, err := inst.ToCollection()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusProgram{"infeasible-threedct", engineProgram(t, coll), false})
	}

	// Feasible near-acyclic schemas: path plus chords at every k.
	for k := 0; k <= 3; k++ {
		h, err := gen.NearAcyclicHypergraph(5, k)
		if err != nil {
			t.Fatal(err)
		}
		coll, _, err := gen.RandomConsistent(rng, h, 4, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusProgram{"near-acyclic", engineProgram(t, coll), true})
	}
	return out
}

func TestDifferentialEngineCorpora(t *testing.T) {
	for _, c := range engineCorpora(t) {
		checkSweep(t, c.p, c.want, c.label)
	}
}

func TestDifferentialColumnPermutation(t *testing.T) {
	// Metamorphic at the solver layer: permuting columns is a relabeling
	// of variables, so the verdict is invariant and MaxNodes is respected
	// on both sides.
	rng := rand.New(rand.NewSource(19))
	const budget = 1 << 20
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng)
		perm := rng.Perm(len(p.Cols))
		q := &ilp.Problem{M: p.M, Cols: make([][]int, len(p.Cols)), B: p.B}
		for j, pj := range perm {
			q.Cols[pj] = p.Cols[j]
		}
		opts := ilp.Options{MaxNodes: budget}
		a, err := ilp.Solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ilp.Solve(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Feasible != b.Feasible {
			t.Fatalf("trial %d: permuted verdict %v != original %v", trial, b.Feasible, a.Feasible)
		}
		if a.Nodes > budget || b.Nodes > budget {
			t.Fatalf("trial %d: node budget exceeded: %d / %d", trial, a.Nodes, b.Nodes)
		}
		if b.Feasible && !q.Verify(b.X) {
			t.Fatalf("trial %d: permuted witness does not verify", trial)
		}
	}
}
