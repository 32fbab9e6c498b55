package gen

import (
	"math/rand"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/core"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/reductions"
)

func TestSection3FamilyMatchesPaperBaseCase(t *testing.T) {
	r, s, err := Section3Family(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count([]string{"1", "2"}) != 1 || r.Count([]string{"2", "2"}) != 1 || r.Len() != 2 {
		t.Errorf("R1 =\n%v", r)
	}
	if s.Count([]string{"2", "1"}) != 1 || s.Count([]string{"2", "2"}) != 1 || s.Len() != 2 {
		t.Errorf("S1 =\n%v", s)
	}
}

func TestSection3FamilyWitnessCount(t *testing.T) {
	// The paper: exactly 2^{n-1} witnesses for R_{n-1}, S_{n-1}.
	for n := 2; n <= 6; n++ {
		r, s, err := Section3Family(n)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewCollection2(r, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.CountWitnesses(ilp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1) << uint(n-1)
		if got != want {
			t.Errorf("n=%d: witness count = %d, want 2^{n-1} = %d", n, got, want)
		}
	}
}

func TestSection3FamilyWitnessesPairwiseIncomparable(t *testing.T) {
	// The paper: the witnesses are pairwise incomparable under ⊆b and their
	// supports are properly contained in the join support.
	r, s, err := Section3Family(4)
	if err != nil {
		t.Fatal(err)
	}
	join, err := bag.JoinSupports(r, s)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	var witnesses []*bag.Bag
	err = c.EnumerateWitnesses(ilp.Options{}, func(w *bag.Bag) error {
		witnesses = append(witnesses, w)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range witnesses {
		if a.Len() >= join.Len() {
			t.Errorf("witness %d support not strictly inside the join", i)
		}
		for j, b := range witnesses {
			if i == j {
				continue
			}
			if a.ContainedIn(b) {
				t.Errorf("witness %d ⊆b witness %d: not incomparable", i, j)
			}
		}
	}
}

func TestSection3FamilyValidation(t *testing.T) {
	if _, _, err := Section3Family(1); err == nil {
		t.Error("expected n ≥ 2 error")
	}
}

func TestExample1ChainAndUniformWitness(t *testing.T) {
	for n := 2; n <= 6; n++ {
		c, err := Example1Chain(n)
		if err != nil {
			t.Fatal(err)
		}
		j, err := Example1UniformWitness(n)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := c.VerifyWitness(j)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("n=%d: uniform bag is not a witness", n)
		}
		if j.SupportSize() != 1<<uint(n) {
			t.Errorf("n=%d: uniform witness support = %d, want 2^n", n, j.SupportSize())
		}
	}
}

func TestExample1MinimalWitnessIsSmall(t *testing.T) {
	// The flip side of Example 1: the Theorem 6 construction yields a
	// witness of support ≤ Σ‖Ri‖supp = 4(n-1), exponentially smaller than
	// the uniform witness.
	for n := 3; n <= 8; n++ {
		c, err := Example1Chain(n)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.GloballyConsistent(core.GlobalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Consistent {
			t.Fatalf("n=%d: chain must be consistent", n)
		}
		if dec.Witness.SupportSize() > 4*(n-1) {
			t.Errorf("n=%d: witness support %d exceeds Σ‖Ri‖supp = %d",
				n, dec.Witness.SupportSize(), 4*(n-1))
		}
	}
}

func TestExample1Validation(t *testing.T) {
	if _, err := Example1Chain(1); err == nil {
		t.Error("expected n ≥ 2 error")
	}
	if _, err := Example1Chain(63); err == nil {
		t.Error("expected overflow guard")
	}
	if _, err := Example1UniformWitness(1); err == nil {
		t.Error("expected n ≥ 2 error")
	}
	if _, err := Example1UniformWitness(30); err == nil {
		t.Error("expected materialization guard")
	}
}

func TestRandomConsistentIsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		c, g, err := RandomConsistent(rng, hypergraph.Path(4), 6, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := c.VerifyWitness(g)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("global bag must witness its own marginals")
		}
	}
}

func TestRandomConsistentPair(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r, s, err := RandomConsistentPair(rng, 10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := core.PairConsistent(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("generated pair must be consistent")
	}
}

func TestPerturbChangesOneMultiplicity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, _, err := RandomConsistent(rng, hypergraph.Path(3), 5, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Perturb(rng, c)
	if err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for i := 0; i < c.Len(); i++ {
		if !c.Bag(i).Equal(p.Bag(i)) {
			diffs++
		}
	}
	if diffs != 1 {
		t.Errorf("perturbation changed %d bags, want 1", diffs)
	}
}

func TestPerturbEmptyCollection(t *testing.T) {
	h := hypergraph.Path(3)
	c, err := core.NewCollection(h, []*bag.Bag{
		bag.New(bag.MustSchema(h.Edge(0)...)),
		bag.New(bag.MustSchema(h.Edge(1)...)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Perturb(rand.New(rand.NewSource(1)), c); err == nil {
		t.Error("expected error perturbing empty collection")
	}
}

func TestRandomThreeDCTFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst, err := RandomThreeDCT(rng, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.GloballyConsistent(core.GlobalOptions{MaxNodes: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Consistent {
		t.Error("margins of a real table must be consistent")
	}
}

func TestRandomGraphDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	full := RandomGraph(rng, 6, 1.0)
	if len(full) != 15 {
		t.Errorf("p=1 graph on 6 vertices has %d edges, want 15", len(full))
	}
	empty := RandomGraph(rng, 6, 0.0)
	if len(empty) != 0 {
		t.Errorf("p=0 graph has %d edges", len(empty))
	}
}

func TestScaleCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c, _, err := RandomConsistent(rng, hypergraph.Path(3), 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ScaleCollection(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		if got, want := s.Bag(i).MultiplicityBound(), 10*c.Bag(i).MultiplicityBound(); got != want {
			t.Errorf("bag %d: scaled bound %d, want %d", i, got, want)
		}
	}
	pw, err := s.PairwiseConsistent()
	if err != nil {
		t.Fatal(err)
	}
	if !pw {
		t.Error("scaling must preserve pairwise consistency")
	}
	if _, err := ScaleCollection(c, 0); err == nil {
		t.Error("expected scale validation error")
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, _, err := RandomConsistent(rand.New(rand.NewSource(99)), hypergraph.Path(3), 5, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RandomConsistent(rand.New(rand.NewSource(99)), hypergraph.Path(3), 5, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Bag(i).Equal(b.Bag(i)) {
			t.Fatal("same seed produced different collections")
		}
	}
}

func TestPerturbTriangleMarginsPreservesPairwiseConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		inst, err := RandomThreeDCT(rng, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		pert, err := PerturbTriangleMargins(rng, inst, 3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := pert.ToCollection()
		if err != nil {
			t.Fatal(err)
		}
		pw, err := c.PairwiseConsistent()
		if err != nil {
			t.Fatal(err)
		}
		if !pw {
			t.Fatal("rectangle swaps must preserve pairwise consistency")
		}
	}
}

func TestPerturbTriangleMarginsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	one := &reductions.ThreeDCT{N: 1, Row: [][]int64{{1}}, Col: [][]int64{{1}}, Flat: [][]int64{{1}}}
	if _, err := PerturbTriangleMargins(rng, one, 1); err == nil {
		t.Error("expected n ≥ 2 error")
	}
	bad := &reductions.ThreeDCT{N: 0}
	if _, err := PerturbTriangleMargins(rng, bad, 1); err == nil {
		t.Error("expected validation error")
	}
}

func TestInfeasibleThreeDCT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst, err := InfeasibleThreeDCT(rng, 2, 2, 300, 1_000_000)
	if err != nil {
		t.Skipf("no infeasible instance found at this size: %v", err)
	}
	c, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	pw, err := c.PairwiseConsistent()
	if err != nil {
		t.Fatal(err)
	}
	if !pw {
		t.Fatal("instance must be pairwise consistent")
	}
	dec, err := c.GloballyConsistent(core.GlobalOptions{MaxNodes: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Consistent {
		t.Fatal("instance must be globally inconsistent")
	}
}

func TestRandomAcyclicHypergraphIsAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		h, err := RandomAcyclicHypergraph(rng, 1+rng.Intn(10), 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		if !h.IsAcyclic() {
			t.Fatalf("generator produced cyclic hypergraph %v", h)
		}
	}
	if _, err := RandomAcyclicHypergraph(rng, 0, 2); err == nil {
		t.Error("expected parameter error")
	}
}

func TestNearAcyclicHypergraphCoreSize(t *testing.T) {
	// The defining property of the family: k = 0 is acyclic, and for
	// k >= 1 the GYO core has exactly 2k+1 edges regardless of the path
	// length m — the fringe grows with m, the hard core only with k.
	for _, m := range []int{3, 6, 12} {
		for k := 0; k <= m-1 && k <= 4; k++ {
			h, err := NearAcyclicHypergraph(m, k)
			if err != nil {
				t.Fatal(err)
			}
			if h.NumEdges() != m+k {
				t.Fatalf("m=%d k=%d: %d edges, want %d", m, k, h.NumEdges(), m+k)
			}
			_, core := h.CoreDecomposition()
			if k == 0 {
				if !h.IsAcyclic() {
					t.Fatalf("m=%d k=0: want acyclic", m)
				}
				continue
			}
			if h.IsAcyclic() {
				t.Fatalf("m=%d k=%d: want cyclic", m, k)
			}
			if len(core) != 2*k+1 {
				t.Fatalf("m=%d k=%d: core size %d, want %d", m, k, len(core), 2*k+1)
			}
		}
	}
}

func TestNearAcyclicHypergraphParamErrors(t *testing.T) {
	for _, bad := range [][2]int{{0, 0}, {3, -1}, {3, 3}, {1, 1}} {
		if _, err := NearAcyclicHypergraph(bad[0], bad[1]); err == nil {
			t.Errorf("m=%d k=%d: expected parameter error", bad[0], bad[1])
		}
	}
}
