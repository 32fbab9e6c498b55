package core

import (
	"math/rand"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
)

// randomGlobalBag builds a random bag over the vertices of h.
func randomGlobalBag(t *testing.T, rng *rand.Rand, h *hypergraph.Hypergraph, n int, maxMult int64) *bag.Bag {
	t.Helper()
	s, err := bag.NewSchema(h.Vertices()...)
	if err != nil {
		t.Fatal(err)
	}
	g := bag.New(s)
	for i := 0; i < n; i++ {
		vals := make([]string, s.Len())
		for j := range vals {
			vals[j] = string(rune('a' + rng.Intn(3)))
		}
		if err := g.Add(vals, 1+rng.Int63n(maxMult)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func mustMarginalCollection(t *testing.T, h *hypergraph.Hypergraph, g *bag.Bag) *Collection {
	t.Helper()
	c, err := CollectionFromMarginals(h, g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCollectionValidation(t *testing.T) {
	h := hypergraph.Path(3)
	good := []*bag.Bag{
		bag.New(bag.MustSchema(h.Edge(0)...)),
		bag.New(bag.MustSchema(h.Edge(1)...)),
	}
	if _, err := NewCollection(h, good); err != nil {
		t.Errorf("valid collection rejected: %v", err)
	}
	if _, err := NewCollection(h, good[:1]); err == nil {
		t.Error("expected bag-count error")
	}
	bad := []*bag.Bag{
		bag.New(bag.MustSchema("X", "Y")),
		bag.New(bag.MustSchema(h.Edge(1)...)),
	}
	if _, err := NewCollection(h, bad); err == nil {
		t.Error("expected schema mismatch error")
	}
}

func TestCollectionFromMarginalsIsGloballyConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := hypergraph.Path(4)
	g := randomGlobalBag(t, rng, h, 6, 5)
	c := mustMarginalCollection(t, h, g)
	ok, err := c.VerifyWitness(g)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("the source bag must witness its own marginals")
	}
	pw, err := c.PairwiseConsistent()
	if err != nil {
		t.Fatal(err)
	}
	if !pw {
		t.Fatal("marginals of one bag must be pairwise consistent")
	}
}

func TestInconsistentPairIndices(t *testing.T) {
	h := hypergraph.Path(3)
	r := bag.New(bag.MustSchema(h.Edge(0)...))
	s := bag.New(bag.MustSchema(h.Edge(1)...))
	if err := s.Add([]string{"1", "1"}, 1); err != nil {
		t.Fatal(err)
	}
	c, err := NewCollection(h, []*bag.Bag{r, s})
	if err != nil {
		t.Fatal(err)
	}
	i, j, err := c.InconsistentPair()
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 || j != 1 {
		t.Errorf("inconsistent pair = (%d,%d), want (0,1)", i, j)
	}
	pw, _ := c.PairwiseConsistent()
	if pw {
		t.Error("collection should not be pairwise consistent")
	}
}

func TestSubCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := hypergraph.Path(4)
	c := mustMarginalCollection(t, h, randomGlobalBag(t, rng, h, 5, 4))
	sub, err := c.Sub([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 {
		t.Errorf("sub length = %d", sub.Len())
	}
	if sub.Hypergraph().NumEdges() != 2 {
		t.Errorf("sub hypergraph = %v", sub.Hypergraph())
	}
	if _, err := c.Sub([]int{9}); err == nil {
		t.Error("expected range error")
	}
}

func TestBuildProgramShape(t *testing.T) {
	r, s := section3Pair(t)
	c, err := NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	p, j, err := c.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	// J = R1' ⋈ S1' has 4 tuples; rows = 2 + 2 supports.
	if len(p.Cols) != 4 || j.Rows.N() != 4 || p.M != 4 {
		t.Fatalf("program has %d columns, a join of %d rows and %d rows, want 4, 4 and 4", len(p.Cols), j.Rows.N(), p.M)
	}
	for j, rows := range p.Cols {
		if len(rows) != 2 {
			t.Errorf("column %d touches %d rows, want one per bag", j, len(rows))
		}
	}
	// Solutions of the program are exactly the witnesses (already counted
	// as 2 elsewhere); verify solvability and decoding here.
	sol, err := ilp.Solve(p, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("program must be feasible")
	}
	w, err := witnessBag(j, sol.X)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.VerifyWitness(w)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("decoded solution is not a witness")
	}
}

func TestBuildProgramAllEmptyBags(t *testing.T) {
	h := hypergraph.Path(3)
	c, err := NewCollection(h, []*bag.Bag{
		bag.New(bag.MustSchema(h.Edge(0)...)),
		bag.New(bag.MustSchema(h.Edge(1)...)),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, j, err := c.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cols) != 0 || j.Rows.N() != 0 || !emptyProgramConsistent(p) {
		t.Error("empty collection should yield a trivially consistent program")
	}
}

func TestVerifyWitnessRejectsWrongSchemaAndWrongMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := hypergraph.Path(3)
	g := randomGlobalBag(t, rng, h, 4, 3)
	c := mustMarginalCollection(t, h, g)

	wrongSchema := bag.New(bag.MustSchema("Z"))
	ok, err := c.VerifyWitness(wrongSchema)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("wrong-schema witness accepted")
	}

	tampered := g.Clone()
	tup := tampered.Tuples()[0]
	if err := tampered.AddTuple(tup, 1); err != nil {
		t.Fatal(err)
	}
	ok, err = c.VerifyWitness(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("tampered witness accepted")
	}
}

func TestKWiseConsistencyHierarchy(t *testing.T) {
	// The paper's relations R(AB)={00,11}, S(BC)={01,10}, T(AC)={00,11}
	// viewed as bags: 2-wise consistent but not 3-wise (globally)
	// consistent.
	r := mustBag(t, bag.MustSchema("A", "B"), [][]string{{"0", "0"}, {"1", "1"}}, nil)
	s := mustBag(t, bag.MustSchema("B", "C"), [][]string{{"0", "1"}, {"1", "0"}}, nil)
	u := mustBag(t, bag.MustSchema("A", "C"), [][]string{{"0", "0"}, {"1", "1"}}, nil)
	h := hypergraph.Must([]string{"A", "B"}, []string{"B", "C"}, []string{"A", "C"})
	c, err := NewCollection(h, []*bag.Bag{r, s, u})
	if err != nil {
		t.Fatal(err)
	}
	two, err := c.KWiseConsistent(2, GlobalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !two {
		t.Error("should be 2-wise consistent")
	}
	three, err := c.KWiseConsistent(3, GlobalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if three {
		t.Error("should not be 3-wise consistent")
	}
	if _, err := c.KWiseConsistent(0, GlobalOptions{}); err == nil {
		t.Error("expected error for k=0")
	}
}
