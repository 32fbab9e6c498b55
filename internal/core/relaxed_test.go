package core

import (
	"math/rand"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
)

func TestRelaxedPairConsistencyIsWeakerThanStrict(t *testing.T) {
	// R and 3·S: strictly inconsistent, relaxed-consistent.
	r := mustBag(t, bag.MustSchema("A", "B"), [][]string{{"1", "m"}, {"2", "m"}}, []int64{1, 1})
	s := mustBag(t, bag.MustSchema("B", "C"), [][]string{{"m", "x"}, {"m", "y"}}, []int64{3, 3})
	strict, err := PairConsistent(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if strict {
		t.Fatal("scaled marginals must not be strictly consistent")
	}
	relaxed, err := RelaxedPairConsistent(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !relaxed {
		t.Fatal("proportional marginals must be relaxed-consistent")
	}
}

func TestStrictImpliesRelaxedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 30; trial++ {
		r, s, _ := randomConsistentPair(t, rng)
		strict, err := PairConsistent(r, s)
		if err != nil {
			t.Fatal(err)
		}
		relaxed, err := RelaxedPairConsistent(r, s)
		if err != nil {
			t.Fatal(err)
		}
		if strict && !relaxed {
			t.Fatal("strict consistency must imply relaxed consistency")
		}
	}
}

func TestRelaxedPairEmptyCases(t *testing.T) {
	r := bag.New(bag.MustSchema("A", "B"))
	s := bag.New(bag.MustSchema("B", "C"))
	ok, err := RelaxedPairConsistent(r, s)
	if err != nil || !ok {
		t.Errorf("two empty bags should be relaxed-consistent (ok=%v err=%v)", ok, err)
	}
	if err := s.Add([]string{"m", "x"}, 1); err != nil {
		t.Fatal(err)
	}
	ok, err = RelaxedPairConsistent(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("empty vs non-empty must fail")
	}
}

func TestRelaxedGlobalConsistencyOnScaledMarginals(t *testing.T) {
	// Scale each marginal of a global bag by a different factor: strictly
	// inconsistent (totals differ) but relaxed-globally consistent (the
	// normalized global bag is a witness distribution).
	rng := rand.New(rand.NewSource(303))
	h := hypergraph.Path(3)
	g := randomGlobalBag(t, rng, h, 5, 4)
	c := mustMarginalCollection(t, h, g)
	scaled := make([]*bag.Bag, c.Len())
	for i := 0; i < c.Len(); i++ {
		nb := bag.New(c.Bag(i).Schema())
		factor := int64(i + 2)
		err := c.Bag(i).Each(func(tp bag.Tuple, count int64) error {
			return nb.AddTuple(tp, count*factor)
		})
		if err != nil {
			t.Fatal(err)
		}
		scaled[i] = nb
	}
	sc, err := NewCollection(h, scaled)
	if err != nil {
		t.Fatal(err)
	}
	strictDec, err := sc.GloballyConsistent(GlobalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strictDec.Consistent {
		t.Fatal("differently scaled marginals must not be strictly consistent")
	}
	relaxed, err := sc.RelaxedGloballyConsistent()
	if err != nil {
		t.Fatal(err)
	}
	if !relaxed {
		t.Fatal("scaled marginals must be relaxed-globally consistent")
	}
}

func TestRelaxedGlobalRejectsTseitin(t *testing.T) {
	// The Tseitin counterexample is relaxed-PAIRWISE consistent but not
	// relaxed-globally consistent — the [AK20] local-to-global equivalence
	// also fails on cyclic schemas, with the same witness family.
	c, err := TseitinCollection(hypergraph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	pw, err := c.RelaxedPairwiseConsistent()
	if err != nil {
		t.Fatal(err)
	}
	if !pw {
		t.Fatal("Tseitin collection must be relaxed-pairwise consistent")
	}
	glob, err := c.RelaxedGloballyConsistent()
	if err != nil {
		t.Fatal(err)
	}
	if glob {
		t.Fatal("Tseitin collection must not be relaxed-globally consistent")
	}
}

func TestRelaxedGlobalAcceptsStrictWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	h := hypergraph.Triangle()
	g := randomGlobalBag(t, rng, h, 5, 3)
	c := mustMarginalCollection(t, h, g)
	relaxed, err := c.RelaxedGloballyConsistent()
	if err != nil {
		t.Fatal(err)
	}
	if !relaxed {
		t.Fatal("strictly consistent collections are relaxed-consistent")
	}
}

func TestRelaxedGlobalEmptyCases(t *testing.T) {
	h := hypergraph.Path(3)
	empty, err := NewCollection(h, []*bag.Bag{
		bag.New(bag.MustSchema(h.Edge(0)...)),
		bag.New(bag.MustSchema(h.Edge(1)...)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := empty.RelaxedGloballyConsistent()
	if err != nil || !ok {
		t.Errorf("all-empty collection should be relaxed-consistent (ok=%v err=%v)", ok, err)
	}
	mixed := bag.New(bag.MustSchema(h.Edge(0)...))
	if err := mixed.Add([]string{"1", "1"}, 1); err != nil {
		t.Fatal(err)
	}
	mc, err := NewCollection(h, []*bag.Bag{mixed, bag.New(bag.MustSchema(h.Edge(1)...))})
	if err != nil {
		t.Fatal(err)
	}
	ok, err = mc.RelaxedGloballyConsistent()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("empty and non-empty bags cannot be relaxed-consistent")
	}
	if _, err := (&Collection{}).RelaxedGloballyConsistent(); err == nil {
		t.Error("expected empty-collection error")
	}
}

func TestCollectionWitnessEnumeration(t *testing.T) {
	// A 2-bag collection's witnesses are the pair's (Section 3 base
	// case: exactly 2 witnesses), and each verifies.
	r, s := section3Pair(t)
	c, err := NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.CountWitnesses(ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
	checked := 0
	err = c.EnumerateWitnesses(ilp.Options{}, func(w *bag.Bag) error {
		ok, err := c.VerifyWitness(w)
		if err != nil {
			return err
		}
		if !ok {
			t.Error("enumerated bag is not a witness")
		}
		checked++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked != 2 {
		t.Errorf("enumerated %d witnesses", checked)
	}
}

func TestCollectionWitnessCountZeroOnInconsistent(t *testing.T) {
	c, err := TseitinCollection(hypergraph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.CountWitnesses(ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("Tseitin collection has %d witnesses, want 0", n)
	}
}

func TestCollectionWitnessCountOnTriangleMarginals(t *testing.T) {
	// Cross-check: the number of witnesses of a 3-bag collection equals
	// the number of integer points of its program; each enumerated witness
	// verifies.
	rng := rand.New(rand.NewSource(311))
	h := hypergraph.Triangle()
	g := randomGlobalBag(t, rng, h, 3, 2)
	c := mustMarginalCollection(t, h, g)
	n, err := c.CountWitnesses(ilp.Options{MaxNodes: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("consistent collection reports %d witnesses", n)
	}
	seen := int64(0)
	err = c.EnumerateWitnesses(ilp.Options{MaxNodes: 5_000_000}, func(w *bag.Bag) error {
		ok, err := c.VerifyWitness(w)
		if err != nil {
			return err
		}
		if !ok {
			t.Fatal("enumerated non-witness")
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("enumerated %d, counted %d", seen, n)
	}
}
