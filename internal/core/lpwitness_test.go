package core

import (
	"math/big"
	"math/rand"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/ilp"
)

func TestMinCostPairWitnessIsOptimal(t *testing.T) {
	// Cross-check LP optimality against exhaustive witness enumeration on
	// the Section 3 pair: the two witnesses are T1 (cost by C=2 tuples) and
	// T2; a cost function separating them must pick the cheaper.
	r, s := section3Pair(t)
	cost := func(tp bag.Tuple) int64 {
		// Charge 10 per tuple with C = "2", 1 otherwise.
		if v, _ := tp.Value("C"); v == "2" {
			return 10
		}
		return 1
	}
	w, ok, err := MinCostPairWitness(r, s, cost)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// Verify witness validity.
	wr, _ := w.Marginal(r.Schema())
	ws, _ := w.Marginal(s.Schema())
	if !wr.Equal(r) || !ws.Equal(s) {
		t.Fatal("min-cost bag is not a witness")
	}
	got, err := WitnessCost(w, cost)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive minimum.
	best := new(big.Int)
	first := true
	err = pairCollection(t, r, s).EnumerateWitnesses(ilp.Options{}, func(other *bag.Bag) error {
		c, err := WitnessCost(other, cost)
		if err != nil {
			return err
		}
		if first || c.Cmp(best) < 0 {
			best.Set(c)
			first = false
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(best) != 0 {
		t.Fatalf("LP witness cost %v, exhaustive minimum %v", got, best)
	}
}

func TestMinCostPairWitnessRandomOptimalityProperty(t *testing.T) {
	// On random small consistent pairs with random costs, the LP optimum
	// must match the exhaustive minimum over all integer witnesses.
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 15; trial++ {
		r, s, _ := randomConsistentPair(t, rng)
		if r.SupportSize() > 6 || s.SupportSize() > 6 {
			continue // keep enumeration cheap
		}
		costs := make(map[string]int64)
		cost := func(tp bag.Tuple) int64 {
			key := tp.Key()
			if v, ok := costs[key]; ok {
				return v
			}
			v := int64(rng.Intn(5))
			costs[key] = v
			return v
		}
		w, ok, err := MinCostPairWitness(r, s, cost)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("consistent pair rejected")
		}
		got, err := WitnessCost(w, cost)
		if err != nil {
			t.Fatal(err)
		}
		best := new(big.Int)
		first := true
		err = pairCollection(t, r, s).EnumerateWitnesses(ilp.Options{MaxNodes: 5_000_000}, func(other *bag.Bag) error {
			c, err := WitnessCost(other, cost)
			if err != nil {
				return err
			}
			if first || c.Cmp(best) < 0 {
				best.Set(c)
				first = false
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(best) != 0 {
			t.Fatalf("trial %d: LP cost %v, exhaustive minimum %v", trial, got, best)
		}
	}
}

func TestMinCostPairWitnessInconsistent(t *testing.T) {
	r := mustBag(t, bag.MustSchema("A", "B"), [][]string{{"1", "2"}}, []int64{3})
	s := mustBag(t, bag.MustSchema("B", "C"), [][]string{{"2", "9"}}, []int64{2})
	_, ok, err := MinCostPairWitness(r, s, func(bag.Tuple) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("inconsistent bags must be rejected")
	}
}

func TestMinCostPairWitnessValidation(t *testing.T) {
	r, s := section3Pair(t)
	if _, _, err := MinCostPairWitness(r, s, nil); err == nil {
		t.Error("expected nil-cost error")
	}
	if _, _, err := MinCostPairWitness(r, s, func(bag.Tuple) int64 { return -1 }); err == nil {
		t.Error("expected negative-cost error")
	}
}

func TestMinCostPairWitnessEmptyBags(t *testing.T) {
	r := bag.New(bag.MustSchema("A"))
	s := bag.New(bag.MustSchema("B"))
	w, ok, err := MinCostPairWitness(r, s, func(bag.Tuple) int64 { return 1 })
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if w.Len() != 0 {
		t.Error("witness of empty bags should be empty")
	}
}

func TestWitnessCostRejectsNegative(t *testing.T) {
	w := mustBag(t, bag.MustSchema("A"), [][]string{{"1"}}, []int64{2})
	if _, err := WitnessCost(w, func(bag.Tuple) int64 { return -1 }); err == nil {
		t.Error("expected negative-cost error")
	}
}
